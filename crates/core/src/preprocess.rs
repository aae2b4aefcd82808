//! The preprocessing chain of Sec. V.
//!
//! Raw luminance traces carry broadband noise (object movement, external
//! light, localization jitter). The chain turns each trace into a smoothed
//! variance signal whose peaks mark *significant luminance changes*:
//!
//! 1. low-pass at 1 Hz (Fig. 6: signal lives below 1 Hz);
//! 2. 10-sample short-time variance (steps become peaks);
//! 3. threshold filter at 2 (delete small noise spikes);
//! 4. 30-sample RMS window (merge split peaks);
//! 5. Savitzky–Golay, window 31 (polynomial smoothing);
//! 6. 10-sample moving average;
//! 7. peak finding with per-signal minimum prominence (10 screen / 0.5
//!    face).
//!
//! Window lengths are specified in samples, exactly as the paper gives
//! them; when a clip is shorter than a window (e.g. 15 s at 5 Hz), windows
//! shrink to the clip length — degrading resolution precisely the way the
//! Fig. 16 sampling-rate study observes.

use crate::{Config, Result};
use lumen_dsp::filters::{fir, moving, savgol, threshold};
use lumen_dsp::peaks::{find_peaks, Peak, PeakConfig};
use lumen_dsp::Signal;

/// Every intermediate stage of the chain, retained for the Fig. 7
/// visualizations and for tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Preprocessed {
    /// Low-passed luminance (stage 1).
    pub filtered: Signal,
    /// Short-time variance (stage 2).
    pub variance: Signal,
    /// Thresholded variance (stage 3).
    pub thresholded: Signal,
    /// Fully smoothed variance signal (stages 4–6) — the "luminance change
    /// trend" of Sec. VI.
    pub smoothed: Signal,
    /// Detected significant luminance changes (stage 7).
    pub peaks: Vec<Peak>,
}

impl Preprocessed {
    /// Times (seconds) of the significant luminance changes — the
    /// "luminance change behavior" vector of Sec. VI.
    pub fn change_times(&self) -> Vec<f64> {
        self.peaks
            .iter()
            .map(|p| self.smoothed.time_at(p.index))
            .collect()
    }
}

/// Runs stages 1–6 (the smoothing chain) on one luminance trace, leaving
/// `peaks` empty; [`detect_changes`] runs stage 7 separately so the two
/// phases can be timed as distinct pipeline stages.
///
/// # Errors
///
/// Propagates DSP errors — in practice only for an empty input signal.
pub fn smooth(signal: &Signal, config: &Config) -> Result<Preprocessed> {
    let clip = |w: usize| w.clamp(1, signal.len());
    let filtered = fir::lowpass(signal, config.lowpass_cutoff)?;
    let variance = moving::moving_variance(&filtered, clip(config.variance_window))?;
    let thresholded = threshold::threshold_filter(&variance, config.variance_threshold)?;
    let rms = moving::moving_rms(&thresholded, clip(config.rms_window))?;
    let sg = savgol::savgol_smooth(&rms, config.savgol_window, config.savgol_polyorder)?;
    let averaged = moving::moving_average(&sg, clip(config.avg_window))?;
    // The trend signal is a smoothed variance: physically non-negative.
    // Savitzky-Golay ringing can undershoot; clamp it away so peak
    // prominences are measured against a zero floor.
    let smoothed = averaged.try_map(|v| v.max(0.0))?;
    Ok(Preprocessed {
        filtered,
        variance,
        thresholded,
        smoothed,
        peaks: Vec::new(),
    })
}

/// Stage 7: finds the significant luminance changes on an already-smoothed
/// trace.
pub fn detect_changes(pre: &Preprocessed, min_prominence: f64) -> Vec<Peak> {
    find_peaks(
        pre.smoothed.samples(),
        &PeakConfig::new().min_prominence(min_prominence),
    )
}

/// Runs the full chain on one luminance trace with the given peak
/// prominence (10 for the transmitted signal, 0.5 for the received one).
///
/// # Errors
///
/// Propagates DSP errors — in practice only for an empty input signal.
pub fn preprocess(signal: &Signal, min_prominence: f64, config: &Config) -> Result<Preprocessed> {
    let mut pre = smooth(signal, config)?;
    pre.peaks = detect_changes(&pre, min_prominence);
    Ok(pre)
}

/// Preprocesses the transmitted-video luminance (prominence
/// [`Config::tx_prominence`]).
///
/// # Errors
///
/// Same conditions as [`preprocess`].
pub fn preprocess_tx(signal: &Signal, config: &Config) -> Result<Preprocessed> {
    preprocess(signal, config.tx_prominence, config)
}

/// Preprocesses the received-video ROI luminance (prominence
/// [`Config::rx_prominence`]).
///
/// # Errors
///
/// Same conditions as [`preprocess`].
pub fn preprocess_rx(signal: &Signal, config: &Config) -> Result<Preprocessed> {
    preprocess(signal, config.rx_prominence, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_video::content::MeteringScript;
    use lumen_video::noise::seeded_rng;
    use lumen_video::profile::UserProfile;
    use lumen_video::synth::{ReflectionSynth, SynthConfig};

    fn config() -> Config {
        Config::default()
    }

    #[test]
    fn flat_signal_yields_no_changes() {
        let s = MeteringScript::constant(120.0, 15.0)
            .unwrap()
            .sample_signal(10.0)
            .unwrap();
        let out = preprocess_tx(&s, &config()).unwrap();
        assert!(out.peaks.is_empty());
        assert!(out.smoothed.samples().iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn scripted_changes_are_recovered_from_tx() {
        for seed in 0..10 {
            let script = MeteringScript::random_with_seed(seed, 15.0).unwrap();
            let s = script.sample_signal(10.0).unwrap();
            let out = preprocess_tx(&s, &config()).unwrap();
            let truth = script.change_times();
            let found = out.change_times();
            // Every scripted change has a detected peak within 1 s, except
            // possibly a change close to the clip end, which the 3 s
            // smoothing windows cannot always resolve against the boundary.
            for t in &truth {
                if *t > s.duration() - 2.5 {
                    continue;
                }
                assert!(
                    found.iter().any(|f| (f - t).abs() <= 1.0),
                    "seed {seed}: change at {t} missed; found {found:?}"
                );
            }
            // And no more peaks than changes (+1 slack for edge effects).
            assert!(
                found.len() <= truth.len() + 1,
                "seed {seed}: spurious peaks {found:?} vs {truth:?}"
            );
        }
    }

    #[test]
    fn noisy_tx_still_recovers_changes() {
        let mut rng = seeded_rng(3);
        let script = MeteringScript::random_with_seed(3, 15.0).unwrap();
        let clean = script.sample_signal(10.0).unwrap();
        let noisy = lumen_video::content::add_scene_noise(&clean, 2.0, &mut rng);
        let out = preprocess_tx(&noisy, &config()).unwrap();
        let truth = script.change_times();
        for t in &truth {
            assert!(
                out.change_times().iter().any(|f| (f - t).abs() <= 1.0),
                "change at {t} missed in noise"
            );
        }
    }

    #[test]
    fn face_reflection_changes_are_recovered() {
        let mut missed = 0usize;
        let mut total = 0usize;
        for seed in 0..10 {
            let script = MeteringScript::random_with_seed(100 + seed, 15.0).unwrap();
            let tx = script.sample_signal(10.0).unwrap();
            let rx = ReflectionSynth::new(SynthConfig::default())
                .synthesize(&tx, &UserProfile::preset((seed % 10) as usize), seed)
                .unwrap();
            let out = preprocess_rx(&rx, &config()).unwrap();
            let found = out.change_times();
            for t in script.change_times() {
                total += 1;
                if !found.iter().any(|f| (f - t).abs() <= 1.2) {
                    missed += 1;
                }
            }
        }
        let miss_rate = missed as f64 / total as f64;
        assert!(miss_rate < 0.2, "missed {missed}/{total} reflected changes");
    }

    #[test]
    fn stages_have_consistent_lengths() {
        let s = MeteringScript::random_with_seed(5, 15.0)
            .unwrap()
            .sample_signal(10.0)
            .unwrap();
        let out = preprocess_tx(&s, &config()).unwrap();
        assert_eq!(out.filtered.len(), 150);
        assert_eq!(out.variance.len(), 150);
        assert_eq!(out.thresholded.len(), 150);
        assert_eq!(out.smoothed.len(), 150);
    }

    #[test]
    fn short_clip_at_5hz_does_not_panic() {
        let s = MeteringScript::random_with_seed(6, 15.0)
            .unwrap()
            .sample_signal(5.0)
            .unwrap();
        assert_eq!(s.len(), 75);
        let out = preprocess_tx(&s, &config().with_sample_rate(5.0)).unwrap();
        assert_eq!(out.smoothed.len(), 75);
    }

    #[test]
    fn smoothed_signal_is_non_negative() {
        let s = MeteringScript::random_with_seed(7, 15.0)
            .unwrap()
            .sample_signal(10.0)
            .unwrap();
        let out = preprocess_tx(&s, &config()).unwrap();
        // The chain clamps Savitzky-Golay undershoot away.
        assert!(out.smoothed.samples().iter().all(|&v| v >= 0.0));
    }
}
