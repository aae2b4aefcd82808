//! Sliding-window statistics: moving average, short-time variance and
//! root-mean-square.
//!
//! The paper's preprocessing (Sec. V) computes a short-time variance over a
//! 10-sample window to turn luminance steps into peaks, merges neighbouring
//! sub-peaks with a 30-sample RMS window, and finishes with a 10-sample
//! moving average. All three operators here produce same-length outputs
//! using a centered window that is clipped at the signal boundaries.

use crate::{stats, DspError, Result, Signal};

fn window_bounds(i: usize, len: usize, window: usize) -> (usize, usize) {
    let half_left = (window - 1) / 2;
    let half_right = window / 2;
    let start = i.saturating_sub(half_left);
    let end = (i + half_right + 1).min(len);
    (start, end)
}

/// Applies a windowed statistic at every sample: `clipped` on each window
/// (clipped at the boundaries or not), except that full interior windows
/// go four at a time through `full4`, which gets the `window + 3` samples
/// the four consecutive windows cover.
///
/// The interior windows are independent, so `full4` can keep four
/// accumulators in flight instead of waiting on one long add chain. Each
/// window is still summed on its own, in sample order (no running sums),
/// so `full4` returns bit for bit what `clipped` would.
fn sliding(
    x: &[f64],
    window: usize,
    clipped: impl Fn(&[f64]) -> f64,
    full4: impl Fn(&[f64]) -> [f64; 4],
) -> Vec<f64> {
    let len = x.len();
    let half_left = (window - 1) / 2;
    let interior = half_left..len - window + 1 + half_left;
    let mut out = vec![0.0; len];
    for i in (0..interior.start).chain(interior.end..len) {
        let (s, e) = window_bounds(i, len, window);
        out[i] = clipped(&x[s..e]);
    }
    let mut blocks = out[interior].chunks_exact_mut(4);
    // Start of the current block's first window.
    let mut start = 0;
    for block in &mut blocks {
        block.copy_from_slice(&full4(&x[start..start + window + 3]));
        start += 4;
    }
    for (r, o) in blocks.into_remainder().iter_mut().enumerate() {
        *o = clipped(&x[start + r..start + r + window]);
    }
    out
}

/// The four window sums of `term(r, v)` over the windows `span[r..r + w]`,
/// `w = span.len() - 3`. Each sum folds from `-0.0` in sample order,
/// exactly as `Iterator::sum` for `f64` does in [`stats`].
fn sums4(span: &[f64], term: impl Fn(usize, f64) -> f64) -> [f64; 4] {
    let mut acc = [-0.0; 4];
    for win in span.windows(4) {
        for (r, (a, &v)) in acc.iter_mut().zip(win).enumerate() {
            *a += term(r, v);
        }
    }
    acc
}

fn validate(signal: &Signal, window: usize) -> Result<()> {
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    if window == 0 {
        return Err(DspError::invalid_parameter("window", "must be non-zero"));
    }
    if window > signal.len() {
        return Err(DspError::WindowTooLarge {
            window,
            len: signal.len(),
        });
    }
    Ok(())
}

/// Centered moving average with a `window`-sample window.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] for empty input,
/// [`DspError::InvalidParameter`] for a zero window and
/// [`DspError::WindowTooLarge`] when the window exceeds the signal length.
///
/// # Example
///
/// ```
/// use lumen_dsp::{Signal, filters::moving::moving_average};
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let s = Signal::new(vec![0.0, 0.0, 9.0, 0.0, 0.0], 1.0)?;
/// let avg = moving_average(&s, 3)?;
/// assert_eq!(avg.samples()[2], 3.0);
/// # Ok(())
/// # }
/// ```
pub fn moving_average(signal: &Signal, window: usize) -> Result<Signal> {
    validate(signal, window)?;
    let w = window as f64;
    let out = sliding(signal.samples(), window, stats::mean, |span| {
        sums4(span, |_, v| v).map(|sum| sum / w)
    });
    Signal::new(out, signal.sample_rate())
}

/// Centered short-time (population) variance with a `window`-sample window.
///
/// A rapid luminance rise or fall inside the window produces a local maximum
/// in the output — the property the paper uses to locate significant
/// luminance changes.
///
/// # Errors
///
/// Same conditions as [`moving_average`].
pub fn moving_variance(signal: &Signal, window: usize) -> Result<Signal> {
    validate(signal, window)?;
    let w = window as f64;
    let out = sliding(
        signal.samples(),
        window,
        stats::variance_population,
        |span| {
            if window < 2 {
                return [0.0; 4];
            }
            let mean = sums4(span, |_, v| v).map(|sum| sum / w);
            sums4(span, |r, v| (v - mean[r]) * (v - mean[r])).map(|sum| sum / w)
        },
    );
    Signal::new(out, signal.sample_rate())
}

/// Centered root-mean-square with a `window`-sample window.
///
/// Applied to the thresholded variance signal it groups neighbouring lower
/// peaks into one significant luminance change (Sec. V).
///
/// # Errors
///
/// Same conditions as [`moving_average`].
pub fn moving_rms(signal: &Signal, window: usize) -> Result<Signal> {
    validate(signal, window)?;
    let w = window as f64;
    let out = sliding(signal.samples(), window, stats::rms, |span| {
        sums4(span, |_, v| v * v).map(|sum| (sum / w).sqrt())
    });
    Signal::new(out, signal.sample_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::magnitude;
    use proptest::prelude::*;

    /// The three operators as they were before the interior was split off,
    /// kept verbatim as differential oracles.
    fn oracle(signal: &Signal, window: usize, stat: Stat) -> Result<Signal> {
        validate(signal, window)?;
        let x = signal.samples();
        let out: Vec<f64> = (0..x.len())
            .map(|i| {
                let (s, e) = window_bounds(i, x.len(), window);
                stat(&x[s..e])
            })
            .collect();
        Signal::new(out, signal.sample_rate())
    }

    type Op = fn(&Signal, usize) -> Result<Signal>;
    type Stat = fn(&[f64]) -> f64;

    const OPS: [(Op, Stat); 3] = [
        (moving_average, stats::mean),
        (moving_variance, stats::variance_population),
        (moving_rms, stats::rms),
    ];

    fn bits(s: &Signal) -> Vec<u64> {
        s.samples().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn windows_match_the_oracle_bit_for_bit(
            x in prop::collection::vec(magnitude(), 1..=200),
            pick in 0usize..usize::MAX,
        ) {
            let window = 1 + pick % x.len();
            let s = sig(x);
            for (op, stat) in OPS {
                let fast = op(&s, window).unwrap();
                let slow = oracle(&s, window, stat).unwrap();
                prop_assert_eq!(bits(&fast), bits(&slow));
            }
        }
    }

    #[test]
    fn windows_match_the_oracle_for_every_window() {
        let x: Vec<f64> = (0..41)
            .map(|i| ((i * 29 % 13) as f64 - 6.0) * 3.1)
            .collect();
        for len in 1..=x.len() {
            let s = sig(x[..len].to_vec());
            for window in 1..=len {
                for (op, stat) in OPS {
                    let fast = op(&s, window).unwrap();
                    let slow = oracle(&s, window, stat).unwrap();
                    assert_eq!(bits(&fast), bits(&slow), "len {len} window {window}");
                }
            }
        }
    }

    #[test]
    fn signed_zeros_keep_their_sign() {
        // Window sums fold from -0.0, as `Iterator::sum` does, so a window
        // of negative zeros averages to -0.0 on both paths.
        let s = sig(vec![
            -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0, -0.0, 0.0, -0.0,
        ]);
        for window in 1..=s.len() {
            for (op, stat) in OPS {
                let fast = op(&s, window).unwrap();
                let slow = oracle(&s, window, stat).unwrap();
                assert_eq!(bits(&fast), bits(&slow), "window {window}");
            }
        }
    }

    fn sig(v: Vec<f64>) -> Signal {
        Signal::new(v, 10.0).unwrap()
    }

    #[test]
    fn bounds_cover_window() {
        assert_eq!(window_bounds(0, 10, 3), (0, 2));
        assert_eq!(window_bounds(5, 10, 3), (4, 7));
        assert_eq!(window_bounds(9, 10, 3), (8, 10));
        // Even window leans right.
        assert_eq!(window_bounds(5, 10, 4), (4, 8));
    }

    #[test]
    fn average_of_constant_is_constant() {
        let s = sig(vec![7.0; 20]);
        let out = moving_average(&s, 5).unwrap();
        assert!(out.samples().iter().all(|&v| (v - 7.0).abs() < 1e-12));
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let s = sig(vec![7.0; 20]);
        let out = moving_variance(&s, 5).unwrap();
        assert!(out.samples().iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn variance_peaks_at_step() {
        let mut v = vec![0.0; 30];
        for x in v.iter_mut().skip(15) {
            *x = 10.0;
        }
        let out = moving_variance(&sig(v), 10).unwrap();
        let (argmax, _) =
            out.samples()
                .iter()
                .enumerate()
                .fold(
                    (0, f64::MIN),
                    |(ai, am), (i, &x)| {
                        if x > am {
                            (i, x)
                        } else {
                            (ai, am)
                        }
                    },
                );
        assert!((14..=16).contains(&argmax), "variance peak at {argmax}");
        // Peak value for a balanced window: half zeros, half tens -> var 25.
        assert!((out.samples()[argmax] - 25.0).abs() < 1.0);
    }

    #[test]
    fn rms_of_impulse_spreads() {
        let mut v = vec![0.0; 21];
        v[10] = 9.0;
        let out = moving_rms(&sig(v), 3).unwrap();
        assert!(out.samples()[9] > 0.0);
        assert!(out.samples()[10] >= out.samples()[9]);
        assert_eq!(out.samples()[8], 0.0);
        assert_eq!(out.samples()[0], 0.0);
    }

    #[test]
    fn rejects_bad_windows() {
        let s = sig(vec![1.0; 5]);
        assert!(moving_average(&s, 0).is_err());
        assert!(matches!(
            moving_average(&s, 6),
            Err(DspError::WindowTooLarge { window: 6, len: 5 })
        ));
        let empty = Signal::new(vec![], 10.0).unwrap();
        assert!(moving_average(&empty, 1).is_err());
    }

    #[test]
    fn outputs_preserve_length_and_rate() {
        let s = sig((0..50).map(|i| i as f64).collect());
        for f in [moving_average, moving_variance, moving_rms] {
            let out = f(&s, 7).unwrap();
            assert_eq!(out.len(), 50);
            assert_eq!(out.sample_rate(), 10.0);
        }
    }
}
