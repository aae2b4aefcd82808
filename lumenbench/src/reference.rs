//! The offline reference every served verdict is checked against.
//!
//! Each pool clip is judged once by a fresh offline `StreamingDetector`
//! fed the clip's samples, and cross-checked against batch
//! `Detector::detect` on the same clip. A session's fused status is then
//! replayed through a reference `StreamingDetector`'s own vote fusion, in
//! the order the session's verdicts and probe votes arrived. A served
//! verdict whose disposition, score or fused status differs from the
//! reference is a mismatch; the run is wrong, not slow.

use crate::inputs::{Model, PoolClip};
use lumen_chat::trace::{ScenarioKind, TracePair};
use lumen_core::detector::ClipOutcome;
use lumen_core::quality::GateDecision;
use lumen_core::stream::{SessionStatus, StreamingDetector};
use lumen_daemon::WireVerdict;
use lumen_dsp::Signal;

/// One thing a session observed, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observed {
    /// A served verdict for the clip drawn from pool entry `pool`.
    Verdict {
        /// Pool index of the clip the generator sent.
        pool: usize,
        /// What the system answered.
        verdict: WireVerdict,
    },
    /// A shed clip (a failure, not a mismatch); its `Withheld` verdict
    /// leaves the vote history alone.
    Shed,
    /// A conclusive probe vote fused into the session's history.
    ProbeVote(bool),
}

/// Reference outcomes for a pool, plus the fusion replayer.
pub struct Reference {
    outcomes: Vec<ClipOutcome>,
    replay: StreamingDetector,
}

impl Reference {
    /// Judges every pool clip offline and cross-checks the conclusive
    /// ones against batch detection.
    ///
    /// # Errors
    ///
    /// Fails when a clip cannot be judged, or when the streaming and batch
    /// paths disagree on a clip (the reference itself would be unsound).
    pub fn build(model: &Model, pool: &[PoolClip], clip_samples: usize) -> Result<Self, String> {
        let mut outcomes = Vec::with_capacity(pool.len());
        for (i, clip) in pool.iter().enumerate() {
            let mut stream = model.stream()?;
            let mut verdict = None;
            for s in 0..clip_samples {
                let (tx, rx) = clip.sample(s);
                verdict = stream
                    .push(tx, rx)
                    .map_err(|e| format!("reference clip {i}: {e}"))?;
            }
            let outcome = verdict
                .ok_or_else(|| format!("reference clip {i} did not close"))?
                .outcome;
            if let ClipOutcome::Conclusive(d) = &outcome {
                let batch = batch_detect(model, clip, clip_samples)
                    .map_err(|e| format!("batch reference clip {i}: {e}"))?;
                if batch.score.to_bits() != d.score.to_bits() || batch.accepted != d.accepted {
                    return Err(format!(
                        "reference clip {i}: streaming score {} != batch score {}",
                        d.score, batch.score
                    ));
                }
            }
            outcomes.push(outcome);
        }
        Ok(Reference {
            outcomes,
            replay: model.stream()?,
        })
    }

    /// Replays one session's observations and counts mismatches: a
    /// verdict whose clip index is out of sequence, or whose disposition,
    /// score or fused status differs from the reference.
    pub fn check_session(&mut self, observed: &[Observed]) -> u64 {
        self.replay.reset();
        let mut status = SessionStatus::Gathering;
        let mut next_clip = 0u64;
        let mut mismatches = 0u64;
        for event in observed {
            match *event {
                Observed::ProbeVote(accepted) => {
                    status = self.replay.record_probe_vote(accepted);
                }
                Observed::Shed => next_clip += 1,
                Observed::Verdict { pool, verdict } => {
                    let (disposition, score) = match self.outcomes[pool] {
                        ClipOutcome::Conclusive(d) => {
                            status = self.replay.record_probe_vote(d.accepted);
                            (u8::from(!d.accepted), d.score)
                        }
                        ClipOutcome::Inconclusive(_) => (2, 0.0),
                    };
                    let ok = verdict.clip_index == next_clip
                        && verdict.disposition == disposition
                        && verdict.score.to_bits() == score.to_bits()
                        && verdict.status == status_code(status);
                    if !ok {
                        mismatches += 1;
                    }
                    next_clip += 1;
                }
            }
        }
        mismatches
    }
}

/// The wire code of a fused status (as `lumend` encodes it).
fn status_code(status: SessionStatus) -> u8 {
    match status {
        SessionStatus::Gathering => 0,
        SessionStatus::Trusted => 1,
        SessionStatus::Alert => 2,
    }
}

/// Batch detection of one clip, on the samples the quality gate passes.
fn batch_detect(
    model: &Model,
    clip: &PoolClip,
    clip_samples: usize,
) -> Result<lumen_core::detector::Detection, String> {
    let rate = model.detector.config().sample_rate;
    let screened = |samples: &[f64]| match model.gate.screen(samples, rate).decision {
        GateDecision::Pass { samples, .. } => Ok(samples),
        GateDecision::Inconclusive(reason) => Err(format!("gate: {reason}")),
    };
    let tx = screened(&clip.pair.tx.samples()[..clip_samples])?;
    let rx = screened(&clip.pair.rx.samples()[..clip_samples])?;
    let pair = TracePair {
        tx: Signal::new(tx, rate).map_err(|e| e.to_string())?,
        rx: Signal::new(rx, rate).map_err(|e| e.to_string())?,
        kind: ScenarioKind::Legitimate { user: 0 },
        seed: 0,
        forward_delay: 0.0,
        backward_delay: 0.0,
    };
    model.detector.detect(&pair).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{pool, Mix};
    use lumen_daemon::daemon::wire_verdict;

    /// Feeds `clips` pool clips through one real streaming detector and
    /// returns what it answered, as the system would.
    fn served(model: &Model, pool: &[PoolClip], clips: &[usize], n: usize) -> Vec<Observed> {
        let mut stream = model.stream().expect("stream");
        let mut out = Vec::new();
        for &p in clips {
            for s in 0..n {
                let (tx, rx) = pool[p].sample(s);
                if let Some(v) = stream.push(tx, rx).expect("push") {
                    out.push(Observed::Verdict {
                        pool: p,
                        verdict: wire_verdict(&v),
                    });
                }
            }
        }
        out
    }

    fn fixture() -> (Model, Vec<PoolClip>, usize) {
        let model = Model::train(7).expect("train");
        let n = model.clip_samples().expect("clip samples");
        let pool = pool(7, 8, Mix([2, 1, 1, 0]), n).expect("pool");
        (model, pool, n)
    }

    #[test]
    fn honest_session_matches_reference() {
        let (model, pool, n) = fixture();
        let mut reference = Reference::build(&model, &pool, n).expect("reference");
        let observed = served(&model, &pool, &[0, 1, 2, 3, 4, 5], n);
        assert_eq!(observed.len(), 6);
        assert_eq!(reference.check_session(&observed), 0);
    }

    #[test]
    fn doctored_verdict_trips_the_check() {
        let (model, pool, n) = fixture();
        let mut reference = Reference::build(&model, &pool, n).expect("reference");
        let honest = served(&model, &pool, &[0, 1, 2, 3], n);
        for field in 0..3 {
            let mut doctored = honest.clone();
            if let Observed::Verdict { verdict, .. } = &mut doctored[2] {
                match field {
                    0 => verdict.score += 1e-9,
                    1 => verdict.disposition ^= 1,
                    _ => verdict.status = (verdict.status + 1) % 3,
                }
            }
            assert_eq!(reference.check_session(&doctored), 1, "field {field}");
        }
        // A verdict attributed to the wrong clip is caught too.
        let mut swapped = honest;
        if let Observed::Verdict { pool, .. } = &mut swapped[0] {
            *pool = 1;
        }
        assert!(reference.check_session(&swapped) >= 1);
    }
}
