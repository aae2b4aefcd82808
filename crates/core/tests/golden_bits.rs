//! Golden feature bits: the whole `Detector` composition (preprocessing
//! chain, feature extraction, LOF scoring, quality gate) must reproduce the
//! recorded `to_bits()` of every feature and score, exactly.
//!
//! The fixture `tests/fixtures/golden_feature_bits.txt` pins 240 seeded
//! `ScenarioBuilder` pairs (legitimate, reenactment and burst-loss
//! legitimate sessions) against a detector trained on a fixed legitimate
//! set. A kernel rewrite that claims to be bit-identical must leave every
//! line unchanged. A change that moves bits on purpose (e.g. DTW banding)
//! must report its accuracy delta and then regenerate the fixture with
//!
//! ```text
//! cargo test -p lumen-core --release --test golden_bits -- --ignored bless
//! ```

use lumen_chat::fault::{BurstLoss, FaultPlan};
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::{ClipOutcome, Detection, Detector};
use lumen_core::quality::QualityGate;
use lumen_core::Config;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_feature_bits.txt"
);

/// Pairs per scenario kind.
const PER_KIND: u64 = 80;

fn detector() -> Detector {
    let b = ScenarioBuilder::default();
    let train: Vec<TracePair> = (0..24)
        .map(|i| b.legitimate((i % 10) as usize, 81_000 + i).unwrap())
        .collect();
    Detector::train_from_traces(&train, Config::default()).unwrap()
}

fn detection_line(tag: &str, seed: u64, d: &Detection) -> String {
    let f = d.features;
    format!(
        "{tag} {seed} {:016x} {:016x} {:016x} {:016x} {:016x} {}",
        f.z1.to_bits(),
        f.z2.to_bits(),
        f.z3.to_bits(),
        f.z4.to_bits(),
        d.score.to_bits(),
        d.accepted
    )
}

/// One line per pair, in a fixed order.
fn golden_lines() -> Vec<String> {
    let det = detector();
    let clean = ScenarioBuilder::default();
    let burst = ScenarioBuilder::default().with_faults(FaultPlan {
        burst: BurstLoss::bursty(0.05, 4.0, 0.8),
        ..FaultPlan::none()
    });
    let gate = QualityGate::default();
    let mut lines = Vec::new();
    for i in 0..PER_KIND {
        let seed = 82_000 + i;
        let pair = clean.legitimate((i % 10) as usize, seed).unwrap();
        lines.push(detection_line("legit", seed, &det.detect(&pair).unwrap()));
    }
    for i in 0..PER_KIND {
        let seed = 83_000 + i;
        let pair = clean.reenactment((i % 10) as usize, seed).unwrap();
        lines.push(detection_line("reenact", seed, &det.detect(&pair).unwrap()));
    }
    for i in 0..PER_KIND {
        let seed = 84_000 + i;
        let pair = burst.legitimate((i % 10) as usize, seed).unwrap();
        lines.push(match det.detect_gated(&pair, &gate).unwrap() {
            ClipOutcome::Conclusive(d) => detection_line("burst", seed, &d),
            ClipOutcome::Inconclusive(reason) => format!("burst {seed} inconclusive {reason:?}"),
        });
    }
    lines
}

#[test]
fn detector_reproduces_golden_feature_bits() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    let expected: Vec<&str> = fixture.lines().collect();
    let actual = golden_lines();
    assert_eq!(actual.len(), expected.len(), "fixture line count");
    let diverged: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a.as_str() != **e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} pairs diverged from the golden bits:\n{}",
        diverged.len(),
        actual.len(),
        diverged.join("\n")
    );
}

#[test]
fn golden_fixture_covers_every_kind_with_conclusive_clips() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    for tag in ["legit", "reenact", "burst"] {
        let conclusive = fixture
            .lines()
            .filter(|l| l.starts_with(&format!("{tag} ")) && !l.contains("inconclusive"))
            .count();
        assert!(
            conclusive >= 40,
            "{tag}: only {conclusive} conclusive pairs"
        );
    }
}

/// Rewrites the fixture from the current code. Run only for a change that
/// is meant to move bits, and say so in the change log.
#[test]
#[ignore = "regenerates the golden fixture"]
fn bless() {
    let mut text = golden_lines().join("\n");
    text.push('\n');
    std::fs::write(FIXTURE, text).expect("fixture is writable");
}
