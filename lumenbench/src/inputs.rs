//! Seeded inputs: the enrolment set, the trained detector and a labelled
//! pool of one-clip trace pairs. Everything here is generated before any
//! timing starts; the program under test only ever receives these
//! samples.

use lumen_chat::fault::{BurstLoss, FaultPlan};
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::quality::QualityGate;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;

/// Clip length in seconds (the paper's 15 s clips at 10 Hz).
pub const CLIP_SECONDS: f64 = 15.0;
/// Voting window of each session's streaming detector.
pub const VOTE_WINDOW: usize = 3;
/// Enrolment traces the detector is trained on.
const TRAIN_COUNT: usize = 24;

/// What a pool clip shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The enrolled user, clean network.
    Legitimate,
    /// A face-reenactment forgery of the enrolled user.
    Reenactment,
    /// The enrolled user behind a bursty-loss network path.
    BurstLoss,
    /// The enrolled user showing static content: the passive path abstains
    /// and the session's probe director issues a challenge.
    Static,
}

/// One pool clip: exactly one clip's worth of samples.
#[derive(Debug, Clone)]
pub struct PoolClip {
    /// Ground truth.
    pub kind: Kind,
    /// The trace pair the samples came from.
    pub pair: TracePair,
}

impl PoolClip {
    /// The `(tx, rx)` sample at position `i` of the clip.
    pub fn sample(&self, i: usize) -> (f64, f64) {
        (self.pair.tx.samples()[i], self.pair.rx.samples()[i])
    }
}

/// SplitMix64: a tiny seeded generator for schedules and pool draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on substream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The share of each kind in a pool, in the order legitimate,
/// reenactment, burst-loss, static.
#[derive(Debug, Clone, Copy)]
pub struct Mix(pub [usize; 4]);

/// The trained detector and the quality gate every session runs behind.
#[derive(Debug, Clone)]
pub struct Model {
    /// The enrolled detector.
    pub detector: Detector,
    /// The per-clip quality gate.
    pub gate: QualityGate,
}

impl Model {
    /// Trains the detector on `seed`'s enrolment set.
    pub fn train(seed: u64) -> Result<Model, String> {
        let chats = ScenarioBuilder::default();
        let mut rng = Rng::new(seed, 1);
        let training: Vec<TracePair> = (0..TRAIN_COUNT)
            .map(|_| chats.legitimate(0, rng.next_u64()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("enrolment traces: {e}"))?;
        let detector = Detector::train_from_traces(&training, Config::default())
            .map_err(|e| format!("training: {e}"))?;
        Ok(Model {
            detector,
            gate: QualityGate::default(),
        })
    }

    /// A fresh session detector, exactly as every front end admits it.
    pub fn stream(&self) -> Result<StreamingDetector, String> {
        StreamingDetector::new(self.detector.clone(), CLIP_SECONDS, VOTE_WINDOW)
            .map(|s| s.with_quality_gate(self.gate))
            .map_err(|e| format!("streaming detector: {e}"))
    }

    /// Samples per clip.
    pub fn clip_samples(&self) -> Result<usize, String> {
        Ok(self.stream()?.clip_samples())
    }
}

/// A builder for static-content callers (passive abstention, probes).
pub fn static_caller() -> ScenarioBuilder {
    ScenarioBuilder::default().with_static_caller(128.0)
}

/// Generates a labelled pool of `size` clips with the given mix.
pub fn pool(
    seed: u64,
    size: usize,
    mix: Mix,
    clip_samples: usize,
) -> Result<Vec<PoolClip>, String> {
    let clean = ScenarioBuilder::default();
    let lossy = ScenarioBuilder::default().with_faults(FaultPlan {
        burst: BurstLoss::bursty(0.04, 6.0, 0.7),
        ..FaultPlan::none()
    });
    let still = static_caller();
    let total: usize = mix.0.iter().sum();
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::with_capacity(size);
    for i in 0..size {
        // Deterministic proportions: clip i takes the kind whose
        // cumulative share covers i modulo the mix total.
        let slot = i % total.max(1);
        let mut acc = 0;
        let mut kind = Kind::Legitimate;
        for (k, share) in [
            Kind::Legitimate,
            Kind::Reenactment,
            Kind::BurstLoss,
            Kind::Static,
        ]
        .into_iter()
        .zip(mix.0)
        {
            acc += share;
            if slot < acc {
                kind = k;
                break;
            }
        }
        let trace_seed = rng.next_u64();
        let pair = match kind {
            Kind::Legitimate => clean.legitimate(0, trace_seed),
            Kind::Reenactment => clean.reenactment(0, trace_seed),
            Kind::BurstLoss => lossy.legitimate(0, trace_seed),
            Kind::Static => still.legitimate(0, trace_seed),
        }
        .map_err(|e| format!("pool trace: {e}"))?;
        if pair.tx.len() < clip_samples || pair.rx.len() < clip_samples {
            return Err(format!("pool trace {i} is shorter than one clip"));
        }
        out.push(PoolClip { kind, pair });
    }
    Ok(out)
}
