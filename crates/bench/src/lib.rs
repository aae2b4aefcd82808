//! Shared fixtures for the `lumen-bench` perf harness.
//!
//! Sec. IX of the paper argues the defense fits resource-limited devices:
//! landmark detection runs at hundreds of fps, and "feature extraction and
//! classification can be quickly processed together within 0.2 seconds for
//! a luminance signal extracted from a 15-second facial video". The
//! `lumen-bench run` micro rows regenerate those numbers on this
//! implementation from these fixtures.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::Config;
use lumen_face::geometry::FaceGeometry;
use lumen_face::render::FaceRenderer;
use lumen_video::frame::Frame;

/// A deterministic 15-second legitimate trace pair (10 Hz).
pub fn standard_pair() -> TracePair {
    ScenarioBuilder::default()
        .legitimate(0, 12_345)
        .expect("standard scenario")
}

/// A deterministic reenactment-attack trace pair.
pub fn attack_pair() -> TracePair {
    ScenarioBuilder::default()
        .reenactment(0, 12_345)
        .expect("standard attack scenario")
}

/// Twenty legitimate training pairs.
pub fn training_pairs() -> Vec<TracePair> {
    let chats = ScenarioBuilder::default();
    (0..20)
        .map(|i| chats.legitimate(0, 90_000 + i).expect("training scenario"))
        .collect()
}

/// A detector trained on [`training_pairs`] with paper defaults.
pub fn trained_detector() -> Detector {
    Detector::train_from_traces(&training_pairs(), Config::default()).expect("training succeeds")
}

/// A rendered face frame (160×120) for landmark benchmarks.
pub fn standard_frame() -> Frame {
    FaceRenderer::default()
        .render(&FaceGeometry::centered(160, 120), 130.0)
        .expect("render succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(standard_pair().tx.len(), 150);
        assert_eq!(attack_pair().rx.len(), 150);
        assert_eq!(training_pairs().len(), 20);
        let det = trained_detector();
        assert!(det.detect(&standard_pair()).unwrap().score > 0.0);
        assert_eq!(standard_frame().width(), 160);
    }
}
