//! Per-layer figures shared by every workload: program span statistics,
//! stage re-timing on the run's own clips, and wire decoding on the run's
//! own frames.

use crate::inputs::{Model, PoolClip};
use crate::report::Report;
use crate::stats;
use crate::trace;
use lumen_core::features::extract_features;
use lumen_core::preprocess::{detect_changes, smooth};
use lumen_daemon::wire::{Decoder, Frame};
use lumen_dsp::Signal;
use lumen_obs::{stage, Registry};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Count, total and quantiles of one span name, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Spans seen.
    pub count: usize,
    /// Summed duration.
    pub total_ns: f64,
    /// Median duration (0 when unsupported).
    pub p50_ns: f64,
    /// 99th-percentile duration (0 when unsupported).
    pub p99_ns: f64,
}

impl SpanStats {
    /// Statistics of raw durations.
    pub fn of(durations: &[u64]) -> Self {
        let values: Vec<f64> = durations.iter().map(|&d| d as f64).collect();
        SpanStats {
            count: values.len(),
            total_ns: values.iter().sum(),
            p50_ns: stats::percentile(&values, 0.5).unwrap_or(0.0),
            p99_ns: stats::percentile(&values, 0.99).unwrap_or(0.0),
        }
    }
}

/// Span statistics from raw duration lists.
pub fn from_lists<'a>(
    lists: impl IntoIterator<Item = (&'a str, &'a [u64])>,
) -> BTreeMap<String, SpanStats> {
    lists
        .into_iter()
        .map(|(name, ds)| (name.to_string(), SpanStats::of(ds)))
        .collect()
}

/// Span statistics from an obs registry's span histograms (quantiles
/// carry the histogram's bucket error, at most 1/64 relative).
pub fn from_registry(registry: &Registry, names: &[&str]) -> BTreeMap<String, SpanStats> {
    let mut out = BTreeMap::new();
    for &name in names {
        if let Some(h) = registry.span_durations(name) {
            let n = h.count() as usize;
            let q = |p: f64| {
                if stats::supports(n, p) {
                    h.quantile(p).unwrap_or(0.0)
                } else {
                    0.0
                }
            };
            out.insert(
                name.to_string(),
                SpanStats {
                    count: n,
                    total_ns: h.sum(),
                    p50_ns: q(0.5),
                    p99_ns: q(0.99),
                },
            );
        }
    }
    out
}

/// Every program span name the benchmark attaches.
pub const PROGRAM_SPANS: &[&str] = &[
    stage::FLEET_TICK,
    stage::SERVE_TICK,
    stage::SERVE_CLIP,
    stage::QUALITY_GATE,
    stage::DETECT,
    stage::PREPROCESS,
    stage::CHANGE_DETECTION,
    stage::FEATURE_EXTRACTION,
    stage::LOF_SCORING,
    stage::VOTE_FUSION,
    stage::PROBE_VERIFY,
    stage::CHECKPOINT,
];

/// Sets the per-stage metrics from program span statistics.
pub fn report_program_spans(report: &mut Report, spans: &BTreeMap<String, SpanStats>) {
    let us = |name: &str, p99: bool| {
        spans
            .get(name)
            .map_or(0.0, |s| if p99 { s.p99_ns } else { s.p50_ns } / 1e3)
    };
    let pairs: [(&'static str, &'static str, &str); 8] = [
        ("core.detect_us.p50", "core.detect_us.p99", stage::DETECT),
        (
            "core.preprocess_us.p50",
            "core.preprocess_us.p99",
            stage::PREPROCESS,
        ),
        (
            "core.change_detection_us.p50",
            "core.change_detection_us.p99",
            stage::CHANGE_DETECTION,
        ),
        (
            "core.feature_extraction_us.p50",
            "core.feature_extraction_us.p99",
            stage::FEATURE_EXTRACTION,
        ),
        (
            "core.quality_gate_us.p50",
            "core.quality_gate_us.p99",
            stage::QUALITY_GATE,
        ),
        (
            "core.vote_fusion_us.p50",
            "core.vote_fusion_us.p99",
            stage::VOTE_FUSION,
        ),
        ("lof.judge_us.p50", "lof.judge_us.p99", stage::LOF_SCORING),
        ("serve.clip_us.p50", "serve.clip_us.p99", stage::SERVE_CLIP),
    ];
    for (p50, p99, name) in pairs {
        report.set(p50, us(name, false));
        report.set(p99, us(name, true));
    }
    report.set("probe.verify_us.p50", us(stage::PROBE_VERIFY, false));
    if let Some(s) = spans.get(stage::CHECKPOINT) {
        if s.count > 0 {
            report.set("serve.checkpoint_ms", s.total_ns / s.count as f64 / 1e6);
        }
    }
}

/// Re-times the four core stage functions on the run's own clips (the
/// clips the system actually judged), from outside the program.
pub fn retime_stages(
    report: &mut Report,
    model: &Model,
    clips: &[&PoolClip],
) -> Result<(), String> {
    let config = *model.detector.config();
    let mut pre = Vec::new();
    let mut changes = Vec::new();
    let mut features = Vec::new();
    let mut judge = Vec::new();
    for clip in clips {
        let rate = clip.pair.tx.sample_rate();
        let tx = Signal::new(clip.pair.tx.samples().to_vec(), rate).map_err(|e| e.to_string())?;
        let rx = Signal::new(clip.pair.rx.samples().to_vec(), rate).map_err(|e| e.to_string())?;
        let t0 = trace::now();
        let mut ptx = smooth(black_box(&tx), &config).map_err(|e| e.to_string())?;
        let mut prx = smooth(black_box(&rx), &config).map_err(|e| e.to_string())?;
        let t1 = trace::now();
        ptx.peaks = detect_changes(&ptx, config.tx_prominence);
        prx.peaks = detect_changes(&prx, config.rx_prominence);
        let t2 = trace::now();
        let f = extract_features(&ptx, &prx, &config).map_err(|e| e.to_string())?;
        let t3 = trace::now();
        black_box(model.detector.judge(&f).map_err(|e| e.to_string())?);
        let t4 = trace::now();
        pre.push(t1.duration_since(t0).as_nanos() as f64 / 1e3);
        changes.push(t2.duration_since(t1).as_nanos() as f64 / 1e3);
        features.push(t3.duration_since(t2).as_nanos() as f64 / 1e3);
        judge.push(t4.duration_since(t3).as_nanos() as f64 / 1e3);
    }
    let p50 = |v: &[f64]| stats::percentile(v, 0.5).unwrap_or(0.0);
    report.set("core.retimed.preprocess_us.p50", p50(&pre));
    report.set("core.retimed.change_detection_us.p50", p50(&changes));
    report.set("core.retimed.feature_extraction_us.p50", p50(&features));
    report.set("lof.retimed.judge_us.p50", p50(&judge));
    Ok(())
}

/// Encodes `samples` as the `Sample` frames a client would send for one
/// session, concatenated.
pub fn sample_frames(samples: impl IntoIterator<Item = (u64, f64, f64)>) -> Vec<u8> {
    let mut out = Vec::new();
    for (session, tx, rx) in samples {
        out.extend_from_slice(&Frame::Sample { session, tx, rx }.encode());
    }
    out
}

/// Nanoseconds per frame for the public `Decoder` draining `buffered`
/// bytes of the workload's own frames pushed in one piece (median of
/// `reps` passes).
pub fn decode_ns_per_frame(bytes: &[u8], buffered: usize, reps: usize) -> Result<f64, String> {
    if bytes.len() < buffered {
        return Err(format!(
            "only {} frame bytes to decode, need {buffered}",
            bytes.len()
        ));
    }
    let mut per_frame = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut decoder = Decoder::new(1 << 20);
        decoder.push(&bytes[..buffered]);
        let start = trace::now();
        let mut frames = 0u64;
        while let Some(frame) = decoder.next_frame().map_err(|e| e.to_string())? {
            black_box(frame);
            frames += 1;
        }
        let ns = start.elapsed().as_nanos() as f64;
        if frames == 0 {
            return Err("no frame decoded".to_string());
        }
        per_frame.push(ns / frames as f64);
    }
    Ok(stats::median(&per_frame))
}

/// Sets `wire.decode_ns.4k` and `wire.decode_ns.1m` from the workload's
/// frame bytes.
pub fn report_decode(report: &mut Report, bytes: &[u8]) -> Result<(), String> {
    report.set(
        "wire.decode_ns.4k",
        decode_ns_per_frame(bytes, 4 << 10, 64)?,
    );
    report.set("wire.decode_ns.1m", decode_ns_per_frame(bytes, 1 << 20, 3)?);
    Ok(())
}
