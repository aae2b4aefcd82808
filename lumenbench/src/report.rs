//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints every metric of its mode: the end-to-end metrics
//! untraced, the per-layer metrics traced. A per-layer metric whose layer
//! is not on a workload's path reads 0 (for example `fleet.*` on the
//! `lumend-*` workloads, `daemon.*` on `fleet-saturate`), and so does a
//! percentile the sample does not support (see `stats::supports`).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("clips_per_s", "1/s"),
    ("capacity_sessions", "sessions"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("served_fraction", "ratio"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The load generator itself: is the open loop valid?
    ("gen.lag_p99_ms", "ms"),
    ("gen.frames_sent", "count"),
    ("gen.encode_ns", "ns"),
    // lumen-daemon
    ("daemon.turn_us.p50", "us"),
    ("daemon.turn_us.p99", "us"),
    ("daemon.busy_fraction", "ratio"),
    ("daemon.turns_per_s", "1/s"),
    ("daemon.rate_limited", "count"),
    ("daemon.rejected_frames", "count"),
    ("daemon.disconnects", "count"),
    ("daemon.park_overflow", "count"),
    ("daemon.goodbyes_lost", "count"),
    ("wire.decode_ns.4k", "ns"),
    ("wire.decode_ns.1m", "ns"),
    // lumen-fleet
    ("fleet.offer_ns", "ns"),
    ("fleet.tick_us.p50", "us"),
    ("fleet.tick_us.p99", "us"),
    ("fleet.drain_us", "us"),
    ("fleet.steals", "count"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.backlog_clips.max", "count"),
    // lumen-serve
    ("serve.offered", "count"),
    ("serve.served", "count"),
    ("serve.shed.queue_full", "count"),
    ("serve.shed.deadline", "count"),
    ("serve.shed.breaker_open", "count"),
    ("serve.shed.detection_failed", "count"),
    ("serve.shed.session_closed", "count"),
    ("serve.queue_wait_ticks.p99", "ticks"),
    ("serve.pending_clips.max", "count"),
    ("serve.pending_clips.slope", "clips/step"),
    ("serve.clip_us.p50", "us"),
    ("serve.clip_us.p99", "us"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    // lumen-core, lumen-lof, lumen-dsp (program spans)
    ("core.detect_us.p50", "us"),
    ("core.detect_us.p99", "us"),
    ("core.preprocess_us.p50", "us"),
    ("core.preprocess_us.p99", "us"),
    ("core.change_detection_us.p50", "us"),
    ("core.change_detection_us.p99", "us"),
    ("core.feature_extraction_us.p50", "us"),
    ("core.feature_extraction_us.p99", "us"),
    ("core.quality_gate_us.p50", "us"),
    ("core.quality_gate_us.p99", "us"),
    ("core.vote_fusion_us.p50", "us"),
    ("core.vote_fusion_us.p99", "us"),
    ("lof.judge_us.p50", "us"),
    ("lof.judge_us.p99", "us"),
    // The same stages re-timed from outside on the run's own clips.
    ("core.retimed.preprocess_us.p50", "us"),
    ("core.retimed.change_detection_us.p50", "us"),
    ("core.retimed.feature_extraction_us.p50", "us"),
    ("lof.retimed.judge_us.p50", "us"),
    // lumen-probe
    ("probe.verify_us.p50", "us"),
    ("probe.requests", "count"),
    ("probe.pass", "count"),
    ("probe.fail", "count"),
    ("probe.abstain", "count"),
    // lumen-obs and the breakdown itself
    ("obs.trace_overhead_pct", "%"),
    ("obs.flight_dropped_events", "count"),
    ("layers.coverage_pct", "%"),
    // Workload-specific end-to-end figures that are 0 or absent elsewhere.
    ("admit_p99_ms", "ms"),
    ("probe_p99_ms", "ms"),
    ("failed_fraction", "ratio"),
    ("verdict_mismatches", "count"),
    ("verdict_p99_ms.window_trend", "ratio"),
    ("frr", "ratio"),
    ("far", "ratio"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output agreed with its reference and every ledger
    /// balanced.
    pub correct: bool,
    /// Clips attempted.
    pub attempted: u64,
    /// Clips attempted that got no verdict.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line for `trace` mode: exactly the metrics of that mode.
    ///
    /// # Errors
    ///
    /// Fails when an end-to-end metric was not measured or is not a
    /// finite number, or when the run set a metric outside the catalogue.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for name in self.values.keys() {
            let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name);
            if !known {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_json_requires_every_end_to_end_metric() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        assert!(r.json(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let line = r.json(false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains("gen.lag_p99_ms"));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
