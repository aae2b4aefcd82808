//! `lumen-bench` — the perf-telemetry harness behind the CI regression
//! gate.
//!
//! `run` executes a fixed suite of micro benchmarks (whole-clip detection,
//! one active-probe round, and the per-kernel `info` table: DSP stages,
//! LOF and k-NN backends, baselines, landmarks, obs emission) and macro
//! experiments (the Sec. IX per-stage overhead breakdown, the multi-session
//! overload sweep) and writes a `BENCH_<label>.json` report. `check`
//! compares two reports metric by metric and exits non-zero on a
//! regression, which is the whole CI gate.
//!
//! Three metric kinds with different gating rules keep the gate honest
//! across machines:
//!
//! * `timing` — wall-clock milliseconds; machine-dependent, gated with a
//!   generous *relative* tolerance and only against regressions (getting
//!   faster never fails).
//! * `exact` — deterministic seeded results (tick latencies, shed
//!   fractions, integrity booleans); gated with a tiny *absolute*
//!   tolerance in both directions.
//! * `info` — context only (e.g. instrumentation overhead percentage,
//!   which is dominated by noise at these scales); never gated.
//!
//! Any metric may additionally carry a `budget`: an absolute ceiling the
//! current value must stay under regardless of the baseline — the paper's
//! 0.2 s per-clip envelope is enforced this way.

use lumen_attack::baseline::{
    BaselineDetector, CorrelationThresholdDetector, NaiveTimestampDetector,
};
use lumen_bench::{attack_pair, standard_frame, standard_pair, trained_detector, training_pairs};
use lumen_core::detector::Detector;
use lumen_core::preprocess::{preprocess_rx, preprocess_tx};
use lumen_core::voting::combine_votes;
use lumen_core::Config;
use lumen_dsp::filters::{biquad, fir, moving, savgol, threshold};
use lumen_dsp::peaks::{find_peaks, PeakConfig};
use lumen_dsp::{dtw, fft, normalize, stats, xcorr};
use lumen_experiments::{
    chaos, daemon as daemon_exp, dsoak, fleet as fleet_exp, overhead, overload,
};
use lumen_face::detect::detect_landmarks;
use lumen_face::geometry::FaceGeometry;
use lumen_face::render::FaceRenderer;
use lumen_face::roi::roi_luminance;
use lumen_lof::kdtree::KdTree;
use lumen_lof::knn::KnnIndex;
use lumen_obs::{InMemorySink, Recorder};
use lumen_probe::{ChallengeSchedule, ProbeConfig, ProbeInjector, ProbeVerifier, VerifierConfig};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Report format version; bump on any incompatible schema change.
const SCHEMA_VERSION: u64 = 1;

/// The paper's Sec. IX envelope: feature extraction and classification of
/// one 15-second clip within 0.2 seconds.
const CLIP_BUDGET_MS: f64 = 200.0;

/// One measured quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchMetric {
    /// Dotted metric name, stable across runs.
    name: String,
    /// Measured value.
    value: f64,
    /// Unit label (`ms`, `ticks`, `fraction`, `pct`, `bool`).
    unit: String,
    /// Gating rule: `timing`, `exact` or `info`.
    kind: String,
    /// Absolute ceiling the value must stay under, if any.
    budget: Option<f64>,
}

/// A full `BENCH_<label>.json` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchReport {
    /// Report format version.
    schema_version: u64,
    /// Report label (machine or CI job name).
    label: String,
    /// All measured metrics.
    metrics: Vec<BenchMetric>,
}

impl BenchReport {
    fn get(&self, name: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Mean wall-clock milliseconds per call over `iters` calls (after one
/// warm-up call).
fn time_ms<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / f64::from(iters.max(1))
}

/// Calls per `info` row in a full run: the kernels below run in
/// nanoseconds to a few milliseconds, so ten calls (the gated rows' count)
/// would be dominated by clock resolution.
const INFO_ITERS: u32 = 200;

/// Consumes a benchmarked result so the optimiser cannot drop the call.
fn keep<T>(value: T) {
    black_box(value);
}

/// A named kernel call for the `info` table.
type InfoRow<'a> = (String, Box<dyn FnMut() + 'a>);

fn row<'a>(name: &str, call: impl FnMut() + 'a) -> InfoRow<'a> {
    (name.to_string(), Box::new(call))
}

/// Opens one span and drops it at once: the emission cost the
/// `obs.span_in_memory` row measures.
fn open_and_drop_span(recorder: &Recorder) {
    // lint:allow(span-balance): guard creation + immediate drop is
    // exactly the cost this row measures
    keep(recorder.span(black_box("bench.span")));
}

/// The per-kernel cost table, reported as `info` rows (never gated, no
/// budget): the ablation view of the Sec. IX overhead (DSP stages, FIR vs
/// zero-phase IIR, full vs banded DTW), classification costs (LOF, voting,
/// naive baselines, the brute-force vs k-d tree k-NN crossover), frame-side
/// costs (rendering, landmarks, ROI) and obs emission costs. Whole-clip
/// detection and the probe schedule/verify round are not repeated here:
/// they are the gated `micro.*` rows.
fn info_rows(iters: u32) -> Result<Vec<BenchMetric>, String> {
    let config = Config::default();
    let pair = standard_pair();
    let attack = attack_pair();
    let signal = &pair.rx;
    let (x75, y75) = (&pair.tx.samples()[..75], &signal.samples()[..75]);
    let training = training_pairs();
    let detector = trained_detector();
    let features = detector
        .features(&pair)
        .map_err(|e| format!("features: {e}"))?;
    let naive = NaiveTimestampDetector::default();
    let fixed = CorrelationThresholdDetector::default();
    let frame = standard_frame();
    let landmarks = detect_landmarks(&frame).ok_or("landmarks: no face in the fixture frame")?;
    let renderer = FaceRenderer::default();
    let geometry = FaceGeometry::centered(160, 120);
    let sink = Arc::new(InMemorySink::new());
    let buffered = trained_detector().with_recorder(Recorder::new(sink.clone()));
    let (in_memory, _) = Recorder::in_memory();
    let disabled = Recorder::null();
    let schedule = ChallengeSchedule::generate(&ProbeConfig::default(), 11)
        .map_err(|e| format!("probe schedule: {e}"))?;
    // k-NN crossover: brute force wins at the paper's 20-instance scale,
    // the k-d tree on large organizational training pools.
    let mut knn = Vec::new();
    for n in [20usize, 200, 2000] {
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64;
                vec![
                    (t * 0.37).sin().abs(),
                    (t * 0.73).cos().abs(),
                    (t * 0.11).sin() * 0.5 + 0.5,
                    (t * 0.053).fract(),
                ]
            })
            .collect();
        let brute = KnnIndex::new(points.clone()).map_err(|e| format!("knn: {e}"))?;
        let tree = KdTree::new(points).map_err(|e| format!("kd-tree: {e}"))?;
        knn.push((n, brute, tree));
    }
    const QUERY: [f64; 4] = [0.9, 0.9, 0.8, 0.1];

    let mut rows: Vec<InfoRow<'_>> = vec![
        row("pipeline.preprocess_tx_15s_clip", || {
            keep(preprocess_tx(black_box(&pair.tx), &config))
        }),
        row("pipeline.preprocess_rx_15s_clip", || {
            keep(preprocess_rx(black_box(&pair.rx), &config))
        }),
        row("pipeline.features_from_15s_clip", || {
            keep(Detector::features_with(black_box(&pair), &config))
        }),
        row("dsp.fir_lowpass_1hz", || {
            keep(fir::lowpass(black_box(signal), 1.0))
        }),
        row("dsp.iir_filtfilt_lowpass_1hz", || {
            keep(biquad::filtfilt_lowpass(black_box(signal), 1.0))
        }),
        row("dsp.moving_variance_w10", || {
            keep(moving::moving_variance(black_box(signal), 10))
        }),
        row("dsp.moving_rms_w30", || {
            keep(moving::moving_rms(black_box(signal), 30))
        }),
        row("dsp.threshold_filter", || {
            keep(threshold::threshold_filter(black_box(signal), 2.0))
        }),
        row("dsp.savgol_w31_p3", || {
            keep(savgol::savgol_smooth(black_box(signal), 31, 3))
        }),
        row("dsp.find_peaks_prominence", || {
            keep(find_peaks(
                black_box(signal.samples()),
                &PeakConfig::new().min_prominence(0.5),
            ))
        }),
        row("dsp.pearson_150", || {
            keep(stats::pearson(
                black_box(pair.tx.samples()),
                black_box(signal.samples()),
            ))
        }),
        row("dsp.dtw_75x75", || {
            keep(dtw::dtw_distance(black_box(x75), black_box(y75)))
        }),
        row("dsp.dtw_banded_75x75_w10", || {
            keep(dtw::dtw_distance_banded(
                black_box(x75),
                black_box(y75),
                Some(10),
            ))
        }),
        row("dsp.fft_spectrum_150", || {
            keep(fft::magnitude_spectrum(black_box(signal)))
        }),
        row("dsp.normalize_min_max", || {
            keep(normalize::normalize_min_max(black_box(signal)))
        }),
        row("dsp.delay_estimation_xcorr", || {
            keep(xcorr::estimate_delay(
                black_box(&pair.tx),
                black_box(signal),
                1.0,
            ))
        }),
        row("detection.lof_score_single_vector", || {
            keep(detector.score(black_box(&features)))
        }),
        row("detection.train_detector_20_clips", || {
            keep(Detector::train_from_traces(black_box(&training), config))
        }),
        row("detection.detect_attack_clip", || {
            keep(detector.detect(black_box(&attack)))
        }),
        row("detection.majority_vote_d5", || {
            keep(combine_votes(
                black_box(&[true, false, true, true, false]),
                0.7,
            ))
        }),
        row("detection.baseline_naive_timestamp", || {
            keep(naive.accepts(black_box(&pair.tx), black_box(&pair.rx)))
        }),
        row("detection.baseline_fixed_correlation", || {
            keep(fixed.accepts(black_box(&pair.tx), black_box(&pair.rx)))
        }),
        row("landmarks.render_face_frame_160x120", || {
            keep(renderer.render(black_box(&geometry), 130.0))
        }),
        row("landmarks.detect_landmarks_160x120", || {
            keep(detect_landmarks(black_box(&frame)))
        }),
        row("landmarks.roi_luminance_extraction", || {
            keep(roi_luminance(black_box(&frame), black_box(&landmarks)))
        }),
        row("landmarks.frame_mean_luminance", || {
            keep(black_box(&frame).mean_luminance())
        }),
        row("obs.detect_in_memory_sink", || {
            keep(buffered.detect(black_box(&pair)));
            sink.clear();
        }),
        row("obs.counter_add_in_memory", || {
            in_memory.add("bench.counter", black_box(1))
        }),
        row("obs.span_in_memory", || open_and_drop_span(&in_memory)),
        row("obs.counter_add_disabled", || {
            disabled.add("bench.counter", black_box(1))
        }),
        row("probe.waveform_synthesis", || {
            keep(black_box(&schedule).waveform())
        }),
    ];
    for (n, brute, tree) in &knn {
        rows.push(row(&format!("detection.knn_brute_force_n{n}"), move || {
            keep(brute.nearest(black_box(&QUERY), 5, None))
        }));
        rows.push(row(&format!("detection.knn_kdtree_n{n}"), move || {
            keep(tree.nearest(black_box(&QUERY), 5, None))
        }));
    }
    Ok(rows
        .into_iter()
        .map(|(name, mut f)| {
            let ms = time_ms(iters, &mut f);
            metric(&format!("micro.{name}_ms"), ms, "ms", "info", None)
        })
        .collect())
}

fn metric(name: &str, value: f64, unit: &str, kind: &str, budget: Option<f64>) -> BenchMetric {
    BenchMetric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        kind: kind.to_string(),
        budget,
    }
}

/// Runs the full suite and assembles the report.
fn run_suite(label: &str, quick: bool) -> Result<BenchReport, String> {
    let iters = if quick { 3 } else { 10 };
    let mut metrics = Vec::new();

    // Micro: whole-clip detection, the paper's Sec. IX unit of work. A
    // NullSink-recorded detector is not timed separately: `Recorder::new`
    // collapses it to the null recorder, so it runs this very code.
    eprintln!("[lumen-bench] micro: detect");
    let pair = standard_pair();
    let plain = trained_detector();
    let plain_ms = time_ms(iters, || {
        let _ = black_box(plain.detect(black_box(&pair)));
    });
    metrics.push(metric(
        "micro.detect_uninstrumented_ms",
        plain_ms,
        "ms",
        "timing",
        Some(CLIP_BUDGET_MS),
    ));

    // Micro: one active-probe round — challenge synthesis plus full
    // matched-filter verification of an armed legitimate response.
    eprintln!("[lumen-bench] micro: probe round");
    let config = ProbeConfig::default();
    let schedule =
        ChallengeSchedule::generate(&config, 11).map_err(|e| format!("probe schedule: {e}"))?;
    let injector = ProbeInjector::new(schedule.clone());
    let probe_pair = injector
        .armed_scenario(
            lumen_chat::scenario::ScenarioBuilder::default()
                .with_session(
                    config.session_config(1.5, &lumen_chat::session::SessionConfig::default()),
                )
                .with_static_caller(120.0),
        )
        .legitimate(0, 12)
        .map_err(|e| format!("probe scenario: {e}"))?;
    let verifier =
        ProbeVerifier::new(VerifierConfig::default()).map_err(|e| format!("verifier: {e}"))?;
    let generate_ms = time_ms(iters, || {
        let _ = black_box(ChallengeSchedule::generate(black_box(&config), 11));
    });
    let verify_ms = time_ms(iters, || {
        let _ = black_box(verifier.verify(black_box(&schedule), black_box(&probe_pair)));
    });
    metrics.push(metric(
        "micro.probe_schedule_generate_ms",
        generate_ms,
        "ms",
        "timing",
        None,
    ));
    metrics.push(metric(
        "micro.probe_verify_round_ms",
        verify_ms,
        "ms",
        "timing",
        Some(CLIP_BUDGET_MS),
    ));

    eprintln!("[lumen-bench] micro: per-kernel info table");
    metrics.extend(info_rows(if quick { iters } else { INFO_ITERS })?);

    // Macro: Sec. IX per-stage breakdown from the overhead experiment.
    eprintln!("[lumen-bench] macro: overhead experiment");
    let opts = if quick {
        overhead::OverheadOpts {
            user: 0,
            train_clips: 10,
            detect_clips: 6,
        }
    } else {
        overhead::OverheadOpts::default()
    };
    let oh = overhead::run(opts).map_err(|e| format!("overhead experiment: {e}"))?;
    for row in &oh.stages {
        let budget = (row.name == lumen_obs::stage::DETECT).then_some(CLIP_BUDGET_MS);
        metrics.push(metric(
            &format!("stage.{}.mean_ms", row.name),
            row.mean_ms,
            "ms",
            "timing",
            budget,
        ));
        metrics.push(metric(
            &format!("stage.{}.p99_ms", row.name),
            row.p99_ms,
            "ms",
            "timing",
            budget,
        ));
    }

    // Macro: overload sweep — deterministic tick-based outcomes at the
    // heaviest swept load.
    eprintln!("[lumen-bench] macro: overload experiment");
    let opts = if quick {
        overload::OverloadOpts {
            sessions: vec![2, 5],
            ..overload::OverloadOpts::default()
        }
    } else {
        overload::OverloadOpts::default()
    };
    let ol = overload::run(opts).map_err(|e| format!("overload experiment: {e}"))?;
    if let Some(worst) = ol.rows.last() {
        metrics.push(metric(
            "overload.shed_fraction",
            worst.shed_fraction,
            "fraction",
            "exact",
            None,
        ));
        metrics.push(metric(
            "overload.p99_latency_ticks",
            worst.p99_latency_ticks,
            "ticks",
            "exact",
            None,
        ));
        metrics.push(metric(
            "overload.integrity_ok",
            f64::from(u8::from(worst.integrity_ok)),
            "bool",
            "exact",
            None,
        ));
        metrics.push(metric(
            "overload.accounting_ok",
            f64::from(u8::from(worst.accounting_ok)),
            "bool",
            "exact",
            None,
        ));
    }
    metrics.push(metric(
        "overload.checkpoint_ok",
        f64::from(u8::from(ol.checkpoint_ok)),
        "bool",
        "exact",
        None,
    ));

    // Macro: chaos recovery — kill/restore cycles under seeded storage
    // faults, snapshot rot and poisoned clips. Every outcome is a
    // deterministic seeded result, so the whole section gates exactly;
    // mis-restores additionally carry a zero budget (a re-served clip
    // whose verdict changed is a correctness bug regardless of baseline).
    eprintln!("[lumen-bench] macro: chaos experiment");
    let opts = if quick {
        chaos::ChaosOpts {
            sessions: 3,
            clips: 2,
            cycles: 2,
            checkpoint_every_steps: 30,
            ..chaos::ChaosOpts::default()
        }
    } else {
        chaos::ChaosOpts::default()
    };
    let ch = chaos::run(opts).map_err(|e| format!("chaos experiment: {e}"))?;
    let cycles = ch.cycles.len().max(1) as f64;
    let mean_recovery = ch
        .cycles
        .iter()
        .map(|c| c.recovery_ticks as f64)
        .sum::<f64>()
        / cycles;
    let mean_reserve = ch
        .cycles
        .iter()
        .map(|c| c.reserve_steps as f64)
        .sum::<f64>()
        / cycles;
    let max_fallback = ch
        .cycles
        .iter()
        .map(|c| c.fallback_depth)
        .max()
        .unwrap_or(0);
    metrics.push(metric(
        "chaos.integrity_ok",
        f64::from(u8::from(ch.integrity_ok)),
        "bool",
        "exact",
        None,
    ));
    metrics.push(metric(
        "chaos.misrestores",
        ch.misrestores as f64,
        "count",
        "exact",
        Some(0.0),
    ));
    metrics.push(metric(
        "chaos.cold_starts",
        ch.cold_starts as f64,
        "count",
        "exact",
        None,
    ));
    metrics.push(metric(
        "chaos.quarantine_fraction",
        ch.quarantine_fraction,
        "fraction",
        "exact",
        None,
    ));
    metrics.push(metric(
        "chaos.max_fallback_depth",
        max_fallback as f64,
        "count",
        "exact",
        None,
    ));
    metrics.push(metric(
        "chaos.mean_recovery_ticks",
        mean_recovery,
        "ticks",
        "exact",
        None,
    ));
    metrics.push(metric(
        "chaos.mean_reserve_steps",
        mean_reserve,
        "steps",
        "exact",
        None,
    ));
    metrics.push(metric(
        "chaos.store_write_failures",
        ch.store.write_failures as f64,
        "count",
        "exact",
        None,
    ));
    metrics.push(metric(
        "chaos.store_quarantined",
        ch.store.quarantined as f64,
        "count",
        "exact",
        None,
    ));

    // Macro: daemon loopback — wall-clock round trips through the real
    // socket path (timing), plus the deterministic serving outcomes of
    // the loopback load run and the kill/restore soak (exact). The
    // byte-identity and accounting booleans gate exactly: a wire layer
    // that loses or reorders verdicts is a correctness bug, not a
    // regression to tolerate.
    eprintln!("[lumen-bench] macro: daemon loopback");
    let det = trained_detector();
    let sup = lumen_serve::Supervisor::new(lumen_serve::ServeConfig::default())
        .map_err(|e| format!("supervisor: {e}"))?;
    let mut daemon: lumen_daemon::Daemon<lumen_serve::MemStorage> = lumen_daemon::Daemon::new(
        sup,
        Box::new(move |_| lumen_core::stream::StreamingDetector::new(det.clone(), 15.0, 3)),
        lumen_daemon::DaemonConfig {
            bucket_capacity: 4096,
            bucket_refill: 4096.0,
            ..lumen_daemon::DaemonConfig::default()
        },
        None,
    )
    .map_err(|e| format!("daemon: {e}"))?;
    let mut rt_client =
        lumen_daemon::DaemonClient::connect(daemon.port()).map_err(|e| format!("connect: {e}"))?;
    let rounds = if quick { 64 } else { 256 };
    let mut rtts_ms = Vec::with_capacity(rounds);
    for nonce in 0..rounds as u64 {
        let start = Instant::now();
        rt_client
            .send(&lumen_daemon::Frame::Ping { nonce })
            .map_err(|e| format!("ping: {e}"))?;
        loop {
            daemon.turn_once().map_err(|e| format!("turn: {e}"))?;
            let frames = rt_client.poll().map_err(|e| format!("poll: {e}"))?;
            if frames
                .iter()
                .any(|f| matches!(f, lumen_daemon::Frame::Pong { nonce: n } if *n == nonce))
            {
                break;
            }
        }
        rtts_ms.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    rtts_ms.sort_by(f64::total_cmp);
    let pctl = |p: f64| rtts_ms[((rtts_ms.len() - 1) as f64 * p) as usize];
    metrics.push(metric(
        "daemon.roundtrip_p50_ms",
        pctl(0.50),
        "ms",
        "timing",
        None,
    ));
    metrics.push(metric(
        "daemon.roundtrip_p99_ms",
        pctl(0.99),
        "ms",
        "timing",
        Some(CLIP_BUDGET_MS),
    ));
    drop(rt_client);
    drop(daemon);

    let opts = if quick {
        daemon_exp::DaemonOpts {
            honest: 2,
            clips: 1,
            train_count: 8,
            ..daemon_exp::DaemonOpts::default()
        }
    } else {
        daemon_exp::DaemonOpts::default()
    };
    let d = daemon_exp::run(opts).map_err(|e| format!("daemon experiment: {e}"))?;
    let first_verdict = d
        .rows
        .iter()
        .filter_map(|r| r.first_verdict_turns)
        .max()
        .unwrap_or(0);
    metrics.push(metric(
        "daemon.first_verdict_turns",
        first_verdict as f64,
        "turns",
        "exact",
        None,
    ));
    metrics.push(metric(
        "daemon.rate_limited",
        d.rate_limited as f64,
        "count",
        "exact",
        None,
    ));
    metrics.push(metric(
        "daemon.accounting_ok",
        f64::from(u8::from(d.accounting_ok)),
        "bool",
        "exact",
        None,
    ));
    metrics.push(metric(
        "daemon.integrity_ok",
        f64::from(u8::from(d.integrity_ok)),
        "bool",
        "exact",
        None,
    ));

    eprintln!("[lumen-bench] macro: daemon kill/restore soak");
    let opts = if quick {
        dsoak::DsoakOpts {
            clients: 2,
            clips: 2,
            train_count: 8,
            ..dsoak::DsoakOpts::default()
        }
    } else {
        dsoak::DsoakOpts::default()
    };
    let ds = dsoak::run(opts).map_err(|e| format!("dsoak experiment: {e}"))?;
    metrics.push(metric(
        "dsoak.kills",
        ds.kills.len() as f64,
        "count",
        "exact",
        None,
    ));
    metrics.push(metric(
        "dsoak.byte_identity_ok",
        f64::from(u8::from(ds.byte_identity_ok)),
        "bool",
        "exact",
        None,
    ));
    metrics.push(metric(
        "dsoak.integrity_ok",
        f64::from(u8::from(ds.integrity_ok)),
        "bool",
        "exact",
        None,
    ));

    // Macro: fleet sweep — the sharded multi-supervisor runtime driven
    // over waves of short sessions. Throughput is timing (wall-clock per
    // core); everything else is a deterministic tick-domain outcome and
    // gates exactly: cross-shard accounting, single-supervisor parity,
    // threaded-stepping identity, mid-clip snapshot replay and the
    // per-tick work-stealing conservation ledger.
    eprintln!("[lumen-bench] macro: fleet experiment");
    let opts = if quick {
        fleet_exp::FleetOpts {
            sessions: vec![192, 384],
            shards: 4,
            min_wave: 48,
            wave_divisor: 4,
            train_count: 8,
            trace_pool: 4,
            deadline_ticks: 8,
            admission_burst: 16,
            admission_refill: 4.0,
            parity_sessions: 32,
            snapshot_sessions: 16,
            ..fleet_exp::FleetOpts::default()
        }
    } else {
        fleet_exp::FleetOpts::default()
    };
    let started = Instant::now();
    let fl = fleet_exp::run(opts).map_err(|e| format!("fleet experiment: {e}"))?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let swept: u64 = fl.rows.iter().map(|r| r.offered).sum();
    metrics.push(metric(
        "fleet.sessions_per_core",
        swept as f64 / elapsed_s.max(1e-9) / cores as f64,
        "sessions/s",
        "timing",
        None,
    ));
    if let Some(worst) = fl.rows.last() {
        metrics.push(metric(
            "fleet.p99_latency_ticks",
            worst.p99_latency_ticks,
            "ticks",
            "exact",
            None,
        ));
        metrics.push(metric(
            "fleet.shed_fraction",
            worst.shed_fraction,
            "fraction",
            "exact",
            None,
        ));
    }
    metrics.push(metric(
        "fleet.steals",
        fl.rows.iter().map(|r| r.steals).sum::<u64>() as f64,
        "count",
        "exact",
        None,
    ));
    metrics.push(metric(
        "fleet.accounting_ok",
        f64::from(u8::from(fl.rows.iter().all(|r| r.accounting_ok))),
        "bool",
        "exact",
        None,
    ));
    metrics.push(metric(
        "fleet.parity_ok",
        f64::from(u8::from(fl.parity_ok)),
        "bool",
        "exact",
        None,
    ));
    metrics.push(metric(
        "fleet.threaded_ok",
        f64::from(u8::from(fl.threaded_ok)),
        "bool",
        "exact",
        None,
    ));
    metrics.push(metric(
        "fleet.snapshot_ok",
        f64::from(u8::from(fl.snapshot_ok)),
        "bool",
        "exact",
        None,
    ));
    metrics.push(metric(
        "fleet.conservation_ok",
        f64::from(u8::from(fl.conservation_ok)),
        "bool",
        "exact",
        None,
    ));

    // Meta: the lint gate's own cost — the full two-tier workspace
    // analysis (lex, parse, symbol table, call graph, every rule) timed
    // like any pipeline stage, so a rule that goes quadratic in workspace
    // size surfaces in the perf gate rather than as a slowly rotting CI
    // wait. The finding count rides along as an exact zero-budget metric:
    // the committed tree must lint clean.
    eprintln!("[lumen-bench] meta: lumen-lint workspace analysis");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = std::fs::read_to_string(root.join("lint.toml"))
        .map_err(|e| format!("read lint.toml: {e}"))?;
    let lint_config =
        lumen_lint::Config::parse(&baseline).map_err(|e| format!("parse lint.toml: {e}"))?;
    let first = lumen_lint::lint_workspace(&root, &lint_config)
        .map_err(|e| format!("lint workspace: {e}"))?;
    let lint_ms = time_ms(iters, || {
        let report = lumen_lint::lint_workspace(&root, &lint_config)
            .expect("workspace scan succeeded once already");
        black_box(report.findings.len());
    });
    metrics.push(metric("lint.workspace_ms", lint_ms, "ms", "timing", None));
    metrics.push(metric(
        "lint.findings",
        first.findings.len() as f64,
        "count",
        "exact",
        Some(0.0),
    ));
    metrics.push(metric(
        "lint.files_scanned",
        first.files_scanned as f64,
        "count",
        "info",
        None,
    ));

    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        metrics,
    })
}

/// One gate violation (or warning) found by `check`.
struct Finding {
    hard: bool,
    message: String,
}

/// Compares `current` against `baseline` under the gate rules.
fn check_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    timing_tolerance_pct: f64,
    exact_tolerance: f64,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if baseline.schema_version != current.schema_version {
        findings.push(Finding {
            hard: true,
            message: format!(
                "schema version mismatch: baseline v{} vs current v{}",
                baseline.schema_version, current.schema_version
            ),
        });
        return findings;
    }
    for base in &baseline.metrics {
        let Some(cur) = current.get(&base.name) else {
            findings.push(Finding {
                hard: true,
                message: format!("metric `{}` missing from current report", base.name),
            });
            continue;
        };
        match base.kind.as_str() {
            "timing" => {
                // Gate regressions only: a faster run is never a failure.
                let ceiling = base.value * (1.0 + timing_tolerance_pct / 100.0);
                if cur.value > ceiling {
                    findings.push(Finding {
                        hard: true,
                        message: format!(
                            "timing regression `{}`: {:.4} {} > {:.4} (baseline {:.4} +{}%)",
                            base.name,
                            cur.value,
                            cur.unit,
                            ceiling,
                            base.value,
                            timing_tolerance_pct
                        ),
                    });
                }
            }
            "exact" if (cur.value - base.value).abs() > exact_tolerance => {
                findings.push(Finding {
                    hard: true,
                    message: format!(
                        "exact drift `{}`: {:.6} vs baseline {:.6} (tolerance {})",
                        base.name, cur.value, base.value, exact_tolerance
                    ),
                });
            }
            _ => {}
        }
    }
    for cur in &current.metrics {
        if let Some(budget) = cur.budget {
            if cur.value > budget {
                findings.push(Finding {
                    hard: true,
                    message: format!(
                        "budget exceeded `{}`: {:.4} {} > budget {:.4}",
                        cur.name, cur.value, cur.unit, budget
                    ),
                });
            }
        }
        if baseline.get(&cur.name).is_none() {
            findings.push(Finding {
                hard: false,
                message: format!("metric `{}` absent from baseline (new metric?)", cur.name),
            });
        }
    }
    findings
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lumen-bench run [--label L] [--quick] [--out PATH]\n  \
         lumen-bench check --baseline PATH --current PATH \
         [--timing-tolerance-pct N] [--exact-tolerance X] [--warn-only]"
    );
    ExitCode::from(2)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let label = arg_value(args, "--label").unwrap_or_else(|| "local".to_string());
    let quick = args.iter().any(|a| a == "--quick");
    let out = arg_value(args, "--out").unwrap_or_else(|| format!("BENCH_{label}.json"));
    let report = match run_suite(&label, quick) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lumen-bench: suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("lumen-bench: serialize failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("lumen-bench: writing {out} failed: {e}");
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        println!("{:40} {:>12.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("[lumen-bench] wrote {out}");
    ExitCode::SUCCESS
}

fn load_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_check(args: &[String]) -> ExitCode {
    let (Some(baseline_path), Some(current_path)) =
        (arg_value(args, "--baseline"), arg_value(args, "--current"))
    else {
        return usage();
    };
    let timing_tolerance_pct = arg_value(args, "--timing-tolerance-pct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(300.0);
    let exact_tolerance = arg_value(args, "--exact-tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1e-9);
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let (baseline, current) = match (load_report(&baseline_path), load_report(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lumen-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings = check_reports(&baseline, &current, timing_tolerance_pct, exact_tolerance);
    let mut hard = 0usize;
    for f in &findings {
        let tag = if f.hard { "FAIL" } else { "warn" };
        eprintln!("[lumen-bench] {tag}: {}", f.message);
        hard += usize::from(f.hard);
    }
    if hard > 0 && !warn_only {
        eprintln!("[lumen-bench] {hard} gate violation(s)");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[lumen-bench] gate ok ({} metric(s), {} warning(s){})",
        baseline.metrics.len(),
        findings.len() - hard,
        if warn_only && hard > 0 {
            ", violations demoted by --warn-only"
        } else {
            ""
        }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: Vec<BenchMetric>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            label: "test".to_string(),
            metrics,
        }
    }

    #[test]
    fn timing_gate_fails_only_on_regression() {
        let base = report(vec![metric("t", 10.0, "ms", "timing", None)]);
        let fast = report(vec![metric("t", 1.0, "ms", "timing", None)]);
        let slow = report(vec![metric("t", 50.0, "ms", "timing", None)]);
        assert!(check_reports(&base, &fast, 300.0, 1e-9).is_empty());
        let findings = check_reports(&base, &slow, 300.0, 1e-9);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].hard);
    }

    #[test]
    fn exact_gate_is_two_sided_and_budget_is_absolute() {
        let base = report(vec![metric("e", 0.5, "fraction", "exact", None)]);
        let drifted = report(vec![metric("e", 0.4, "fraction", "exact", None)]);
        assert_eq!(check_reports(&base, &drifted, 300.0, 1e-9).len(), 1);
        let blown = report(vec![metric("e", 0.5, "fraction", "exact", Some(0.3))]);
        let findings = check_reports(&base, &blown, 300.0, 1e-9);
        assert_eq!(findings.len(), 1, "budget applies even without drift");
    }

    #[test]
    fn missing_metric_is_hard_new_metric_is_soft() {
        let base = report(vec![metric("gone", 1.0, "ms", "timing", None)]);
        let cur = report(vec![metric("new", 1.0, "ms", "timing", None)]);
        let findings = check_reports(&base, &cur, 300.0, 1e-9);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings.iter().filter(|f| f.hard).count(), 1);
    }

    #[test]
    fn info_metrics_are_never_gated() {
        let base = report(vec![metric("i", 1.0, "pct", "info", None)]);
        let cur = report(vec![metric("i", 1000.0, "pct", "info", None)]);
        assert!(check_reports(&base, &cur, 300.0, 1e-9).is_empty());
    }
}
