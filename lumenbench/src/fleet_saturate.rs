//! `fleet-saturate`: a closed loop over an in-process `Fleet`.
//!
//! S sessions with staggered clip phases each get one sample per round;
//! every round then ticks the fleet once (serially) and drains its
//! events, as fast as the loop goes. Detection (core, lof, dsp) is about
//! 90 % of the work; wire, daemon and obs are bypassed.

use crate::common::{self, Args, Ledger, SETUPS, SETUPS_FIRST};
use crate::inputs::{self, Mix, Model, PoolClip, Rng};
use crate::layers::{self, SpanStats};
use crate::reference::{Observed, Reference};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Nesting, SpanSink, Tracer};
use lumen_daemon::daemon::wire_verdict;
use lumen_fleet::{AdmissionConfig, Fleet, FleetAdmitOutcome, FleetConfig};
use lumen_obs::{stage, Recorder};
use lumen_serve::SessionEventKind;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent sessions: about 27 clips complete per round, so a round
/// (and a verdict's latency) lasts several milliseconds and a stall of
/// the machine of one millisecond cannot alone make the p99.
const SESSIONS: usize = 4096;
/// Distinct pool clips.
const POOL: usize = 1024;
/// Clip draws planned per session (cycled).
const PLAN: usize = 64;
/// Longest traced pass: its shard sinks keep every event, and it must
/// still hold the 1000 rounds a `fleet.tick_us.p99` needs.
const TRACED_MAX: Duration = Duration::from_secs(10);
/// Extra warm-up after the phase ramp, excluded from the figures.
const WARMUP: Duration = Duration::from_millis(300);
/// Span over which one throughput sample is counted; `clips_per_s` is
/// the median of these samples, so a stall of the machine shorter than
/// half the window does not move it.
const RATE_SPAN: Duration = Duration::from_secs(1);

/// Span nesting of this front end (child, parent).
const NESTING: Nesting = &[
    (stage::FLEET_TICK, "bench.tick"),
    (stage::SERVE_TICK, stage::FLEET_TICK),
    (stage::SERVE_CLIP, stage::SERVE_TICK),
    (stage::QUALITY_GATE, stage::SERVE_CLIP),
    (stage::DETECT, stage::SERVE_CLIP),
    (stage::VOTE_FUSION, stage::SERVE_CLIP),
    (stage::PREPROCESS, stage::DETECT),
    (stage::CHANGE_DETECTION, stage::DETECT),
    (stage::FEATURE_EXTRACTION, stage::DETECT),
    (stage::LOF_SCORING, stage::DETECT),
];

struct Setup {
    model: Model,
    fleet: Fleet,
    ids: Vec<u64>,
}

fn config(shards: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        shards,
        seed,
        shard: common::lifted_serve_config(SESSIONS),
        admission: AdmissionConfig {
            burst_sessions: SESSIONS as u32,
            refill_per_tick: SESSIONS as f64,
        },
        ..FleetConfig::default()
    }
}

/// Training, fleet construction and admission: everything up to the
/// first timed sample.
fn setup(seed: u64, shards: usize, traced: Option<Arc<SpanSink>>) -> Result<Setup, String> {
    let model = Model::train(seed)?;
    let mut fleet = Fleet::new(config(shards, seed)).map_err(|e| e.to_string())?;
    if let Some(sink) = traced {
        fleet = fleet.with_recorder(Recorder::new(sink)).with_shard_obs();
    }
    let mut ids = Vec::with_capacity(SESSIONS);
    for key in 0..SESSIONS as u64 {
        match fleet.admit(key, model.stream()?) {
            FleetAdmitOutcome::Admitted { session, .. } => ids.push(session),
            other => return Err(format!("session {key} not admitted: {other:?}")),
        }
    }
    Ok(Setup { model, fleet, ids })
}

/// What one pass of the loop measured.
struct Pass {
    clips_per_s: f64,
    latencies_ms: Vec<f64>,
    attempted: u64,
    answered: u64,
    shed: u64,
    offers: u64,
    backlog_max: f64,
    pending: Vec<f64>,
    busy: Duration,
    tracer: Tracer,
}

/// Runs the closed loop for `window`, then drains every clip in flight.
fn drive(
    s: &mut Setup,
    pool: &[PoolClip],
    plan: &[Vec<u16>],
    clip_samples: usize,
    window: Duration,
    ledger: &mut Ledger,
    traced: bool,
) -> Result<Pass, String> {
    let n = s.ids.len();
    let ordinal: BTreeMap<u64, usize> = s.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let delay: Vec<usize> = (0..n).map(|i| i * clip_samples / n).collect();
    let mut fed = vec![0usize; n];
    let mut clip = vec![0usize; n];
    let mut in_flight: Vec<VecDeque<(Instant, usize)>> = vec![VecDeque::new(); n];
    let start = trace::now();
    let mut tracer = Tracer::new(traced, start);
    let mut latencies_ms = Vec::new();
    let (mut attempted, mut answered, mut shed, mut offers) = (0u64, 0u64, 0u64, 0u64);
    let mut warm: Option<(Instant, u64)> = None;
    let mut window_answered = 0u64;
    // (time, answered) at the warm-up's end and then every RATE_SPAN.
    let mut marks: Vec<(Instant, u64)> = Vec::new();
    let mut backlog_max = 0.0f64;
    let mut pending = Vec::new();
    let mut round = 0usize;
    let mut offering = true;
    loop {
        let now = trace::now();
        if offering && now.duration_since(start) >= window {
            offering = false;
            window_answered = answered;
        }
        if warm.is_none() && round >= clip_samples && now.duration_since(start) >= WARMUP {
            warm = Some((now, answered));
        }
        if offering && warm.is_some() && marks.last().is_none_or(|m| now >= m.0 + RATE_SPAN) {
            marks.push((now, answered));
        }
        if offering {
            tracer.enter("bench.offer");
            for i in 0..n {
                if round < delay[i] {
                    continue;
                }
                let p = plan[i][clip[i] % PLAN] as usize;
                let (tx, rx) = pool[p].sample(fed[i]);
                let done = s
                    .fleet
                    .offer(s.ids[i], tx, rx)
                    .map_err(|e| format!("offer: {e}"))?;
                offers += 1;
                fed[i] += 1;
                if done.is_some() {
                    in_flight[i].push_back((trace::now(), p));
                    attempted += 1;
                    fed[i] = 0;
                    clip[i] += 1;
                }
            }
            tracer.exit();
        } else if in_flight.iter().all(VecDeque::is_empty) {
            break;
        }
        backlog_max = backlog_max.max(s.fleet.backlog_clips() as f64);
        pending.push(s.fleet.pending_clips() as f64);
        tracer.enter("bench.tick");
        s.fleet.tick();
        tracer.exit();
        tracer.enter("bench.drain");
        let events = s.fleet.drain_events();
        tracer.exit();
        let seen = trace::now();
        for event in events {
            let i = *ordinal
                .get(&event.session)
                .ok_or_else(|| format!("event for unknown session {}", event.session))?;
            let observed = match event.kind {
                SessionEventKind::Verdict(v) => Observed::Verdict {
                    pool: 0,
                    verdict: wire_verdict(&v),
                },
                SessionEventKind::Shed { .. } => Observed::Shed,
                _ => continue,
            };
            let (due, p) = in_flight[i]
                .pop_front()
                .ok_or_else(|| format!("session {i} answered a clip it never completed"))?;
            match observed {
                Observed::Verdict { verdict, .. } => {
                    tracer.record(
                        "clip.offer_to_event",
                        due,
                        seen,
                        Some(((i as u64) << 24) | verdict.clip_index),
                    );
                    answered += 1;
                    if warm.is_some() && offering {
                        latencies_ms.push(seen.duration_since(due).as_secs_f64() * 1e3);
                    }
                    ledger.push(i, Observed::Verdict { pool: p, verdict });
                }
                _ => {
                    shed += 1;
                    ledger.push(i, Observed::Shed);
                }
            }
        }
        round += 1;
    }
    let (warm_at, warm_answered) = warm.ok_or("the window ended before the phase ramp")?;
    let end = start + window;
    let measured = end.saturating_duration_since(warm_at).as_secs_f64();
    // Clips answered inside the measured window only.
    let in_window = window_answered.saturating_sub(warm_answered) as f64;
    let rates: Vec<f64> = marks
        .windows(2)
        .map(|m| (m[1].1 - m[0].1) as f64 / m[1].0.duration_since(m[0].0).as_secs_f64())
        .collect();
    let clips_per_s = if rates.len() >= 2 {
        eprintln!(
            "# clips_per_s per {RATE_SPAN:?}: {}",
            stats::describe(&rates, "1/s")
        );
        stats::median(&rates)
    } else if measured > 0.0 {
        in_window / measured
    } else {
        0.0
    };
    Ok(Pass {
        clips_per_s,
        latencies_ms,
        attempted,
        answered,
        shed,
        offers,
        backlog_max,
        pending,
        busy: start.elapsed(),
        tracer,
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clip_samples = Model::train(args.seed)?.clip_samples()?;
    let pool = inputs::pool(args.seed, POOL, Mix([5, 2, 2, 0]), clip_samples)?;
    let mut rng = Rng::new(args.seed, 3);
    let plan: Vec<Vec<u16>> = (0..SESSIONS)
        .map(|_| (0..PLAN).map(|_| rng.below(POOL) as u16).collect())
        .collect();

    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS_FIRST {
        let t = trace::now();
        let s = setup(args.seed, shards, None)?;
        setups.push(t.elapsed());
        built = Some(s);
    }
    let mut s = built.ok_or("no set-up ran")?;
    let mut reference = Reference::build(&s.model, &pool, clip_samples)?;

    // Traced, half the window is an untraced baseline for the overhead
    // and the traced pass is capped: its in-memory shard sinks keep every
    // event.
    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let traced_window = window.min(TRACED_MAX);
    let mut ledger = Ledger::new(SESSIONS);
    let pass = drive(
        &mut s,
        &pool,
        &plan,
        clip_samples,
        window,
        &mut ledger,
        false,
    )?;
    for _ in SETUPS_FIRST..SETUPS {
        let t = trace::now();
        setup(args.seed, shards, None)?;
        setups.push(t.elapsed());
    }
    common::report_setup(&mut report, &setups);
    let ledger_ok = s.fleet.ledger().holds() && s.fleet.ledger().in_flight == 0;
    let stats = s.fleet.shard_stats();
    let accounting_ok = ledger_ok
        && stats.served_clips + stats.shed_clips == stats.offered_clips
        && stats.offered_clips == pass.attempted
        && stats.served_clips == pass.answered
        && stats.shed_clips == pass.shed;
    let mismatches = ledger.check(&mut reference, &pool, &mut report);
    let failed = pass.attempted - pass.answered;
    report.attempted = pass.attempted;
    report.failed = failed;
    report.correct = accounting_ok && mismatches == 0;
    report.set("clips_per_s", pass.clips_per_s);
    report.set("capacity_sessions", pass.clips_per_s * inputs::CLIP_SECONDS);
    common::report_latency(&mut report, &pass.latencies_ms)?;
    report.set(
        "served_fraction",
        pass.answered as f64 / pass.attempted.max(1) as f64,
    );
    report.set(
        "failed_fraction",
        failed as f64 / pass.attempted.max(1) as f64,
    );
    if !accounting_ok {
        eprintln!(
            "accounting violated: ledger {:?}, stats {stats:?}, attempted {} answered {} shed {}",
            s.fleet.ledger(),
            pass.attempted,
            pass.answered,
            pass.shed
        );
    }
    if args.trace {
        traced_pass(
            args,
            shards,
            &pool,
            &plan,
            clip_samples,
            traced_window,
            &pass,
            &mut report,
        )?;
    }
    Ok(report)
}

/// The traced pass: a fresh fleet with program spans attached, then the
/// per-layer breakdown.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    args: &Args,
    shards: usize,
    pool: &[PoolClip],
    plan: &[Vec<u16>],
    clip_samples: usize,
    window: Duration,
    untraced: &Pass,
    report: &mut Report,
) -> Result<(), String> {
    let sink = Arc::new(SpanSink::default());
    let mut s = setup(args.seed, shards, Some(sink.clone()))?;
    let mut reference = Reference::build(&s.model, pool, clip_samples)?;
    let mut ledger = Ledger::new(SESSIONS);
    let pass = drive(&mut s, pool, plan, clip_samples, window, &mut ledger, true)?;
    trace::write_spans(&args.workload, args.seed, &[("loop", &pass.tracer)])?;
    if ledger.check(&mut reference, pool, &mut Report::default()) != 0 {
        report.correct = false;
    }
    let registry = s.fleet.merged_registry().ok_or("shard obs not attached")?;
    let mut spans = layers::from_registry(&registry, layers::PROGRAM_SPANS);
    let fleet_spans = sink.take();
    spans.extend(layers::from_lists(
        fleet_spans.iter().map(|(k, v)| (k.as_str(), v.as_slice())),
    ));
    let bench = pass.tracer.durations();
    let tick = SpanStats::of(bench.get("bench.tick").map_or(&[][..], Vec::as_slice));
    let offer = SpanStats::of(bench.get("bench.offer").map_or(&[][..], Vec::as_slice));
    let drain = SpanStats::of(bench.get("bench.drain").map_or(&[][..], Vec::as_slice));
    report.set("fleet.offer_ns", offer.total_ns / pass.offers.max(1) as f64);
    report.set("fleet.tick_us.p50", tick.p50_ns / 1e3);
    report.set("fleet.tick_us.p99", tick.p99_ns / 1e3);
    report.set(
        "fleet.drain_us",
        drain.total_ns / drain.count.max(1) as f64 / 1e3,
    );
    report.set("fleet.steals", s.fleet.stats().steals as f64);
    let served: Vec<f64> = s
        .fleet
        .shard_breakdowns()
        .iter()
        .map(|b| b.served as f64)
        .collect();
    let (lo, hi) = served.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    report.set("fleet.shard_skew", if lo > 0.0 { hi / lo } else { 0.0 });
    report.set("fleet.backlog_clips.max", pass.backlog_max);
    common::report_serve_stats(report, &s.fleet.shard_stats());
    let waits: Vec<u64> = (0..s.fleet.shards())
        .filter_map(|i| s.fleet.shard(i))
        .flat_map(|sup| sup.latencies_ticks().iter().copied())
        .collect();
    common::report_queue_wait(report, &waits);
    common::report_backlog(report, &pass.pending);

    // Self times over the loop (bench spans are the roots).
    let mut totals: BTreeMap<String, f64> =
        spans.iter().map(|(k, v)| (k.clone(), v.total_ns)).collect();
    for (name, st) in [
        ("bench.tick", tick),
        ("bench.offer", offer),
        ("bench.drain", drain),
    ] {
        totals.insert(name.to_string(), st.total_ns);
    }
    totals.remove(stage::CHECKPOINT);
    let selfs = trace::self_times(&totals, NESTING);
    let covered: f64 = selfs.values().sum();
    report.set(
        "layers.coverage_pct",
        100.0 * covered / pass.busy.as_nanos() as f64,
    );
    crate::print_breakdown("fleet-saturate", &selfs, pass.answered);

    // The fleet's checkpoint path, once, on the state the pass left.
    let snap = s.fleet.snapshot();
    let bytes = serde_json::to_string(&snap)
        .map_err(|e| e.to_string())?
        .len();
    report.set("serve.snapshot_bytes", bytes as f64);
    let registry = s.fleet.merged_registry().ok_or("shard obs not attached")?;
    spans.extend(layers::from_registry(&registry, &[stage::CHECKPOINT]));
    layers::report_program_spans(report, &spans);

    let judged: Vec<&PoolClip> = ledger
        .sessions
        .iter()
        .flatten()
        .filter_map(|o| match o {
            Observed::Verdict { pool: p, .. } => Some(&pool[*p]),
            _ => None,
        })
        .take(512)
        .collect();
    layers::retime_stages(report, &s.model, &judged)?;
    let t = trace::now();
    let frames = layers::sample_frames(plan.iter().enumerate().flat_map(|(i, draws)| {
        draws.iter().take(4).flat_map(move |&p| {
            (0..clip_samples).map(move |k| {
                (
                    i as u64,
                    pool[p as usize].sample(k).0,
                    pool[p as usize].sample(k).1,
                )
            })
        })
    }));
    let encoded = SESSIONS * 4 * clip_samples;
    report.set(
        "gen.encode_ns",
        t.elapsed().as_nanos() as f64 / encoded.max(1) as f64,
    );
    layers::report_decode(report, &frames)?;
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (untraced.clips_per_s / pass.clips_per_s.max(f64::MIN_POSITIVE) - 1.0),
    );
    Ok(())
}
