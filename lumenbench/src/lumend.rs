//! The `lumend-waves` workload: one `Daemon` on its own thread, driven
//! over loopback by one generator thread that multiplexes many sessions
//! on one connection. Sessions arrive in waves with aligned clip phases
//! (`Hello`, one or two clips sent as one burst each, `Bye`),
//! static-content callers are probed and answer with `ProbeResponse`, a
//! flooder and a garbage speaker must draw their typed goodbyes (a
//! flooder's goodbye lost to the daemon's reset is counted, see
//! [`FloodEnd`]), and the daemon commits periodic checkpoints.

use crate::common::{self, Args, Ledger, SETUPS, SETUPS_FIRST};
use crate::inputs::{self, Kind, Mix, Model, PoolClip, Rng};
use crate::layers;
use crate::reference::{Observed, Reference};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Nesting, SpanSink, Tracer};
use lumen_chat::session::SessionConfig;
use lumen_core::stream::StreamingDetector;
use lumen_daemon::wire::{DisconnectCause, Frame, WireTrace};
use lumen_daemon::{Daemon, DaemonClient, DaemonConfig, DetectorFactory, WireStats};
use lumen_obs::{stage, FlightConfig, Histogram};
use lumen_probe::{ChallengeSchedule, ProbeDecision, ProbeInjector, ProbePolicy, ProbeVerdict};
use lumen_serve::{CheckpointStore, MemStorage, ServeStats, StoreConfig, Supervisor};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Span nesting on the daemon thread (child, parent).
const NESTING: Nesting = &[
    (stage::SERVE_TICK, "bench.turn"),
    (stage::PROBE_VERIFY, "bench.turn"),
    (stage::CHECKPOINT, "bench.turn"),
    (stage::SERVE_CLIP, stage::SERVE_TICK),
    (stage::QUALITY_GATE, stage::SERVE_CLIP),
    (stage::DETECT, stage::SERVE_CLIP),
    (stage::VOTE_FUSION, stage::SERVE_CLIP),
    (stage::PREPROCESS, stage::DETECT),
    (stage::CHANGE_DETECTION, stage::DETECT),
    (stage::FEATURE_EXTRACTION, stage::DETECT),
    (stage::LOF_SCORING, stage::DETECT),
];

// ---------------------------------------------------------------------
// The daemon thread
// ---------------------------------------------------------------------

/// What the daemon thread measured, returned when it stops.
struct DaemonRun {
    turns: u64,
    turn_ns: Histogram,
    /// Summed duration of every `turn_once` (the root span).
    turn_total_ns: f64,
    /// Summed duration of turns that did work (longer than idle).
    busy_ns: f64,
    wall: Duration,
    /// Time the paced loop spent asleep between turns.
    slept: Duration,
    pending: Vec<f64>,
    wire: WireStats,
    serve: ServeStats,
    waits: Vec<u64>,
    flight_dropped: u64,
    postmortems: usize,
    snapshot_bytes: usize,
    spans: BTreeMap<String, Vec<u64>>,
    /// Benchmark-side spans of the daemon thread (one per `turn_once`).
    tracer: Tracer,
}

struct DaemonHandle {
    port: u16,
    stop: Arc<AtomicBool>,
    join: JoinHandle<Result<DaemonRun, String>>,
}

impl DaemonHandle {
    /// Starts a daemon thread and waits until it listens. `seed` seeds
    /// its probe challenges; `traced` attaches the program's spans.
    fn spawn(model: &Model, seed: u64, traced: bool) -> Result<Self, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let flag = stop.clone();
        let model = model.clone();
        let join = std::thread::Builder::new()
            .name("lumend".to_string())
            .spawn(move || daemon_main(model, seed, traced, flag, tx))
            .map_err(|e| format!("spawn daemon thread: {e}"))?;
        match rx.recv() {
            Ok(Ok(port)) => Ok(DaemonHandle { port, stop, join }),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(match join.join() {
                Ok(Err(e)) => e,
                _ => "daemon thread ended before listening".to_string(),
            }),
        }
    }

    /// Stops the daemon thread and collects its figures.
    fn finish(self) -> Result<DaemonRun, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.join
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

fn daemon_main(
    model: Model,
    seed: u64,
    traced: bool,
    stop: Arc<AtomicBool>,
    ready: mpsc::Sender<Result<u16, String>>,
) -> Result<DaemonRun, String> {
    common::pin_thread(DAEMON_CPU);
    let built = build_daemon(&model, seed, traced);
    let (mut daemon, sink) = match built {
        Ok(d) => d,
        Err(e) => {
            // The receiver only disappears if the generator already failed.
            let _ = ready.send(Err(e.clone()));
            return Err(e);
        }
    };
    // Idle baseline: turns with no peer at all.
    let mut idle = Vec::with_capacity(512);
    for _ in 0..512 {
        let t = trace::now();
        daemon.turn_once().map_err(|e| format!("turn: {e}"))?;
        idle.push(t.elapsed().as_nanos() as f64);
    }
    let idle_ns = stats::median(&idle);
    // A turn that took three idle turns plus the cost of polling a few
    // sockets did work; the rest only polled.
    let busy_threshold = 3.0 * idle_ns + 5_000.0;
    if ready.send(Ok(daemon.port())).is_err() {
        return Err("generator went away".to_string());
    }
    let start = trace::now();
    let mut run = DaemonRun {
        turns: 0,
        turn_ns: Histogram::new(),
        turn_total_ns: 0.0,
        busy_ns: 0.0,
        wall: Duration::ZERO,
        slept: Duration::ZERO,
        pending: Vec::new(),
        wire: WireStats::default(),
        serve: ServeStats::default(),
        waits: Vec::new(),
        flight_dropped: 0,
        postmortems: 0,
        snapshot_bytes: 0,
        spans: BTreeMap::new(),
        tracer: Tracer::new(traced, start),
    };
    let mut next_sample = start;
    while !stop.load(Ordering::SeqCst) {
        let t = trace::now();
        run.tracer.enter("bench.turn");
        daemon.turn_once().map_err(|e| format!("turn: {e}"))?;
        run.tracer.exit();
        let end = trace::now();
        let ns = end.duration_since(t).as_nanos() as f64;
        run.turns += 1;
        run.turn_ns.observe(ns);
        run.turn_total_ns += ns;
        if ns > busy_threshold {
            run.busy_ns += ns;
        }
        // The loop is paced: a turn shorter than the pace sleeps out the
        // rest of it, leaving the processor to the generator and the
        // kernel; under load turns run back to back.
        if let Some(rest) = TURN_PACE.checked_sub(end.duration_since(t)) {
            std::thread::sleep(rest);
            run.slept += end.elapsed();
        }
        if end >= next_sample {
            run.pending.push(daemon.supervisor().pending_clips() as f64);
            next_sample = end + Duration::from_millis(1);
        }
    }
    run.wall = start.elapsed();
    run.wire = daemon.wire_stats().clone();
    run.serve = daemon.serve_stats().clone();
    run.waits = daemon.supervisor().latencies_ticks().to_vec();
    if let Some(f) = daemon.supervisor().flight_sink() {
        run.flight_dropped = f.dropped_events();
        run.postmortems = f.postmortems().len();
    }
    // One checkpoint capture on the final state, for the snapshot size.
    let snap = daemon.supervisor().snapshot();
    run.snapshot_bytes = serde_json::to_string(&snap)
        .map_err(|e| e.to_string())?
        .len();
    run.spans = sink.take();
    Ok(run)
}

fn build_daemon(
    model: &Model,
    seed: u64,
    traced: bool,
) -> Result<(Daemon<MemStorage>, Arc<SpanSink>), String> {
    let sink = Arc::new(SpanSink::default());
    let sup = Supervisor::new(common::lifted_serve_config(1 << 20)).map_err(|e| e.to_string())?;
    let sup = if traced {
        sup.with_flight_tee(FlightConfig::default(), Some(sink.clone()))
    } else {
        sup.with_flight(FlightConfig::default())
    };
    let store = CheckpointStore::new(MemStorage::new(), StoreConfig::default())
        .map_err(|e| e.to_string())?;
    let detector = model.detector.clone();
    let gate = model.gate;
    let factory: DetectorFactory = Box::new(move |_| {
        StreamingDetector::new(detector.clone(), inputs::CLIP_SECONDS, inputs::VOTE_WINDOW)
            .map(|s| s.with_quality_gate(gate))
    });
    let daemon = Daemon::new(sup, factory, daemon_config(), Some(store))
        .map_err(|e| e.to_string())?
        .with_probe(probe_policy(), seed);
    Ok((daemon, sink))
}

/// The daemon's limits: timeouts and parks never bind, so compute decides
/// what is served; the token bucket and the abuse limit condemn the
/// flooder and leave the waves alone.
fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        bucket_capacity: WAVE_BUCKET,
        bucket_refill: WAVE_REFILL,
        abuse_disconnect_after: 32,
        idle_turns: u64::MAX / 4,
        read_turns: u64::MAX / 4,
        checkpoint_every_turns: CHECKPOINT_TURNS,
        park_limit: 1 << 20,
        ..DaemonConfig::default()
    }
}

// ---------------------------------------------------------------------
// The generator side
// ---------------------------------------------------------------------

/// One generator connection: the client plus the bytes batched for it.
struct Link {
    client: DaemonClient,
    batch: Vec<u8>,
    /// Session ordinals whose `Hello` awaits a `Welcome`, in send order.
    hellos: VecDeque<(usize, Instant)>,
}

impl Link {
    fn connect(port: u16) -> Result<Self, String> {
        Ok(Link {
            client: DaemonClient::connect(port).map_err(|e| e.to_string())?,
            batch: Vec::new(),
            hellos: VecDeque::new(),
        })
    }

    /// Sends the batch (and any bytes the kernel refused earlier).
    fn flush(&mut self) -> Result<(), String> {
        self.client
            .send_raw(&self.batch)
            .map_err(|e| format!("send: {e}"))?;
        self.batch.clear();
        Ok(())
    }
}

/// Generator-side counters.
struct GenStats {
    frames: u64,
    encode_ns: f64,
    lag_ms: Vec<f64>,
    /// Generator-side spans (sends, polls, per-clip due-to-verdict).
    tracer: Tracer,
}

impl GenStats {
    fn new(traced: bool) -> Self {
        GenStats {
            frames: 0,
            encode_ns: 0.0,
            lag_ms: Vec::new(),
            tracer: Tracer::new(traced, trace::now()),
        }
    }

    /// Encodes `frame` into `out`, timing the encode.
    fn encode(&mut self, frame: &Frame, out: &mut Vec<u8>) {
        let t = trace::now();
        out.extend_from_slice(&frame.encode());
        self.encode_ns += t.elapsed().as_nanos() as f64;
        self.frames += 1;
    }

    fn report(&self, report: &mut Report) {
        report.set("gen.frames_sent", self.frames as f64);
        report.set("gen.encode_ns", self.encode_ns / self.frames.max(1) as f64);
        report.set(
            "gen.lag_p99_ms",
            stats::percentile(&self.lag_ms, 0.99).unwrap_or(0.0),
        );
    }
}

/// The allowed processors (by rank) the daemon thread and the generator
/// are pinned to, where there are two (`common::pin_thread`).
const DAEMON_CPU: usize = 0;
const GENERATOR_CPU: usize = 1;
/// How long an idle generator step sleeps.
const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// The daemon thread's shortest turn period.
const TURN_PACE: Duration = Duration::from_micros(250);

/// The id shared by every span of one clip: session ordinal and clip
/// index.
fn clip_id(session: usize, clip: u64) -> u64 {
    ((session as u64) << 24) | clip
}

/// Sets the daemon-thread per-layer metrics and the breakdown.
fn report_daemon(report: &mut Report, run: &DaemonRun, clips: u64, workload: &str) {
    let q = |p: f64| {
        if stats::supports(run.turns as usize, p) {
            run.turn_ns.quantile(p).unwrap_or(0.0) / 1e3
        } else {
            0.0
        }
    };
    report.set("daemon.turn_us.p50", q(0.5));
    report.set("daemon.turn_us.p99", q(0.99));
    let wall = run.wall.as_nanos().max(1) as f64;
    report.set("daemon.busy_fraction", run.busy_ns / wall);
    report.set(
        "daemon.turns_per_s",
        run.turns as f64 / run.wall.as_secs_f64().max(1e-9),
    );
    report.set("daemon.rate_limited", run.wire.rate_limited as f64);
    report.set("daemon.rejected_frames", run.wire.rejected_frames as f64);
    report.set(
        "daemon.disconnects",
        (run.wire.abuse_disconnects
            + run.wire.idle_disconnects
            + run.wire.slow_read_disconnects
            + run.wire.malformed_disconnects) as f64,
    );
    report.set("daemon.park_overflow", run.wire.park_overflow as f64);
    report.set("obs.flight_dropped_events", run.flight_dropped as f64);
    report.set("serve.snapshot_bytes", run.snapshot_bytes as f64);
    common::report_serve_stats(report, &run.serve);
    common::report_queue_wait(report, &run.waits);
    common::report_backlog(report, &run.pending);
    let spans = layers::from_lists(run.spans.iter().map(|(k, v)| (k.as_str(), v.as_slice())));
    layers::report_program_spans(report, &spans);
    let mut totals: BTreeMap<String, f64> =
        spans.iter().map(|(k, v)| (k.clone(), v.total_ns)).collect();
    totals.insert("bench.turn".to_string(), run.turn_total_ns);
    let selfs = trace::self_times(&totals, NESTING);
    // The thread's busy wall time: everything but the paced sleeps.
    let covered: f64 = selfs.values().sum();
    let awake = (run.wall.saturating_sub(run.slept)).as_nanos().max(1) as f64;
    report.set("layers.coverage_pct", 100.0 * covered / awake);
    crate::print_breakdown(workload, &selfs, clips);
}

/// Accounting identities of one daemon run against what the generator
/// saw: `served + shed == offered` in the supervisor, every served clip
/// left as a verdict frame, every shed as a shed frame, and the generator
/// received exactly those (`seen`, as `(answered, shed)`).
fn accounting_ok(run: &DaemonRun, seen: (u64, u64)) -> bool {
    let s = &run.serve;
    let daemon_ok = s.served_clips + s.shed_clips == s.offered_clips
        && run.wire.verdict_total() == s.served_clips
        && run.wire.shed_total() == s.shed_clips;
    let (answered, shed) = seen;
    let generator_ok =
        run.wire.orphaned_verdicts == 0 && answered == s.served_clips && shed == s.shed_clips;
    if !(daemon_ok && generator_ok) {
        eprintln!(
            "accounting violated: serve {s:?}, wire {:?}, generator saw {seen:?}",
            run.wire
        );
    }
    daemon_ok && generator_ok
}

// ---------------------------------------------------------------------
// lumend-waves
// ---------------------------------------------------------------------

/// Sessions per wave, all on one connection so that one clip burst puts
/// more than 1 MiB in front of a single decoder.
const WAVE_SESSIONS: usize = 176;
/// Seconds between wave starts. A wave keeps the daemon busy for about
/// 0.7 s; at a 1.5 s period a slow spell of the host tipped it into the
/// backlog collapse (see NOTES.md) in two runs of fifty.
const WAVE_PERIOD_S: f64 = 2.0;
/// Offsets of the two clip bursts after a wave starts, seconds.
const BURST_OFFSETS_S: [f64; 2] = [0.05, 0.25];
/// Per-connection token bucket: about ten waves' frames. The daemon
/// refills it per turn, not per second, so a daemon that runs few turns
/// (busy, or on a slow host) refills the wave connection slowly; with
/// room for three waves it ran dry in one run of twenty.
const WAVE_BUCKET: u32 = 393_216;
/// Tokens regained per turn: idle turns refill the bucket between waves
/// many times over, while a flood outruns it.
const WAVE_REFILL: f64 = 64.0;
/// Pings the flooder sends per generator step, and at most in total (it
/// needs about 450 000 to drain the bucket).
const FLOOD_CHUNK: u64 = 4096;
const FLOOD_MAX: u64 = 1_000_000;
/// Turns between checkpoint commits.
const CHECKPOINT_TURNS: u64 = 20_000;

/// One wave session's plan and progress.
#[derive(Debug, Clone)]
struct WaveSession {
    clips: Vec<usize>,
    id: Option<u64>,
    sent: usize,
    answered: usize,
    /// Clips sent and not yet answered: due time and pool index.
    in_flight: VecDeque<(Instant, usize)>,
    probe_out: Option<Instant>,
    probe_seed: u64,
    byed: bool,
}

/// Generator-side outcome of a waves pass.
#[derive(Default)]
struct WavesPass {
    latencies_ms: Vec<f64>,
    admit_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    attempted: u64,
    answered: u64,
    shed: u64,
    /// From the first burst's due time to the last answer: the send
    /// schedule plus the drain of the last wave.
    window: Duration,
    probe_decisions: [u64; 3],
    probe_requests: u64,
    hostile_ok: bool,
    /// Flooders whose connection closed without their goodbye read.
    goodbyes_lost: u64,
    frame_bytes: Vec<u8>,
}

/// The probe policy: the default, except that every passive abstention
/// may draw a challenge (no cooldown between probes).
fn probe_policy() -> ProbePolicy {
    ProbePolicy {
        cooldown_clips: 0,
        ..ProbePolicy::default()
    }
}

/// Synthesizes a live static-content caller's response to `schedule`.
fn probe_response(
    schedule: ChallengeSchedule,
    policy: &ProbePolicy,
    seed: u64,
) -> Result<WireTrace, String> {
    let injector = ProbeInjector::new(schedule);
    let pair = injector
        .armed_scenario(
            inputs::static_caller().with_session(
                policy
                    .challenge
                    .session_config(1.5, &SessionConfig::default()),
            ),
        )
        .legitimate(0, seed)
        .map_err(|e| format!("probe response: {e}"))?;
    Ok(WireTrace {
        sample_rate: pair.tx.sample_rate(),
        forward_delay: pair.forward_delay,
        backward_delay: pair.backward_delay,
        tx: pair.tx.samples().to_vec(),
        rx: pair.rx.samples().to_vec(),
    })
}

#[allow(clippy::too_many_arguments)]
fn waves_loop(
    port: u16,
    sessions: &mut [WaveSession],
    waves: usize,
    pool: &[PoolClip],
    clip_samples: usize,
    ledger: &mut Ledger,
    gen: &mut GenStats,
) -> Result<WavesPass, String> {
    let policy = probe_policy();
    let mut link = Link::connect(port)?;
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = WavesPass::default();
    let start = trace::now();
    let at = |s: f64| start + Duration::from_secs_f64(s);
    let mut next_wave = 0usize;
    let mut next_burst = [0usize; 2];
    let mut flood: Option<DaemonClient> = None;
    let mut flood_sent = 0u64;
    let mut flood_ready = true;
    let mut garbage: Option<DaemonClient> = None;
    let hostile_at = at(WAVE_PERIOD_S * 1.5);
    let send_end = at(WAVE_PERIOD_S * waves as f64);
    let mut last_answer = start;
    let deadline = send_end + Duration::from_secs(60);
    loop {
        let now = trace::now();
        if now > deadline {
            eprintln!("lumend-waves: drain timed out; unanswered clips count as failed");
            break;
        }
        // Wave arrivals: one Hello per session, in one batch.
        while next_wave < waves && now >= at(WAVE_PERIOD_S * next_wave as f64) {
            let hello_at = trace::now();
            for s in next_wave * WAVE_SESSIONS..(next_wave + 1) * WAVE_SESSIONS {
                gen.encode(&Frame::Hello, &mut link.batch);
                link.hellos.push_back((s, hello_at));
            }
            next_wave += 1;
        }
        // Clip bursts: every welcomed session of the wave sends its clip's
        // samples at once, aligned.
        for (b, offset) in BURST_OFFSETS_S.iter().enumerate() {
            while next_burst[b] < next_wave
                && now >= at(WAVE_PERIOD_S * next_burst[b] as f64 + offset)
            {
                let w = next_burst[b];
                let due = at(WAVE_PERIOD_S * w as f64 + offset);
                for sess in &mut sessions[w * WAVE_SESSIONS..(w + 1) * WAVE_SESSIONS] {
                    send_clip(
                        sess,
                        b,
                        due,
                        trace::now(),
                        &mut link.batch,
                        pool,
                        clip_samples,
                        gen,
                        &mut out,
                    );
                }
                next_burst[b] += 1;
            }
        }
        if flood.is_none() && now >= hostile_at {
            flood = Some(DaemonClient::connect(port).map_err(|e| e.to_string())?);
            let mut g = DaemonClient::connect(port).map_err(|e| e.to_string())?;
            g.send_raw(b"\xDE\xAD\xBE\xEF not a lumen frame")
                .map_err(|e| e.to_string())?;
            garbage = Some(g);
        }
        if let Some(f) = flood
            .as_mut()
            .filter(|f| !f.is_closed() && flood_ready && flood_sent < FLOOD_MAX)
        {
            // One small chunk at a time, the next only once the daemon has
            // answered the last: the flood drains the bucket without piling
            // up a large unread buffer of its own.
            flood_ready = false;
            let mut bytes = Vec::with_capacity(FLOOD_CHUNK as usize * 24);
            for nonce in flood_sent..flood_sent + FLOOD_CHUNK {
                bytes.extend_from_slice(&Frame::Ping { nonce }.encode());
            }
            f.send_raw(&bytes).map_err(|e| e.to_string())?;
            flood_sent += FLOOD_CHUNK;
        }
        gen.tracer.enter("gen.send");
        link.flush()?;
        gen.tracer.exit();
        if let Some(f) = flood.as_mut().filter(|f| !f.is_closed()) {
            f.send_raw(&[]).map_err(|e| e.to_string())?;
            if !f.poll().map_err(|e| e.to_string())?.is_empty() {
                flood_ready = true;
            }
        }
        if let Some(g) = garbage.as_mut().filter(|g| !g.is_closed()) {
            g.poll().map_err(|e| e.to_string())?;
        }
        gen.tracer.enter("gen.poll");
        let frames = link.client.poll().map_err(|e| e.to_string())?;
        gen.tracer.exit();
        let seen = trace::now();
        let got_none = frames.is_empty();
        for frame in frames {
            if matches!(frame, Frame::Verdict { .. } | Frame::Shed { .. }) {
                last_answer = seen;
            }
            match frame {
                Frame::Welcome { session } => {
                    let (s, sent) = link.hellos.pop_front().ok_or("unexpected Welcome")?;
                    out.admit_ms.push(seen.saturating_duration_since(sent).as_secs_f64() * 1e3);
                    sessions[s].id = Some(session);
                    by_id.insert(session, s);
                    // A session welcomed after its wave's bursts sends late.
                    let w = s / WAVE_SESSIONS;
                    for (b, offset) in BURST_OFFSETS_S.iter().enumerate() {
                        if next_burst[b] > w {
                            let due = at(WAVE_PERIOD_S * w as f64 + offset);
                            send_clip(
                                &mut sessions[s],
                                b,
                                due,
                                trace::now(),
                                &mut link.batch,
                                pool,
                                clip_samples,
                                gen,
                                &mut out,
                            );
                        }
                    }
                }
                Frame::Verdict { session, verdict } => {
                    let s = *by_id.get(&session).ok_or("verdict for unknown session")?;
                    let (due, p) = sessions[s].in_flight.pop_front().ok_or("verdict for no clip")?;
                    gen.tracer.record("clip.due_to_verdict", due, seen, Some(clip_id(s, verdict.clip_index)));
                    out.latencies_ms.push(seen.saturating_duration_since(due).as_secs_f64() * 1e3);
                    out.answered += 1;
                    sessions[s].answered += 1;
                    ledger.push(s, Observed::Verdict { pool: p, verdict });
                }
                Frame::Shed { session, .. } => {
                    let s = *by_id.get(&session).ok_or("shed for unknown session")?;
                    sessions[s].in_flight.pop_front().ok_or("shed for no clip")?;
                    out.shed += 1;
                    sessions[s].answered += 1;
                    ledger.push(s, Observed::Shed);
                }
                Frame::ProbeChallenge { session, schedule_json } => {
                    let s = *by_id.get(&session).ok_or("challenge for unknown session")?;
                    let text = String::from_utf8(schedule_json).map_err(|e| e.to_string())?;
                    let schedule: ChallengeSchedule = serde_json::from_str(&text).map_err(|e| format!("challenge: {e}"))?;
                    out.probe_requests += 1;
                    let response = probe_response(schedule, &policy, sessions[s].probe_seed)?;
                    gen.encode(&Frame::ProbeResponse { session, response }, &mut link.batch);
                    link.flush()?;
                    sessions[s].probe_out = Some(trace::now());
                }
                Frame::ProbeOutcome { session, verdict_json } => {
                    let s = *by_id.get(&session).ok_or("outcome for unknown session")?;
                    let text = String::from_utf8(verdict_json).map_err(|e| e.to_string())?;
                    let verdict: ProbeVerdict = serde_json::from_str(&text).map_err(|e| format!("probe outcome: {e}"))?;
                    if let Some(sent) = sessions[s].probe_out.take() {
                        out.probe_ms.push(seen.saturating_duration_since(sent).as_secs_f64() * 1e3);
                    }
                    out.probe_decisions[match verdict.decision {
                        ProbeDecision::Pass => 0,
                        ProbeDecision::Fail => 1,
                        ProbeDecision::Abstain => 2,
                    }] += 1;
                    if let Some(accepted) = verdict.accepted() {
                        ledger.push(s, Observed::ProbeVote(accepted));
                    }
                }
                Frame::Breaker { .. } => {}
                other => {
                    return Err(format!(
                        "unexpected frame {other:?} at {:.2} s (wave {next_wave}, {} answered of {} sent)",
                        start.elapsed().as_secs_f64(),
                        out.answered,
                        sessions.iter().map(|s| s.sent).sum::<usize>()
                    ))
                }
            }
        }
        // Goodbye once every clip is answered and no probe is pending.
        for sess in sessions.iter_mut() {
            if let Some(id) = sess.id {
                if !sess.byed
                    && sess.sent == sess.clips.len()
                    && sess.answered == sess.sent
                    && sess.probe_out.is_none()
                    && sess.in_flight.is_empty()
                {
                    gen.encode(&Frame::Bye { session: id }, &mut link.batch);
                    sess.byed = true;
                }
            }
        }
        let all_done = next_wave == waves && sessions.iter().all(|s| s.byed);
        let hostiles_done = [&flood, &garbage]
            .iter()
            .all(|h| h.as_ref().is_some_and(DaemonClient::is_closed));
        if all_done && hostiles_done {
            link.flush()?;
            break;
        }
        if got_none {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    out.window = last_answer.saturating_duration_since(at(BURST_OFFSETS_S[0]));
    out.attempted = sessions.iter().map(|s| s.sent as u64).sum();
    let goodbye = |c: &Option<DaemonClient>| c.as_ref().and_then(DaemonClient::goodbye);
    let flood_end = flood_end(
        goodbye(&flood),
        flood.as_ref().is_some_and(DaemonClient::is_closed),
    );
    if flood_end == FloodEnd::Lost {
        out.goodbyes_lost += 1;
        eprintln!(
            "lumend-waves: DAEMON DEFECT: the flooder's connection closed without its \
             Goodbye{{RateLimitAbuse}} (counted in daemon.goodbyes_lost)"
        );
    }
    out.hostile_ok =
        flood_end != FloodEnd::Wrong && goodbye(&garbage) == Some(DisconnectCause::Malformed);
    if !out.hostile_ok {
        eprintln!(
            "hostile goodbyes: flood {:?}, garbage {:?} (each must draw its typed goodbye)",
            goodbye(&flood),
            goodbye(&garbage)
        );
    }
    Ok(out)
}

/// How the flooder's connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FloodEnd {
    /// Its `Goodbye{RateLimitAbuse}` arrived.
    Typed,
    /// It closed with no goodbye read. Today's daemon closes a condemned
    /// flooder with the rest of the flood unread, and the kernel's reset
    /// can discard the queued goodbye: a defect of the daemon, counted in
    /// `daemon.goodbyes_lost` rather than failing the run.
    Lost,
    /// A goodbye with another cause, or a connection still open.
    Wrong,
}

/// Classifies the flooder's end from the goodbye it read and whether its
/// connection closed.
fn flood_end(goodbye: Option<DisconnectCause>, closed: bool) -> FloodEnd {
    match goodbye {
        Some(DisconnectCause::RateLimitAbuse) => FloodEnd::Typed,
        None if closed => FloodEnd::Lost,
        _ => FloodEnd::Wrong,
    }
}

/// Sends clip `b` of a session as one burst into `batch`, if the
/// session has it, is welcomed, and has sent every earlier clip. The clip
/// was due at `due` and goes out at `sent`: its lateness is the
/// generator's lag, and its verdict latency counts from `due`, so a late
/// send never shortens it.
#[allow(clippy::too_many_arguments)]
fn send_clip(
    sess: &mut WaveSession,
    b: usize,
    due: Instant,
    sent: Instant,
    batch: &mut Vec<u8>,
    pool: &[PoolClip],
    clip_samples: usize,
    gen: &mut GenStats,
    out: &mut WavesPass,
) {
    let (Some(id), Some(&p)) = (sess.id, sess.clips.get(b)) else {
        return;
    };
    if sess.sent != b {
        return;
    }
    for k in 0..clip_samples {
        let (tx, rx) = pool[p].sample(k);
        let before = batch.len();
        gen.encode(
            &Frame::Sample {
                session: id,
                tx,
                rx,
            },
            batch,
        );
        if out.frame_bytes.len() < (2 << 20) {
            out.frame_bytes.extend_from_slice(&batch[before..]);
        }
    }
    gen.lag_ms
        .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
    sess.in_flight.push_back((due, p));
    sess.sent += 1;
}

/// Seeded wave sessions: a share are static-content callers (probed),
/// the rest draw from the mixed pool; about half send a second clip.
fn wave_plan(seed: u64, pool: &[PoolClip], waves: usize) -> Vec<WaveSession> {
    let statics: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].kind == Kind::Static)
        .collect();
    let mixed: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].kind != Kind::Static)
        .collect();
    let mut rng = Rng::new(seed, 5);
    (0..waves * WAVE_SESSIONS)
        .map(|_| {
            let from = if rng.unit() < 0.5 { &statics } else { &mixed };
            let n = 1 + usize::from(rng.unit() < 0.5);
            WaveSession {
                clips: (0..n).map(|_| from[rng.below(from.len())]).collect(),
                id: None,
                sent: 0,
                answered: 0,
                in_flight: VecDeque::new(),
                probe_out: None,
                probe_seed: rng.next_u64(),
                byed: false,
            }
        })
        .collect()
}

/// Runs `lumend-waves`.
pub fn run_waves(args: &Args) -> Result<Report, String> {
    match common::pin_thread(GENERATOR_CPU) {
        Some(cpu) => {
            eprintln!("# generator pinned to cpu {cpu}, daemon threads to the first allowed")
        }
        None => eprintln!("# threads unpinned (fewer than two allowed processors)"),
    }
    let clip_samples = Model::train(args.seed)?.clip_samples()?;
    let pool = inputs::pool(args.seed, 256, Mix([2, 1, 1, 3]), clip_samples)?;
    let waves = ((args.seconds / WAVE_PERIOD_S).floor() as usize).max(2);

    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let waves_setup = |setups: &mut Vec<Duration>| -> Result<(Model, DaemonHandle), String> {
        let t = trace::now();
        let model = Model::train(args.seed)?;
        let handle = DaemonHandle::spawn(&model, args.seed, false)?;
        setups.push(t.elapsed());
        Ok((model, handle))
    };
    let mut built = None;
    for _ in 0..SETUPS_FIRST {
        if let Some((_, old)) = built.replace(waves_setup(&mut setups)?) {
            old.finish()?;
        }
    }
    let (model, handle) = built.ok_or("no set-up ran")?;
    let mut reference = Reference::build(&model, &pool, clip_samples)?;
    // Traced, the run is split: an untraced baseline pass (a third) for
    // the overhead, then the traced pass (two thirds, so that admissions
    // and probes still support a p99).
    let (pass_waves, traced_waves) = if args.trace {
        ((waves / 3).max(2), (2 * waves / 3).max(2))
    } else {
        (waves, 0)
    };
    let (pass, run, _, mut correct) = waves_pass(
        args,
        false,
        handle,
        &pool,
        clip_samples,
        pass_waves,
        &mut reference,
        &mut report,
    )?;
    for _ in SETUPS_FIRST..SETUPS {
        waves_setup(&mut setups)?.1.finish()?;
    }
    common::report_setup(&mut report, &setups);
    report.set("daemon.goodbyes_lost", pass.goodbyes_lost as f64);
    report.attempted = pass.attempted;
    report.failed = pass.attempted - pass.answered;
    report.set(
        "clips_per_s",
        pass.answered as f64 / pass.window.as_secs_f64(),
    );
    report.set(
        "capacity_sessions",
        inputs::CLIP_SECONDS * run.serve.served_clips as f64 / (run.busy_ns / 1e9).max(1e-9),
    );
    common::report_latency(&mut report, &pass.latencies_ms)?;
    report.set(
        "served_fraction",
        pass.answered as f64 / pass.attempted.max(1) as f64,
    );
    report.set(
        "failed_fraction",
        report.failed as f64 / pass.attempted.max(1) as f64,
    );
    if args.trace {
        let handle = DaemonHandle::spawn(&model, args.seed, true)?;
        let (tpass, trun, gen, ok) = waves_pass(
            args,
            true,
            handle,
            &pool,
            clip_samples,
            traced_waves,
            &mut reference,
            &mut Report::default(),
        )?;
        trace::write_spans(
            &args.workload,
            args.seed,
            &[("generator", &gen.tracer), ("daemon", &trun.tracer)],
        )?;
        correct &= ok;
        report.set(
            "daemon.goodbyes_lost",
            (pass.goodbyes_lost + tpass.goodbyes_lost) as f64,
        );
        gen.report(&mut report);
        report_daemon(&mut report, &trun, tpass.answered, "lumend-waves");
        report.set(
            "admit_p99_ms",
            stats::percentile(&tpass.admit_ms, 0.99).unwrap_or(0.0),
        );
        report.set(
            "probe_p99_ms",
            stats::percentile(&tpass.probe_ms, 0.99).unwrap_or(0.0),
        );
        report.set("probe.requests", tpass.probe_requests as f64);
        report.set("probe.pass", tpass.probe_decisions[0] as f64);
        report.set("probe.fail", tpass.probe_decisions[1] as f64);
        report.set("probe.abstain", tpass.probe_decisions[2] as f64);
        let judged: Vec<&PoolClip> = pool
            .iter()
            .filter(|c| c.kind != Kind::Static)
            .take(256)
            .collect();
        layers::retime_stages(&mut report, &model, &judged)?;
        layers::report_decode(&mut report, &tpass.frame_bytes)?;
        let per_clip = |r: &DaemonRun, clips: u64| r.busy_ns / clips.max(1) as f64;
        report.set(
            "obs.trace_overhead_pct",
            100.0
                * (per_clip(&trun, tpass.answered) / per_clip(&run, pass.answered).max(1.0) - 1.0),
        );
        eprintln!(
            "# lumend-waves: {} checkpoints, {} post-mortems, {} probes answered",
            trun.spans.get(stage::CHECKPOINT).map_or(0, Vec::len),
            trun.postmortems,
            tpass.probe_ms.len()
        );
    }
    report.correct = correct;
    Ok(report)
}

/// One waves pass against a started daemon: the generator's and the
/// daemon's figures, the generator counters, and whether every check
/// held. Reference figures (mismatches, FRR, FAR) go into `report`.
#[allow(clippy::too_many_arguments)]
fn waves_pass(
    args: &Args,
    traced: bool,
    handle: DaemonHandle,
    pool: &[PoolClip],
    clip_samples: usize,
    waves: usize,
    reference: &mut Reference,
    report: &mut Report,
) -> Result<(WavesPass, DaemonRun, GenStats, bool), String> {
    let mut sessions = wave_plan(args.seed, pool, waves);
    let mut ledger = Ledger::new(sessions.len());
    let mut gen = GenStats::new(traced);
    let pass = waves_loop(
        handle.port,
        &mut sessions,
        waves,
        pool,
        clip_samples,
        &mut ledger,
        &mut gen,
    )?;
    let run = handle.finish()?;
    let mismatches = ledger.check(reference, pool, report);
    let accounting = accounting_ok(&run, (pass.answered, pass.shed));
    let welcomed = sessions.iter().filter(|s| s.id.is_some()).count() as u64;
    let admissions_ok = run.wire.welcomes == welcomed && welcomed == sessions.len() as u64;
    if !admissions_ok {
        eprintln!(
            "admissions: {} welcomes for {} sessions",
            run.wire.welcomes,
            sessions.len()
        );
    }
    let ok = mismatches == 0
        && accounting
        && admissions_ok
        && pass.hostile_ok
        && hostile_accounted(&run);
    Ok((pass, run, gen, ok))
}

/// The daemon condemned exactly the hostile cast, each with its cause,
/// and the abuse fired a flight-recorder post-mortem.
fn hostile_accounted(run: &DaemonRun) -> bool {
    let ok = run.wire.abuse_disconnects == 1
        && run.wire.malformed_disconnects == 1
        && run.postmortems >= 1;
    if !ok {
        eprintln!(
            "hostile accounting: {:?}, post-mortems {}",
            run.wire, run.postmortems
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_daemon::wire::Decoder;

    /// Samples per clip: 15 s at 10 Hz.
    const CLIP: usize = 150;

    fn welcomed(clips: Vec<usize>) -> WaveSession {
        WaveSession {
            clips,
            id: Some(7),
            sent: 0,
            answered: 0,
            in_flight: VecDeque::new(),
            probe_out: None,
            probe_seed: 0,
            byed: false,
        }
    }

    /// The generator's side of `send_clip`, over a two-clip pool.
    struct BurstSender {
        pool: Vec<PoolClip>,
        gen: GenStats,
        out: WavesPass,
        batch: Vec<u8>,
    }

    impl BurstSender {
        fn with_pool() -> Self {
            BurstSender {
                pool: inputs::pool(1, 2, Mix([1, 0, 0, 0]), CLIP).expect("pool"),
                gen: GenStats::new(false),
                out: WavesPass::default(),
                batch: Vec::new(),
            }
        }

        fn send(&mut self, sess: &mut WaveSession, b: usize, due: Instant, sent: Instant) {
            let (gen, out, batch) = (&mut self.gen, &mut self.out, &mut self.batch);
            send_clip(sess, b, due, sent, batch, &self.pool, CLIP, gen, out);
        }
    }

    #[test]
    fn a_late_session_owes_its_lateness_and_keeps_its_due_times() {
        let mut g = BurstSender::with_pool();
        let t0 = trace::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        // On time: no lag.
        let mut on_time = welcomed(vec![1]);
        g.send(&mut on_time, 0, ms(50), ms(50));
        // Welcomed only at 400 ms, after both of its wave's bursts (due at
        // 50 and 250 ms): both clips go out then, each late by its own due
        // time, and each clip's latency still counts from its due time.
        let mut late = welcomed(vec![0, 1]);
        g.send(&mut late, 0, ms(50), ms(400));
        g.send(&mut late, 1, ms(250), ms(400));
        // Sent before it was due (never happens): no negative lag.
        let mut early = welcomed(vec![0]);
        g.send(&mut early, 0, ms(300), ms(200));
        let expected = [0.0, 350.0, 150.0, 0.0];
        assert_eq!(g.gen.lag_ms.len(), expected.len());
        for (got, want) in g.gen.lag_ms.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "{:?}", g.gen.lag_ms);
        }
        assert_eq!(
            late.in_flight.iter().copied().collect::<Vec<_>>(),
            vec![(ms(50), 0), (ms(250), 1)]
        );
        assert_eq!(late.sent, 2);
        // One frame per sample, each the pool clip's sample in order.
        assert_eq!(g.gen.frames, 4 * CLIP as u64);
        let mut decoder = Decoder::new(1 << 24);
        decoder.push(&g.batch);
        let mut frames = Vec::new();
        while let Some(frame) = decoder.next_frame().expect("well-formed") {
            frames.push(frame);
        }
        assert_eq!(frames.len(), 4 * CLIP);
        let (tx, rx) = g.pool[0].sample(CLIP - 1);
        assert_eq!(frames[2 * CLIP - 1], Frame::Sample { session: 7, tx, rx });
    }

    #[test]
    fn a_flooder_without_its_goodbye_is_counted_and_a_wrong_one_fails() {
        use DisconnectCause::{Malformed, RateLimitAbuse};
        assert_eq!(flood_end(Some(RateLimitAbuse), true), FloodEnd::Typed);
        assert_eq!(flood_end(None, true), FloodEnd::Lost);
        assert_eq!(flood_end(None, false), FloodEnd::Wrong);
        assert_eq!(flood_end(Some(Malformed), true), FloodEnd::Wrong);
    }

    #[test]
    fn a_clip_goes_out_once_in_order_and_only_when_welcomed() {
        let mut g = BurstSender::with_pool();
        let t = trace::now();
        let mut s = welcomed(vec![0, 1]);
        s.id = None;
        g.send(&mut s, 0, t, t);
        assert!(g.batch.is_empty() && g.gen.lag_ms.is_empty() && s.sent == 0);
        s.id = Some(7);
        // The second clip waits for the first.
        g.send(&mut s, 1, t, t);
        assert_eq!(s.sent, 0);
        g.send(&mut s, 0, t, t);
        g.send(&mut s, 0, t, t);
        assert_eq!((s.sent, s.in_flight.len(), g.gen.lag_ms.len()), (1, 1, 1));
        // A one-clip session ignores its wave's second burst.
        let mut one = welcomed(vec![0]);
        g.send(&mut one, 0, t, t);
        g.send(&mut one, 1, t, t);
        assert_eq!(one.sent, 1);
        assert_eq!(g.gen.frames, 2 * CLIP as u64);
    }
}
