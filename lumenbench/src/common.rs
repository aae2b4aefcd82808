//! Pieces every workload shares: arguments, lifted limits, the verdict
//! ledger and the quality tally.

use crate::inputs::{Kind, PoolClip};
use crate::reference::{Observed, Reference};
use crate::report::Report;
use crate::stats;
use lumen_serve::{BreakerConfig, ServeConfig, ServeStats};
use std::time::Duration;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// The measured window as a duration.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-ups per run; `setup_s` is their median. The first
/// [`SETUPS_FIRST`] run back to back before the measured window (the
/// last of them is the one measured); the rest run after it, so that the
/// median spans the machine's state over the whole run.
pub const SETUPS: usize = 10;
/// Set-ups before the measured window.
pub const SETUPS_FIRST: usize = 5;

/// A serve config whose budgets, deadlines, queues and breaker never
/// bind: compute, not a configured limit, decides what gets served.
pub fn lifted_serve_config(max_sessions: usize) -> ServeConfig {
    ServeConfig {
        max_sessions,
        queue_clips: 1 << 16,
        budget_clips: 1 << 40,
        budget_period_ticks: 1,
        deadline_ticks: 1 << 40,
        breaker: BreakerConfig {
            trip_after: usize::MAX,
            ..BreakerConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Pins the calling thread to the `k`-th processor the process may run
/// on and returns it, so that the daemon thread and the load generator
/// each keep a core of their own and the generator's wake-ups never land
/// in the middle of a daemon turn. Returns `None`, leaving the thread
/// where it was, when fewer than two processors are allowed, `k` is out
/// of range, or the platform has no affinity call.
#[cfg(target_os = "linux")]
pub fn pin_thread(k: usize) -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 processors, one bit each.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable, aligned buffer of `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.len() < 2 {
        return None;
    }
    let cpu = *cpus.get(k)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable, aligned buffer of `size` bytes, and pid
    // 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Thread pinning is Linux-only; elsewhere threads stay unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_k: usize) -> Option<usize> {
    None
}

/// Per-session observations in arrival order, for the reference check.
#[derive(Debug, Default)]
pub struct Ledger {
    /// One list per session ordinal.
    pub sessions: Vec<Vec<Observed>>,
}

impl Ledger {
    /// An empty ledger for `n` sessions.
    pub fn new(n: usize) -> Self {
        Ledger {
            sessions: vec![Vec::new(); n],
        }
    }

    /// Appends one observation for session ordinal `s`.
    pub fn push(&mut self, s: usize, event: Observed) {
        self.sessions[s].push(event);
    }

    /// Checks every session against the reference and tallies quality.
    pub fn check(&self, reference: &mut Reference, pool: &[PoolClip], report: &mut Report) -> u64 {
        let mut mismatches = 0;
        let (mut live, mut live_rejected, mut fake, mut fake_accepted) = (0u64, 0u64, 0u64, 0u64);
        for observed in &self.sessions {
            mismatches += reference.check_session(observed);
            for event in observed {
                if let Observed::Verdict { pool: p, verdict } = event {
                    let conclusive = verdict.disposition < 2;
                    let accepted = verdict.disposition == 0;
                    match (conclusive, pool[*p].kind) {
                        (false, _) => {}
                        (true, Kind::Reenactment) => {
                            fake += 1;
                            fake_accepted += u64::from(accepted);
                        }
                        (true, _) => {
                            live += 1;
                            live_rejected += u64::from(!accepted);
                        }
                    }
                }
            }
        }
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.set("frr", ratio(live_rejected, live));
        report.set("far", ratio(fake_accepted, fake));
        report.set("verdict_mismatches", mismatches as f64);
        mismatches
    }
}

/// Sets the `serve.*` counters from summed serve stats.
pub fn report_serve_stats(report: &mut Report, s: &ServeStats) {
    report.set("serve.offered", s.offered_clips as f64);
    report.set("serve.served", s.served_clips as f64);
    report.set("serve.shed.queue_full", s.shed_queue_full as f64);
    report.set("serve.shed.deadline", s.shed_deadline as f64);
    report.set("serve.shed.breaker_open", s.shed_breaker as f64);
    report.set("serve.shed.detection_failed", s.shed_failed as f64);
    report.set("serve.shed.session_closed", s.shed_closed as f64);
}

/// Sets the backlog metrics from per-step `pending_clips` samples.
pub fn report_backlog(report: &mut Report, pending: &[f64]) {
    report.set(
        "serve.pending_clips.max",
        pending.iter().copied().fold(0.0, f64::max),
    );
    report.set("serve.pending_clips.slope", stats::slope(pending));
}

/// Sets `serve.queue_wait_ticks.p99` from per-clip waits in ticks.
pub fn report_queue_wait(report: &mut Report, ticks: &[u64]) {
    let waits: Vec<f64> = ticks.iter().map(|&t| t as f64).collect();
    report.set(
        "serve.queue_wait_ticks.p99",
        stats::percentile(&waits, 0.99).unwrap_or(0.0),
    );
}

/// Window spread or trend past which a latency reading is flagged.
const FLAG_SHARE: f64 = 0.25;

/// Sets the verdict latency metrics, failing the run when the sample
/// cannot support a p99 (the workload is too small to report it).
///
/// Both are windowed readings (`stats::windowed`): the verdicts, in
/// arrival order, are cut into windows of at least 1000, and the figure
/// is the median of the windows' percentiles. The windows' spread and
/// trend go to standard error, flagged past [`FLAG_SHARE`]; the p99's
/// trend is also the per-layer `verdict_p99_ms.window_trend`.
pub fn report_latency(report: &mut Report, latencies_ms: &[f64]) -> Result<(), String> {
    for (name, q, trend) in [
        ("verdict_p50_ms", 0.5, None),
        ("verdict_p99_ms", 0.99, Some("verdict_p99_ms.window_trend")),
    ] {
        let w = stats::windowed(latencies_ms, q).ok_or_else(|| {
            format!(
                "{} verdict latencies cannot support a p99",
                latencies_ms.len()
            )
        })?;
        eprintln!(
            "# {name}: median {:.6} ms over {} windows of >= 1000 verdicts, \
             spread {:.3}, trend {:+.3}; whole run {:.6} ms",
            w.median,
            w.windows,
            w.spread,
            w.trend,
            stats::percentile(latencies_ms, q).unwrap_or(f64::NAN)
        );
        if w.spread > FLAG_SHARE {
            eprintln!("# {name} unresolved: its windows spread past {FLAG_SHARE}");
        }
        if w.trend > FLAG_SHARE {
            eprintln!("# {name} grows over the run: later windows are worse");
        }
        report.set(name, w.median);
        if let Some(trend) = trend {
            report.set(trend, w.trend);
        }
    }
    Ok(())
}

/// The median of the set-up times, in seconds.
pub fn report_setup(report: &mut Report, setups: &[Duration]) {
    let secs: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    eprintln!("# set-up: {}", stats::describe(&secs, "s"));
    report.set("setup_s", stats::median(&secs));
}
