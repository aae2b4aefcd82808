//! The traced pass: benchmark-side spans around every public call, the
//! program's own `lumen_obs` spans through an in-memory sink, and the
//! per-layer self times derived from both.
//!
//! Self time of a span = its duration minus the time covered by its child
//! spans. Spans nest statically (a `serve_clip` always runs inside a
//! `serve_tick`, a `detect` inside a `serve_clip`, ...), so the self time
//! of a layer is its total minus the totals of the layers nested directly
//! inside it; the nesting is given per front end by [`Nesting`].

use lumen_obs::{Event, EventKind, Sink};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// The wall clock: every reading the benchmark takes goes through here.
pub fn now() -> Instant {
    // lint:allow(no-wall-clock, hot-path-purity): measuring wall time is the
    // benchmark's job; no program path calls into the benchmark
    Instant::now()
}

/// Folds the program's span events into per-name duration lists. Every
/// other event kind is dropped, so a long traced pass stays small.
#[derive(Debug, Default)]
pub struct SpanSink {
    durations: Mutex<BTreeMap<String, Vec<u64>>>,
}

impl SpanSink {
    /// Every span duration seen so far, by span name, in nanoseconds.
    pub fn take(&self) -> BTreeMap<String, Vec<u64>> {
        // A poisoned lock only means a recording thread panicked; the run
        // fails on that panic, not here.
        self.durations
            .lock()
            .map(|mut d| std::mem::take(&mut *d))
            .unwrap_or_default()
    }
}

impl Sink for SpanSink {
    fn record(&self, event: &Event) {
        if event.kind != EventKind::SpanEnd {
            return;
        }
        if let (Some(ns), Ok(mut durations)) = (event.duration_ns, self.durations.lock()) {
            durations.entry(event.name.clone()).or_default().push(ns);
        }
    }
}

/// One benchmark-side span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Clip id shared by every span of one clip, if the span is per clip.
    pub clip: Option<u64>,
}

/// Spans kept for the written-out trace; aggregates cover every span.
const KEPT_SPANS: usize = 100_000;

/// Benchmark-side spans of one thread. A disabled tracer costs one branch
/// per call, so the untraced runs use the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<(u32, &'static str, Instant)>,
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    /// A tracer measuring from `origin`; inert unless `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            durations: BTreeMap::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let index = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        self.stack.push((index, name, now()));
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: None,
                clip: None,
            });
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let Some((index, name, start)) = self.stack.pop() else {
            return;
        };
        let end = now();
        let ns = end.duration_since(start).as_nanos() as u64;
        self.durations.entry(name).or_default().push(ns);
        let parent = self.stack.last().map(|&(i, _, _)| i);
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
            span.parent = parent;
        }
    }

    /// Records a finished span measured elsewhere (e.g. a clip's due time
    /// to its verdict), with no parent.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, clip: Option<u64>) {
        if !self.enabled {
            return;
        }
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.durations.entry(name).or_default().push(ns);
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
                parent: None,
                clip,
            });
        }
    }

    /// Durations by span name, in nanoseconds.
    pub fn durations(&self) -> &BTreeMap<&'static str, Vec<u64>> {
        &self.durations
    }

    /// Writes the kept spans as JSON lines, one object per span.
    pub fn write_jsonl(&self, thread: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"clip\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.clip.map_or("null".to_string(), |c| c.to_string()),
            )?;
        }
        Ok(())
    }
}

/// Writes every kept benchmark-side span of a traced run as JSON lines
/// under the build directory (`$CARGO_TARGET_DIR`, else
/// `lumenbench/target`), and returns the file's path.
pub fn write_spans(
    workload: &str,
    seed: u64,
    threads: &[(&str, &Tracer)],
) -> Result<PathBuf, String> {
    let dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "lumenbench/target".to_string()),
    )
    .join("lumenbench-spans");
    // lint:allow(no-fs): the traced run's span file is the benchmark's output
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    // lint:allow(no-fs): the traced run's span file is the benchmark's output
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (thread, tracer) in threads {
        tracer
            .write_jsonl(thread, &mut out)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("# spans written to {}", path.display());
    Ok(path)
}

/// Static nesting of span names for one front end: `(child, parent)`.
pub type Nesting = &'static [(&'static str, &'static str)];

/// Self time per span name: its total minus the totals of the spans
/// nested directly inside it. `totals` maps names to total ns.
pub fn self_times(totals: &BTreeMap<String, f64>, nesting: Nesting) -> BTreeMap<String, f64> {
    let mut out = totals.clone();
    for (child, parent) in nesting {
        if let (Some(c), Some(p)) = (totals.get(*child), out.get_mut(*parent)) {
            *p -= c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = BTreeMap::new();
        t.insert("tick".to_string(), 100.0);
        t.insert("clip".to_string(), 60.0);
        t.insert("detect".to_string(), 50.0);
        let nesting: Nesting = &[("clip", "tick"), ("detect", "clip")];
        let s = self_times(&t, nesting);
        assert_eq!(s["tick"], 40.0);
        assert_eq!(s["clip"], 10.0);
        assert_eq!(s["detect"], 50.0);
        assert_eq!(s.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn tracer_links_parents_and_clip_ids() {
        let mut tr = Tracer::new(true, now());
        tr.enter("outer");
        tr.enter("inner");
        tr.exit();
        tr.exit();
        let t = now();
        tr.record("clip", t, t, Some(7));
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].clip, Some(7));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        assert_eq!(tr.durations()["outer"].len(), 1);
    }
}
