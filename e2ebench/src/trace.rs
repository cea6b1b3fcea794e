//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. A span has
//! a name (`<layer>.<stage>`), a start and end in monotonic nanoseconds
//! since the tracer was created, and the span that caused it. Every span of
//! one op shares that op's id.
//!
//! Some layers are reachable only inside another layer's call (value
//! retrieval inside `Text2SqlSystem::generate`, the SEED stages inside
//! `SeedPipeline::generate`, engine execution inside scoring). For those the
//! benchmark replays the public inner call on the same inputs right after
//! the outer call and records the replay as a child span marked `replay`.
//! A replayed child lies outside its parent's interval, so a parent's self
//! time subtracts the duration of every child, replayed or nested, rather
//! than the part of its interval the children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::Report;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; [`Tracer::write_csv`] writes them out once the
/// run has ended.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    replay_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_epoch(Instant::now())
    }
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`, so tracers of
    /// different threads can be merged with [`Tracer::absorb`].
    pub fn with_epoch(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new(), replay_ns: 0 }
    }

    /// Appends another tracer's spans (same epoch) to this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
        self.replay_ns += other.replay_ns;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&mut self, op: u64, parent: Option<u32>, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now();
        self.spans.push(Span {
            op,
            parent: parent.unwrap_or(NO_PARENT),
            name,
            start_ns,
            end_ns: start_ns,
            replay: false,
        });
        id
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.nanos()
    }

    /// Runs `f` as a replayed child of `parent` and returns its result and
    /// duration. Replay time is extra work the untraced run does not do;
    /// it is summed so the overhead figure can leave it out.
    pub fn replay<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let op = self.spans[parent as usize].op;
        let id = self.open(op, Some(parent), name);
        let out = f();
        let nanos = self.close(id);
        self.spans[id as usize].replay = true;
        self.replay_ns += nanos;
        (out, nanos)
    }

    /// Total nanoseconds spent in replayed spans.
    pub fn replay_ns(&self) -> u64 {
        self.replay_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self nanoseconds per layer (the span-name prefix before the first
    /// `.`): each span's duration minus the durations of its direct
    /// children, floored at zero.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.nanos();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += s.nanos().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one CSV line: id, op, parent (empty for a
    /// root), name, start, end, replay.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,op,parent,name,start_ns,end_ns,replay")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(
                out,
                "{id},{},{parent},{},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns, s.replay as u8
            )?;
        }
        out.flush()
    }
}

/// Layers that record spans, in the order their self times are reported.
pub const LAYERS: [&str; 7] =
    ["bench", "datasets", "seed_core", "text2sql", "eval", "sqlengine", "serve"];

/// Self time per layer, span count, replay time and tracing overhead.
/// `untraced_ns` and `traced_ns` are per unit of `per`; the traced figure
/// excludes replayed spans, so the overhead is that of recording spans.
pub fn trace_metrics(
    report: &mut Report,
    tracer: &Tracer,
    per: f64,
    untraced_ns: f64,
    traced_ns: f64,
) {
    let self_ns = tracer.self_ns_by_layer();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        report.metric(format!("{layer}.self_ms"), ns as f64 / 1e6 / per, "ms");
    }
    report.metric("trace.spans", tracer.spans().len() as f64 / per, "count");
    report.metric("trace.replay_ms", tracer.replay_ns() as f64 / 1e6 / per, "ms");
    report.metric("trace.overhead_pct", (traced_ns / untraced_ns - 1.0) * 100.0, "%");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let root = t.open(7, None, "bench.op");
        let child = t.open(7, Some(root), "eval.score");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        let ((), _) = t.replay(child, "sqlengine.exec", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[2].parent, child);
        assert!(spans[2].replay && !spans[1].replay);
        let by_layer = t.self_ns_by_layer();
        assert!(by_layer["sqlengine"] >= 1_000_000);
        assert_eq!(t.replay_ns(), spans[2].nanos());
        // The parent's self time excludes the replayed child's duration.
        assert_eq!(by_layer["eval"], spans[1].nanos().saturating_sub(spans[2].nanos()));
    }
}
