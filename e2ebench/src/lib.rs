//! End-to-end benchmark of the SEED reproduction.
//!
//! Three workloads, each generated from `--seed` and driven only through the
//! workspace crates' public APIs:
//!
//! * `eval_s1` — the Table IV grid (SEED_gpt and SEED_deepseek evidence for
//!   every BIRD dev question, then 7 systems x 4 evidence settings x every
//!   dev question, generated and scored) at corpus scale 1. One closed-loop
//!   caller, like the `table4` binary. Chosen because generation dominates.
//! * `eval_s10` — the same grid on a corpus built at scale 10. Chosen
//!   because the engine dominates: SEED's sample-SQL probes, scoring and the
//!   candidate execution of C3 and CHESS all grow with the rows. It is not
//!   in `BENCHMARK.json` (see [`BENCHMARKED`]) and is run by hand.
//! * `serve_rw` — two closed-loop client threads, each holding a session on
//!   one server per BIRD database, sending a Zipf-skewed read stream with
//!   about 5% writes. Chosen because it is the only workload that uses the
//!   serve result cache, in-flight dedup and the commit path.
//!
//! A run prints a record of what was measured, then one JSON result line.
//! With `--trace 1` the run measures an untraced phase, then a traced phase
//! of the same workload for the same time (see [`trace`]), and reports
//! per-layer metrics plus the tracing overhead; end-to-end metrics come only
//! from untraced runs.
//!
//! End-to-end times are the CPU time of the thread doing the work
//! ([`thread_cpu_ns`]), pooled over the whole timed phase and scaled to a
//! reference host speed ([`HostSpeed`]). On a shared host the wall clock
//! also counts the time the thread waited for a CPU, and the CPU's speed
//! moves with other tenants' load; the record line carries the figures as
//! measured and the wall-clock throughput beside them.

pub mod eval;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use seed_sqlengine::ExecStats;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvalS1,
    EvalS10,
    ServeRw,
}

/// The workloads `BENCHMARK.json` lists. `eval_s10` is left out: on a
/// shared 2-CPU host its figures moved 30-38% between runs of ten seeds
/// (host speed drifts over minutes, and a run holds only five passes), past
/// any bound the benchmark may set.
pub const BENCHMARKED: [Workload; 2] = [Workload::EvalS1, Workload::ServeRw];

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::EvalS1, Workload::EvalS10, Workload::ServeRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalS1 => "eval_s1",
            Workload::EvalS10 => "eval_s10",
            Workload::ServeRw => "serve_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The BIRD corpus scale the workload runs at.
    pub fn scale(self) -> f64 {
        match self {
            Workload::EvalS1 | Workload::ServeRw => 1.0,
            Workload::EvalS10 => 10.0,
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed phase measures.
    pub measure: Duration,
    pub trace: bool,
    /// Corpus scale; [`Workload::scale`] except in the self-test, which
    /// shrinks it.
    pub scale: f64,
}

impl RunConfig {
    pub fn new(workload: Workload, seed: u64, measure: Duration, trace: bool) -> Self {
        RunConfig { workload, seed, measure, trace, scale: workload.scale() }
    }
}

/// A metric as printed: name, measured value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Output-check failures; the run is correct when this is empty.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Descriptive fields for the record line, as (key, JSON value).
    pub record: Vec<(String, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record.push((key.to_string(), value.to_string()));
    }

    pub fn record_str(&mut self, key: &str, value: &str) {
        self.record.push((key.to_string(), json_string(value)));
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// The record line: the workload parameters and run facts that are
    /// not metrics.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{\"record\": {");
        for (i, (k, v)) in self.record.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {v}", json_string(k));
        }
        s.push_str("}}");
        s
    }

    /// The result line, printed last: `correct`, `attempted`, `failed` and
    /// the metrics by name with value and unit.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("evidence_or_write_p50_us", "us"),
    ("evidence_or_write_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run; a workload that does
/// not reach a layer reports 0 for it.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("datasets.build_ms", "ms");
    for stage in ["pipeline", "schema_summary", "sample_sql"] {
        add(&format!("seed_core.{stage}_ms"), "ms");
    }
    add("seed_core.sample_sql.probes", "count");
    add("seed_core.few_shot_ms", "ms");
    add("seed_core.residual_ms", "ms");
    add("seed_core.llm_calls", "count");
    add("text2sql.value_retrieval_ms", "ms");
    add("text2sql.value_retrieval.calls", "count");
    add("text2sql.value_retrieval.grounded_per_call", "count");
    add("text2sql.generate_ms", "ms");
    for key in eval::SYSTEM_KEYS {
        add(&format!("text2sql.generate_ms.{key}"), "ms");
    }
    add("llm.calls", "count");
    add("llm.prompt_tokens", "count");
    add("eval.score_ms", "ms");
    add("eval.invalid_pred_share", "ratio");
    add("sqlengine.parse_ms", "ms");
    add("sqlengine.exec_ms", "ms");
    for (_, key) in OP_KINDS {
        add(&format!("sqlengine.op.{key}_ms"), "ms");
    }
    add("sqlengine.op.other_ms", "ms");
    for counter in ["rows_scanned", "hash_probes", "evaluations", "cost"] {
        add(&format!("sqlengine.{counter}"), "count");
    }
    add("sqlengine.plan_cache_hit_ratio", "ratio");
    add("sqlengine.columnar_fallbacks", "count");
    for (name, unit) in serve::SERVE_METRICS {
        add(name, unit);
    }
    for layer in trace::LAYERS {
        add(&format!("{layer}.self_ms"), "ms");
    }
    add("trace.spans", "count");
    add("trace.replay_ms", "ms");
    add("trace.overhead_pct", "%");
    m
}

/// Runs one workload.
pub fn run(config: &RunConfig) -> Report {
    let mut report = match config.workload {
        Workload::EvalS1 | Workload::EvalS10 => eval::run(config),
        Workload::ServeRw => serve::run(config),
    };
    conform(&mut report, config.trace);
    report.record.insert(0, ("workload".into(), json_string(config.workload.name())));
    report.record.insert(1, ("seed".into(), config.seed.to_string()));
    report.record.insert(2, ("scale".into(), format!("{:?}", config.scale)));
    report.record.insert(3, ("trace".into(), config.trace.to_string()));
    report.record.insert(4, ("measure_s".into(), format!("{:?}", config.measure.as_secs_f64())));
    report.record.insert(5, ("available_parallelism".into(), available_parallelism().to_string()));
    report.record.insert(6, ("git_commit".into(), json_string(&source_revision())));
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.record("failed_share", failed_share);
    report.record("problems", report.problems.len());
    report
}

/// Operator kinds `QueryProfile` labels start with, as metric-name keys.
pub const OP_KINDS: [(&str, &str); 5] = [
    ("SeqScan", "seq_scan"),
    ("IndexLookup", "index_lookup"),
    ("SubqueryScan", "subquery_scan"),
    ("HashJoin", "hash_join"),
    ("NestedLoopJoin", "nested_loop_join"),
];

/// The metric key of an operator label's kind.
pub fn op_kind(label: &str) -> &'static str {
    OP_KINDS
        .iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map(|(_, key)| *key)
        .unwrap_or("other")
}

/// The `sqlengine.*` per-layer metrics, each divided by `per`.
pub fn engine_metrics(
    report: &mut Report,
    parse_ns: u64,
    exec_ns: u64,
    op_ns: &BTreeMap<&'static str, u64>,
    stats: &ExecStats,
    per: f64,
) {
    let ms = |ns: u64| ns as f64 / 1e6 / per;
    report.metric("sqlengine.parse_ms", ms(parse_ns), "ms");
    report.metric("sqlengine.exec_ms", ms(exec_ns), "ms");
    for key in OP_KINDS.iter().map(|(_, k)| *k).chain(["other"]) {
        report.metric(
            format!("sqlengine.op.{key}_ms"),
            ms(op_ns.get(key).copied().unwrap_or(0)),
            "ms",
        );
    }
    report.metric("sqlengine.rows_scanned", stats.rows_scanned as f64 / per, "count");
    report.metric("sqlengine.hash_probes", stats.hash_probes as f64 / per, "count");
    report.metric("sqlengine.evaluations", stats.evaluations as f64 / per, "count");
    report.metric("sqlengine.cost", stats.cost() / per, "count");
    let lookups = stats.plan_cache_hits + stats.plan_cache_misses;
    report.metric(
        "sqlengine.plan_cache_hit_ratio",
        stats.plan_cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric("sqlengine.columnar_fallbacks", stats.columnar_fallbacks as f64 / per, "count");
}

/// Orders the report's metrics as declared and checks it has exactly the
/// declared set: the end-to-end metrics untraced, the per-layer metrics
/// traced (absent layers as 0).
fn conform(report: &mut Report, trace: bool) {
    if report.metrics.is_empty() {
        // The run stopped before measuring; its problems say why.
        return;
    }
    let declared: Vec<(String, &'static str)> = if trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let mut got: Vec<Metric> = std::mem::take(&mut report.metrics);
    for (name, unit) in declared {
        match got.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = got.swap_remove(i);
                if m.unit != unit {
                    report.problem(format!("{name} measured in {} not {unit}", m.unit));
                }
                report.metrics.push(m);
            }
            None if trace => report.metric(name, 0.0, unit),
            None => report.problem(format!("end-to-end metric {name} was not measured")),
        }
    }
    for m in got {
        report.problem(format!("metric {} is not declared", m.name));
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The git commit of the checkout when it is a git work tree, read from
/// `.git` without running git; otherwise a digest of the workspace's Rust
/// sources and manifests (`source-<hex>`), which names the code as well.
fn source_revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    git_commit(&root.join(".git"))
        .unwrap_or_else(|| format!("source-{:016x}", source_digest(&root)))
}

fn git_commit(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the paths and contents of every `.rs` and `Cargo.toml` file
/// under `crates/`, `src/` and `e2ebench/src/`, in sorted path order.
fn source_digest(root: &std::path::Path) -> u64 {
    fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "e2ebench/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let name = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU time the calling thread has run, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). The kernel leaves out time the thread was
/// not running: preempted, blocked, or its virtual CPU stolen by the host.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec` for
    // the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds one [`HostSpeed`] round takes on the reference host:
/// end-to-end times are scaled to it.
pub const REFERENCE_ROUND_NS: f64 = 1.0e6;

/// The host's speed over a run, read from a fixed piece of the benchmark's
/// own work (sorting byte keys, hashing them into a table) timed at even
/// intervals through the timed phase.
///
/// A shared host's speed drifts by half and more over minutes as other
/// tenants come and go, and every kind of code slows alike. Scaling a run's
/// times by `REFERENCE_ROUND_NS / median round` takes that drift out and
/// keeps every change of the program's own speed: the rounds run none of
/// the program's code and work in buffers of their own, allocated before
/// the first round, so neither the program's heap nor its allocator moves
/// them.
pub struct HostSpeed {
    keys: Vec<[u8; 16]>,
    work: Vec<[u8; 16]>,
    table: Vec<u64>,
    rounds_ns: Vec<u64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut rng = Rng::new(0x5eed_5bee);
        let keys: Vec<[u8; 16]> = (0..1 << 14)
            .map(|_| {
                let mut k = [0u8; 16];
                k[..8].copy_from_slice(&(rng.next_u64() % 4096).to_be_bytes());
                k[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
                k
            })
            .collect();
        HostSpeed {
            work: keys.clone(),
            keys,
            table: vec![1; 1 << 15],
            rounds_ns: Vec::with_capacity(1 << 12),
        }
    }
}

impl HostSpeed {
    /// Times three rounds.
    pub fn sample(&mut self) {
        for _ in 0..3 {
            let t0 = thread_cpu_ns();
            std::hint::black_box(self.round());
            self.rounds_ns.push(thread_cpu_ns() - t0);
        }
    }

    fn round(&mut self) -> u64 {
        self.work.copy_from_slice(&self.keys);
        self.work.sort_unstable();
        let mask = self.table.len() - 1;
        let mut acc = 0u64;
        for k in &self.work {
            let h = k.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            for probe in 0..4 {
                let slot = &mut self.table[(h >> (probe * 16)) as usize & mask];
                *slot = slot.wrapping_add(h);
                acc ^= *slot;
            }
        }
        acc
    }

    /// The median round in nanoseconds.
    pub fn median_round_ns(&self) -> f64 {
        percentile(&mut self.rounds_ns.clone(), 0.5) as f64
    }

    /// What a time measured in this run is multiplied by to read as on the
    /// reference host.
    pub fn scale(&self) -> f64 {
        REFERENCE_ROUND_NS / self.median_round_ns().max(1.0)
    }
}

/// Wall-clock and thread CPU time since it was started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { wall: std::time::Instant::now(), cpu: thread_cpu_ns() }
    }

    /// (wall, CPU) nanoseconds since the start.
    pub fn lap(&self) -> (u64, u64) {
        let cpu = thread_cpu_ns() - self.cpu;
        (self.wall.elapsed().as_nanos() as u64, cpu)
    }
}

/// Nearest-rank percentile of unsorted samples, `q` in `(0, 1]`.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Adds `setup_s` and `ops_per_s` scaled to the reference host, and
/// records them as measured together with the host's speed.
pub fn end_to_end(report: &mut Report, speed: &HostSpeed, setup_s: f64, ops_per_s: f64) {
    report.metric("setup_s", setup_s * speed.scale(), "s");
    report.metric("ops_per_s", ops_per_s / speed.scale(), "1/s");
    report.record("measured_setup_s", setup_s);
    report.record("measured_ops_per_s", ops_per_s);
    report.record("host_round_us", speed.median_round_ns() / 1e3);
    report.record("host_rounds", speed.rounds_ns.len());
}

/// Adds a latency distribution as `<name>_p50_us` and `<name>_p<q>_us`
/// scaled to the reference host, and records them as measured, the sample
/// count and how many samples lie beyond the upper percentile.
pub fn latency_metrics(
    report: &mut Report,
    name: &str,
    samples: &mut [u64],
    upper: f64,
    speed: &HostSpeed,
) {
    let tag = format!("p{}", (upper * 100.0).round() as u32);
    for (q, label) in [(0.5, "p50"), (upper, tag.as_str())] {
        let us = percentile(samples, q) as f64 / 1e3;
        report.metric(format!("{name}_{label}_us"), us * speed.scale(), "us");
        report.record(&format!("measured_{name}_{label}_us"), us);
    }
    report.record(&format!("{name}_samples"), samples.len());
    let beyond =
        samples.len() - ((upper * samples.len() as f64).ceil() as usize).min(samples.len());
    report.record(&format!("{name}_{tag}_samples_beyond"), beyond);
}

/// A uniform sample of at most `capacity` latencies (reservoir sampling).
/// Its buffer is allocated and written when it is made, so the benchmark's
/// own memory does not grow with the program's throughput.
pub struct Reservoir {
    kept: Vec<u64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Self {
        // A non-zero fill writes every page now rather than on first use.
        Reservoir { kept: vec![u64::MAX; capacity.max(1)], seen: 0, rng: Rng::new(seed) }
    }

    pub fn push(&mut self, ns: u64) {
        let slot = if (self.seen as usize) < self.kept.len() {
            self.seen as usize
        } else {
            (self.rng.next_u64() % (self.seen + 1)) as usize
        };
        if let Some(s) = self.kept.get_mut(slot) {
            *s = ns;
        }
        self.seen += 1;
    }

    /// How many latencies were pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sample kept.
    pub fn samples(&self) -> &[u64] {
        &self.kept[..(self.seen as usize).min(self.kept.len())]
    }
}

/// Splitmix64: a small deterministic generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where the traced run writes its spans.
pub fn trace_path(workload: Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.csv", workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut s, 0.5), 50);
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn reservoir_keeps_everything_up_to_capacity_then_a_fixed_size_sample() {
        let mut r = Reservoir::new(4, 1);
        for ns in 1..=3 {
            r.push(ns);
        }
        assert_eq!(r.samples(), [1, 2, 3]);
        for ns in 4..=1000 {
            r.push(ns);
        }
        assert_eq!((r.seen(), r.samples().len()), (1000, 4));
        assert!(r.samples().iter().all(|ns| (1..=1000).contains(ns)));
    }

    #[test]
    fn host_speed_scales_times_by_reference_over_median_round() {
        let mut speed = HostSpeed::default();
        speed.sample();
        speed.sample();
        assert_eq!(speed.rounds_ns.len(), 6);
        let median = speed.median_round_ns();
        assert!(median > 0.0);
        assert!((speed.scale() * median - REFERENCE_ROUND_NS).abs() < 1e-6 * REFERENCE_ROUND_NS);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report { attempted: 3, ..Default::default() };
        r.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
