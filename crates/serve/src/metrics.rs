//! Serve-side metrics: atomic counters, gauges, and log-bucketed latency
//! histograms, with a consistent point-in-time snapshot and a
//! Prometheus-style text exposition.
//!
//! This module knows nothing about statements beyond their text (for
//! classification, which asks the engine's `is_write_statement` what a
//! write is) and plain numbers the serving layer feeds it. Everything is
//! lock-free (`AtomicU64` with relaxed ordering) so recording on the
//! statement hot path costs a handful of uncontended atomic adds — cheap
//! enough to stay always-on.
//!
//! ## Histogram layout
//!
//! Latencies land in power-of-two buckets: bucket `i` covers
//! `[2^i, 2^(i+1))` nanoseconds (bucket 0 additionally absorbs 0), with
//! [`HISTOGRAM_BUCKETS`] buckets total — the last is a catch-all up to
//! `u64::MAX`. Quantiles are read back as the upper bound of the bucket
//! containing the requested rank, so a reported p99 is within one
//! power-of-two bucket of the true sample p99 (pinned by the proptest
//! oracle in `tests/metrics_props.rs`). Buckets, not reservoirs: merging
//! two histograms is element-wise addition, which is associative and
//! loss-free — the property that lets per-worker or per-window histograms
//! fold into totals safely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use seed_sqlengine::is_write_statement;

/// Number of power-of-two latency buckets: `2^40` ns ≈ 18 minutes, far
/// beyond any statement this engine serves; slower outliers clamp into the
/// final catch-all bucket.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The bucket a nanosecond measurement lands in: `floor(log2(max(n, 1)))`,
/// clamped to the catch-all.
pub fn bucket_index(nanos: u64) -> usize {
    let n = nanos.max(1);
    ((63 - n.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Smallest value that lands in bucket `i` (0 for the first bucket, which
/// absorbs zero measurements).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Largest value that lands in bucket `i` (inclusive); the catch-all's is
/// `u64::MAX`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A lock-free log-bucketed latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Records one measurement.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy (individual bucket reads are
    /// atomic; the histogram only ever grows).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// An immutable histogram snapshot: bucket counts plus quantile readback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per bucket, [`HISTOGRAM_BUCKETS`] long.
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot { counts: vec![0; HISTOGRAM_BUCKETS] }
    }

    /// Total number of recorded measurements.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise accumulation. Addition is associative and commutative,
    /// so folding any partition of per-worker/per-window histograms yields
    /// the same totals in any order (pinned by proptest).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The value at quantile `q` (0.0..=1.0): the upper bound of the bucket
    /// holding the sample of rank `ceil(q × total)` (clamped to a valid
    /// rank), or 0 for an empty histogram. Within one bucket of the true
    /// sorted-sample quantile by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile latency (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Coarse statement classes latency histograms are keyed by, derived from
/// statement text alone (this module never parses SQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementClass {
    /// A mutation: INSERT, UPDATE, DELETE, or CREATE. Served through the
    /// commit path, never through the result cache.
    Write,
    /// Contains a parenthesized subquery.
    Subquery,
    /// Grouped or aggregated (GROUP BY or an aggregate function).
    Aggregate,
    /// Joins at least two relations.
    Join,
    /// Everything else: single-table scans and point lookups.
    Simple,
}

impl StatementClass {
    /// Every class, in rendering order.
    pub const ALL: [StatementClass; 5] = [
        StatementClass::Write,
        StatementClass::Subquery,
        StatementClass::Aggregate,
        StatementClass::Join,
        StatementClass::Simple,
    ];

    /// Classifies a statement by text, first match wins: write, then
    /// subquery, then aggregate, then join. Deliberately syntactic — the
    /// same statement always lands in the same class, which is all a
    /// latency key needs.
    pub fn of(sql: &str) -> StatementClass {
        if is_write_statement(sql) {
            return StatementClass::Write;
        }
        let upper = sql.to_ascii_uppercase();
        if upper.contains("(SELECT") || upper.contains("( SELECT") {
            StatementClass::Subquery
        } else if upper.contains("GROUP BY")
            || ["COUNT(", "SUM(", "AVG(", "MIN(", "MAX("].iter().any(|f| upper.contains(f))
        {
            StatementClass::Aggregate
        } else if upper.contains(" JOIN ") {
            StatementClass::Join
        } else {
            StatementClass::Simple
        }
    }

    /// Stable lowercase label (Prometheus `class` tag value).
    pub fn name(self) -> &'static str {
        match self {
            StatementClass::Write => "write",
            StatementClass::Subquery => "subquery",
            StatementClass::Aggregate => "aggregate",
            StatementClass::Join => "join",
            StatementClass::Simple => "simple",
        }
    }

    /// Position in [`StatementClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            StatementClass::Write => 0,
            StatementClass::Subquery => 1,
            StatementClass::Aggregate => 2,
            StatementClass::Join => 3,
            StatementClass::Simple => 4,
        }
    }
}

/// The serving layer's always-on metrics: statement throughput and latency
/// by class, cache hit/miss counters, in-flight dedup waits, queue depth,
/// and worker utilization. All recording is relaxed-atomic; read back a
/// consistent view with [`MetricsRegistry::snapshot`].
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    statements: AtomicU64,
    result_cache_hits: AtomicU64,
    result_cache_misses: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    subquery_cache_hits: AtomicU64,
    subquery_cache_misses: AtomicU64,
    dedup_waits: AtomicU64,
    dedup_wait: LatencyHistogram,
    batches: AtomicU64,
    queue_enqueued: AtomicU64,
    queue_served: AtomicU64,
    workers_busy: AtomicU64,
    worker_busy_nanos: AtomicU64,
    commits: AtomicU64,
    rows_inserted: AtomicU64,
    rows_updated: AtomicU64,
    rows_deleted: AtomicU64,
    snapshot_version: AtomicU64,
    slow_queries: AtomicU64,
    latency: [LatencyHistogram; StatementClass::ALL.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            statements: AtomicU64::new(0),
            result_cache_hits: AtomicU64::new(0),
            result_cache_misses: AtomicU64::new(0),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            subquery_cache_hits: AtomicU64::new(0),
            subquery_cache_misses: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            dedup_wait: LatencyHistogram::default(),
            batches: AtomicU64::new(0),
            queue_enqueued: AtomicU64::new(0),
            queue_served: AtomicU64::new(0),
            workers_busy: AtomicU64::new(0),
            worker_busy_nanos: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            rows_inserted: AtomicU64::new(0),
            rows_updated: AtomicU64::new(0),
            rows_deleted: AtomicU64::new(0),
            snapshot_version: AtomicU64::new(0),
            slow_queries: AtomicU64::new(0),
            latency: std::array::from_fn(|_| LatencyHistogram::default()),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry; uptime starts now.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records one served statement: its class-keyed latency, whether it
    /// was answered by the result cache, and the worker time it occupied.
    pub fn record_statement(&self, class: StatementClass, nanos: u64, cache_hit: bool) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.result_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.result_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.latency[class.index()].record(nanos);
        self.worker_busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.queue_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates engine-side cache counters for a canonical (non-cached)
    /// execution. Plain numbers, so this module needs no engine types.
    pub fn record_engine_caches(
        &self,
        plan_hits: u64,
        plan_misses: u64,
        subquery_hits: u64,
        subquery_misses: u64,
    ) {
        self.plan_cache_hits.fetch_add(plan_hits, Ordering::Relaxed);
        self.plan_cache_misses.fetch_add(plan_misses, Ordering::Relaxed);
        self.subquery_cache_hits.fetch_add(subquery_hits, Ordering::Relaxed);
        self.subquery_cache_misses.fetch_add(subquery_misses, Ordering::Relaxed);
    }

    /// Records one in-flight dedup wait (a duplicate submission blocking on
    /// the canonical execution) and how long it blocked.
    pub fn record_dedup_wait(&self, nanos: u64) {
        self.dedup_waits.fetch_add(1, Ordering::Relaxed);
        self.dedup_wait.record(nanos);
    }

    /// Records a batch admission of `n` statements.
    pub fn record_batch(&self, n: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queue_enqueued.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a single-statement admission (non-batch entry point).
    pub fn record_enqueue(&self, n: u64) {
        self.queue_enqueued.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one committed mutation — its per-kind row counts and the
    /// snapshot version the commit published. Plain numbers, so this module
    /// needs no engine types.
    pub fn record_commit(&self, inserted: u64, updated: u64, deleted: u64, version: u64) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.rows_inserted.fetch_add(inserted, Ordering::Relaxed);
        self.rows_updated.fetch_add(updated, Ordering::Relaxed);
        self.rows_deleted.fetch_add(deleted, Ordering::Relaxed);
        self.snapshot_version.store(version, Ordering::Relaxed);
    }

    /// Sets the snapshot-version gauge without recording a commit (server
    /// construction publishes the initial snapshot's version this way).
    pub fn set_snapshot_version(&self, version: u64) {
        self.snapshot_version.store(version, Ordering::Relaxed);
    }

    /// Records one canonical execution entering the slow-query log.
    pub fn record_slow_query(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one worker busy until the returned guard drops — on unwind
    /// too, so a panicking worker never leaves the gauge raised.
    #[must_use = "the worker counts as busy only while the guard lives"]
    pub fn worker_busy(&self) -> WorkerBusy<'_> {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
        WorkerBusy(self)
    }

    /// Point-in-time copy of every counter, gauge, and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_nanos: self.started.elapsed().as_nanos() as u64,
            statements: self.statements.load(Ordering::Relaxed),
            result_cache_hits: self.result_cache_hits.load(Ordering::Relaxed),
            result_cache_misses: self.result_cache_misses.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            subquery_cache_hits: self.subquery_cache_hits.load(Ordering::Relaxed),
            subquery_cache_misses: self.subquery_cache_misses.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            dedup_wait: self.dedup_wait.snapshot(),
            batches: self.batches.load(Ordering::Relaxed),
            queue_depth: self
                .queue_enqueued
                .load(Ordering::Relaxed)
                .saturating_sub(self.queue_served.load(Ordering::Relaxed)),
            workers_busy: self.workers_busy.load(Ordering::Relaxed),
            worker_busy_nanos: self.worker_busy_nanos.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            rows_inserted: self.rows_inserted.load(Ordering::Relaxed),
            rows_updated: self.rows_updated.load(Ordering::Relaxed),
            rows_deleted: self.rows_deleted.load(Ordering::Relaxed),
            snapshot_version: self.snapshot_version.load(Ordering::Relaxed),
            slow_queries: self.slow_queries.load(Ordering::Relaxed),
            classes: StatementClass::ALL
                .iter()
                .map(|&class| ClassLatency {
                    class,
                    latency: self.latency[class.index()].snapshot(),
                })
                .collect(),
        }
    }
}

/// One worker's unit of the `workers_busy` gauge, released on drop; see
/// [`MetricsRegistry::worker_busy`].
#[derive(Debug)]
pub struct WorkerBusy<'a>(&'a MetricsRegistry);

impl Drop for WorkerBusy<'_> {
    fn drop(&mut self) {
        self.0.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Latency distribution of one statement class.
#[derive(Debug, Clone)]
pub struct ClassLatency {
    pub class: StatementClass,
    pub latency: HistogramSnapshot,
}

/// A consistent point-in-time view of the registry: counters, gauges, and
/// per-class latency histograms, plus derived ratios.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the registry (the server) was created.
    pub uptime_nanos: u64,
    /// Statements served, cache hits included.
    pub statements: u64,
    /// Statements answered by the result cache / dedup table.
    pub result_cache_hits: u64,
    /// Statements that ran a canonical execution.
    pub result_cache_misses: u64,
    /// Engine plan-cache hits across canonical executions.
    pub plan_cache_hits: u64,
    /// Engine plan-cache misses (actual planning passes).
    pub plan_cache_misses: u64,
    /// Engine uncorrelated-subquery result-cache hits.
    pub subquery_cache_hits: u64,
    /// Engine uncorrelated-subquery result-cache misses.
    pub subquery_cache_misses: u64,
    /// Duplicate submissions that blocked on an in-flight canonical
    /// execution.
    pub dedup_waits: u64,
    /// How long those duplicates blocked.
    pub dedup_wait: HistogramSnapshot,
    /// Batches admitted.
    pub batches: u64,
    /// Statements admitted but not yet served (gauge).
    pub queue_depth: u64,
    /// Workers currently draining a batch (gauge).
    pub workers_busy: u64,
    /// Total worker time spent serving statements.
    pub worker_busy_nanos: u64,
    /// Mutations committed (each publishing a new snapshot).
    pub commits: u64,
    /// Rows inserted across all commits.
    pub rows_inserted: u64,
    /// Rows updated across all commits.
    pub rows_updated: u64,
    /// Rows deleted across all commits.
    pub rows_deleted: u64,
    /// Version of the currently published snapshot (gauge).
    pub snapshot_version: u64,
    /// Canonical executions recorded by the slow-query log (recorded, not
    /// retained — the log itself keeps only the worst few). Timing-dependent
    /// by nature: never part of any determinism check or cost accounting.
    pub slow_queries: u64,
    /// Per-class latency histograms, in [`StatementClass::ALL`] order.
    pub classes: Vec<ClassLatency>,
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl MetricsSnapshot {
    /// Fraction of statements answered without a canonical execution.
    pub fn result_cache_hit_ratio(&self) -> f64 {
        ratio(self.result_cache_hits, self.result_cache_misses)
    }

    /// Fraction of engine plan lookups served from the plan cache.
    pub fn plan_cache_hit_ratio(&self) -> f64 {
        ratio(self.plan_cache_hits, self.plan_cache_misses)
    }

    /// Fraction of uncorrelated-subquery evaluations served from the
    /// engine's result cache.
    pub fn subquery_cache_hit_ratio(&self) -> f64 {
        ratio(self.subquery_cache_hits, self.subquery_cache_misses)
    }

    /// Average number of busy workers over the server's lifetime
    /// (serving-time ÷ uptime). >1.0 means sustained parallelism.
    pub fn worker_utilization(&self) -> f64 {
        if self.uptime_nanos == 0 {
            0.0
        } else {
            self.worker_busy_nanos as f64 / self.uptime_nanos as f64
        }
    }

    /// The latency histogram of one class (always present; all-zero when
    /// the class has served nothing).
    pub fn class_latency(&self, class: StatementClass) -> &HistogramSnapshot {
        &self.classes[class.index()].latency
    }

    /// Latency of every statement regardless of class (merged histograms).
    pub fn overall_latency(&self) -> HistogramSnapshot {
        let mut all = HistogramSnapshot::empty();
        for c in &self.classes {
            all.merge(&c.latency);
        }
        all
    }

    /// Prometheus-style text exposition: `# TYPE` headers, counters,
    /// gauges, and per-class cumulative `_bucket{le=...}` histogram lines.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        };
        counter("serve_statements_total", "Statements served", self.statements);
        counter(
            "serve_result_cache_hits_total",
            "Statements answered by the result cache",
            self.result_cache_hits,
        );
        counter(
            "serve_result_cache_misses_total",
            "Statements that ran a canonical execution",
            self.result_cache_misses,
        );
        counter("serve_plan_cache_hits_total", "Engine plan-cache hits", self.plan_cache_hits);
        counter(
            "serve_plan_cache_misses_total",
            "Engine plan-cache misses",
            self.plan_cache_misses,
        );
        counter(
            "serve_subquery_cache_hits_total",
            "Engine subquery result-cache hits",
            self.subquery_cache_hits,
        );
        counter(
            "serve_subquery_cache_misses_total",
            "Engine subquery result-cache misses",
            self.subquery_cache_misses,
        );
        counter(
            "serve_dedup_waits_total",
            "Duplicate submissions that blocked on an in-flight execution",
            self.dedup_waits,
        );
        counter("serve_batches_total", "Batches admitted", self.batches);
        counter(
            "serve_worker_busy_nanoseconds_total",
            "Worker time spent serving statements",
            self.worker_busy_nanos,
        );
        counter("serve_commits_total", "Mutations committed", self.commits);
        counter("serve_rows_inserted_total", "Rows inserted by commits", self.rows_inserted);
        counter("serve_rows_updated_total", "Rows updated by commits", self.rows_updated);
        counter("serve_rows_deleted_total", "Rows deleted by commits", self.rows_deleted);
        counter(
            "serve_slow_queries_total",
            "Canonical executions recorded by the slow-query log",
            self.slow_queries,
        );
        let mut gauge = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
        };
        gauge("serve_queue_depth", "Statements admitted but not yet served", self.queue_depth);
        gauge("serve_workers_busy", "Workers currently draining a batch", self.workers_busy);
        gauge(
            "serve_snapshot_version",
            "Version of the currently published snapshot",
            self.snapshot_version,
        );
        out.push_str("# HELP serve_statement_latency_nanoseconds Statement latency by class\n");
        out.push_str("# TYPE serve_statement_latency_nanoseconds histogram\n");
        for c in &self.classes {
            let name = c.class.name();
            let mut cumulative = 0u64;
            for (i, &count) in c.latency.counts.iter().enumerate() {
                cumulative += count;
                // Skip interior empty prefixes? No — Prometheus convention
                // keeps every bucket, but 40 buckets x 4 classes is noisy;
                // emit only buckets at or below the last non-empty one.
                if cumulative == 0 && count == 0 {
                    continue;
                }
                let le = if i == HISTOGRAM_BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    bucket_upper_bound(i).to_string()
                };
                out.push_str(&format!(
                    "serve_statement_latency_nanoseconds_bucket{{class=\"{name}\",le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "serve_statement_latency_nanoseconds_count{{class=\"{name}\"}} {}\n",
                c.latency.total()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i).max(1)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i).min(1u64 << 62)), i.min(39));
        }
    }

    #[test]
    fn quantiles_of_known_samples() {
        let h = LatencyHistogram::default();
        for nanos in [100u64, 200, 300, 400, 1_000_000] {
            h.record(nanos);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 5);
        // Rank ceil(0.5*5)=3 → the 300ns sample's bucket [256, 512).
        assert_eq!(snap.p50(), 511);
        // Rank ceil(0.99*5)=5 → the 1ms outlier's bucket.
        assert_eq!(snap.p99(), bucket_upper_bound(bucket_index(1_000_000)));
        assert_eq!(HistogramSnapshot::empty().p95(), 0);
    }

    #[test]
    fn statement_classes_are_syntactic_and_stable() {
        assert_eq!(StatementClass::of("SELECT id FROM t"), StatementClass::Simple);
        assert_eq!(
            StatementClass::of("select a from t inner join u on t.id = u.id"),
            StatementClass::Join
        );
        assert_eq!(StatementClass::of("SELECT COUNT(*) FROM t"), StatementClass::Aggregate);
        assert_eq!(
            StatementClass::of("SELECT g, SUM(v) FROM t GROUP BY g"),
            StatementClass::Aggregate
        );
        assert_eq!(
            StatementClass::of("SELECT id FROM t WHERE v > (SELECT AVG(v) FROM t)"),
            StatementClass::Subquery
        );
        assert_eq!(StatementClass::of("INSERT INTO t VALUES (1)"), StatementClass::Write);
        assert_eq!(StatementClass::of("  update t set a = 1 where id = 2"), StatementClass::Write);
        assert_eq!(StatementClass::of("DELETE FROM t"), StatementClass::Write);
        assert_eq!(StatementClass::of("create table x (a INTEGER)"), StatementClass::Write);
        for class in StatementClass::ALL {
            assert_eq!(StatementClass::ALL[class.index()], class);
        }
    }

    #[test]
    fn registry_snapshot_and_ratios() {
        let m = MetricsRegistry::new();
        m.record_batch(3);
        m.record_statement(StatementClass::Join, 10_000, false);
        m.record_statement(StatementClass::Join, 12_000, true);
        m.record_statement(StatementClass::Simple, 500, true);
        m.record_engine_caches(3, 1, 0, 2);
        m.record_dedup_wait(2_000);
        m.record_slow_query();
        let snap = m.snapshot();
        assert_eq!(snap.statements, 3);
        assert_eq!(snap.result_cache_hits, 2);
        assert_eq!(snap.result_cache_misses, 1);
        assert!((snap.result_cache_hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert!((snap.plan_cache_hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(snap.subquery_cache_hit_ratio(), 0.0);
        assert_eq!(snap.queue_depth, 0, "all admitted statements were served");
        assert_eq!(snap.dedup_waits, 1);
        assert_eq!(snap.slow_queries, 1);
        assert_eq!(snap.class_latency(StatementClass::Join).total(), 2);
        assert_eq!(snap.overall_latency().total(), 3);
        assert!(snap.worker_busy_nanos >= 22_500);
        let text = snap.render_prometheus();
        assert!(text.contains("serve_statements_total 3"));
        assert!(text.contains("serve_result_cache_hits_total 2"));
        assert!(text.contains("serve_slow_queries_total 1"));
        assert!(text.contains("# TYPE serve_statement_latency_nanoseconds histogram"));
        assert!(text.contains("class=\"join\""));
        assert!(text.contains("le=\"+Inf\""));
    }
}
