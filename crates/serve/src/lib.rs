//! # seed-serve
//!
//! A concurrent query-serving runtime for the SEED reproduction's SQL
//! engine: submit a batch of SQL statements (or a whole eval workload) and
//! get per-statement results back **in submission order**, fanned out over
//! scoped threads against `Arc`-shared, versioned [`Database`] snapshots.
//!
//! ## Snapshot / write model
//!
//! The engine executes reads through `&Database` — no executor mutates
//! storage — so any number of worker threads may run queries against one
//! snapshot simultaneously. A [`Server`] holds the **currently published
//! snapshot** behind `RwLock<Arc<Database>>`; every read pins an `Arc` of
//! some snapshot for its duration, so nothing a reader touches can change
//! underneath it. Writes (`INSERT`/`UPDATE`/`DELETE`/`CREATE`) run through
//! the engine's copy-on-write commit path
//! ([`seed_sqlengine::commit_statement`]): one writer at a time (the commit
//! gate) clones the database — cheap, tables are `Arc`-shared — mutates
//! only the touched table's copy, and publishes the new snapshot
//! atomically. In-flight readers keep serving their pinned version;
//! publishes never block reads.
//!
//! [`Server::session`] opens a [`Session`] that **pins** the snapshot
//! current at open time: every read the session makes sees that one
//! version, regardless of concurrent commits, until the session itself
//! commits — its own writes re-pin it to the snapshot they published
//! (read-your-writes). Mixed batches are split into **read runs** —
//! consecutive reads served in parallel against the snapshot current at
//! run start — separated by writes, each committed
//! serially in submission order. That structure makes a mixed batch's
//! per-statement results and final snapshot identical at any worker count.
//!
//! ## Shared caches
//!
//! Each shared cache sits behind **one lock**, held only for map probes and
//! updates — never while a statement executes or rows are cloned.
//!
//! * **Plans** — one [`SharedPlanCache`] per server: a repeated statement
//!   parses and plans once, then every execution (any worker, any session)
//!   replays the pinned plan. Plans depend only on the schema, so they
//!   survive commits untouched. Reuse is visible as `plan_cache_hits` in
//!   each statement's [`ExecStats`].
//! * **Results** — a statement's result is a pure function of its text
//!   *and the versions of the tables it reads*. Entries are therefore
//!   keyed two-level: the statement's **dependency fingerprint**
//!   ([`seed_sqlengine::Database::dependency_fingerprint`] over its
//!   referenced tables' generations), then its text. A commit that touches
//!   a statement's tables changes the fingerprint — the old entry simply
//!   stops being probed — while entries for statements over *untouched*
//!   tables keep hitting across snapshots. With a nonzero
//!   [`ServeConfig::result_cache_cap`] (the default), each distinct
//!   (fingerprint, statement) pair *executes exactly once*: an **in-flight
//!   execution table** (slots of the same map) makes concurrent
//!   submissions of the same statement block on the one canonical
//!   execution instead of racing it, then serves them its result. That
//!   makes `result_cache_hits` exact — `statements − distinct statements`
//!   at any worker count on a quiescent snapshot — not merely
//!   scheduling-dependently close. The cache is an exact LRU: a recency
//!   index (an ordered map from a monotonic tick to the entry's key) holds
//!   every ready entry, a hit moves its tick, and publishing evicts the
//!   coldest entries — across all fingerprints, so stale-fingerprint
//!   entries age out like any other cold entry — in O(log n) each until
//!   the newcomer fits. Ready entries never exceed `result_cache_cap`.
//!   In-flight slots are transient and never evicted.
//!
//! ### In-flight dedup state machine
//!
//! A cache slot for a statement is either `Ready(result)` or
//! `InFlight(flight)`:
//!
//! ```text
//!   miss ──insert InFlight──▶ Running ──publish──▶ Done(Ok)  → slot becomes Ready
//!                                │  │
//!                                │  └──publish──▶ Done(Err) → slot removed (errors
//!                                │                            are never cached)
//!                                └──panic/unwind─▶ Abandoned → slot removed, waiters
//!                                                             retry admission
//! ```
//!
//! Waiters block on the flight's condvar; `Done(Ok)` waiters are served
//! the canonical entry and count as result-cache hits, `Done(Err)` waiters
//! get the same (deterministic) error, `Abandoned` waiters loop back and
//! re-attempt admission themselves.
//!
//! ## Fan-out
//!
//! Each read run of [`Server::execute_batch`] is served by `min(workers,
//! statements, available_parallelism)` threads: the calling thread plus
//! helpers spawned for that run alone with [`std::thread::scope`] and
//! joined before it returns. `available_parallelism` is sampled once, in
//! [`Server::new`]; a thread the CPU cannot run alongside the others could
//! only add context switches. A server keeps no idle threads and
//! constructing one spawns none; the price is paid per read run instead —
//! a scoped spawn plus join, and a fresh stack the helper faults in page by
//! page (about 60 µs per run all told on a 2-vCPU VM). Every
//! thread pulls statement indices off one atomic cursor — work stealing,
//! not fixed chunking — so a skewed run (a few expensive statements among
//! many cheap ones) keeps every thread busy until the cursor drains.
//! Results land in their submission slots, so output order never depends
//! on scheduling. A run with a fan-out of one is served by the caller
//! alone, and concurrent batches each fan out on their own.
//!
//! A statement that panics stops only its own thread: the others finish
//! the run, then the panic resumes on the caller with its original payload,
//! just as on the serial path. Each thread's share of the `workers_busy`
//! gauge is a drop guard, so the gauge reads 0 again afterwards.
//!
//! ## Determinism contract
//!
//! For a given snapshot and statement list, the returned rows, columns,
//! errors, and every cost-bearing work counter (`rows_scanned`,
//! `evaluations`, hash/index units — hence [`ExecStats::cost`]) are
//! byte-identical regardless of worker count, submission order of *other*
//! statements, or scheduling. With in-flight dedup, the aggregate
//! `result_cache_hits` counter is exact as well (`statements − distinct
//! statements`, whenever the distinct set fits the cache cap); only
//! per-statement `from_result_cache` flags — *which* submission became the
//! canonical execution — remain scheduling-dependent, and those are
//! excluded from `cost()`. The workspace determinism suite
//! (`tests/serve_determinism.rs`) pins this contract against both gold
//! corpora at 1, 2, and 8 configured workers (each read run fans out to at
//! most `available_parallelism` threads); the crate's unit tests drive the
//! fan-out itself at 8 threads on any host.
//!
//! ## Observability
//!
//! Every server carries an always-on [`metrics::MetricsRegistry`], its only
//! set of serving counters: relaxed-atomic counters, gauges, and
//! log-bucketed latency histograms keyed by [`metrics::StatementClass`],
//! read back as a consistent [`metrics::MetricsSnapshot`] via
//! [`Server::metrics_snapshot`] (or as Prometheus-style text via
//! [`Server::render_metrics`]). Canonical
//! executions additionally run under the engine's per-operator profiler
//! (bit-identical rows and [`struct@ExecStats`] to an unprofiled run), and
//! any execution at or above [`ServeConfig::slow_query_threshold_nanos`]
//! lands in a bounded **slow-query log** — the
//! [`ServeConfig::slow_query_log_cap`] worst statements with their SQL,
//! rendered plan, and per-operator profile ([`Server::slow_queries`]), and
//! counts toward the registry's `slow_queries` counter. None of this feeds
//! back into [`struct@ExecStats`] or its `cost()`: wall-clock observations
//! live strictly beside the deterministic counters, never in them, so the
//! determinism contract above is unaffected.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};
use seed_sqlengine::{
    commit_statement, is_write_statement, Database, ExecStats, MutationKind, PlanMode,
    PreparedStatement, QueryProfile, ResultSet, SharedPlanCache, SqlError, SqlResult,
};

pub mod metrics;

pub use metrics::{
    ClassLatency, HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot,
    StatementClass,
};

/// Configuration for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Most threads one read run of [`Server::execute_batch`] fans out to,
    /// the calling thread included; the host's `available_parallelism`
    /// caps it further. `1` serves strictly serially, and so does `0`.
    pub workers: usize,
    /// Maximum number of statement results the result cache holds — an
    /// exact bound: publishing a new result past it evicts the
    /// least-recently-served entries first. `0` disables result caching
    /// (and in-flight dedup) entirely, e.g. to measure raw execution
    /// throughput.
    pub result_cache_cap: usize,
    /// Canonical executions whose measured wall-clock time reaches this
    /// many nanoseconds are recorded in the slow-query log (SQL text,
    /// rendered plan, per-operator profile). `0` records every canonical
    /// execution. Wall-clock observations never feed [`struct@ExecStats`]
    /// or its `cost()`, so this threshold cannot affect determinism.
    pub slow_query_threshold_nanos: u64,
    /// Maximum entries the slow-query log retains — the N worst statements
    /// by measured time, slowest first. `0` disables the log.
    pub slow_query_log_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            result_cache_cap: 1024,
            // 50ms: far above anything the in-memory engine serves under
            // test, so the log is quiet by default; operators lower it.
            slow_query_threshold_nanos: 50_000_000,
            slow_query_log_cap: 16,
        }
    }
}

impl ServeConfig {
    /// A serial configuration (one worker), otherwise default.
    pub fn serial() -> Self {
        ServeConfig { workers: 1, ..Default::default() }
    }

    /// Same configuration with a different worker count.
    pub fn with_workers(self, workers: usize) -> Self {
        ServeConfig { workers, ..self }
    }

    /// Same configuration with a slow-query log keeping the `cap` worst
    /// statements at or above `threshold_nanos` measured nanoseconds.
    pub fn with_slow_query_log(self, threshold_nanos: u64, cap: usize) -> Self {
        ServeConfig { slow_query_threshold_nanos: threshold_nanos, slow_query_log_cap: cap, ..self }
    }
}

/// The outcome of one served statement.
#[derive(Debug, Clone)]
pub struct StatementOutcome {
    /// The rows, exactly as a direct [`seed_sqlengine::execute`] would
    /// produce.
    pub result: ResultSet,
    /// Execution statistics. For a result-cache hit these are the cached
    /// execution's stats (the work the statement costs), keeping VES-style
    /// cost accounting independent of cache luck.
    pub stats: ExecStats,
    /// Whether the result came from the shared result cache or from
    /// waiting on the canonical in-flight execution. The aggregate count of
    /// these flags is deterministic (`statements − distinct statements`
    /// while the distinct set fits the cap); *which* submission executed is
    /// scheduling-dependent.
    pub from_result_cache: bool,
}

/// One entry of the slow-query log: everything needed to understand a slow
/// statement after the fact without re-running it.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The statement text as submitted.
    pub sql: String,
    /// Measured wall-clock nanoseconds of the canonical execution.
    pub nanos: u64,
    /// The execution's deterministic [`ExecStats::cost`], for correlating
    /// measured time against modeled work.
    pub cost: f64,
    /// The statement's rendered physical plan (`EXPLAIN` text) under
    /// [`PlanMode::serving`].
    pub plan: String,
    /// The per-operator wall-clock profile of the recorded execution.
    pub profile: String,
}

/// Bounded ring of the N worst canonical executions, sorted slowest first.
struct SlowQueryLog {
    threshold_nanos: u64,
    cap: usize,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowQueryLog {
    fn new(config: &ServeConfig) -> Self {
        SlowQueryLog {
            threshold_nanos: config.slow_query_threshold_nanos,
            cap: config.slow_query_log_cap,
            entries: Mutex::new(Vec::new()),
        }
    }

    fn qualifies(&self, nanos: u64) -> bool {
        self.cap > 0 && nanos >= self.threshold_nanos
    }

    fn record(&self, q: SlowQuery) {
        let mut entries = self.entries.lock();
        let pos = entries.iter().position(|e| e.nanos < q.nanos).unwrap_or(entries.len());
        entries.insert(pos, q);
        entries.truncate(self.cap);
    }

    fn snapshot(&self) -> Vec<SlowQuery> {
        self.entries.lock().clone()
    }
}

/// One cached statement result.
struct CachedResult {
    result: ResultSet,
    stats: ExecStats,
}

impl CachedResult {
    fn served(&self) -> StatementOutcome {
        StatementOutcome { result: self.result.clone(), stats: self.stats, from_result_cache: true }
    }
}

/// State of one canonical execution that concurrent duplicates wait on.
enum FlightState {
    /// The canonical execution is running.
    Running,
    /// The canonical execution finished; waiters share its outcome.
    Done(Result<Arc<CachedResult>, SqlError>),
    /// The canonical execution unwound without publishing; waiters must
    /// re-attempt admission themselves.
    Abandoned,
}

/// An in-flight canonical execution of one statement.
struct InFlight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight { state: Mutex::new(FlightState::Running), done: Condvar::new() }
    }

    /// Blocks until the canonical execution publishes or abandons.
    /// `None` means abandoned — the caller should retry admission.
    fn wait(&self) -> Option<Result<Arc<CachedResult>, SqlError>> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                FlightState::Running => state = self.done.wait(state),
                FlightState::Done(outcome) => return Some(outcome.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn publish(&self, outcome: Result<Arc<CachedResult>, SqlError>) {
        *self.state.lock() = FlightState::Done(outcome);
        self.done.notify_all();
    }

    fn abandon(&self) {
        *self.state.lock() = FlightState::Abandoned;
        self.done.notify_all();
    }
}

/// A cache slot: either a cached result (with its key in the recency
/// index) or the execution producing one.
enum Slot {
    Ready { entry: Arc<CachedResult>, tick: u64 },
    InFlight(Arc<InFlight>),
}

/// What admission decided for one statement.
enum Admission {
    /// A ready entry, already moved to most-recently-served.
    Hit(Arc<CachedResult>),
    /// Another submission is executing it; wait on its flight.
    Wait(Arc<InFlight>),
    /// This submission won admission and must execute and publish.
    Run(Arc<InFlight>),
}

/// Everything the result cache's one lock guards. The map is two-level —
/// dependency fingerprint (the versions of the tables the statement
/// reads), then SQL text — so the hot path probes with a borrowed `&str`
/// and a commit to a statement's tables retires its entries by changing
/// which fingerprint is probed, never by scanning.
#[derive(Default)]
struct CacheState {
    slots: HashMap<u64, HashMap<String, Slot>>,
    /// Every ready entry by recency tick, coldest first: the LRU order.
    /// In-flight slots never enter it.
    lru: BTreeMap<u64, (u64, String)>,
    /// Monotonic recency clock.
    tick: u64,
}

impl CacheState {
    /// Removes a slot (dropping its fingerprint's map once empty), handing
    /// back the owned key so callers can reuse the allocation.
    fn remove(&mut self, vkey: u64, sql: &str) -> Option<(String, Slot)> {
        let by_sql = self.slots.get_mut(&vkey)?;
        let removed = by_sql.remove_entry(sql);
        if by_sql.is_empty() {
            self.slots.remove(&vkey);
        }
        removed
    }
}

/// The statement-result cache plus in-flight execution table, behind one
/// lock held only for map probes and updates.
struct ResultCache {
    state: Mutex<CacheState>,
    /// Exact bound on ready entries; `0` means caching (and dedup) is off.
    cap: usize,
    evictions: AtomicU64,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        ResultCache { state: Mutex::default(), cap, evictions: AtomicU64::new(0) }
    }

    /// One lock acquisition decides among a hit, a wait on the canonical
    /// execution, or becoming the canonical execution.
    fn admit(&self, vkey: u64, sql: &str) -> Admission {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        match state.slots.get_mut(&vkey).and_then(|m| m.get_mut(sql)) {
            Some(Slot::Ready { entry, tick }) => {
                state.tick += 1;
                let key = state.lru.remove(tick).expect("ready entries are indexed");
                *tick = state.tick;
                state.lru.insert(*tick, key);
                Admission::Hit(Arc::clone(entry))
            }
            Some(Slot::InFlight(f)) => Admission::Wait(Arc::clone(f)),
            None => {
                let f = Arc::new(InFlight::new());
                state
                    .slots
                    .entry(vkey)
                    .or_default()
                    .insert(sql.to_string(), Slot::InFlight(Arc::clone(&f)));
                Admission::Run(f)
            }
        }
    }

    /// Turns the caller's in-flight slot into a ready entry, first evicting
    /// the least-recently-served entries so the cap stays exact.
    fn publish(&self, vkey: u64, sql: &str, entry: Arc<CachedResult>) {
        let mut state = self.state.lock();
        // Reclaim the admission-time key so publishing a result does not
        // re-allocate the statement text.
        let key = state.remove(vkey, sql).map(|(key, _)| key).unwrap_or_else(|| sql.to_string());
        while state.lru.len() >= self.cap {
            let (_, (cold_vkey, cold_sql)) =
                state.lru.pop_first().expect("cap > 0, so a full cache has a coldest entry");
            state.remove(cold_vkey, &cold_sql);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        state.tick += 1;
        let tick = state.tick;
        state.lru.insert(tick, (vkey, key.clone()));
        state.slots.entry(vkey).or_default().insert(key, Slot::Ready { entry, tick });
    }

    /// Drops the in-flight slot `flight` still holds, if it does: errors
    /// are never cached, and an unwound execution leaves nothing behind.
    fn forget(&self, vkey: u64, sql: &str, flight: &Arc<InFlight>) {
        let mut state = self.state.lock();
        let ours = matches!(
            state.slots.get(&vkey).and_then(|m| m.get(sql)),
            Some(Slot::InFlight(f)) if Arc::ptr_eq(f, flight)
        );
        if ours {
            state.remove(vkey, sql);
        }
    }

    fn len(&self) -> usize {
        self.state.lock().lru.len()
    }
}

/// Removes a still-in-flight slot and wakes its waiters if the canonical
/// execution unwinds (panic in the engine) before publishing. Disarmed on
/// the normal path.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    vkey: u64,
    sql: &'a str,
    flight: &'a Arc<InFlight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.forget(self.vkey, self.sql, self.flight);
            self.flight.abandon();
        }
    }
}

/// A query server over versioned database snapshots: reads pin the
/// currently published snapshot, writes commit copy-on-write and publish
/// the next one.
///
/// A server owns no threads. Each read run of a batch fans out over scoped
/// threads that are joined before the run returns (see the crate docs'
/// "Fan-out" section), so construction spawns nothing and dropping a server
/// has nothing to shut down.
pub struct Server {
    /// The currently published snapshot. Readers clone the `Arc` out (a
    /// refcount bump under a read lock) and serve from their pinned copy;
    /// the commit path swaps in the next snapshot under the write lock.
    snapshot: RwLock<Arc<Database>>,
    /// Write admission: one committing writer at a time, so commits
    /// serialize (each plans against the snapshot its predecessor
    /// published) without ever blocking readers.
    commit_gate: Mutex<()>,
    config: ServeConfig,
    plans: SharedPlanCache,
    results: ResultCache,
    metrics: MetricsRegistry,
    slow_log: SlowQueryLog,
    /// Hardware threads the host exposes, sampled once at construction:
    /// the ceiling on every read run's fan-out.
    hardware: usize,
}

impl Server {
    /// Commits one mutation statement: plan against the latest snapshot,
    /// apply copy-on-write, publish the result. Serialized by the commit
    /// gate; never blocks readers (they keep their pinned snapshots).
    /// Returns the exact snapshot this commit published, which a later
    /// commit may already have superseded.
    fn commit_one(&self, sql: &str) -> SqlResult<(StatementOutcome, Arc<Database>)> {
        let _gate = self.commit_gate.lock();
        let base = self.database();
        let outcome = commit_statement(&base, sql)?;
        let version = outcome.db.version();
        let affected = outcome.rows_affected as u64;
        let (ins, upd, del) = match outcome.kind {
            MutationKind::Insert => (affected, 0, 0),
            MutationKind::Update => (0, affected, 0),
            MutationKind::Delete => (0, 0, affected),
            MutationKind::CreateTable => (0, 0, 0),
        };
        let published = Arc::new(outcome.db);
        *self.snapshot.write() = Arc::clone(&published);
        self.metrics.record_commit(ins, upd, del, version);
        let served = StatementOutcome {
            result: outcome.result,
            stats: ExecStats::default(),
            from_result_cache: false,
        };
        Ok((served, published))
    }

    /// Serves one statement, recording its latency (keyed by statement
    /// class), result-cache outcome, and — for canonical executions — the
    /// engine's plan/subquery cache counters into the metrics registry.
    /// Reads run against the snapshot `pin`; mutation statements route to
    /// the commit path (which always targets the *latest* snapshot) and,
    /// on success only, re-pin `pin` to exactly the snapshot they
    /// published. Errors count as result-cache misses.
    fn serve_one(&self, pin: &mut Arc<Database>, sql: &str) -> SqlResult<StatementOutcome> {
        let started = Instant::now();
        let outcome = if is_write_statement(sql) {
            self.commit_one(sql).map(|(outcome, published)| {
                *pin = published;
                outcome
            })
        } else {
            self.serve_read(pin, sql)
        };
        let nanos = started.elapsed().as_nanos() as u64;
        let hit = matches!(&outcome, Ok(o) if o.from_result_cache);
        self.metrics.record_statement(StatementClass::of(sql), nanos, hit);
        if let Ok(o) = &outcome {
            // Engine counters are billed once per canonical execution;
            // cache hits replay the canonical stats and must not double
            // count its planning work.
            if !o.from_result_cache {
                self.metrics.record_engine_caches(
                    o.stats.plan_cache_hits,
                    o.stats.plan_cache_misses,
                    o.stats.subquery_result_hits,
                    o.stats.subquery_result_misses,
                );
            }
        }
        outcome
    }

    /// Serves one read statement against the pinned snapshot `db` through
    /// the shared caches and the in-flight dedup table.
    fn serve_read(&self, db: &Arc<Database>, sql: &str) -> SqlResult<StatementOutcome> {
        if self.results.cap == 0 {
            // Caching (and dedup) off: the known-miss path does no cache
            // round-trips at all.
            let (result, stats) = self.plans.execute(db, sql, PlanMode::serving())?;
            return Ok(StatementOutcome { result, stats, from_result_cache: false });
        }
        // The cache key's data-dependency half: the versions (generations)
        // of every table the statement reads, under the pinned snapshot.
        // Two executions sharing a vkey see identical table states, so a
        // cached result is valid for both even across different snapshots.
        let prepared = self.plans.prepare(db.name(), sql)?;
        let vkey = db.dependency_fingerprint(prepared.referenced_tables());
        loop {
            let flight = match self.results.admit(vkey, sql) {
                // Rows are cloned after the cache lock is released.
                Admission::Hit(entry) => return Ok(entry.served()),
                Admission::Run(flight) => {
                    return self.run_canonical(db, &prepared, vkey, sql, &flight)
                }
                Admission::Wait(flight) => flight,
            };
            let wait_started = Instant::now();
            let waited = flight.wait();
            self.metrics.record_dedup_wait(wait_started.elapsed().as_nanos() as u64);
            match waited {
                Some(Ok(entry)) => return Ok(entry.served()),
                Some(Err(e)) => return Err(e),
                // Canonical execution unwound: retry admission.
                None => continue,
            }
        }
    }

    /// Runs the canonical execution this call won admission for, then
    /// publishes the outcome to the cache and to every waiter.
    fn run_canonical(
        &self,
        db: &Arc<Database>,
        prepared: &PreparedStatement,
        vkey: u64,
        sql: &str,
        flight: &Arc<InFlight>,
    ) -> SqlResult<StatementOutcome> {
        let mut guard = FlightGuard { cache: &self.results, vkey, sql, flight, armed: true };
        // Canonical executions run under the per-operator profiler: rows
        // and stats are bit-identical to an unprofiled run, and the profile
        // is what the slow-query log records.
        let executed = prepared.execute_profiled(db, PlanMode::serving());
        let published = match &executed {
            Ok((result, stats, _profile)) => {
                let entry = Arc::new(CachedResult { result: result.clone(), stats: *stats });
                self.results.publish(vkey, sql, Arc::clone(&entry));
                Ok(entry)
            }
            Err(e) => {
                // Errors are deterministic but never cached: remove the
                // slot so later submissions re-report through the engine.
                self.results.forget(vkey, sql, flight);
                Err(e.clone())
            }
        };
        guard.armed = false;
        flight.publish(published);
        executed.map(|(result, stats, profile)| {
            self.note_slow(db, prepared, sql, &stats, &profile);
            StatementOutcome { result, stats, from_result_cache: false }
        })
    }

    /// Records a canonical execution in the slow-query log when its
    /// measured time reaches the configured threshold.
    fn note_slow(
        &self,
        db: &Arc<Database>,
        prepared: &PreparedStatement,
        sql: &str,
        stats: &ExecStats,
        profile: &QueryProfile,
    ) {
        if !self.slow_log.qualifies(profile.total_nanos) {
            return;
        }
        // Slow path only: re-rendering the plan replays the shared plan
        // cache, so no statement is ever re-planned for the log.
        let plan = prepared
            .explain(db, PlanMode::serving())
            .unwrap_or_else(|e| format!("(plan unavailable: {e})"));
        self.metrics.record_slow_query();
        self.slow_log.record(SlowQuery {
            sql: sql.to_string(),
            nanos: profile.total_nanos,
            cost: stats.cost(),
            plan,
            profile: profile.render(),
        });
    }
}

/// Runs `serve(i)` for every `i` in `0..n` on `fanout` threads — the caller
/// plus `fanout − 1` scoped helpers — and returns the results in index
/// order. Every thread pulls the next index off one shared cursor (work
/// stealing, not fixed chunking), so a skewed run keeps every thread busy
/// until the cursor drains. A panic in `serve` reaches the caller with its
/// original payload once every thread has stopped, and each thread's
/// `workers_busy` unit is released on the way out.
fn fan_out<T: Send>(
    metrics: &MetricsRegistry,
    fanout: usize,
    n: usize,
    serve: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let drain = || {
        let _busy = metrics.worker_busy();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            *slots[i].lock() = Some(serve(i));
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..fanout).map(|_| scope.spawn(drain)).collect();
        drain();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().expect("every index is served")).collect()
}

impl Server {
    /// Creates a server over an initial snapshot. The server owns snapshot
    /// publication from here on: reads pin the currently published version,
    /// writes commit copy-on-write and publish the next one.
    pub fn new(db: Arc<Database>, config: ServeConfig) -> Self {
        let metrics = MetricsRegistry::new();
        metrics.set_snapshot_version(db.version());
        Server {
            snapshot: RwLock::new(db),
            commit_gate: Mutex::new(()),
            config,
            plans: SharedPlanCache::new(),
            results: ResultCache::new(config.result_cache_cap),
            metrics,
            slow_log: SlowQueryLog::new(&config),
            hardware: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Cached statement results currently live (ready entries; in-flight
    /// executions are not counted). Never exceeds
    /// [`ServeConfig::result_cache_cap`].
    pub fn result_cache_len(&self) -> usize {
        self.results.len()
    }

    /// Result-cache entries evicted under the LRU cap so far.
    pub fn result_cache_evictions(&self) -> u64 {
        self.results.evictions.load(Ordering::Relaxed)
    }

    /// The currently published snapshot, pinned: the returned `Arc` keeps
    /// serving this exact version even as later commits publish newer ones.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.snapshot.read())
    }

    /// The version of the currently published snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.database().version()
    }

    /// The server configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Opens a session: a lightweight per-client handle that **pins** the
    /// currently published snapshot for its lifetime. Every read the
    /// session makes sees that one version regardless of concurrent
    /// commits; the session's own writes re-pin it to the snapshot they
    /// published (read-your-writes).
    pub fn session(&self) -> Session<'_> {
        Session { server: self, db: self.database(), stats: ExecStats::default(), executed: 0 }
    }

    /// Serves one statement through the shared caches: reads against the
    /// currently published snapshot, writes through the commit path.
    pub fn execute(&self, sql: &str) -> SqlResult<StatementOutcome> {
        self.metrics.record_enqueue(1);
        self.serve_one(&mut self.database(), sql)
    }

    /// Executes a batch, returning one outcome per statement **in
    /// submission order**. The batch is split into **read runs** —
    /// maximal stretches of consecutive reads, each fanned out over scoped
    /// threads against the snapshot current at run start — separated by
    /// writes, each committed serially in submission order (and visible to
    /// every later statement of the batch). This structure makes a mixed
    /// batch's per-statement results and final snapshot identical at any
    /// worker count.
    pub fn execute_batch(&self, stmts: &[String]) -> Vec<SqlResult<StatementOutcome>> {
        self.batch_segmented(None, stmts)
    }

    /// The shared mixed-batch driver. With `pin` set (session batches) read
    /// runs execute against the caller's pinned snapshot and the pin
    /// advances to the snapshot each of the caller's own successful commits
    /// published; without it (server batches) each read run pins the latest
    /// published snapshot.
    fn batch_segmented(
        &self,
        mut pin: Option<&mut Arc<Database>>,
        stmts: &[String],
    ) -> Vec<SqlResult<StatementOutcome>> {
        if stmts.is_empty() {
            return Vec::new();
        }
        self.metrics.record_batch(stmts.len() as u64);
        let mut out = Vec::with_capacity(stmts.len());
        let mut i = 0;
        while i < stmts.len() {
            if is_write_statement(&stmts[i]) {
                // Read-your-writes: a successful commit re-pins a session to
                // the snapshot it published; a failed one leaves it alone.
                let mut unpinned = self.database();
                let target = pin.as_deref_mut().unwrap_or(&mut unpinned);
                out.push(self.serve_one(target, &stmts[i]));
                i += 1;
            } else {
                let end = stmts[i..]
                    .iter()
                    .position(|s| is_write_statement(s))
                    .map(|p| i + p)
                    .unwrap_or(stmts.len());
                let db = match pin.as_deref() {
                    Some(p) => Arc::clone(p),
                    None => self.database(),
                };
                let run = &stmts[i..end];
                // A run holds no writes, so no thread's pin ever moves.
                let fanout = self.config.workers.max(1).min(run.len()).min(self.hardware);
                out.extend(fan_out(&self.metrics, fanout, run.len(), |k| {
                    self.serve_one(&mut Arc::clone(&db), &run[k])
                }));
                i = end;
            }
        }
        out
    }

    /// Distinct statements pinned in the shared plan cache.
    pub fn prepared_statements(&self) -> usize {
        self.plans.len()
    }

    /// A consistent point-in-time view of the serve metrics registry:
    /// throughput, cache hit/miss counters and ratios, dedup waits, queue
    /// depth, worker utilization, and per-class latency histograms
    /// (p50/p95/p99 via [`HistogramSnapshot::quantile`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// [`Server::metrics_snapshot`] rendered as Prometheus-style text.
    pub fn render_metrics(&self) -> String {
        self.metrics.snapshot().render_prometheus()
    }

    /// The worst canonical executions recorded so far, slowest first —
    /// at most [`ServeConfig::slow_query_log_cap`] entries, each with the
    /// statement's SQL, rendered plan, and per-operator profile.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.snapshot()
    }
}

/// A per-client handle over a [`Server`]: shares the server's caches,
/// accumulates its own totals, and **pins one snapshot** for its lifetime.
/// Reads see the pinned version no matter what concurrent sessions commit;
/// the session's own writes re-pin it to the snapshot they published, so a
/// session always reads its own writes.
pub struct Session<'s> {
    server: &'s Server,
    /// The snapshot this session serves reads from. Advanced only by the
    /// session's own commits.
    db: Arc<Database>,
    stats: ExecStats,
    executed: u64,
}

impl Session<'_> {
    /// Serves one statement — reads against the pinned snapshot, writes
    /// through the commit path (re-pinning on success) — folding its stats
    /// into the session totals.
    pub fn execute(&mut self, sql: &str) -> SqlResult<StatementOutcome> {
        self.server.metrics.record_enqueue(1);
        let outcome = self.server.serve_one(&mut self.db, sql);
        self.executed += 1;
        if let Ok(o) = &outcome {
            self.stats.merge(&o.stats);
        }
        outcome
    }

    /// Serves a batch like [`Server::execute_batch`] — read runs against
    /// the session's pinned snapshot, writes committed serially in
    /// submission order with the pin advancing past each — folding every
    /// successful statement's stats into the session totals.
    pub fn execute_batch(&mut self, stmts: &[String]) -> Vec<SqlResult<StatementOutcome>> {
        let outcomes = self.server.batch_segmented(Some(&mut self.db), stmts);
        self.executed += outcomes.len() as u64;
        for o in outcomes.iter().flatten() {
            self.stats.merge(&o.stats);
        }
        outcomes
    }

    /// The snapshot this session is pinned to.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The version of the session's pinned snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.db.version()
    }

    /// Statements this session has submitted.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The session's accumulated statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_sqlengine::{execute, execute_statement, execute_with_stats_mode, Value};

    fn snapshot() -> Arc<Database> {
        let mut db = Database::new("serve_test");
        execute_statement(
            &mut db,
            "CREATE TABLE account (account_id INTEGER PRIMARY KEY, district_id INTEGER)",
        )
        .unwrap();
        execute_statement(
            &mut db,
            "CREATE TABLE loan (loan_id INTEGER PRIMARY KEY, account_id INTEGER, amount REAL)",
        )
        .unwrap();
        for i in 0..30i64 {
            execute_statement(&mut db, &format!("INSERT INTO account VALUES ({i}, {})", i % 5))
                .unwrap();
            execute_statement(
                &mut db,
                &format!("INSERT INTO loan VALUES ({i}, {}, {}.0)", i % 30, (i * 37) % 1000),
            )
            .unwrap();
        }
        Arc::new(db)
    }

    fn workload() -> Vec<String> {
        let stmts = [
            "SELECT COUNT(*) FROM loan",
            "SELECT account.district_id, SUM(loan.amount) FROM account \
             INNER JOIN loan ON account.account_id = loan.account_id \
             GROUP BY account.district_id ORDER BY account.district_id",
            "SELECT loan_id FROM loan WHERE amount > (SELECT AVG(amount) FROM loan) \
             ORDER BY loan_id",
            "SELECT DISTINCT district_id FROM account ORDER BY district_id",
        ];
        // Repeat the statements the way an eval run repeats gold queries.
        (0..3).flat_map(|_| stmts.iter().map(|s| s.to_string())).collect()
    }

    #[test]
    fn batch_results_match_direct_execution_in_submission_order() {
        let db = snapshot();
        let stmts = workload();
        for workers in [1, 2, 8] {
            let server = Server::new(Arc::clone(&db), ServeConfig::default().with_workers(workers));
            let outcomes = server.execute_batch(&stmts);
            assert_eq!(outcomes.len(), stmts.len());
            for (sql, outcome) in stmts.iter().zip(&outcomes) {
                let o = outcome.as_ref().unwrap();
                // Rows and cost match direct serial execution in the same
                // production mode.
                let (direct, direct_stats) =
                    execute_with_stats_mode(&db, sql, PlanMode::serving()).unwrap();
                assert_eq!(o.result.rows, direct.rows, "workers={workers} sql={sql}");
                assert_eq!(o.result.columns, direct.columns);
                assert_eq!(o.stats.cost(), direct_stats.cost(), "workers={workers} sql={sql}");
            }
        }
    }

    /// Serves `stmts` through the batch fan-out at exactly `threads`
    /// threads, whatever the host's CPU count.
    fn fan_out_at(server: &Server, threads: usize, stmts: &[String]) -> Vec<StatementOutcome> {
        let db = server.database();
        fan_out(&server.metrics, threads, stmts.len(), |i| {
            server.serve_one(&mut Arc::clone(&db), &stmts[i]).unwrap()
        })
    }

    #[test]
    fn eight_thread_fan_out_keeps_submission_order_rows_and_cost() {
        let db = snapshot();
        let stmts = workload();
        let server = Server::new(Arc::clone(&db), ServeConfig::default().with_workers(8));
        let outcomes = fan_out_at(&server, 8, &stmts);
        assert_eq!(outcomes.len(), stmts.len());
        for (sql, o) in stmts.iter().zip(&outcomes) {
            let (direct, direct_stats) =
                execute_with_stats_mode(&db, sql, PlanMode::serving()).unwrap();
            assert_eq!(o.result.rows, direct.rows, "sql={sql}");
            assert_eq!(o.result.columns, direct.columns);
            assert_eq!(o.stats.cost(), direct_stats.cost(), "sql={sql}");
        }
        assert_eq!(server.metrics_snapshot().workers_busy, 0);
    }

    #[test]
    fn eight_thread_fan_out_counts_hits_exactly() {
        let db = snapshot();
        // 64 submissions of 4 distinct statements, 16 of each.
        let stmts: Vec<String> = (0..16).flat_map(|_| workload().into_iter().take(4)).collect();
        for round in 0..5 {
            let server = Server::new(Arc::clone(&db), ServeConfig::default().with_workers(8));
            fan_out_at(&server, 8, &stmts);
            let m = server.metrics_snapshot();
            assert_eq!(m.statements, 64);
            assert_eq!(m.result_cache_hits, 64 - 4, "round={round}: statements - distinct");
        }
    }

    #[test]
    fn a_panicking_statement_panics_the_caller_and_frees_every_worker() {
        let server = Server::new(snapshot(), ServeConfig::default().with_workers(8));
        let stmts = workload();
        for bad in [0, 5, stmts.len() - 1] {
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fan_out(&server.metrics, 8, stmts.len(), |i| {
                    assert_ne!(i, bad, "injected failure");
                    server.serve_one(&mut server.database(), &stmts[i]).unwrap()
                })
            }));
            let payload = served.expect_err("the panic reaches the caller instead of hanging");
            let message = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
            assert!(message.contains("injected failure"), "original payload kept: {message}");
            assert_eq!(server.metrics_snapshot().workers_busy, 0, "bad={bad}");
        }
        // The server keeps serving afterwards.
        assert_eq!(fan_out_at(&server, 8, &stmts).len(), stmts.len());
    }

    #[test]
    fn repeated_statements_hit_the_result_cache() {
        let server = Server::new(snapshot(), ServeConfig::serial());
        let stmts = workload();
        server.execute_batch(&stmts);
        let stats = server.metrics_snapshot();
        assert_eq!(stats.statements, stmts.len() as u64);
        assert_eq!(server.prepared_statements(), 4, "four distinct statements plan once each");
        assert_eq!(
            stats.result_cache_hits,
            stmts.len() as u64 - 4,
            "every repeat is a result-cache hit"
        );
    }

    #[test]
    fn result_cache_hits_are_exact_at_every_worker_count() {
        // In-flight dedup makes the hit counter scheduling-independent:
        // exactly one canonical execution per distinct statement, every
        // other submission a hit — no matter how the workers interleave.
        let db = snapshot();
        let stmts = workload();
        let distinct = 4u64;
        for workers in [1usize, 2, 4, 8] {
            for round in 0..3 {
                let server =
                    Server::new(Arc::clone(&db), ServeConfig::default().with_workers(workers));
                server.execute_batch(&stmts);
                let stats = server.metrics_snapshot();
                assert_eq!(
                    stats.result_cache_hits,
                    stmts.len() as u64 - distinct,
                    "workers={workers} round={round}: hits must be exact, not approximate"
                );
            }
        }
    }

    #[test]
    fn concurrent_duplicates_share_one_canonical_execution() {
        let db = snapshot();
        let sql = "SELECT account.district_id, SUM(loan.amount) FROM account \
                   INNER JOIN loan ON account.account_id = loan.account_id \
                   GROUP BY account.district_id ORDER BY account.district_id";
        let batch: Vec<String> = (0..64).map(|_| sql.to_string()).collect();
        let server = Server::new(db, ServeConfig::default().with_workers(8));
        let outcomes = server.execute_batch(&batch);
        let fresh = outcomes.iter().filter(|o| !o.as_ref().unwrap().from_result_cache).count();
        assert_eq!(fresh, 1, "exactly one submission executes; 63 are deduped");
        assert_eq!(server.metrics_snapshot().result_cache_hits, 63);
        for o in &outcomes {
            let o = o.as_ref().unwrap();
            assert_eq!(o.result.rows, outcomes[0].as_ref().unwrap().result.rows);
            assert_eq!(o.stats, outcomes[0].as_ref().unwrap().stats);
        }
    }

    #[test]
    fn zero_workers_in_a_struct_literal_serves_serially() {
        // A zero passed through the struct literal is clamped where the
        // fan-out is computed.
        let config = ServeConfig { workers: 0, ..ServeConfig::default() };
        let server = Server::new(snapshot(), config);
        let stmts = workload();
        let outcomes = server.execute_batch(&stmts);
        assert_eq!(outcomes.len(), stmts.len());
        for outcome in &outcomes {
            assert!(outcome.is_ok());
        }
        assert_eq!(server.metrics_snapshot().statements, stmts.len() as u64);
        assert_eq!(
            server.execute("SELECT COUNT(*) FROM loan").unwrap().result.rows[0][0],
            Value::Integer(30)
        );
    }

    #[test]
    fn cap_two_evicts_the_least_recently_served_entry() {
        // One global LRU: with cap 2, any three statements exercise the
        // recency order deterministically.
        let config = ServeConfig { result_cache_cap: 2, ..ServeConfig::serial() };
        let server = Server::new(snapshot(), config);
        let (a, b, c) = (
            "SELECT COUNT(*) FROM loan WHERE amount > 1",
            "SELECT COUNT(*) FROM loan WHERE amount > 2",
            "SELECT COUNT(*) FROM account",
        );
        server.execute(a).unwrap();
        server.execute(b).unwrap();
        assert_eq!(server.result_cache_len(), 2);
        assert_eq!(server.result_cache_evictions(), 0);
        // Touch `a` so `b` becomes the least-recently-served entry, then
        // admit `c`: the cache stays at its cap and `b` is the eviction.
        assert!(server.execute(a).unwrap().from_result_cache);
        server.execute(c).unwrap();
        assert_eq!(server.result_cache_len(), 2, "the cap is never exceeded");
        assert_eq!(server.result_cache_evictions(), 1);
        assert!(server.execute(a).unwrap().from_result_cache, "recently served entry survives");
        assert!(server.execute(c).unwrap().from_result_cache, "newcomer was admitted");
        assert!(
            !server.execute(b).unwrap().from_result_cache,
            "evicted statement re-executes (and re-enters the cache, evicting again)"
        );
        assert_eq!(server.result_cache_evictions(), 2);
        // `b` re-entered as most recent and `a` was the coldest, so `a` went.
        assert!(server.execute(c).unwrap().from_result_cache);
        assert!(!server.execute(a).unwrap().from_result_cache);
        // Correctness is cache-independent: the re-executed statement
        // returns the same rows it did before eviction.
        let before = execute(&server.database(), b).unwrap();
        assert_eq!(server.execute(b).unwrap().result.rows, before.rows);
    }

    #[test]
    fn result_cache_can_be_disabled() {
        // A zero cap is the one switch that turns result caching off.
        let config = ServeConfig { result_cache_cap: 0, ..ServeConfig::serial() };
        let server = Server::new(snapshot(), config);
        let stmts = workload();
        let outcomes = server.execute_batch(&stmts);
        assert!(outcomes.iter().all(|o| !o.as_ref().unwrap().from_result_cache));
        assert_eq!(server.metrics_snapshot().result_cache_hits, 0);
        // Plans are still shared even when results are not.
        assert_eq!(server.prepared_statements(), 4);
    }

    #[test]
    fn zero_result_cache_cap_disables_caching() {
        let config = ServeConfig { result_cache_cap: 0, ..ServeConfig::serial() };
        let server = Server::new(snapshot(), config);
        let sql = "SELECT COUNT(*) FROM loan";
        server.execute(sql).unwrap();
        assert!(!server.execute(sql).unwrap().from_result_cache);
        assert_eq!(server.result_cache_len(), 0);
        assert_eq!(server.result_cache_evictions(), 0);
        assert_eq!(server.metrics_snapshot().result_cache_hits, 0);
    }

    #[test]
    fn errors_keep_their_submission_slots() {
        let server = Server::new(snapshot(), ServeConfig::default().with_workers(2));
        let stmts = vec![
            "SELECT COUNT(*) FROM loan".to_string(),
            "SELECT nope FROM nowhere".to_string(),
            "SELECT COUNT(*) FROM account".to_string(),
        ];
        let outcomes = server.execute_batch(&stmts);
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err());
        let ok = outcomes[2].as_ref().unwrap();
        assert_eq!(ok.result.rows[0][0], Value::Integer(30));
    }

    #[test]
    fn erroring_statements_are_shared_in_flight_but_never_cached() {
        let server = Server::new(snapshot(), ServeConfig::default().with_workers(8));
        let bad = "SELECT nope FROM nowhere".to_string();
        let batch: Vec<String> = (0..16).map(|_| bad.clone()).collect();
        let outcomes = server.execute_batch(&batch);
        let expected = server.execute(&bad).unwrap_err();
        for outcome in &outcomes {
            assert_eq!(outcome.as_ref().unwrap_err(), &expected, "waiters share the same error");
        }
        assert_eq!(server.result_cache_len(), 0, "errors never become ready entries");
        assert_eq!(server.metrics_snapshot().result_cache_hits, 0);
    }

    #[test]
    fn metrics_registry_tracks_hits_latency_and_queue() {
        let server = Server::new(snapshot(), ServeConfig::serial());
        let stmts = workload();
        server.execute_batch(&stmts);
        let m = server.metrics_snapshot();
        assert_eq!(m.statements, stmts.len() as u64);
        assert_eq!(m.result_cache_hits, stmts.len() as u64 - 4);
        assert_eq!(m.result_cache_misses, 4);
        let expected_ratio = (stmts.len() as f64 - 4.0) / stmts.len() as f64;
        assert!((m.result_cache_hit_ratio() - expected_ratio).abs() < 1e-9);
        assert_eq!(m.queue_depth, 0, "every admitted statement was served");
        assert_eq!(m.workers_busy, 0, "no batch is draining");
        assert_eq!(m.batches, 1);
        assert_eq!(m.overall_latency().total(), stmts.len() as u64);
        // The workload holds COUNT(*), a SUM/GROUP BY join (aggregate wins
        // classification precedence), one subquery, and one plain DISTINCT
        // scan — each repeated three times.
        assert_eq!(m.class_latency(StatementClass::Aggregate).total(), 6);
        assert_eq!(m.class_latency(StatementClass::Subquery).total(), 3);
        assert_eq!(m.class_latency(StatementClass::Simple).total(), 3);
        assert_eq!(m.class_latency(StatementClass::Join).total(), 0);
        assert!(m.overall_latency().p99() >= m.overall_latency().p50());
        // Canonical executions billed the engine caches; the subquery
        // statement's uncorrelated (SELECT AVG...) runs through the
        // engine's subquery result cache.
        assert!(m.plan_cache_hits + m.plan_cache_misses > 0);
        assert!(m.worker_utilization() > 0.0);
        let text = server.render_metrics();
        assert!(text.contains(&format!("serve_statements_total {}", stmts.len())));
        assert!(text.contains("serve_statement_latency_nanoseconds_count{class=\"aggregate\"} 6"));
    }

    #[test]
    fn slow_query_log_keeps_the_worst_canonical_executions() {
        // Threshold 0 records every canonical execution; cap 2 retains the
        // two slowest. Cache hits never record.
        let config = ServeConfig::serial().with_slow_query_log(0, 2);
        let server = Server::new(snapshot(), config);
        let stmts = workload();
        server.execute_batch(&stmts);
        assert_eq!(
            server.metrics_snapshot().slow_queries,
            4,
            "one recording per canonical execution, none per cache hit"
        );
        let slow = server.slow_queries();
        assert_eq!(slow.len(), 2, "log retains only the cap");
        assert!(slow[0].nanos >= slow[1].nanos, "slowest first");
        for q in &slow {
            assert!(q.plan.starts_with("Plan mode:"), "plan render present: {}", q.plan);
            assert!(q.profile.starts_with("total time:"), "profile present: {}", q.profile);
            assert!(q.profile.contains("rows="), "per-operator lines present");
            assert!(q.cost > 0.0);
        }
        server.execute(&stmts[0]).unwrap();
        assert_eq!(server.metrics_snapshot().slow_queries, 4, "hit did not record");
    }

    #[test]
    fn slow_query_log_is_quiet_by_default_and_disableable() {
        // The default 50ms threshold is far above these statements.
        let server = Server::new(snapshot(), ServeConfig::serial());
        server.execute_batch(&workload());
        assert_eq!(server.metrics_snapshot().slow_queries, 0);
        assert!(server.slow_queries().is_empty());
        // Cap 0 disables recording even at threshold 0.
        let off = Server::new(snapshot(), ServeConfig::serial().with_slow_query_log(0, 0));
        off.execute_batch(&workload());
        assert_eq!(off.metrics_snapshot().slow_queries, 0);
    }

    #[test]
    fn sessions_accumulate_their_own_stats() {
        let db = snapshot();
        let server = Server::new(db, ServeConfig::serial());
        let mut a = server.session();
        let mut b = server.session();
        a.execute("SELECT COUNT(*) FROM loan").unwrap();
        a.execute("SELECT COUNT(*) FROM loan").unwrap();
        b.execute("SELECT COUNT(*) FROM account").unwrap();
        assert_eq!(a.executed(), 2);
        assert_eq!(b.executed(), 1);
        assert!(a.stats().rows_scanned > 0);
        // The repeat was a cache hit but still bills the canonical stats.
        assert_eq!(a.stats().rows_scanned % 2, 0);
        assert_eq!(server.metrics_snapshot().statements, 3);
    }
}
