//! The `serve_rw` workload: a read/write mix against one `Server` per BIRD
//! database.
//!
//! Two client threads form a closed loop; each holds a `Session` on every
//! server. Reads are a Zipf-skewed stream over gold and system-predicted
//! SQL plus literal-substituted variants, about twice the default result
//! cache capacity of distinct statements per server, so the hot head fits
//! the cache and the tail misses. About 5% of statements are writes on the
//! tables the reads touch, each table picked in proportion to the distinct
//! reads that depend on it: each client inserts a row under a fresh key,
//! updates it, then deletes it, so table sizes stay steady across a run.
//! An op is one read. Every seed runs on the paper binaries' corpus; the
//! seed draws the popularity orders, the writes and their values.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use seed_datasets::{bird::build_bird, Benchmark, CorpusConfig, Split};
use seed_serve::{ServeConfig, Server, Session};
use seed_sqlengine::{
    execute_with_stats_mode, is_write_statement, parse_statement, statement_dependencies, DataType,
    Database, ExecStats, PlanMode, SharedPlanCache, Value,
};
use seed_text2sql::{CodeS, DailSql, GenerationContext, Text2SqlSystem, C3};

use crate::eval::{check_gold, corpus_seed};
use crate::trace::{trace_metrics, Tracer};
use crate::{
    end_to_end, engine_metrics, latency_metrics, op_kind, peak_rss_mb, percentile, thread_cpu_ns,
    trace_path, HostSpeed, Report, Reservoir, Rng, RunConfig, Stopwatch,
};

const CLIENTS: usize = 2;
/// The timed phase runs in this many windows. Each window draws a fresh
/// popularity order of every server's reads, so a run averages over many
/// hot sets rather than measuring the one a seed happens to draw; between
/// two windows the clients pause while one set-up repetition is timed.
const SETUP_WINDOWS: u32 = 40;
/// Latency samples each client keeps of its reads and of its writes.
const READ_SAMPLES: usize = 1 << 19;
const WRITE_SAMPLES: usize = 1 << 16;
/// Distinct reads per server, as a multiple of the result cache capacity.
const DISTINCT_PER_CACHE_CAP: usize = 2;
/// Zipf exponent of the read stream over each server's distinct reads.
const ZIPF_S: f64 = 1.0;
const WRITE_SHARE: f64 = 0.05;
/// Untimed statements each client sends first, checking every read; they
/// also fill the caches before the timed phase.
const WARMUP_OPS: usize = 20_000;
/// Fresh primary keys start here, far above any key the corpus uses.
const FRESH_KEY_BASE: i64 = 1_000_000_000;

/// A table the clients write: its primary key and the rows new ones copy.
struct WriteTarget {
    table: String,
    pk: String,
    pk_index: usize,
    templates: Vec<Vec<Value>>,
    /// A non-key column the update sets, and values to set it to.
    update_column: String,
    update_values: Vec<String>,
    /// Distinct reads of the server that depend on the table.
    readers: usize,
}

struct DbStream {
    /// Distinct reads.
    reads: Vec<String>,
    /// Cumulative Zipf weights over the popularity ranks, ending at 1.
    cdf: Vec<f64>,
    targets: Vec<WriteTarget>,
}

/// One client's statement generator.
struct Client<'w> {
    dbs: &'w [DbStream],
    seed: u64,
    /// Per server, the index into `reads` of each popularity rank.
    ranks: Vec<Vec<u32>>,
    rng: Rng,
    next_key: i64,
    /// The write cycle in progress: (db, target, key, next step).
    cycle: Option<(usize, usize, i64, u8)>,
    /// Every (db, target) with the running sum of their readers, which a
    /// new write cycle draws from.
    write_weights: Vec<(usize, usize, usize)>,
}

impl<'w> Client<'w> {
    fn new(dbs: &'w [DbStream], seed: u64, client: usize) -> Self {
        let mut sum = 0;
        let write_weights = dbs
            .iter()
            .enumerate()
            .flat_map(|(d, s)| s.targets.iter().enumerate().map(move |(t, w)| (d, t, w.readers)))
            .map(|(d, t, readers)| {
                sum += readers;
                (d, t, sum)
            })
            .collect();
        let mut c = Client {
            dbs,
            seed,
            ranks: Vec::new(),
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
            next_key: FRESH_KEY_BASE + client as i64 * 100_000_000,
            cycle: None,
            write_weights,
        };
        c.popularity(0);
        c
    }

    /// Draws the popularity order of `window`; every client draws the
    /// same one, so they share a hot set.
    fn popularity(&mut self, window: u64) {
        let mut rng = Rng::new(self.seed.rotate_left(32) ^ window);
        self.ranks = self
            .dbs
            .iter()
            .map(|d| {
                let mut order: Vec<u32> = (0..d.reads.len() as u32).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                order
            })
            .collect();
    }

    /// The next statement: the database it goes to and its text.
    fn next(&mut self) -> (usize, String) {
        if self.rng.unit() < WRITE_SHARE {
            return self.next_write();
        }
        let db = self.rng.below(self.dbs.len());
        let stream = &self.dbs[db];
        let u = self.rng.unit();
        let rank = stream.cdf.partition_point(|&c| c < u).min(stream.reads.len() - 1);
        (db, stream.reads[self.ranks[db][rank] as usize].clone())
    }

    fn next_write(&mut self) -> (usize, String) {
        let (db, t, key, step) = match self.cycle {
            Some(c) => c,
            None => {
                let total = self.write_weights.last().map_or(1, |w| w.2);
                let pick = self.rng.below(total);
                let i = self.write_weights.partition_point(|w| w.2 <= pick);
                let (d, t, _) = self.write_weights[i];
                self.next_key += 1;
                (d, t, self.next_key, 0)
            }
        };
        let target = &self.dbs[db].targets[t];
        let sql = match step {
            0 => {
                let template = &target.templates[self.rng.below(target.templates.len())];
                let values: Vec<String> = template
                    .iter()
                    .enumerate()
                    .map(
                        |(i, v)| {
                            if i == target.pk_index {
                                key.to_string()
                            } else {
                                sql_literal(v)
                            }
                        },
                    )
                    .collect();
                format!("INSERT INTO `{}` VALUES ({})", target.table, values.join(", "))
            }
            1 => format!(
                "UPDATE `{}` SET `{}` = {} WHERE `{}` = {key}",
                target.table,
                target.update_column,
                target.update_values[self.rng.below(target.update_values.len())],
                target.pk
            ),
            _ => format!("DELETE FROM `{}` WHERE `{}` = {key}", target.table, target.pk),
        };
        self.cycle = (step < 2).then_some((db, t, key, step + 1));
        (db, sql)
    }
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.render(),
    }
}

/// Byte ranges of the standalone integer literals of `sql`, outside quoted
/// strings and identifiers.
fn integer_literals(sql: &str) -> Vec<(usize, usize)> {
    let b = sql.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'.';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            q @ (b'\'' | b'`' | b'"') => {
                i += 1;
                while i < b.len() && b[i] != q {
                    i += 1;
                }
                i += 1;
            }
            c if c.is_ascii_digit() && (i == 0 || !word(b[i - 1])) => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i == b.len() || !word(b[i]) {
                    out.push((start, i));
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Gold SQL of every question of `db_id` plus what three systems predict
/// for its dev questions with and without evidence.
fn base_reads(bench: &Benchmark, db: &Database) -> Vec<String> {
    let train = bench.split(Split::Train);
    let systems: [&dyn Text2SqlSystem; 3] = [&CodeS::new(7), &DailSql::new(), &C3::new()];
    let mut out: Vec<String> = Vec::new();
    for q in bench.questions.iter().filter(|q| q.db_id == db.name()) {
        out.push(q.gold_sql.clone());
        if q.split != Split::Dev {
            continue;
        }
        for evidence in [None, Some(q.human_evidence.text.as_str())] {
            for system in systems {
                let ctx =
                    GenerationContext { question: q, database: db, evidence, train_pool: &train };
                out.push(system.generate(&ctx));
            }
        }
    }
    out
}

/// Builds one server's read stream and write targets.
fn db_stream(bench: &Benchmark, db: &Database) -> DbStream {
    let runs = |sql: &str| {
        !is_write_statement(sql) && execute_with_stats_mode(db, sql, PlanMode::serving()).is_ok()
    };
    let target = DISTINCT_PER_CACHE_CAP * ServeConfig::default().result_cache_cap;
    let mut seen = BTreeSet::new();
    let mut reads: Vec<String> = Vec::new();
    for sql in base_reads(bench, db) {
        if seen.insert(sql.clone()) && runs(&sql) {
            reads.push(sql);
        }
    }
    let bases: Vec<(String, Vec<(usize, usize)>)> =
        reads.iter().map(|s| (s.clone(), integer_literals(s))).collect();
    // Literal-substituted variants, round-robin over bases and literals.
    'grow: for delta in 1..=target as i64 {
        let before = reads.len();
        for (sql, literals) in &bases {
            for &(start, end) in literals {
                if reads.len() >= target {
                    break 'grow;
                }
                let n: i64 = sql[start..end].parse().unwrap_or(0);
                let variant = format!("{}{}{}", &sql[..start], n + delta, &sql[end..]);
                if seen.insert(variant.clone()) && runs(&variant) {
                    reads.push(variant);
                }
            }
        }
        if reads.len() == before {
            break;
        }
    }
    let weights: Vec<f64> = (0..reads.len()).map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();

    let mut touched: BTreeMap<String, usize> = BTreeMap::new();
    for stmt in reads.iter().filter_map(|sql| parse_statement(sql).ok()) {
        for t in statement_dependencies(&stmt) {
            *touched.entry(t).or_insert(0) += 1;
        }
    }
    let targets: Vec<WriteTarget> = db
        .table_names()
        .into_iter()
        .filter(|name| touched.contains_key(&name.to_ascii_lowercase()))
        .filter_map(|name| {
            let table = db.table(&name).ok()?;
            let pk_index = table.primary_key_column()?;
            let columns = &table.schema.columns;
            if columns[pk_index].data_type != DataType::Integer || table.is_empty() {
                return None;
            }
            let update_index = (0..columns.len()).find(|&i| i != pk_index)?;
            let templates: Vec<Vec<Value>> = table.rows().iter().take(16).cloned().collect();
            let update_values = templates.iter().map(|r| sql_literal(&r[update_index])).collect();
            Some(WriteTarget {
                pk: columns[pk_index].name.clone(),
                update_column: columns[update_index].name.clone(),
                readers: touched[&name.to_ascii_lowercase()],
                table: name,
                pk_index,
                templates,
                update_values,
            })
        })
        .collect();
    DbStream { reads, cdf, targets }
}

fn servers_for(bench: Benchmark) -> Vec<Server> {
    bench.databases.into_iter().map(|db| Server::new(Arc::new(db), ServeConfig::serial())).collect()
}

/// Serve counters summed over the servers.
#[derive(Default, Clone, Copy)]
struct ServeTotals {
    hits: u64,
    misses: u64,
    plan_hits: u64,
    plan_misses: u64,
    dedup_waits: u64,
    busy_ns: u64,
    commits: u64,
    evictions: u64,
    version: u64,
}

fn serve_totals(servers: &[Server]) -> ServeTotals {
    let mut t = ServeTotals::default();
    for s in servers {
        let m = s.metrics_snapshot();
        t.hits += m.result_cache_hits;
        t.misses += m.result_cache_misses;
        t.plan_hits += m.plan_cache_hits;
        t.plan_misses += m.plan_cache_misses;
        t.dedup_waits += m.dedup_waits;
        t.busy_ns += m.worker_busy_nanos;
        t.commits += m.commits;
        t.evictions += s.result_cache_evictions();
        t.version = t.version.max(m.snapshot_version);
    }
    t
}

/// Per-layer serve metric names and units; [`run`] reports them in this
/// order.
pub const SERVE_METRICS: [(&str, &str); 7] = [
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.result_cache_evictions", "count"),
    ("serve.dedup_waits", "count"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.worker_busy_ms", "ms"),
    ("serve.commits", "count"),
    ("serve.snapshot_version", "count"),
];

/// What one client measured and recorded.
struct ClientOut {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    checked_reads: u64,
    read_ns: Reservoir,
    write_ns: Reservoir,
    /// Wall-clock and CPU time of the client's timed windows.
    timed_wall_ns: u64,
    timed_cpu_ns: u64,
    traced: Option<ClientTrace>,
}

struct ClientTrace {
    tracer: Tracer,
    reads: u64,
    elapsed: Duration,
    stats: ExecStats,
    parse_ns: u64,
    exec_ns: u64,
    op_ns: BTreeMap<&'static str, u64>,
}

/// Sends one statement; `None` when it returned `Err` or panicked.
fn send(session: &mut Session<'_>, sql: &str) -> Option<seed_serve::StatementOutcome> {
    catch_unwind(AssertUnwindSafe(|| session.execute(sql))).ok().and_then(Result::ok)
}

fn client_body(
    servers: &[Server],
    dbs: &[DbStream],
    seed: u64,
    index: usize,
    measure: Duration,
    trace: Option<Instant>,
    barrier: &Barrier,
) -> ClientOut {
    let sample_seed = seed.wrapping_mul(0x100).wrapping_add(index as u64);
    let mut out = ClientOut {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        checked_reads: 0,
        read_ns: Reservoir::new(READ_SAMPLES, sample_seed),
        write_ns: Reservoir::new(WRITE_SAMPLES, !sample_seed),
        timed_wall_ns: 0,
        timed_cpu_ns: 0,
        traced: None,
    };
    let mut client = Client::new(dbs, seed, index);
    let mut sessions: Vec<Session<'_>> = servers.iter().map(Server::session).collect();

    // Warm-up: every read is checked against a direct execution on the
    // snapshot the session was pinned to.
    for _ in 0..WARMUP_OPS {
        let (db, sql) = client.next();
        let pinned = sessions[db].database();
        out.attempted += 1;
        let Some(outcome) = send(&mut sessions[db], &sql) else {
            out.failed += 1;
            continue;
        };
        if is_write_statement(&sql) {
            continue;
        }
        out.checked_reads += 1;
        match execute_with_stats_mode(&pinned, &sql, PlanMode::serving()) {
            Ok((direct, _))
                if direct.columns == outcome.result.columns
                    && direct.rows == outcome.result.rows => {}
            _ => out.problems.push(format!("served rows differ from direct execution: {sql}")),
        }
    }

    // The timed phase, in windows the main thread pauses between.
    for w in 0..SETUP_WINDOWS {
        client.popularity(u64::from(w) + 1);
        barrier.wait();
        let window = Stopwatch::start();
        let deadline = Instant::now() + measure / SETUP_WINDOWS;
        while Instant::now() < deadline {
            let (db, sql) = client.next();
            let write = is_write_statement(&sql);
            let t0 = thread_cpu_ns();
            let outcome = send(&mut sessions[db], &sql);
            let ns = thread_cpu_ns() - t0;
            out.attempted += 1;
            out.failed += u64::from(outcome.is_none());
            if write { &mut out.write_ns } else { &mut out.read_ns }.push(ns);
        }
        let (wall, cpu) = window.lap();
        out.timed_wall_ns += wall;
        out.timed_cpu_ns += cpu;
        barrier.wait();
    }

    let Some(epoch) = trace else {
        return out;
    };
    barrier.wait();
    barrier.wait();
    let mut t = ClientTrace {
        tracer: Tracer::with_epoch(epoch),
        reads: 0,
        elapsed: Duration::ZERO,
        stats: ExecStats::default(),
        parse_ns: 0,
        exec_ns: 0,
        op_ns: BTreeMap::new(),
    };
    let replay_plans = SharedPlanCache::new();
    let started = Instant::now();
    let deadline = started + measure;
    let mut op = (index as u64 + 1) << 40;
    // The popularity order changes at the untraced windows' pace.
    let mut window = 0;
    while Instant::now() < deadline {
        let w = (started.elapsed().as_nanos() / (measure / SETUP_WINDOWS).as_nanos()) as u32;
        if w != window {
            window = w;
            client.popularity(u64::from(SETUP_WINDOWS + w));
        }
        let (db, sql) = client.next();
        op += 1;
        let write = is_write_statement(&sql);
        let pinned = sessions[db].database();
        let span = t.tracer.open(op, None, if write { "serve.write" } else { "serve.read" });
        let outcome = send(&mut sessions[db], &sql);
        t.tracer.close(span);
        out.attempted += 1;
        out.failed += u64::from(outcome.is_none());
        let Some(outcome) = outcome else { continue };
        if write {
            continue;
        }
        t.reads += 1;
        if outcome.from_result_cache {
            continue;
        }
        t.stats.merge(&outcome.stats);
        let ((), ns) = t.tracer.replay(span, "sqlengine.parse", || {
            let _ = parse_statement(&sql);
        });
        t.parse_ns += ns;
        let (profiled, ns) = t.tracer.replay(span, "sqlengine.exec", || {
            replay_plans.execute_profiled(&pinned, &sql, PlanMode::serving())
        });
        t.exec_ns += ns;
        if let Ok((_, _, profile)) = profiled {
            for p in profile.ops() {
                *t.op_ns.entry(op_kind(&p.label)).or_insert(0) += p.nanos;
            }
        }
    }
    t.elapsed = started.elapsed();
    out.traced = Some(t);
    out
}

/// The CPU time of every set-up repetition.
#[derive(Default)]
struct SetupTimes {
    /// Corpus build plus server construction, and the build alone.
    setup_ns: Vec<u64>,
    build_ns: Vec<u64>,
}

impl SetupTimes {
    fn add(&mut self, build_ns: u64, servers_ns: u64) {
        self.setup_ns.push(build_ns + servers_ns);
        self.build_ns.push(build_ns);
    }

    /// One more repetition, its corpus and servers dropped afterwards.
    fn repeat(&mut self, corpus: &CorpusConfig) {
        let (bench, build_ns) = cpu_timed(|| build_bird(corpus));
        let (servers, servers_ns) = cpu_timed(|| servers_for(bench));
        self.add(build_ns, servers_ns);
        drop(servers);
    }
}

/// Runs `f` and returns its result with its CPU nanoseconds.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = thread_cpu_ns();
    let out = f();
    (out, thread_cpu_ns() - t0)
}

pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    // Every seed serves the paper binaries' corpus; the seed draws the
    // statement stream. Across corpora the read set's cost moves by a fifth,
    // which would swamp any change to the serve path.
    let corpus = CorpusConfig { scale: config.scale, seed: corpus_seed(0) };
    let mut setup = SetupTimes::default();
    let (bench, build_ns) = cpu_timed(|| build_bird(&corpus));
    let dbs: Vec<DbStream> = bench.databases.iter().map(|db| db_stream(&bench, db)).collect();
    report.record("servers", dbs.len());
    let distinct: Vec<String> = dbs.iter().map(|d| d.reads.len().to_string()).collect();
    report.record("distinct_reads_per_server", format!("[{}]", distinct.join(", ")));
    let written: Vec<String> =
        dbs.iter().flat_map(|d| &d.targets).map(|t| crate::json_string(&t.table)).collect();
    report.record("written_tables", format!("[{}]", written.join(", ")));
    report.record("clients", CLIENTS);
    if dbs.iter().any(|d| d.reads.is_empty()) || dbs.iter().all(|d| d.targets.is_empty()) {
        report.problem("the workload has a server without reads, or no write target");
        return report;
    }
    let (servers, servers_ns) = cpu_timed(|| servers_for(bench));
    setup.add(build_ns, servers_ns);

    let epoch = Instant::now();
    let trace = config.trace.then_some(epoch);
    let barrier = Barrier::new(CLIENTS + 1);
    let mut before_trace = ServeTotals::default();
    let mut speed = HostSpeed::default();
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (servers, dbs, barrier) = (&servers, &dbs, &barrier);
                scope.spawn(move || {
                    client_body(servers, dbs, config.seed, i, config.measure, trace, barrier)
                })
            })
            .collect();
        // One set-up repetition after each window, while the clients wait,
        // so the set-up figure samples the whole run.
        for _ in 0..SETUP_WINDOWS {
            barrier.wait();
            barrier.wait();
            speed.sample();
            setup.repeat(&corpus);
        }
        if config.trace {
            barrier.wait();
            before_trace = serve_totals(&servers);
            barrier.wait();
        }
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let after = serve_totals(&servers);
    let peak_rss = peak_rss_mb();
    check_gold(&build_bird(&corpus), config, &mut report);

    let mut read_ns = Vec::new();
    let mut write_ns = Vec::new();
    let (mut reads, mut writes, mut rate, mut wall_rate) = (0, 0, 0.0, 0.0);
    for o in &outs {
        report.attempted += o.attempted;
        report.failed += o.failed;
        report.problems.extend(o.problems.iter().cloned());
        read_ns.extend_from_slice(o.read_ns.samples());
        write_ns.extend_from_slice(o.write_ns.samples());
        reads += o.read_ns.seen();
        writes += o.write_ns.seen();
        rate += o.read_ns.seen() as f64 / (o.timed_cpu_ns as f64 / 1e9);
        wall_rate += o.read_ns.seen() as f64 / (o.timed_wall_ns as f64 / 1e9);
    }
    report.record("checked_reads", outs.iter().map(|o| o.checked_reads).sum::<u64>());
    report.record("ops", reads);
    report.record("writes", writes);
    report.record("setup_repetitions", setup.setup_ns.len());
    let setup_s = percentile(&mut setup.setup_ns, 0.5) as f64 / 1e9;
    let build_s = percentile(&mut setup.build_ns, 0.5) as f64 / 1e9;

    if !config.trace {
        end_to_end(&mut report, &speed, setup_s, rate);
        latency_metrics(&mut report, "op", &mut read_ns, 0.99, &speed);
        latency_metrics(&mut report, "evidence_or_write", &mut write_ns, 0.90, &speed);
        report.metric("peak_rss_mb", peak_rss, "MiB");
        report.record("wall_ops_per_s", wall_rate);
        return report;
    }

    let mut tracer = Tracer::with_epoch(epoch);
    let mut stats = ExecStats::default();
    let (mut parse_ns, mut exec_ns, mut reads, mut traced_rate) = (0, 0, 0u64, 0.0);
    let mut op_ns = BTreeMap::new();
    for t in outs.into_iter().filter_map(|o| o.traced) {
        reads += t.reads;
        let busy = t.elapsed.as_nanos().saturating_sub(u128::from(t.tracer.replay_ns()));
        traced_rate += t.reads as f64 / (busy as f64 / 1e9);
        stats.merge(&t.stats);
        parse_ns += t.parse_ns;
        exec_ns += t.exec_ns;
        for (k, v) in t.op_ns {
            *op_ns.entry(k).or_insert(0) += v;
        }
        tracer.absorb(t.tracer);
    }
    let per = reads.max(1) as f64 / 1000.0;
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    report.record_str("per_layer_basis", "per 1000 reads of the traced phase");
    report.metric("datasets.build_ms", build_s * 1e3, "ms");
    engine_metrics(&mut report, parse_ns, exec_ns, &op_ns, &stats, per);
    let values = [
        ratio(d(after.hits, before_trace.hits), d(after.misses, before_trace.misses)),
        d(after.evictions, before_trace.evictions) as f64 / per,
        d(after.dedup_waits, before_trace.dedup_waits) as f64 / per,
        ratio(
            d(after.plan_hits, before_trace.plan_hits),
            d(after.plan_misses, before_trace.plan_misses),
        ),
        d(after.busy_ns, before_trace.busy_ns) as f64 / 1e6 / per,
        d(after.commits, before_trace.commits) as f64 / per,
        after.version as f64,
    ];
    for ((name, unit), value) in SERVE_METRICS.into_iter().zip(values) {
        report.metric(name, value, unit);
    }
    trace_metrics(&mut report, &tracer, per, 1e9 / wall_rate, 1e9 / traced_rate);
    if let Err(e) = tracer.write_csv(&trace_path(config.workload)) {
        report.problem(format!("writing spans failed: {e}"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_literals_skip_strings_identifiers_and_decimals() {
        let sql = "SELECT `a1` FROM t2 WHERE x = 'v 3' AND y > 500 AND z < 1.5 LIMIT 10";
        let found: Vec<&str> = integer_literals(sql).into_iter().map(|(s, e)| &sql[s..e]).collect();
        assert_eq!(found, ["500", "10"]);
    }

    #[test]
    fn write_cycles_insert_update_then_delete_one_fresh_key() {
        let dbs = [DbStream {
            reads: vec!["SELECT 1".into()],
            cdf: vec![1.0],
            targets: vec![WriteTarget {
                table: "t".into(),
                pk: "id".into(),
                pk_index: 0,
                templates: vec![vec![Value::Integer(1), Value::Text("it's".into())]],
                update_column: "v".into(),
                update_values: vec!["'x'".into()],
                readers: 1,
            }],
        }];
        let mut c = Client::new(&dbs, 1, 0);
        let sqls: Vec<String> = (0..3).map(|_| c.next_write().1).collect();
        let key = FRESH_KEY_BASE + 1;
        assert_eq!(sqls[0], format!("INSERT INTO `t` VALUES ({key}, 'it''s')"));
        assert_eq!(sqls[1], format!("UPDATE `t` SET `v` = 'x' WHERE `id` = {key}"));
        assert_eq!(sqls[2], format!("DELETE FROM `t` WHERE `id` = {key}"));
        assert!(c.next_write().1.starts_with("INSERT"));
    }
}
