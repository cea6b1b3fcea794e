//! Write-path determinism for the `seed-serve` runtime: a seeded mixed
//! read/write batch must produce **identical per-statement results in
//! submission order and an identical final snapshot** at 1, 2, and 8
//! workers.
//!
//! Contract under test (see `crates/serve/README.md`, "Sessions, snapshots
//! and writes"):
//! * `execute_batch` splits a batch into read runs separated by write
//!   barriers; writes commit serially in submission order under the commit
//!   gate, read runs execute in parallel against the snapshot pinned at the
//!   run's start — so concurrency can reorder *scheduling*, never
//!   *observable results*;
//! * the final published snapshot (rows of every table, version epoch) is a
//!   pure function of the submitted batch, independent of worker count;
//! * a `Session` pins its snapshot at open: concurrent commits through the
//!   server never move an open session's view, while the session's own
//!   writes re-pin it (read-your-writes).

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use seed_repro::serve::{ServeConfig, Server};
use seed_repro::sqlengine::{ColumnDef, DataType, Database, TableSchema, Value};

/// A two-table base snapshot with enough seed rows that reads return
/// non-trivial results before the batch's own inserts land.
fn base_snapshot() -> Arc<Database> {
    let mut db = Database::new("writes");
    for name in ["accounts", "events"] {
        db.create_table(TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("k", DataType::Text),
                ColumnDef::new("amount", DataType::Integer),
            ],
        ))
        .unwrap();
    }
    for i in 0..40i64 {
        let word = ["alpha", "beta", "gamma", "delta", "epsilon"][(i % 5) as usize];
        db.insert("accounts", vec![Value::Integer(i), Value::text(word), Value::Integer(i * 7)])
            .unwrap();
        db.insert("events", vec![Value::Integer(i), Value::text(word), Value::Integer(i % 11)])
            .unwrap();
    }
    Arc::new(db)
}

const READS: &[&str] = &[
    "SELECT id, k, amount FROM accounts",
    "SELECT k, COUNT(*), SUM(amount) FROM accounts GROUP BY k ORDER BY 1",
    "SELECT a.id, e.amount FROM accounts AS a INNER JOIN events AS e ON a.k = e.k \
     WHERE a.amount > 50",
    "SELECT id FROM events WHERE EXISTS \
     (SELECT 1 FROM accounts WHERE accounts.id = events.id AND accounts.amount > 100)",
    "SELECT COUNT(*) FROM events",
];

/// A seeded mixed batch: reads drawn from the battery interleaved with
/// writes that mint deterministic unique ids. Built once and replayed
/// verbatim at every worker count — determinism must come from the server,
/// not from the generator.
fn mixed_batch(seed: u64, len: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 1000i64;
    let mut batch = Vec::with_capacity(len);
    for i in 0..len {
        let roll: u32 = rng.gen_range(0..10);
        let stmt = match roll {
            // ~40% writes keeps several read-run/write-barrier alternations
            // in even a short batch.
            0 | 1 => {
                let id = next_id;
                next_id += 1;
                let table = if id % 2 == 0 { "accounts" } else { "events" };
                format!("INSERT INTO {table} VALUES ({id}, 'minted', {})", id % 13)
            }
            2 => format!("UPDATE accounts SET amount = amount + {} WHERE id <= {}", i, i % 37),
            3 => format!("DELETE FROM events WHERE id = {}", rng.gen_range(0..60)),
            _ => READS[rng.gen_range(0..READS.len())].to_string(),
        };
        batch.push(stmt);
    }
    let mut tail: Vec<String> = READS.iter().map(|s| s.to_string()).collect();
    tail.shuffle(&mut rng);
    batch.extend(tail); // end on reads so the final snapshot is observed
    batch
}

/// One statement outcome reduced to its observable content.
type Observed = Result<(Vec<String>, Vec<Vec<String>>), String>;

fn rendered(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(Value::render).collect()).collect()
}

fn observe(server: &Server, batch: &[String]) -> (Vec<Observed>, Vec<Vec<Vec<String>>>, u64) {
    let outcomes = server.execute_batch(batch);
    assert_eq!(outcomes.len(), batch.len());
    let observed: Vec<Observed> = outcomes
        .iter()
        .map(|o| match o {
            Ok(out) => Ok((out.result.columns.clone(), rendered(&out.result.rows))),
            Err(e) => Err(format!("{e:?}")),
        })
        .collect();
    let snapshot = server.database();
    let tables: Vec<Vec<Vec<String>>> = snapshot
        .table_names()
        .into_iter()
        .map(|n| rendered(snapshot.table(&n).unwrap().rows()))
        .collect();
    (observed, tables, server.snapshot_version())
}

/// The headline gate: identical per-statement results (submission order)
/// and an identical final snapshot at 1, 2, and 8 workers, across several
/// seeds. Each read run fans out to at most `available_parallelism`
/// threads; the serve crate's unit tests drive the fan-out at 8 threads.
#[test]
fn mixed_batches_are_deterministic_across_worker_counts() {
    for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
        let batch = mixed_batch(seed, 64);
        assert!(batch.iter().any(|s| seed_repro::sqlengine::is_write_statement(s)));
        let base = base_snapshot();
        let reference = {
            let server = Server::new(Arc::clone(&base), ServeConfig::serial());
            observe(&server, &batch)
        };
        for workers in [1usize, 2, 8] {
            let server =
                Server::new(Arc::clone(&base), ServeConfig::default().with_workers(workers));
            let run = observe(&server, &batch);
            for (i, (got, want)) in run.0.iter().zip(&reference.0).enumerate() {
                assert_eq!(
                    got, want,
                    "statement {i} diverged at {workers} workers (seed {seed:#x}): {}",
                    batch[i]
                );
            }
            assert_eq!(run.1, reference.1, "final snapshot diverged at {workers} workers");
            assert_eq!(run.2, reference.2, "snapshot version diverged at {workers} workers");
            // Writes must never be served from the result cache.
            let distinct_reads: HashSet<&String> =
                batch.iter().filter(|s| !seed_repro::sqlengine::is_write_statement(s)).collect();
            let reads = batch.len()
                - batch.iter().filter(|s| seed_repro::sqlengine::is_write_statement(s)).count();
            assert!(
                server.metrics_snapshot().result_cache_hits
                    <= (reads - distinct_reads.len().min(reads)) as u64,
                "cache hits cannot exceed repeated reads"
            );
        }
    }
}

/// Session pinning: commits through the server never move an open
/// session's snapshot; the session's own write re-pins it.
#[test]
fn sessions_pin_snapshots_and_read_their_own_writes() {
    let server = Server::new(base_snapshot(), ServeConfig::serial());
    let mut session = server.session();
    let pinned_version = session.snapshot_version();
    let before: Vec<Observed> = READS
        .iter()
        .map(|sql| {
            let out = session.execute(sql).unwrap();
            Ok((out.result.columns, rendered(&out.result.rows)))
        })
        .collect();

    // A concurrent writer commits through the server.
    for sql in [
        "INSERT INTO accounts VALUES (900, 'late', 1)",
        "DELETE FROM events WHERE id <= 5",
        "UPDATE accounts SET amount = 0 WHERE k = 'alpha'",
    ] {
        server.execute(sql).unwrap();
    }
    assert!(server.snapshot_version() > pinned_version);

    // The open session is frozen at its pin: same version, same results.
    assert_eq!(session.snapshot_version(), pinned_version);
    for (sql, want) in READS.iter().zip(&before) {
        let out = session.execute(sql).unwrap();
        let got: Observed = Ok((out.result.columns, rendered(&out.result.rows)));
        assert_eq!(&got, want, "pinned session result moved on {sql}");
    }

    // The session's own write re-pins to the latest snapshot: it reads its
    // own write *and* every commit published before it.
    session.execute("INSERT INTO accounts VALUES (901, 'mine', 2)").unwrap();
    assert!(session.snapshot_version() > pinned_version);
    let out = session.execute("SELECT id, k FROM accounts WHERE id >= 900 ORDER BY id").unwrap();
    assert_eq!(
        rendered(&out.result.rows),
        vec![
            vec!["900".to_string(), "late".to_string()],
            vec!["901".to_string(), "mine".to_string()]
        ]
    );

    // A freshly opened session pins the latest snapshot.
    let mut fresh = server.session();
    assert_eq!(fresh.snapshot_version(), server.snapshot_version());
    let out = fresh.execute("SELECT COUNT(*) FROM accounts WHERE k = 'alpha'").unwrap();
    // All alpha rows were zeroed by the earlier UPDATE; count is unchanged.
    assert_eq!(out.result.rows[0][0], Value::Integer(8));
}

/// Session batches: reads before the first write see the session's pin,
/// and the segmented batch is deterministic at every worker count.
#[test]
fn session_batches_segment_reads_around_writes() {
    let batch: Vec<String> = vec![
        "SELECT COUNT(*) FROM accounts".into(),
        "INSERT INTO accounts VALUES (700, 'batch', 7)".into(),
        "SELECT COUNT(*) FROM accounts".into(),
        "DELETE FROM accounts WHERE id = 700".into(),
        "SELECT COUNT(*) FROM accounts".into(),
    ];
    let mut reference: Option<Vec<Vec<Vec<String>>>> = None;
    for workers in [1usize, 2, 8] {
        let server = Server::new(base_snapshot(), ServeConfig::default().with_workers(workers));
        let mut session = server.session();
        let outcomes = session.execute_batch(&batch);
        let got: Vec<Vec<Vec<String>>> =
            outcomes.iter().map(|o| rendered(&o.as_ref().unwrap().result.rows)).collect();
        // 40 seed rows, +1 after the insert, back to 40 after the delete.
        assert_eq!(got[0], vec![vec!["40".to_string()]]);
        assert_eq!(got[2], vec![vec!["41".to_string()]]);
        assert_eq!(got[4], vec![vec!["40".to_string()]]);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "session batch diverged at {workers} workers"),
        }
        // The session ends pinned at the batch's final snapshot.
        assert_eq!(session.snapshot_version(), server.snapshot_version());
    }
}
