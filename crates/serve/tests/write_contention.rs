//! Write-contention suite: raw OS threads holding pinned sessions hammer
//! reads while a writer publishes commits through the snapshot store. The
//! contract is the one `crates/serve/src/lib.rs` documents under
//! "Snapshot / write model":
//!
//! * a pinned session's reads are **byte-identical for its whole lifetime**,
//!   no matter how many commits publish concurrently — readers never block
//!   on the commit gate and never observe a half-applied write;
//! * the version-keyed result cache invalidates exactly by dependency:
//!   entries for untouched tables keep hitting across snapshots, entries
//!   for the touched table miss and re-execute;
//! * prepared statements cached in the shared plan cache survive commits by
//!   re-snapshotting — fresh chunks, fresh rows, no stale-generation panic;
//! * write metrics (commits, per-kind row counters, the snapshot-version
//!   gauge) account every commit exactly once under contention.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use seed_serve::{ServeConfig, Server};
use seed_sqlengine::{execute_statement, Database, Value};

fn snapshot() -> Arc<Database> {
    let mut db = Database::new("write_contention");
    for t in ["hot", "cold"] {
        execute_statement(
            &mut db,
            &format!("CREATE TABLE {t} (id INTEGER PRIMARY KEY, grp INTEGER, v TEXT)"),
        )
        .unwrap();
        for i in 0..60i64 {
            execute_statement(
                &mut db,
                &format!("INSERT INTO {t} VALUES ({i}, {}, 'word {}')", i % 7, i % 5),
            )
            .unwrap();
        }
    }
    Arc::new(db)
}

fn rendered(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(Value::render).collect()).collect()
}

const PINNED_READS: &[&str] = &[
    "SELECT id, grp, v FROM hot",
    "SELECT grp, COUNT(*) FROM hot GROUP BY grp ORDER BY 1",
    "SELECT a.id FROM hot AS a INNER JOIN cold AS b ON a.grp = b.grp WHERE a.id = b.id",
];

/// Eight pinned sessions read in a loop while the main thread commits 200
/// writes against `hot`. Every session must see its pinned rows, unchanged,
/// on every iteration; the writer's commits must all land.
#[test]
fn pinned_sessions_read_stable_rows_through_two_hundred_commits() {
    let server = Server::new(snapshot(), ServeConfig::default().with_workers(8));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..8usize {
            let server = &server;
            let done = &done;
            scope.spawn(move || {
                let mut session = server.session();
                let pinned_version = session.snapshot_version();
                let want: Vec<_> = PINNED_READS
                    .iter()
                    .map(|sql| rendered(&session.execute(sql).unwrap().result.rows))
                    .collect();
                while !done.load(Ordering::Acquire) {
                    for (sql, want) in PINNED_READS.iter().zip(&want) {
                        let got = session.execute(sql).unwrap();
                        assert_eq!(&rendered(&got.result.rows), want, "pinned read moved: {sql}");
                    }
                    assert_eq!(session.snapshot_version(), pinned_version);
                }
            });
        }
        let base_version = server.snapshot_version();
        for i in 0..200i64 {
            let sql = match i % 4 {
                0 => format!("INSERT INTO hot VALUES ({}, {}, 'minted')", 1000 + i, i % 7),
                1 => format!("UPDATE hot SET v = 'touched {i}' WHERE grp = {}", i % 7),
                2 => format!("DELETE FROM hot WHERE id = {}", 1000 + i - 2),
                _ => format!("INSERT INTO cold VALUES ({}, {}, 'cold minted')", 1000 + i, i % 7),
            };
            server.execute(&sql).unwrap();
        }
        assert_eq!(server.snapshot_version(), base_version + 200);
        done.store(true, Ordering::Release);
    });
    let m = server.metrics_snapshot();
    assert_eq!(m.commits, 200, "every commit accounted exactly once");
    assert_eq!(m.snapshot_version, server.snapshot_version());
    assert!(m.rows_inserted >= 100, "insert opcodes landed");
    assert!(m.rows_updated > 0 && m.rows_deleted > 0);
    // A session opened *now* sees the final state, not any pin.
    let mut fresh = server.session();
    let n = fresh.execute("SELECT COUNT(*) FROM hot").unwrap();
    let direct = server.database().table("hot").unwrap().len() as i64;
    assert_eq!(n.result.rows[0][0], Value::Integer(direct));
}

/// The cache-invalidation matrix, observed through hit counters: a read on
/// an untouched table keeps hitting across commits to *other* tables; a
/// read on the touched table misses exactly once per touching commit.
#[test]
fn result_cache_invalidates_by_dependency_not_by_snapshot() {
    let server = Server::new(snapshot(), ServeConfig::serial());
    let hot_read = "SELECT grp, COUNT(*) FROM hot GROUP BY grp ORDER BY 1";
    let cold_read = "SELECT grp, COUNT(*) FROM cold GROUP BY grp ORDER BY 1";

    // Prime both entries (two canonical executions, zero hits).
    server.execute(hot_read).unwrap();
    server.execute(cold_read).unwrap();
    assert_eq!(server.metrics_snapshot().result_cache_hits, 0);

    // Repeats hit.
    server.execute(hot_read).unwrap();
    server.execute(cold_read).unwrap();
    assert_eq!(server.metrics_snapshot().result_cache_hits, 2);

    // Commit against `hot`: the cold entry survives the snapshot change,
    // the hot entry misses and re-executes.
    server.execute("INSERT INTO hot VALUES (500, 1, 'new')").unwrap();
    server.execute(cold_read).unwrap();
    assert_eq!(server.metrics_snapshot().result_cache_hits, 3, "untouched-table entry still hits");
    let hot_after = server.execute(hot_read).unwrap();
    assert_eq!(server.metrics_snapshot().result_cache_hits, 3, "touched-table entry must miss");
    assert!(!hot_after.from_result_cache);
    // The re-executed result reflects the commit.
    assert!(hot_after
        .result
        .rows
        .iter()
        .any(|r| r == &vec![Value::Integer(1), Value::Integer(10)]));

    // And the freshly admitted post-commit entry hits again.
    server.execute(hot_read).unwrap();
    assert_eq!(server.metrics_snapshot().result_cache_hits, 4);
}

/// Staleness regression at the serve layer: the shared plan cache keeps one
/// prepared statement across a commit. Re-execution must serve the
/// post-commit rows from fresh chunks (never a stale-generation panic,
/// never the old table), while a session pinned pre-commit still gets the
/// original rows through the same shared plans.
#[test]
fn prepared_statements_cached_across_commits_re_snapshot() {
    let server = Server::new(snapshot(), ServeConfig::serial());
    let sql = "SELECT id, v FROM hot WHERE grp = 2";
    let mut pinned = server.session();
    let before = rendered(&pinned.execute(sql).unwrap().result.rows);

    for i in 0..5i64 {
        server.execute(&format!("INSERT INTO hot VALUES ({}, 2, 'post {i}')", 700 + i)).unwrap();
    }
    server.execute("UPDATE hot SET v = 'rewritten' WHERE id = 700").unwrap();

    // Same SQL through the server (same shared plan cache entry): fresh rows.
    let after = rendered(&server.execute(sql).unwrap().result.rows);
    assert_eq!(after.len(), before.len() + 5, "post-commit execution sees the inserts");
    assert!(after.iter().any(|r| r[1] == "rewritten"));
    // The pinned session replays its snapshot, byte-identical.
    assert_eq!(rendered(&pinned.execute(sql).unwrap().result.rows), before);
}

/// Regression: a *failed* write inside a session batch must not move the
/// session's pin. The session opens at v0, another client commits v1, and
/// the session's batch then runs an insert into a missing table: the
/// insert fails, so the session must keep reading v0.
#[test]
fn failed_write_in_a_session_batch_keeps_the_pin() {
    let server = Server::new(snapshot(), ServeConfig::serial());
    let mut session = server.session();
    let pinned_version = session.snapshot_version();
    let count = "SELECT COUNT(*) FROM hot";
    let before = rendered(&session.execute(count).unwrap().result.rows);
    server.execute("INSERT INTO hot VALUES (900, 1, 'other client')").unwrap();
    assert!(server.snapshot_version() > pinned_version);

    let batch = vec!["INSERT INTO missing VALUES (1, 2, 'x')".to_string(), count.to_string()];
    let outcomes = session.execute_batch(&batch);
    assert!(outcomes[0].is_err(), "the insert into a missing table fails");
    assert_eq!(session.snapshot_version(), pinned_version, "a failed write must not re-pin");
    assert_eq!(rendered(&outcomes[1].as_ref().unwrap().result.rows), before);
    assert_eq!(rendered(&session.execute(count).unwrap().result.rows), before);
}
