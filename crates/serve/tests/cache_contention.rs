//! Contention suite for the result cache: 8 OS threads hammer one server
//! at `result_cache_cap` boundaries and the exact cap must hold after every
//! call — including cap 0 (caching off) and caps far below the distinct
//! statement count.
//!
//! These tests drive `Server::execute` from raw threads (not a batch's
//! fan-out) so the cache sees genuinely unsynchronized admission traffic
//! on top of the batches the determinism suite covers.

use std::sync::Arc;

use seed_serve::{ServeConfig, Server};
use seed_sqlengine::{execute, execute_statement, Database};

fn snapshot() -> Arc<Database> {
    let mut db = Database::new("contention_test");
    execute_statement(&mut db, "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v REAL)")
        .unwrap();
    for i in 0..50i64 {
        execute_statement(&mut db, &format!("INSERT INTO t VALUES ({i}, {}, {}.0)", i % 7, i * 3))
            .unwrap();
    }
    Arc::new(db)
}

/// A pool of distinct valid statements, all with distinct results.
fn distinct_statements(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("SELECT COUNT(*) FROM t WHERE v > {k}")).collect()
}

/// Hammers `server.execute` with `stmts` from 8 threads, each thread
/// walking the statement list at a different stride so admissions,
/// hits, and evictions interleave, asserting the cap and row correctness
/// after every call.
fn hammer(server: &Server, stmts: &[String], rounds: usize) {
    let cap = server.config().result_cache_cap;
    std::thread::scope(|scope| {
        for t in 0..8usize {
            scope.spawn(move || {
                for r in 0..rounds {
                    for i in 0..stmts.len() {
                        // Different threads visit in different orders.
                        let sql = &stmts[(i * (t + 1) + r) % stmts.len()];
                        let outcome = server.execute(sql).unwrap();
                        let direct = execute(&server.database(), sql).unwrap();
                        assert_eq!(outcome.result.rows, direct.rows, "{sql}");
                        let len = server.result_cache_len();
                        assert!(len <= cap, "cache holds {len} ready entries, cap {cap}");
                    }
                }
            });
        }
    });
}

fn server_with_cap(cap: usize) -> Server {
    Server::new(
        snapshot(),
        ServeConfig { result_cache_cap: cap, ..ServeConfig::default().with_workers(8) },
    )
}

/// Hammers a cache of `cap` entries with `distinct` (> cap) statements and
/// checks the saturated cache sits exactly at its cap.
fn assert_exact_bound_at_saturation(cap: usize, distinct: usize) {
    let server = server_with_cap(cap);
    hammer(&server, &distinct_statements(distinct), 6);
    assert!(server.result_cache_evictions() > 0, "cap {cap} must exercise eviction");
    assert_eq!(server.result_cache_len(), cap, "a saturated cache sits exactly at cap {cap}");
}

// The cache is one exact LRU, not a set of stripes; the next two tests keep
// the names they had when it was striped and now assert the global bound.

#[test]
fn per_stripe_bound_holds_under_eight_thread_hammering_at_the_cap() {
    // More distinct statements than the cache can hold: every thread keeps
    // forcing admissions and evictions.
    assert_exact_bound_at_saturation(16, 64);
}

#[test]
fn cap_smaller_than_the_stripe_count_degenerates_to_one_entry_stripes() {
    // A cap far below the thread count: admissions and evictions race on
    // almost every call, and the bound is still exact, not rounded up.
    assert_exact_bound_at_saturation(3, 32);
}

#[test]
fn cap_zero_caches_nothing_under_concurrency() {
    let server = server_with_cap(0);
    hammer(&server, &distinct_statements(16), 4);
    assert_eq!(server.result_cache_len(), 0, "cap 0 must never admit an entry");
    assert_eq!(server.result_cache_evictions(), 0);
    assert_eq!(server.metrics_snapshot().result_cache_hits, 0);
}

#[test]
fn repeated_hammering_with_a_roomy_cap_stays_at_the_distinct_set() {
    // Cap well above the distinct set: after the dust settles every
    // distinct statement is cached exactly once and nothing was evicted.
    let server = Server::new(snapshot(), ServeConfig::default().with_workers(8));
    let stmts = distinct_statements(24);
    hammer(&server, &stmts, 4);
    assert_eq!(server.result_cache_len(), stmts.len());
    assert_eq!(server.result_cache_evictions(), 0);
    let stats = server.metrics_snapshot();
    // 8 threads x 4 rounds x 24 statements, 24 canonical executions; with
    // in-flight dedup every other submission is a hit.
    assert_eq!(stats.statements, 8 * 4 * 24);
    assert_eq!(stats.result_cache_hits, 8 * 4 * 24 - 24, "hits are exact under dedup");
}
