//! The rebuild-everything reference commit path that `snapshot_props.rs`
//! compares the production incremental path against. It lives with the
//! test that uses it, outside the engine's public API: planning is shared
//! with production (`plan_mutation`), application is independent.

use seed_sqlengine::mutate::plan_mutation;
use seed_sqlengine::{
    parse_statement, CommitOutcome, Database, MutationKind, PlannedMutation, ResultSet, Row,
    SqlError, SqlResult, Value,
};

/// Parses and commits one mutation statement through the rebuild-everything
/// reference path. Planning is shared with `commit_statement`, so any
/// observable difference between the two outcomes is a defect in the
/// incremental maintenance machinery.
pub fn commit_statement_rebuild(db: &Database, sql: &str) -> SqlResult<CommitOutcome> {
    let stmt = parse_statement(sql)?;
    apply_planned_rebuild(db, plan_mutation(db, &stmt)?)
}

/// Applies a planned mutation by **rebuilding everything**: materialize the
/// post-mutation row stores, then construct a fresh database from the
/// schema and re-insert every row of every table, so each PK index,
/// columnar chunk, and text index is built from scratch with no incremental
/// step anywhere. Deliberately naive — this is the reference implementation
/// the differential oracle compares `seed_sqlengine::mutate::apply_planned` against.
fn apply_planned_rebuild(db: &Database, planned: PlannedMutation) -> SqlResult<CommitOutcome> {
    // Resolve the post-mutation rows per table, in plain vectors.
    let mut schema = db.schema().clone();
    let mut contents: Vec<(String, Vec<Row>)> = db
        .schema()
        .tables
        .iter()
        .map(|t| (t.name.clone(), db.table(&t.name).map(|t| t.rows().to_vec())))
        .map(|(n, r)| r.map(|rows| (n, rows)))
        .collect::<SqlResult<Vec<_>>>()?;
    let (table, kind, rows_affected) = match planned {
        PlannedMutation::Insert { table, rows } => {
            let n = rows.len();
            let slot = find_table(&mut contents, &table)?;
            slot.extend(rows);
            (table, MutationKind::Insert, n)
        }
        PlannedMutation::Update { table, changes } => {
            let n = changes.len();
            let slot = find_table(&mut contents, &table)?;
            for (pos, row) in changes {
                slot[pos] = row;
            }
            (table, MutationKind::Update, n)
        }
        PlannedMutation::Delete { table, positions } => {
            let n = positions.len();
            let slot = find_table(&mut contents, &table)?;
            let mut i = 0usize;
            let mut doomed = positions.iter().copied().peekable();
            slot.retain(|_| {
                let hit = doomed.peek() == Some(&i);
                if hit {
                    doomed.next();
                }
                i += 1;
                !hit
            });
            (table, MutationKind::Delete, n)
        }
        PlannedMutation::CreateTable { schema: ts, foreign_keys } => {
            let name = ts.name.to_ascii_lowercase();
            schema.add_table(ts.clone())?;
            for fk in foreign_keys {
                schema.add_foreign_key(fk);
            }
            contents.push((ts.name, Vec::new()));
            (name, MutationKind::CreateTable, 0)
        }
    };
    let mut next = Database::from_schema(schema);
    for (name, rows) in contents {
        next.insert_many(&name, rows)?;
    }
    // Match the production path's version arithmetic so the two snapshots
    // are version-observably identical too.
    for _ in 0..db.version() + 1 {
        next.bump_version();
    }
    let result = mutation_result(kind, rows_affected);
    Ok(CommitOutcome { db: next, table, kind, rows_affected, result })
}

fn find_table<'a>(
    contents: &'a mut [(String, Vec<Row>)],
    table: &str,
) -> SqlResult<&'a mut Vec<Row>> {
    contents
        .iter_mut()
        .find(|(n, _)| n.eq_ignore_ascii_case(table))
        .map(|(_, rows)| rows)
        .ok_or_else(|| SqlError::UnknownTable(table.to_string()))
}

/// The client-visible result of a mutation, built independently of the
/// engine's own rendering so the oracle compares it too.
fn mutation_result(kind: MutationKind, rows_affected: usize) -> ResultSet {
    let header = match kind {
        MutationKind::Insert => "rows_inserted",
        MutationKind::Update => "rows_updated",
        MutationKind::Delete => "rows_deleted",
        MutationKind::CreateTable => return ResultSet::new(vec![]),
    };
    let mut rs = ResultSet::new(vec![header.into()]);
    rs.rows.push(vec![Value::Integer(rows_affected as i64)]);
    rs
}
