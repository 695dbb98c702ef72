//! SQLite sessions: boot the Figure 9 deployment, load one indexed table,
//! then run single statements against it, each checked against a
//! host-side model of the table.

use crate::measure::{self, err, Counters, Leg, Sample, TraceOut, TraceTo};
use crate::workload::{deck, stream, OpKind, SqliteSpec};
use cubicle_bench::scenario::{build_sqlite, Partitioning, UNIKRAFT_BOUNDARY_TAX};
use cubicle_core::{IsolationMode, System};
use cubicle_mpk::rng::Rng64;
use cubicle_sqldb::storage::CubicleEnv;
use cubicle_sqldb::{Database, QueryResult, SqlValue};
use cubicle_vfs::VfsPort;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Rows per transaction while loading the table.
const LOAD_BATCH: usize = 500;

/// The partitioning each leg runs: the paper's 4-component split under
/// full isolation, the monolithic image for the Unikraft baseline (as
/// in Figure 6).
fn partitioning(mode: IsolationMode) -> Partitioning {
    match mode {
        IsolationMode::Unikraft => Partitioning::Merged,
        _ => Partitioning::Split,
    }
}

/// Host-side model of `t(id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`
/// with its index on `k`.
#[derive(Clone, Debug, Default)]
pub struct Table {
    rows: BTreeMap<i64, (i64, String)>,
    by_k: BTreeSet<(i64, i64)>,
}

/// Random lowercase text of `len` bytes.
fn text(rng: &mut Rng64, len: usize) -> String {
    (0..len)
        .map(|_| char::from(b'a' + rng.range_u64(0, 26) as u8))
        .collect()
}

/// The length of row `id`'s text: 24 to 71 bytes, a fixed multiset
/// whatever the seed, so the table's size and page count are too.
fn text_len(id: i64) -> usize {
    24 + id.rem_euclid(48) as usize
}

impl Table {
    /// The table every session of a run starts from. Every `k` value is
    /// shared by the same number of rows, so a lookup or a range query
    /// does the same work whichever keys the seed picks.
    pub fn generate(seed: u64, spec: &SqliteSpec) -> Table {
        let mut rng = stream(seed, 3);
        let mut keys: Vec<i64> = (0..spec.rows).map(|i| i % spec.key_space).collect();
        rng.shuffle(&mut keys);
        let mut t = Table::default();
        for (id, k) in (1..).zip(keys) {
            let v = text(&mut rng, text_len(id));
            t.insert(id, k, v);
        }
        t
    }

    fn insert(&mut self, id: i64, k: i64, v: String) {
        self.rows.insert(id, (k, v));
        self.by_k.insert((k, id));
    }

    fn next_id(&self) -> i64 {
        self.rows.last_key_value().map_or(1, |(id, _)| id + 1)
    }

    fn keyed(&self, lo: i64, hi: i64) -> impl Iterator<Item = i64> + '_ {
        self.by_k
            .range((lo, i64::MIN)..=(hi, i64::MAX))
            .map(|&(_, id)| id)
    }
}

/// One statement with the result the model predicts.
#[derive(Debug)]
struct Op {
    kind: OpKind,
    sql: String,
    rows: Vec<Vec<SqlValue>>,
    affected: u64,
    write: Option<(i64, i64, String)>,
}

impl Op {
    fn read(kind: OpKind, sql: String, rows: Vec<Vec<SqlValue>>) -> Op {
        Op {
            kind,
            sql,
            rows,
            affected: 0,
            write: None,
        }
    }

    fn generate(kind: OpKind, rng: &mut Rng64, t: &Table, spec: &SqliteSpec) -> Op {
        let any_id = |rng: &mut Rng64| rng.range_i64(1, t.next_id());
        match kind {
            OpKind::Point => {
                let id = any_id(rng);
                let (k, v) = &t.rows[&id];
                Op::read(
                    kind,
                    format!("SELECT k, v FROM t WHERE id = {id}"),
                    vec![vec![SqlValue::Integer(*k), SqlValue::Text(v.clone())]],
                )
            }
            OpKind::Lookup => {
                let k = rng.range_i64(0, spec.key_space);
                let rows = t
                    .keyed(k, k)
                    .map(|id| vec![SqlValue::Integer(id), SqlValue::Text(t.rows[&id].1.clone())])
                    .collect();
                Op::read(kind, format!("SELECT id, v FROM t WHERE k = {k}"), rows)
            }
            OpKind::Range => {
                let lo = rng.range_i64(0, spec.key_space - spec.range_width + 1);
                let hi = lo + spec.range_width - 1;
                let n = t.keyed(lo, hi).count() as i64;
                Op::read(
                    kind,
                    format!("SELECT count(*) FROM t WHERE k BETWEEN {lo} AND {hi}"),
                    vec![vec![SqlValue::Integer(n)]],
                )
            }
            OpKind::Update => {
                // same-length rewrite: the row keeps its size
                let id = any_id(rng);
                let v = text(rng, t.rows[&id].1.len());
                Op {
                    kind,
                    sql: format!("UPDATE t SET v = '{v}' WHERE id = {id}"),
                    rows: Vec::new(),
                    affected: 1,
                    write: Some((id, t.rows[&id].0, v)),
                }
            }
            OpKind::Insert => {
                let id = t.next_id();
                let k = rng.range_i64(0, spec.key_space);
                let v = text(rng, text_len(id));
                Op {
                    kind,
                    sql: format!("INSERT INTO t VALUES ({id}, {k}, '{v}')"),
                    rows: Vec::new(),
                    affected: 1,
                    write: Some((id, k, v)),
                }
            }
            OpKind::Checkpoint => Op::read(
                kind,
                "PRAGMA wal_checkpoint".into(),
                vec![vec![SqlValue::Text("ok".into())]],
            ),
        }
    }

    /// Did the engine return what the model predicts?
    fn check(&self, result: cubicle_sqldb::Result<QueryResult>) -> bool {
        let Ok(mut r) = result else {
            return false;
        };
        if self.kind == OpKind::Lookup {
            // the index returns rowid order within one key, but only
            // the set of rows is the query's defined result
            r.rows
                .sort_by_key(|row| row.first().and_then(SqlValue::as_i64));
        }
        r.rows == self.rows && r.rows_affected == self.affected
    }
}

/// Runs one statement, timed on both clocks, and records it.
fn run_op(sys: &mut System, db: &mut Database, op: &Op, leg: &mut Leg) {
    let (h, c) = (Instant::now(), sys.now());
    let result = db.execute(sys, &op.sql);
    let host_ns = h.elapsed().as_nanos() as u64;
    let cycles = sys.now() - c;
    leg.server_ns += host_ns;
    leg.server_cycles += cycles;
    leg.server_calls += 1;
    let h = Instant::now();
    if !op.check(result) {
        leg.failed += 1;
    }
    leg.client_ns += h.elapsed().as_nanos() as u64;
    leg.samples.push(Sample {
        kind: op.kind as u8,
        cycles,
        host_ns,
    });
}

/// Creates the table, loads `table` in batched transactions, folds the
/// WAL back into the database file and, for a cached workload, reads
/// every row and the whole index once.
fn load(
    sys: &mut System,
    db: &mut Database,
    table: &Table,
    spec: &SqliteSpec,
) -> Result<(), String> {
    db.execute(
        sys,
        "CREATE TABLE t(id INTEGER PRIMARY KEY, k INTEGER, v TEXT)",
    )
    .map_err(err)?;
    db.execute(sys, "CREATE INDEX t_k ON t(k)").map_err(err)?;
    let rows: Vec<_> = table.rows.iter().collect();
    for batch in rows.chunks(LOAD_BATCH) {
        db.execute(sys, "BEGIN").map_err(err)?;
        for (id, (k, v)) in batch {
            db.execute(sys, &format!("INSERT INTO t VALUES ({id}, {k}, '{v}')"))
                .map_err(err)?;
        }
        db.execute(sys, "COMMIT").map_err(err)?;
    }
    db.checkpoint(sys).map_err(err)?;
    if spec.warm {
        for id in table.rows.keys() {
            db.execute(sys, &format!("SELECT v FROM t WHERE id = {id}"))
                .map_err(err)?;
        }
        let all = format!(
            "SELECT count(*) FROM t WHERE k BETWEEN 0 AND {}",
            spec.key_space
        );
        let n = db.query(sys, &all).map_err(err)?;
        if n != vec![vec![SqlValue::Integer(table.rows.len() as i64)]] {
            return Err(format!("loaded table reads back {n:?} rows"));
        }
    }
    Ok(())
}

/// `PRAGMA integrity_check` must say `ok`, and the table must hold the
/// model's row count.
fn final_check(sys: &mut System, db: &mut Database, table: &Table) -> Result<(), String> {
    let ok = vec![vec![SqlValue::Text("ok".into())]];
    let integrity = db.query(sys, "PRAGMA integrity_check").map_err(err)?;
    if integrity != ok {
        return Err(format!("PRAGMA integrity_check: {integrity:?}"));
    }
    let n = db.query(sys, "SELECT count(*) FROM t").map_err(err)?;
    if n != vec![vec![SqlValue::Integer(table.rows.len() as i64)]] {
        return Err(format!(
            "table holds {n:?} rows, model {}",
            table.rows.len()
        ));
    }
    Ok(())
}

/// The inputs every session of an SQLite run shares.
pub struct Plan<'a> {
    pub spec: &'a SqliteSpec,
    pub seed: u64,
    /// The table each session loads.
    pub initial: Table,
}

/// Session `index` of a run: one boot running `ops` statements drawn
/// from the mix (plus the periodic checkpoints), appended to `leg`; with
/// `trace`, run traced.
pub fn session(
    mode: IsolationMode,
    plan: &Plan,
    index: usize,
    ops: usize,
    leg: &mut Leg,
    trace: Option<TraceTo>,
) -> Result<Option<TraceOut>, String> {
    let (spec, initial) = (plan.spec, &plan.initial);
    let label = format!("{mode:?} SQLite session {index}");
    let setup = Instant::now();
    let mut dep = build_sqlite(mode, partitioning(mode), UNIKRAFT_BOUNDARY_TAX).map_err(err)?;
    let (app, vfs, ramfs) = (dep.app, dep.vfs, dep.ramfs_cid);
    let (port, mut db) = dep.sys.run_in_cubicle(app, |sys| {
        let port = VfsPort::new(sys, vfs, &[ramfs]).map_err(err)?;
        let env = Box::new(CubicleEnv::new(port.clone()));
        let mut db =
            Database::open_with_cache(sys, env, "/cubench.db", spec.cache_pages).map_err(err)?;
        load(sys, &mut db, initial, spec)?;
        Ok::<_, String>((port, db))
    })?;
    leg.setup_ns.push(setup.elapsed().as_nanos() as u64);
    let fd_before = measure::probe_fd(&mut dep.sys, app, &port)?;
    let ledger = trace.map(|_| measure::trace_begin(&mut dep.sys));

    let weights: Vec<usize> = spec.mix.iter().map(|&(_, pct)| pct).collect();
    let mut rng = stream(plan.seed, 100 + index as u64);
    let classes = deck(&mut rng, ops, &weights);
    let mut table = initial.clone();
    let from = leg.samples.len();
    let elapsed = dep.sys.run_in_cubicle(app, |sys| {
        let before = Counters::read(sys, Some(db.pager_stats()));
        let start = sys.now();
        let mut commits = 0;
        for class in classes {
            let kind = spec.mix[usize::from(class)].0;
            let h = Instant::now();
            let op = Op::generate(kind, &mut rng, &table, spec);
            leg.client_ns += h.elapsed().as_nanos() as u64;
            run_op(sys, &mut db, &op, leg);
            if let Some((id, k, v)) = op.write {
                table.insert(id, k, v);
            }
            if kind.commits() {
                commits += 1;
                if commits % spec.checkpoint_every == 0 {
                    let cp = Op::generate(OpKind::Checkpoint, &mut rng, &table, spec);
                    run_op(sys, &mut db, &cp, leg);
                }
            }
        }
        let after = Counters::read(sys, Some(db.pager_stats()));
        leg.counters.add(&after.since(&before));
        sys.now() - start
    });
    leg.check_bracketed(from, elapsed)?;

    let traced = match (trace, ledger) {
        (Some(to), Some(ledger)) => {
            Some(measure::trace_end(&mut dep.sys, &ledger, app, elapsed, to)?)
        }
        _ => None,
    };
    dep.sys
        .run_in_cubicle(app, |sys| final_check(sys, &mut db, &table))
        .map_err(|e| format!("{label}: {e}"))?;
    let fd_after = measure::probe_fd(&mut dep.sys, app, &port)?;
    leg.fds_leaked += fd_after - fd_before;
    cubicle_bench::report::audit_gate(&dep.sys, &label);
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, Kind};

    fn spec(name: &str) -> &'static SqliteSpec {
        match &find(name).unwrap().kind {
            Kind::Sqlite(spec) => spec,
            Kind::Web { .. } => unreachable!(),
        }
    }

    #[test]
    fn model_predicts_reads_and_writes() {
        let spec = spec("sqlite-cached");
        let mut t = Table::generate(9, spec);
        assert_eq!(t.rows.len() as i64, spec.rows);
        assert_eq!(t.next_id(), spec.rows + 1);
        let mut rng = Rng64::new(1);
        let ins = Op::generate(OpKind::Insert, &mut rng, &t, spec);
        let (id, k, v) = ins.write.clone().unwrap();
        assert_eq!(id, spec.rows + 1);
        t.insert(id, k, v.clone());
        let lookup = t.keyed(k, k).collect::<Vec<_>>();
        assert!(lookup.contains(&id));
        let n = t.keyed(0, spec.key_space).count() as i64;
        assert_eq!(n, spec.rows + 1);
    }
}
