//! Failure injection: transactions that die mid-flight over the real
//! cubicle stack must be rolled back by journal recovery on reopen.

use cubicle_core::{impl_component, ComponentImage, CubicleId, IsolationMode, System};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::{boot_fs, FsStack};
use cubicle_sqldb::storage::CubicleEnv;
use cubicle_sqldb::{Database, SqlValue};
use cubicle_ukbase::boot_base;

struct App;
impl_component!(App);

struct Stack {
    sys: System,
    app: CubicleId,
    fs: FsStack,
}

fn boot() -> Stack {
    let mut sys = System::new(IsolationMode::Full);
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, None).unwrap();
    let app = sys
        .load(
            ComponentImage::new("SQLITE", CodeImage::plain(4096)).heap_pages(128),
            Box::new(App),
        )
        .unwrap();
    Stack {
        sys,
        app: app.cid,
        fs,
    }
}

fn open_db(stack: &mut Stack, cache: usize) -> Database {
    let fs = stack.fs;
    stack.sys.run_in_cubicle(stack.app, move |sys| {
        let port = fs.port(sys).unwrap();
        Database::open_with_cache(sys, Box::new(CubicleEnv::new(port)), "/crash.db", cache).unwrap()
    })
}

#[test]
fn crash_mid_transaction_recovers_to_committed_state() {
    let mut stack = boot();
    let mut db = open_db(&mut stack, 64);
    let app = stack.app;
    stack.sys.run_in_cubicle(app, |sys| {
        db.execute(sys, "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute(sys, "INSERT INTO t VALUES (1, 'committed')")
            .unwrap();
        // open a transaction, mutate heavily, then "crash" by dropping
        // the connection without COMMIT/ROLLBACK
        db.execute(sys, "BEGIN").unwrap();
        for i in 2..200 {
            db.execute(sys, &format!("INSERT INTO t VALUES ({i}, 'doomed')"))
                .unwrap();
        }
        db.execute(sys, "UPDATE t SET v = 'mangled' WHERE id = 1")
            .unwrap();
    });
    drop(db); // crash: journal file is left behind in RAMFS

    // a fresh connection must replay the journal
    let mut db2 = open_db(&mut stack, 64);
    stack.sys.run_in_cubicle(app, |sys| {
        let rows = db2.query(sys, "SELECT id, v FROM t").unwrap();
        assert_eq!(
            rows,
            vec![vec![
                SqlValue::Integer(1),
                SqlValue::Text("committed".into())
            ]]
        );
        let check = db2.query(sys, "PRAGMA integrity_check").unwrap();
        assert_eq!(check[0][0], SqlValue::Text("ok".into()));
        // and the database is fully usable afterwards
        db2.execute(sys, "INSERT INTO t VALUES (2, 'after recovery')")
            .unwrap();
        let n = db2.query(sys, "SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0], SqlValue::Integer(2));
    });
}

#[test]
fn crash_with_tiny_cache_and_dirty_evictions_recovers() {
    // With a tiny page cache, the doomed transaction's pages hit the
    // database file through evictions *before* the crash — exactly the
    // case the journal's old-page images exist for.
    let mut stack = boot();
    let mut db = open_db(&mut stack, 8);
    let app = stack.app;
    stack.sys.run_in_cubicle(app, |sys| {
        db.execute(sys, "CREATE TABLE t(id INTEGER PRIMARY KEY, blob TEXT)")
            .unwrap();
        db.execute(sys, "BEGIN").unwrap();
        for i in 0..50 {
            db.execute(
                sys,
                &format!("INSERT INTO t VALUES ({i}, '{}')", "x".repeat(400)),
            )
            .unwrap();
        }
        db.execute(sys, "COMMIT").unwrap();
        db.execute(sys, "BEGIN").unwrap();
        for i in 0..50 {
            db.execute(
                sys,
                &format!("UPDATE t SET blob = 'overwritten' WHERE id = {i}"),
            )
            .unwrap();
        }
        let evictions = db.pager_stats().evictions;
        assert!(
            evictions > 0,
            "the test must actually evict dirty pages mid-txn"
        );
    });
    drop(db); // crash

    let mut db2 = open_db(&mut stack, 8);
    stack.sys.run_in_cubicle(app, |sys| {
        let rows = db2
            .query(sys, "SELECT count(*) FROM t WHERE blob = 'overwritten'")
            .unwrap();
        assert_eq!(
            rows[0][0],
            SqlValue::Integer(0),
            "doomed updates rolled back"
        );
        let rows = db2.query(sys, "SELECT count(*) FROM t").unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(50), "committed rows survive");
        let check = db2.query(sys, "PRAGMA integrity_check").unwrap();
        assert_eq!(check[0][0], SqlValue::Text("ok".into()));
    });
}

#[test]
fn repeated_crashes_are_idempotent() {
    let mut stack = boot();
    let app = stack.app;
    for round in 0..3 {
        let mut db = open_db(&mut stack, 32);
        stack.sys.run_in_cubicle(app, |sys| {
            db.execute(sys, "CREATE TABLE IF NOT EXISTS t(v INTEGER)")
                .unwrap();
            db.execute(sys, &format!("INSERT INTO t VALUES ({round})"))
                .unwrap();
            db.execute(sys, "BEGIN").unwrap();
            db.execute(sys, "INSERT INTO t VALUES (999)").unwrap();
            // crash inside the txn every round
        });
        drop(db);
    }
    let mut db = open_db(&mut stack, 32);
    stack.sys.run_in_cubicle(app, |sys| {
        let rows = db.query(sys, "SELECT v FROM t ORDER BY v").unwrap();
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(
            vals,
            vec![0, 1, 2],
            "exactly the autocommitted rows survive"
        );
    });
}
