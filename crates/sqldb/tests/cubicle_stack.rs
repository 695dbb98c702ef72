//! The paper's Figure 8 deployment: SQLITE → VFSCORE → RAMFS (+ ALLOC,
//! TIME, PLAT, shared LIBC), with the engine's every file operation a
//! windowed cross-cubicle call.

use cubicle_core::{
    impl_component, ComponentImage, CubicleId, IsolationMode, System, SystemConfig,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::{boot_fs, FsStack};
use cubicle_sqldb::storage::CubicleEnv;
use cubicle_sqldb::{Database, SqlValue};
use cubicle_ukbase::boot_base;

struct SqliteApp;
impl_component!(SqliteApp);

struct Deployment {
    sys: System,
    app: CubicleId,
    fs: FsStack,
}

fn boot(config: impl Into<SystemConfig>) -> Deployment {
    let mut sys = System::new(config);
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, None).unwrap();
    let app = sys
        .load(
            ComponentImage::new("SQLITE", CodeImage::plain(64 * 1024)).heap_pages(256),
            Box::new(SqliteApp),
        )
        .unwrap();
    sys.mark_boot_complete();
    Deployment {
        sys,
        app: app.cid,
        fs,
    }
}

fn open_db(dep: &mut Deployment) -> Database {
    let fs = dep.fs;
    dep.sys.run_in_cubicle(dep.app, move |sys| {
        let port = fs.port(sys).unwrap();
        Database::open(sys, Box::new(CubicleEnv::new(port)), "/app.db").unwrap()
    })
}

fn in_app<T>(
    dep: &mut Deployment,
    db: &mut Database,
    f: impl FnOnce(&mut System, &mut Database) -> T,
) -> T {
    let app = dep.app;
    dep.sys.run_in_cubicle(app, |sys| f(sys, db))
}

#[test]
fn sql_over_the_cubicle_stack() {
    let mut dep = boot(IsolationMode::Full);
    let mut db = open_db(&mut dep);
    in_app(&mut dep, &mut db, |sys, db| {
        db.execute(sys, "CREATE TABLE kv(k TEXT UNIQUE, v INTEGER)")
            .unwrap();
        db.execute(sys, "INSERT INTO kv VALUES ('alpha', 1), ('beta', 2)")
            .unwrap();
        let rows = db.query(sys, "SELECT v FROM kv WHERE k = 'beta'").unwrap();
        assert_eq!(rows, vec![vec![SqlValue::Integer(2)]]);
    });
    // paths went through a real window (the port's path page, which
    // VFSCORE and RAMFS both read): faults were resolved
    assert!(
        dep.sys.stats().faults_resolved > 0,
        "trap-and-map must have run"
    );
    assert_eq!(dep.sys.stats().faults_denied, 0, "no isolation violations");
}

#[test]
fn figure8_cubicle_graph_edges() {
    let mut dep = boot(IsolationMode::Full);
    let mut db = open_db(&mut dep);
    in_app(&mut dep, &mut db, |sys, db| {
        db.execute(sys, "CREATE TABLE t(id INTEGER PRIMARY KEY, s TEXT)")
            .unwrap();
        db.execute(sys, "BEGIN").unwrap();
        for i in 0..200 {
            db.execute(
                sys,
                &format!("INSERT INTO t VALUES ({i}, 'row number {i}')"),
            )
            .unwrap();
        }
        db.execute(sys, "COMMIT").unwrap();
        // Fold the WAL back into the db file through the same windowed
        // stack (the write-back half of the commit path).
        let ck = db.query(sys, "PRAGMA wal_checkpoint").unwrap();
        assert_eq!(ck[0][0], SqlValue::Text("ok".into()));
        let rows = db.query(sys, "SELECT count(*) FROM t").unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(200));
    });
    let sys = &dep.sys;
    let (_, stats) = sys.since_boot();
    let vfs = sys.find_cubicle("VFSCORE").unwrap();
    let ramfs = sys.find_cubicle("RAMFS").unwrap();
    let alloc = sys.find_cubicle("ALLOC").unwrap();
    // Figure 8 shape: SQLITE→VFSCORE and VFSCORE→RAMFS are the two
    // hottest edges, each an order of magnitude above the sparse
    // RAMFS→ALLOC edge, and there is no direct SQLITE→RAMFS edge.
    let (app_vfs, vfs_ramfs) = (stats.edge(dep.app, vfs), stats.edge(vfs, ramfs));
    let coldest_hot = app_vfs.min(vfs_ramfs);
    for (&(from, to), &n) in &stats.call_edges {
        if (from, to) != (dep.app, vfs) && (from, to) != (vfs, ramfs) {
            assert!(
                n < coldest_hot,
                "edge {from:?}→{to:?} ({n}) rivals the hot edges ({app_vfs}, {vfs_ramfs})"
            );
        }
    }
    assert!(stats.edge(ramfs, alloc) >= 1);
    assert_eq!(stats.edge(dep.app, ramfs), 0);
    let ramfs_alloc = stats.edge(ramfs, alloc);
    assert!(
        app_vfs >= 10 * ramfs_alloc && vfs_ramfs >= 10 * ramfs_alloc,
        "hot edges ({app_vfs}, {vfs_ramfs}) against RAMFS→ALLOC ({ramfs_alloc})"
    );
    assert!(ramfs_alloc * 10 < vfs_ramfs);
}

#[test]
fn persistence_via_ramfs_across_reopen() {
    let mut dep = boot(IsolationMode::Full);
    let mut db = open_db(&mut dep);
    in_app(&mut dep, &mut db, |sys, db| {
        db.execute(sys, "CREATE TABLE t(v TEXT)").unwrap();
        db.execute(sys, "INSERT INTO t VALUES ('persisted')")
            .unwrap();
    });
    drop(db);
    // reopen a fresh connection over the same RAMFS
    let mut db2 = open_db(&mut dep);
    in_app(&mut dep, &mut db2, |sys, db| {
        let rows = db.query(sys, "SELECT v FROM t").unwrap();
        assert_eq!(rows, vec![vec![SqlValue::Text("persisted".into())]]);
        let check = db.query(sys, "PRAGMA integrity_check").unwrap();
        assert_eq!(check[0][0], SqlValue::Text("ok".into()));
    });
}

#[test]
fn transactions_and_rollback_through_the_stack() {
    let mut dep = boot(IsolationMode::Full);
    let mut db = open_db(&mut dep);
    in_app(&mut dep, &mut db, |sys, db| {
        db.execute(sys, "CREATE TABLE t(v INTEGER)").unwrap();
        db.execute(sys, "BEGIN").unwrap();
        db.execute(sys, "INSERT INTO t VALUES (1)").unwrap();
        db.execute(sys, "ROLLBACK").unwrap();
        assert_eq!(
            db.query(sys, "SELECT count(*) FROM t").unwrap()[0][0],
            SqlValue::Integer(0)
        );
        db.execute(sys, "INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(
            db.query(sys, "SELECT count(*) FROM t").unwrap()[0][0],
            SqlValue::Integer(1)
        );
    });
}

#[test]
fn same_results_in_all_isolation_modes() {
    let mut reference: Option<Vec<Vec<SqlValue>>> = None;
    for mode in [
        IsolationMode::Unikraft,
        IsolationMode::NoMpk,
        IsolationMode::NoAcl,
        IsolationMode::Full,
    ] {
        let mut dep = boot(mode);
        let mut db = open_db(&mut dep);
        let rows = in_app(&mut dep, &mut db, |sys, db| {
            db.execute(sys, "CREATE TABLE t(a INTEGER, b TEXT)")
                .unwrap();
            db.execute(sys, "CREATE INDEX ia ON t(a)").unwrap();
            for i in 0..50 {
                db.execute(sys, &format!("INSERT INTO t VALUES ({}, 'x{i}')", i % 7))
                    .unwrap();
            }
            db.query(sys, "SELECT a, count(*) FROM t GROUP BY a ORDER BY a")
                .unwrap()
        });
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(&rows, r, "{mode:?} must not change results"),
        }
    }
}

#[test]
fn isolation_costs_are_ordered_for_sql_work() {
    // The Figure 6 premise at miniature scale: the same SQL workload gets
    // monotonically more expensive as isolation mechanisms are enabled,
    // over the paper's per-call file port. The shipped port's pair-keyed
    // staging takes the trap-and-map ping-pong out of full isolation, so
    // it lands between the two.
    fn cycles(config: SystemConfig) -> u64 {
        let mut dep = boot(config);
        let mut db = open_db(&mut dep);
        in_app(&mut dep, &mut db, |sys, db| {
            let t0 = sys.now();
            db.execute(sys, "CREATE TABLE t(v INTEGER)").unwrap();
            for i in 0..50 {
                db.execute(sys, &format!("INSERT INTO t VALUES ({i})"))
                    .unwrap();
            }
            db.query(sys, "SELECT sum(v) FROM t").unwrap();
            sys.now() - t0
        })
    }
    let per_call = |mode: IsolationMode| {
        cycles(SystemConfig {
            pair_keys: false,
            ..mode.into()
        })
    };
    let unikraft = per_call(IsolationMode::Unikraft);
    let no_mpk = per_call(IsolationMode::NoMpk);
    let no_acl = per_call(IsolationMode::NoAcl);
    let full = per_call(IsolationMode::Full);
    assert!(unikraft < no_mpk, "{unikraft} < {no_mpk}");
    assert!(no_mpk < no_acl, "{no_mpk} < {no_acl}");
    assert!(no_acl < full, "{no_acl} < {full}");
    let shipped = cycles(IsolationMode::Full.into());
    assert!(no_mpk < shipped, "{no_mpk} < {shipped}");
    assert!(shipped < full, "{shipped} < {full}");
}
