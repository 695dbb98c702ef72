//! SQLite's file port as shipped: on the calibrated deployment
//! (`build_sqlite`, RAMFS split out, full isolation) every open file
//! shares its staging areas with RAMFS and its iov page with VFSCORE
//! under pair keys, so a steady-state file call opens no window and takes
//! no fault — and no third cubicle gains access to those pages.

use cubicle_bench::scenario::{
    build_sqlite, Partitioning, SqliteDeployment, UNIKRAFT_BOUNDARY_TAX,
};
use cubicle_core::{CubicleId, IsolationMode, System};
use cubicle_mpk::PageNum;
use cubicle_sqldb::storage::CubicleEnv;
use cubicle_sqldb::{Database, SqlValue};
use cubicle_vfs::VfsPort;

const ROWS: usize = 2_000;

/// The shipped deployment with a WAL database of [`ROWS`] rows behind an
/// 8-page cache, warmed up: both files are open and have made every kind
/// of call once (commits, misses, a checkpoint).
fn warmed_up() -> (SqliteDeployment, Database) {
    let mut dep = build_sqlite(
        IsolationMode::Full,
        Partitioning::Split,
        UNIKRAFT_BOUNDARY_TAX,
    )
    .unwrap();
    let (app, vfs, ramfs) = (dep.app, dep.vfs, dep.ramfs_cid);
    let db = dep.sys.run_in_cubicle(app, |sys| {
        let port = VfsPort::new(sys, vfs, &[ramfs]).unwrap();
        let mut db =
            Database::open_with_cache(sys, Box::new(CubicleEnv::new(port)), "/port.db", 8).unwrap();
        db.execute(sys, "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute(sys, "BEGIN").unwrap();
        for id in 0..ROWS {
            db.execute(
                sys,
                &format!("INSERT INTO t VALUES ({id}, '{}')", "w".repeat(90)),
            )
            .unwrap();
        }
        db.execute(sys, "COMMIT").unwrap();
        steady_work(sys, &mut db, 0);
        db
    });
    (dep, db)
}

/// WAL commits, point reads that miss the cache, and one checkpoint.
fn steady_work(sys: &mut System, db: &mut Database, round: usize) {
    for i in 0..16 {
        let id = (round * 16 + i) * 97 % ROWS;
        db.execute(sys, &format!("UPDATE t SET v = 'r{round}' WHERE id = {id}"))
            .unwrap();
        let far = (id + ROWS / 2) % ROWS;
        let rows = db
            .query(sys, &format!("SELECT id FROM t WHERE id = {far}"))
            .unwrap();
        assert_eq!(rows, vec![vec![SqlValue::Integer(far as i64)]]);
    }
    let ck = db.query(sys, "PRAGMA wal_checkpoint").unwrap();
    assert_eq!(ck[0][0], SqlValue::Text("ok".into()));
}

/// (faults, retags, window ops) so far.
fn isolation_events(sys: &System) -> (u64, u64, u64) {
    let stats = sys.stats();
    (
        stats.faults_resolved + stats.faults_denied,
        sys.machine().stats().retags,
        stats.window_ops,
    )
}

/// The pages carrying the pair key of `a` and `b`.
fn paired_pages(sys: &System, a: CubicleId, b: CubicleId) -> Vec<PageNum> {
    let key = sys.pair_key(a, b).expect("the pair shares pages");
    sys.machine().pages_with_key(key)
}

#[test]
fn steady_state_file_calls_take_no_fault_retag_or_window_op() {
    let (mut dep, mut db) = warmed_up();
    let app = dep.app;
    let before = isolation_events(&dep.sys);
    let misses = db.pager_stats().misses;
    dep.sys
        .run_in_cubicle(app, |sys| steady_work(sys, &mut db, 1));
    assert!(db.pager_stats().misses > misses, "the reads reached RAMFS");
    assert_eq!(
        isolation_events(&dep.sys),
        before,
        "(faults, retags, window ops) of commits, misses and a checkpoint"
    );
    dep.sys
        .audit()
        .assert_clean("after steady-state file calls");
}

#[test]
fn no_third_cubicle_reaches_the_paired_pages() {
    let (mut dep, mut db) = warmed_up();
    let (app, ramfs) = (dep.app, dep.ramfs_cid);
    let vfs = dep.vfs.cid();
    let time = dep.sys.find_cubicle("TIME").unwrap();
    let staging = paired_pages(&dep.sys, app, ramfs);
    let iov = paired_pages(&dep.sys, app, vfs);
    // Scalar staging (2 pages) and an iov page for the db and the WAL
    // each, and the WAL's vectored staging (8 pages): commits append
    // frames through it, while the db file's reads are scalar and its
    // checkpoint folds inside RAMFS.
    assert_eq!((staging.len(), iov.len()), (12, 2));
    let denied = |sys: &mut System, who: CubicleId, page: PageNum| {
        sys.run_in_cubicle(who, |sys| sys.read_vec(page.base(), 8))
            .is_err()
    };
    for &page in &staging {
        assert!(denied(&mut dep.sys, time, page), "TIME on staging {page:?}");
        assert!(
            denied(&mut dep.sys, vfs, page),
            "VFSCORE on staging {page:?}"
        );
    }
    for &page in &iov {
        assert!(denied(&mut dep.sys, time, page), "TIME on iov {page:?}");
        assert!(denied(&mut dep.sys, ramfs, page), "RAMFS on iov {page:?}");
    }
    // The refusals leave the pair keys where they were.
    assert_eq!(paired_pages(&dep.sys, app, ramfs), staging);
    assert_eq!(paired_pages(&dep.sys, app, vfs), iov);
    let before = isolation_events(&dep.sys);
    dep.sys
        .run_in_cubicle(app, |sys| steady_work(sys, &mut db, 2));
    assert_eq!(isolation_events(&dep.sys), before);
    dep.sys.audit().assert_clean("after refused touches");
}
