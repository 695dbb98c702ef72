//! A WAL commit that fails — its append or its sync — is rolled back on
//! the spot: the pages it carried are neither readable afterwards nor
//! carried into the log by the next commit, and the database reloads its
//! schema as after a ROLLBACK. So is a transaction whose page spill
//! fails, in either journal mode, and a rollback-journal COMMIT whose
//! write-back fails. The failures are injected by a wrapper around a
//! storage environment (the in-process [`HostEnv`], or the cubicle
//! stack's [`CubicleEnv`]) that fails the `-wal` file's next write
//! (landing half its bytes first, as a torn write would) or its next
//! sync, or the database file's next write, once.

use cubicle_core::{impl_component, ComponentImage, Errno, IsolationMode, System};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::boot_fs;
use cubicle_sqldb::pager::{Pager, DB_PAGE};
use cubicle_sqldb::storage::{CubicleEnv, HostEnv, StorageEnv, StorageFile};
use cubicle_sqldb::{Database, JournalMode, Result, SqlError, SqlValue};
use cubicle_ukbase::boot_base;
use cubicle_vfs::Vfs;
use std::cell::Cell;
use std::rc::Rc;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fail {
    /// The `-wal` file's next write.
    Write,
    /// The `-wal` file's next sync.
    Sync,
    /// The database file's next write.
    DbWrite,
}

#[derive(Clone)]
struct FlakyEnv<E> {
    inner: E,
    armed: Rc<Cell<Option<Fail>>>,
}

impl<E> FlakyEnv<E> {
    fn new(inner: E) -> FlakyEnv<E> {
        FlakyEnv {
            inner,
            armed: Rc::default(),
        }
    }
}

struct FlakyFile {
    inner: Box<dyn StorageFile>,
    /// The failures this file can take.
    kinds: &'static [Fail],
    armed: Rc<Cell<Option<Fail>>>,
}

impl FlakyFile {
    /// Consumes the armed failure when it is `kind` and this file takes it.
    fn fires(&self, kind: Fail) -> bool {
        let fires = self.kinds.contains(&kind) && self.armed.get() == Some(kind);
        if fires {
            self.armed.set(None);
        }
        fires
    }
}

fn eio<T>() -> Result<T> {
    Err(SqlError::Io(Errno::Eio.neg()))
}

impl StorageFile for FlakyFile {
    fn pread(&mut self, sys: &mut System, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.inner.pread(sys, off, buf)
    }

    fn pwrite(&mut self, sys: &mut System, off: u64, data: &[u8]) -> Result<usize> {
        if self.fires(Fail::Write) || self.fires(Fail::DbWrite) {
            self.inner.pwrite(sys, off, &data[..data.len() / 2])?;
            return eio();
        }
        self.inner.pwrite(sys, off, data)
    }

    fn size(&mut self, sys: &mut System) -> Result<u64> {
        self.inner.size(sys)
    }

    fn truncate(&mut self, sys: &mut System, len: u64) -> Result<()> {
        self.inner.truncate(sys, len)
    }

    fn sync(&mut self, sys: &mut System) -> Result<()> {
        if self.fires(Fail::Sync) {
            return eio();
        }
        self.inner.sync(sys)
    }

    fn close(&mut self, sys: &mut System) -> Result<()> {
        self.inner.close(sys)
    }
}

impl<E: StorageEnv> StorageEnv for FlakyEnv<E> {
    fn open(&mut self, sys: &mut System, path: &str) -> Result<Box<dyn StorageFile>> {
        let kinds: &'static [Fail] = if path.ends_with("-wal") {
            &[Fail::Write, Fail::Sync]
        } else if path.ends_with("-journal") {
            &[]
        } else {
            &[Fail::DbWrite]
        };
        Ok(Box::new(FlakyFile {
            inner: self.inner.open(sys, path)?,
            kinds,
            armed: self.armed.clone(),
        }))
    }

    fn unlink(&mut self, sys: &mut System, path: &str) -> Result<()> {
        self.inner.unlink(sys, path)
    }

    fn exists(&mut self, sys: &mut System, path: &str) -> Result<bool> {
        self.inner.exists(sys, path)
    }
}

fn page(tag: u8) -> Vec<u8> {
    vec![tag; DB_PAGE]
}

fn is_eio<T: std::fmt::Debug>(r: Result<T>) -> bool {
    matches!(r, Err(SqlError::Io(e)) if e == Errno::Eio.neg())
}

#[test]
fn a_failed_wal_commit_never_becomes_durable() {
    for fail in [Fail::Write, Fail::Sync] {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = FlakyEnv::new(HostEnv::new());
        let open = |sys: &mut System| Pager::open(sys, Box::new(env.clone()), "/f.db", 16).unwrap();
        let mut pager = open(&mut sys);
        pager.begin(&mut sys).unwrap();
        let a = pager.allocate_page(&mut sys).unwrap();
        let b = pager.allocate_page(&mut sys).unwrap();
        pager.write_page(&mut sys, a, &page(1)).unwrap();
        pager.write_page(&mut sys, b, &page(1)).unwrap();
        pager.commit(&mut sys).unwrap();

        // T1 writes a = 2 and its commit fails.
        pager.begin(&mut sys).unwrap();
        pager.write_page(&mut sys, a, &page(2)).unwrap();
        env.armed.set(Some(fail));
        assert!(
            is_eio(pager.commit(&mut sys)),
            "{fail:?}: T1's commit fails"
        );
        assert_eq!(env.armed.get(), None, "{fail:?}: the failure fired");
        assert!(!pager.in_txn());
        assert_eq!(pager.wal_end(), pager.wal_committed_end(), "{fail:?}");
        assert_eq!(pager.read_page(&mut sys, a).unwrap(), page(1), "{fail:?}");

        // T2 writes only b; its commit must not carry a.
        pager.begin(&mut sys).unwrap();
        pager.write_page(&mut sys, b, &page(3)).unwrap();
        pager.commit(&mut sys).unwrap();
        drop(pager);

        let mut pager = open(&mut sys);
        assert_eq!(pager.read_page(&mut sys, a).unwrap(), page(1), "{fail:?}");
        assert_eq!(pager.read_page(&mut sys, b).unwrap(), page(3), "{fail:?}");
    }
}

#[test]
fn a_failed_commit_reloads_the_schema() {
    for fail in [Fail::Write, Fail::Sync] {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = FlakyEnv::new(HostEnv::new());
        let open = |sys: &mut System| Database::open(sys, Box::new(env.clone()), "/s.db").unwrap();
        let mut db = open(&mut sys);
        db.execute(&mut sys, "CREATE TABLE t(v INTEGER)").unwrap();
        db.execute(&mut sys, "BEGIN").unwrap();
        db.execute(&mut sys, "CREATE TABLE u(v INTEGER)").unwrap();
        db.execute(&mut sys, "INSERT INTO t VALUES (1)").unwrap();
        env.armed.set(Some(fail));
        assert!(is_eio(db.execute(&mut sys, "COMMIT")), "{fail:?}");
        assert!(db.query(&mut sys, "SELECT v FROM u").is_err(), "{fail:?}");
        assert!(db.query(&mut sys, "SELECT v FROM t").unwrap().is_empty());

        db.execute(&mut sys, "INSERT INTO t VALUES (2)").unwrap();
        drop(db);
        let mut db = open(&mut sys);
        assert!(db.query(&mut sys, "SELECT v FROM u").is_err(), "{fail:?}");
        assert_eq!(
            db.query(&mut sys, "SELECT v FROM t").unwrap(),
            vec![vec![SqlValue::Integer(2)]],
            "{fail:?}"
        );
    }
}

struct App;
impl_component!(App);

/// A rollback-journal COMMIT whose page write-back fails is rolled back
/// from its journal, over the cubicle stack: the journal's descriptor is
/// closed, and the next transaction's COMMIT does not make the failed
/// one durable.
#[test]
fn a_failed_rollback_commit_never_becomes_durable() {
    let mut sys = System::new(IsolationMode::Full);
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, None).unwrap();
    let app = sys
        .load(
            ComponentImage::new("SQLITE", CodeImage::plain(4096)).heap_pages(64),
            Box::new(App),
        )
        .unwrap();
    let open_fds = |sys: &mut System| {
        sys.with_component_mut::<Vfs, _>(fs.vfs_slot, |vfs, _| vfs.open_fds())
            .unwrap()
    };
    sys.run_in_cubicle(app.cid, |sys| {
        let env = FlakyEnv::new(CubicleEnv::new(fs.port(sys).unwrap()));
        let open = |sys: &mut System| {
            Pager::open_with_mode(
                sys,
                Box::new(env.clone()),
                "/r.db",
                16,
                JournalMode::Rollback,
            )
            .unwrap()
        };
        let mut pager = open(sys);
        pager.begin(sys).unwrap();
        let a = pager.allocate_page(sys).unwrap();
        let b = pager.allocate_page(sys).unwrap();
        pager.write_page(sys, a, &page(1)).unwrap();
        pager.write_page(sys, b, &page(1)).unwrap();
        pager.commit(sys).unwrap();
        let fds = open_fds(sys);

        // T1 writes a = 2 and its commit fails in the write-back.
        pager.begin(sys).unwrap();
        pager.write_page(sys, a, &page(2)).unwrap();
        env.armed.set(Some(Fail::DbWrite));
        assert!(is_eio(pager.commit(sys)), "T1's commit fails");
        assert_eq!(env.armed.get(), None, "the failure fired");
        assert!(!pager.in_txn());
        assert_eq!(open_fds(sys), fds, "the journal's descriptor is closed");
        assert!(pager.read_page(sys, a).unwrap() == page(1), "a reads 1");

        // T2 writes only b; its commit must not carry a.
        pager.begin(sys).unwrap();
        pager.write_page(sys, b, &page(3)).unwrap();
        pager.commit(sys).unwrap();
        assert_eq!(open_fds(sys), fds);
        drop(pager);

        let mut pager = open(sys);
        assert!(pager.read_page(sys, a).unwrap() == page(1), "a reads 1");
        assert!(pager.read_page(sys, b).unwrap() == page(3), "b reads 3");
    });
}

/// An 8-page cache: the 9th page a transaction dirties evicts a dirty
/// page, whose spill (a WAL frame, or the page written in place under the
/// rollback journal) fails. The transaction is rolled back, COMMIT has
/// nothing to commit, and after a reopen its pages all read old.
#[test]
fn a_failed_spill_rolls_the_whole_transaction_back() {
    for (mode, fail) in [
        (JournalMode::Wal, Fail::Write),
        (JournalMode::Rollback, Fail::DbWrite),
    ] {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = FlakyEnv::new(HostEnv::new());
        let open = |sys: &mut System| {
            Pager::open_with_mode(sys, Box::new(env.clone()), "/spill.db", 8, mode).unwrap()
        };
        let mut pager = open(&mut sys);
        pager.begin(&mut sys).unwrap();
        let pnos: Vec<u32> = (0..12)
            .map(|_| pager.allocate_page(&mut sys).unwrap())
            .collect();
        for &pno in &pnos {
            pager.write_page(&mut sys, pno, &page(1)).unwrap();
        }
        pager.commit(&mut sys).unwrap();

        pager.begin(&mut sys).unwrap();
        env.armed.set(Some(fail));
        let failed_at = pnos
            .iter()
            .position(|&pno| pager.write_page(&mut sys, pno, &page(2)).is_err());
        assert_eq!(failed_at, Some(8), "{mode:?}: the 9th dirty page spills");
        assert_eq!(env.armed.get(), None, "{mode:?}: the failure fired");
        assert!(!pager.in_txn(), "{mode:?}: the transaction is rolled back");
        assert!(
            matches!(pager.commit(&mut sys), Err(SqlError::Transaction(_))),
            "{mode:?}: COMMIT has no transaction left to commit"
        );
        drop(pager);

        let mut pager = open(&mut sys);
        for &pno in &pnos {
            assert!(
                pager.read_page(&mut sys, pno).unwrap() == page(1),
                "{mode:?}: page {pno} reads its committed bytes after the reopen"
            );
        }
    }
}

/// The same failure under SQL, in both journal modes: an auto-commit
/// statement fails with the spill's error, and one inside BEGIN also ends
/// the transaction, so COMMIT fails instead of committing a torn one.
#[test]
fn a_statement_whose_spill_fails_ends_the_transaction() {
    for (mode, fail) in [
        (JournalMode::Wal, Fail::Write),
        (JournalMode::Rollback, Fail::DbWrite),
    ] {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = FlakyEnv::new(HostEnv::new());
        let open = |sys: &mut System| {
            Database::open_with_mode(sys, Box::new(env.clone()), "/spill.db", 8, mode).unwrap()
        };
        let mut db = open(&mut sys);
        let (old, new) = ("a".repeat(1_000), "b".repeat(1_000));
        db.execute(&mut sys, "CREATE TABLE t(k INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        let rows: Vec<String> = (0..40).map(|k| format!("({k}, '{old}')")).collect();
        let insert = format!("INSERT INTO t VALUES {}", rows.join(", "));
        db.execute(&mut sys, &insert).unwrap();
        let update = format!("UPDATE t SET v = '{new}'");
        for explicit in [false, true] {
            if explicit {
                db.execute(&mut sys, "BEGIN").unwrap();
            }
            env.armed.set(Some(fail));
            assert!(is_eio(db.execute(&mut sys, &update)), "{mode:?}");
        }
        let commit = db.execute(&mut sys, "COMMIT");
        assert!(matches!(commit, Err(SqlError::Transaction(_))), "{mode:?}");
        drop(db);

        let mut db = open(&mut sys);
        let rows = db.query(&mut sys, "SELECT v FROM t").unwrap();
        assert_eq!(rows.len(), 40, "{mode:?}");
        assert!(
            rows.iter().all(|r| r[0] == SqlValue::Text(old.clone())),
            "{mode:?}: every row reads its committed value"
        );
    }
}
