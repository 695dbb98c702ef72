//! A WAL commit that fails — its append or its sync — is rolled back on
//! the spot: the pages it carried are neither readable afterwards nor
//! carried into the log by the next commit, and the database reloads its
//! schema as after a ROLLBACK. The failures are injected by a wrapper
//! around the in-process [`HostEnv`] that fails the `-wal` file's next
//! write (landing half its bytes first, as a torn write would) or its
//! next sync, once.

use cubicle_core::{Errno, IsolationMode, System};
use cubicle_sqldb::pager::{Pager, DB_PAGE};
use cubicle_sqldb::storage::{HostEnv, StorageEnv, StorageFile};
use cubicle_sqldb::{Database, Result, SqlError, SqlValue};
use std::cell::Cell;
use std::rc::Rc;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fail {
    Write,
    Sync,
}

#[derive(Clone, Default)]
struct FlakyEnv {
    inner: HostEnv,
    armed: Rc<Cell<Option<Fail>>>,
}

struct FlakyFile {
    inner: Box<dyn StorageFile>,
    wal: bool,
    armed: Rc<Cell<Option<Fail>>>,
}

impl FlakyFile {
    /// Consumes the armed failure when it is `kind` on the `-wal` file.
    fn fires(&self, kind: Fail) -> bool {
        let fires = self.wal && self.armed.get() == Some(kind);
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
        if self.fires(Fail::Write) {
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
}

impl StorageEnv for FlakyEnv {
    fn open(&mut self, sys: &mut System, path: &str) -> Result<Box<dyn StorageFile>> {
        Ok(Box::new(FlakyFile {
            inner: self.inner.open(sys, path)?,
            wal: path.ends_with("-wal"),
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
        let env = FlakyEnv::default();
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
        let env = FlakyEnv::default();
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
