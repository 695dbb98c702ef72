//! The vectored WAL path against a model: a checkpoint folds its pages,
//! and a commit appends its frames, through `StorageFile::pread_vec` /
//! `pwrite_vec` (one VFS crossing per staging vector on the cubicle
//! stack). The same seeded sequence runs on the in-process [`HostEnv`]
//! (the scalar default implementations) and on the isolated SQLITE →
//! VFSCORE → RAMFS stack; the two must agree byte for byte.

use cubicle_core::{impl_component, ComponentImage, CubicleId, IsolationMode, System, TraceEvent};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::rng::Rng64;
use cubicle_ramfs::{mount_at, Ramfs};
use cubicle_sqldb::pager::{Pager, DB_PAGE};
use cubicle_sqldb::storage::{CubicleEnv, HostEnv, StorageEnv};
use cubicle_sqldb::wal::wal_path;
use cubicle_sqldb::{Database, SqlValue};
use cubicle_ukbase::boot_base;
use cubicle_vfs::{Vfs, VfsPort, VfsProxy};
use std::collections::HashMap;

const DB: &str = "/vec.db";

struct SqliteApp;
impl_component!(SqliteApp);

/// One environment the engine runs on.
struct Side {
    sys: System,
    /// The cubicle the engine runs in; `None` on the host side.
    app: Option<CubicleId>,
    vfs: Option<CubicleId>,
    env: Box<dyn Fn() -> Box<dyn StorageEnv>>,
}

impl Side {
    fn host() -> Side {
        let env = HostEnv::new();
        Side {
            sys: System::new(IsolationMode::Unikraft),
            app: None,
            vfs: None,
            env: Box::new(move || Box::new(env.clone())),
        }
    }

    /// The paper's Figure 8 deployment under full isolation.
    fn cubicle() -> Side {
        let mut sys = System::new(IsolationMode::Full);
        let base = boot_base(&mut sys).unwrap();
        let vfs_loaded = sys
            .load(cubicle_vfs::image(), Box::new(Vfs::default()))
            .unwrap();
        let ramfs_loaded = sys
            .load(cubicle_ramfs::image(), Box::new(Ramfs::default()))
            .unwrap();
        sys.with_component_mut::<Ramfs, _>(ramfs_loaded.slot, |fs, _| fs.set_alloc(base.alloc))
            .unwrap();
        mount_at(&mut sys, vfs_loaded.slot, &ramfs_loaded, "/").unwrap();
        let app = sys
            .load(
                ComponentImage::new("SQLITE", CodeImage::plain(64 * 1024)).heap_pages(256),
                Box::new(SqliteApp),
            )
            .unwrap();
        sys.mark_boot_complete();
        let proxy = VfsProxy::resolve(&vfs_loaded).unwrap();
        let ramfs = ramfs_loaded.cid;
        let env = sys.run_in_cubicle(app.cid, |sys| {
            CubicleEnv::new(VfsPort::new(sys, proxy, &[ramfs]).unwrap())
        });
        Side {
            sys,
            app: Some(app.cid),
            vfs: Some(vfs_loaded.cid),
            env: Box::new(move || Box::new(env.clone())),
        }
    }

    fn run<T>(&mut self, f: impl FnOnce(&mut System) -> T) -> T {
        match self.app {
            Some(app) => self.sys.run_in_cubicle(app, f),
            None => f(&mut self.sys),
        }
    }

    fn env(&self) -> Box<dyn StorageEnv> {
        (self.env)()
    }

    /// Every byte of `path` (large files read through the vectored path).
    fn slurp(&mut self, path: &str) -> Vec<u8> {
        let mut env = self.env();
        self.run(|sys| {
            let mut f = env.open(sys, path).unwrap();
            let mut bytes = vec![0u8; f.size(sys).unwrap() as usize];
            assert_eq!(f.pread(sys, 0, &mut bytes).unwrap(), bytes.len());
            f.close(sys).unwrap();
            bytes
        })
    }
}

fn page_image(rng: &mut Rng64) -> Vec<u8> {
    let mut page = vec![0u8; DB_PAGE];
    rng.fill_bytes(&mut page);
    page
}

/// One step of the pager-level script.
enum Op {
    /// One transaction writing these pages (allocating any past the end).
    Txn(Vec<u32>),
    /// `checkpoint_with_limit(limit)`.
    Checkpoint(Option<usize>),
}

/// Runs `ops` on both sides and on a page model, comparing the WAL
/// before each checkpoint and the db file plus every page after it.
fn run_script(ops: &[Op], seed: u64) {
    let mut sides = [Side::host(), Side::cubicle()];
    let mut pagers: Vec<Pager> = sides
        .iter_mut()
        .map(|side| {
            let env = side.env();
            side.run(|sys| Pager::open(sys, env, DB, 256).unwrap())
        })
        .collect();
    let mut model: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut rng = Rng64::new(seed);
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Txn(pnos) => {
                let images: Vec<(u32, Vec<u8>)> =
                    pnos.iter().map(|&p| (p, page_image(&mut rng))).collect();
                for (side, pager) in sides.iter_mut().zip(&mut pagers) {
                    side.run(|sys| {
                        pager.begin(sys).unwrap();
                        for (pno, image) in &images {
                            while pager.page_count() <= *pno {
                                pager.allocate_page(sys).unwrap();
                            }
                            pager.write_page(sys, *pno, image).unwrap();
                        }
                        pager.commit(sys).unwrap();
                    });
                }
                model.extend(images);
            }
            Op::Checkpoint(limit) => {
                let [host_wal, cub_wal] = [0, 1].map(|i| sides[i].slurp(&wal_path(DB)));
                assert_eq!(
                    host_wal, cub_wal,
                    "step {step}: WAL bytes before the checkpoint"
                );
                let done: Vec<bool> = sides
                    .iter_mut()
                    .zip(&mut pagers)
                    .map(|(side, pager)| {
                        side.run(|sys| pager.checkpoint_with_limit(sys, *limit).unwrap())
                    })
                    .collect();
                assert_eq!(done[0], done[1], "step {step}: checkpoint outcome");
                let [host_db, cub_db] = [0, 1].map(|i| sides[i].slurp(DB));
                assert_eq!(
                    host_db, cub_db,
                    "step {step}: db bytes after the checkpoint"
                );
            }
        }
        for (side, pager) in sides.iter_mut().zip(&mut pagers) {
            side.run(|sys| {
                for (&pno, image) in &model {
                    assert_eq!(
                        &pager.read_page(sys, pno).unwrap(),
                        image,
                        "step {step}: page {pno}"
                    );
                }
            });
        }
    }
}

/// `n` distinct existing pages starting at `first`.
fn pages(first: u32, n: u32) -> Vec<u32> {
    (first..first + n).collect()
}

#[test]
fn checkpoint_and_commit_agree_with_the_host_model() {
    let ops = vec![
        // A commit of 70 fresh pages (8+ dirty: several staging vectors),
        // folded by a checkpoint of 71 distinct pages (header included).
        Op::Txn(pages(1, 70)),
        Op::Checkpoint(None),
        // Checkpoints of exactly 1, 8 and 9 distinct pages.
        Op::Txn(vec![17]),
        Op::Checkpoint(None),
        Op::Txn(pages(3, 8)),
        Op::Checkpoint(None),
        Op::Txn(vec![2, 5, 11, 12, 13, 40, 41, 60, 69]),
        Op::Checkpoint(None),
        // Scattered pages over several commits, one page rewritten twice,
        // then a limited checkpoint stopping mid-vector (11 = 8 + 3).
        Op::Txn(vec![1, 9, 20, 21, 22]),
        Op::Txn(vec![9, 30, 31, 32, 33, 34, 35, 36, 37, 50, 51]),
        Op::Txn(vec![64, 65, 66]),
        Op::Checkpoint(Some(11)),
        Op::Checkpoint(None),
        // Growth past the old end, then everything at once.
        Op::Txn(pages(60, 25)),
        Op::Txn(pages(1, 84)),
        Op::Checkpoint(Some(0)),
        Op::Checkpoint(None),
    ];
    run_script(&ops, 0x5EED_0017);
}

#[test]
fn seeded_scripts_agree_with_the_host_model() {
    for seed in 1..=3u64 {
        let mut rng = Rng64::new(seed);
        let mut ops = vec![Op::Txn(pages(1, 40))];
        for _ in 0..12 {
            let n = rng.range_usize(1, 30);
            let txn: Vec<u32> = (0..n).map(|_| rng.range_u64(1, 70) as u32).collect();
            ops.push(Op::Txn(txn));
            if rng.flip() {
                let limit = rng.flip().then(|| rng.range_usize(0, 40));
                ops.push(Op::Checkpoint(limit));
            }
        }
        ops.push(Op::Checkpoint(None));
        run_script(&ops, seed);
    }
}

#[test]
fn sql_statements_agree_across_environments() {
    let mut sides = [Side::host(), Side::cubicle()];
    let mut dbs: Vec<Database> = sides
        .iter_mut()
        .map(|side| {
            let env = side.env();
            side.run(|sys| Database::open(sys, env, DB).unwrap())
        })
        .collect();
    let mut rng = Rng64::new(0xC0DE);
    let mut script = vec![
        "CREATE TABLE t(id INTEGER PRIMARY KEY, k INTEGER, s TEXT)".to_string(),
        "CREATE INDEX tk ON t(k)".to_string(),
    ];
    for round in 0..6 {
        script.push("BEGIN".into());
        for i in 0..60 {
            let id = round * 60 + i;
            let k = rng.range_u64(0, 50);
            script.push(format!(
                "INSERT INTO t VALUES ({id}, {k}, '{}')",
                "x".repeat(40 + i as usize)
            ));
        }
        script.push("COMMIT".into());
        let k = rng.range_u64(0, 50);
        script.push(format!("UPDATE t SET s = 'updated' WHERE k = {k}"));
        script.push("PRAGMA wal_checkpoint".into());
    }
    let queries = [
        "SELECT count(*), sum(k) FROM t",
        "SELECT k, count(*) FROM t GROUP BY k ORDER BY k",
        "SELECT id, s FROM t WHERE k = 7 ORDER BY id",
        "PRAGMA integrity_check",
    ];
    for (step, sql) in script.iter().enumerate() {
        if sql.starts_with("PRAGMA wal_checkpoint") {
            let [host_wal, cub_wal] = [0, 1].map(|i| sides[i].slurp(&wal_path(DB)));
            assert_eq!(
                host_wal, cub_wal,
                "step {step}: WAL bytes before the checkpoint"
            );
        }
        let results: Vec<_> = sides
            .iter_mut()
            .zip(&mut dbs)
            .map(|(side, db)| side.run(|sys| db.query(sys, sql).unwrap()))
            .collect();
        assert_eq!(results[0], results[1], "step {step}: {sql}");
        if sql.starts_with("PRAGMA wal_checkpoint") {
            assert_eq!(results[0][0][0], SqlValue::Text("ok".into()));
            let [host_db, cub_db] = [0, 1].map(|i| sides[i].slurp(DB));
            assert_eq!(
                host_db, cub_db,
                "step {step}: db bytes after the checkpoint"
            );
            for q in queries {
                let rows: Vec<_> = sides
                    .iter_mut()
                    .zip(&mut dbs)
                    .map(|(side, db)| side.run(|sys| db.query(sys, q).unwrap()))
                    .collect();
                assert_eq!(rows[0], rows[1], "step {step}: {q}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Crossing-count pins
// ---------------------------------------------------------------------------

/// SQLITE→VFSCORE calls per entry name made while `f` runs.
fn vfs_calls<T>(side: &mut Side, f: impl FnOnce(&mut System) -> T) -> (T, HashMap<String, u64>) {
    let (app, vfs) = (side.app.unwrap(), side.vfs.unwrap());
    let mark = side
        .sys
        .trace()
        .unwrap()
        .records()
        .last()
        .map_or(0, |r| r.seq + 1);
    let out = side.run(f);
    let trace = side.sys.trace().unwrap();
    let entries: Vec<_> = trace
        .records()
        .filter(|r| r.seq >= mark)
        .filter_map(|r| match r.event {
            TraceEvent::CrossCallEnter {
                caller,
                callee,
                entry,
                ..
            } if caller == app && callee == vfs => Some(entry),
            _ => None,
        })
        .collect();
    let mut calls = HashMap::new();
    for entry in entries {
        let name = side.sys.entry_name(entry).unwrap().to_string();
        *calls.entry(name).or_insert(0) += 1;
    }
    (out, calls)
}

fn count(calls: &HashMap<String, u64>, name: &str) -> u64 {
    calls.get(name).copied().unwrap_or(0)
}

#[test]
fn checkpoint_of_n_pages_makes_one_vectored_write_per_eight() {
    let mut side = Side::cubicle();
    side.sys.enable_tracing(1 << 20);
    let env = side.env();
    let mut pager = side.run(|sys| Pager::open(sys, env, DB, 256).unwrap());
    let mut rng = Rng64::new(8);
    side.run(|sys| {
        pager.begin(sys).unwrap();
        for _ in 0..70 {
            let pno = pager.allocate_page(sys).unwrap();
            pager.write_page(sys, pno, &page_image(&mut rng)).unwrap();
        }
        pager.commit(sys).unwrap();
        assert!(pager.checkpoint(sys).unwrap());
    });
    for n in [1u32, 7, 8, 9, 16, 17, 61] {
        side.run(|sys| {
            pager.begin(sys).unwrap();
            for pno in pages(2, n) {
                pager.write_page(sys, pno, &page_image(&mut rng)).unwrap();
            }
            pager.commit(sys).unwrap();
        });
        let (done, calls) = vfs_calls(&mut side, |sys| pager.checkpoint(sys).unwrap());
        assert!(done);
        assert_eq!(
            count(&calls, "vfs_pwrite_vec"),
            u64::from(n.div_ceil(8)),
            "{n} pages: {calls:?}"
        );
        assert_eq!(count(&calls, "vfs_pwrite"), 0, "{n} pages: {calls:?}");
        assert_eq!(
            count(&calls, "vfs_pread_vec"),
            u64::from(n.div_ceil(8)),
            "{n} pages: {calls:?}"
        );
        assert_eq!(count(&calls, "vfs_pread"), 0, "{n} pages: {calls:?}");
    }
}

#[test]
fn commit_of_up_to_seven_pages_makes_one_wal_write() {
    let mut side = Side::cubicle();
    side.sys.enable_tracing(1 << 20);
    let env = side.env();
    let mut pager = side.run(|sys| Pager::open(sys, env, DB, 256).unwrap());
    let mut rng = Rng64::new(7);
    side.run(|sys| {
        pager.begin(sys).unwrap();
        for _ in 0..10 {
            let pno = pager.allocate_page(sys).unwrap();
            pager.write_page(sys, pno, &page_image(&mut rng)).unwrap();
        }
        pager.commit(sys).unwrap();
    });
    for d in 1..=7u32 {
        let images: Vec<Vec<u8>> = (0..d).map(|_| page_image(&mut rng)).collect();
        let ((), calls) = vfs_calls(&mut side, |sys| {
            pager.begin(sys).unwrap();
            for (pno, image) in pages(1, d).into_iter().zip(&images) {
                pager.write_page(sys, pno, image).unwrap();
            }
            pager.commit(sys).unwrap();
        });
        let writes = count(&calls, "vfs_pwrite") + count(&calls, "vfs_pwrite_vec");
        assert_eq!(writes, 1, "{d} dirty pages: {calls:?}");
    }
}
