//! The vectored WAL path against a model: a commit appends its frames
//! through `StorageFile::pwrite_vec` (one VFS crossing per staging vector
//! on the cubicle stack), and a checkpoint folds its pages through
//! `StorageFile::copy_from` (one `vfs_copy_range` per 64 pages, the bytes
//! never leaving RAMFS). The same seeded sequence runs on the in-process
//! [`HostEnv`] (the buffered default implementations) and on the
//! isolated SQLITE → VFSCORE → RAMFS stack; the two must agree byte for
//! byte, whether the stack's files share their staging under pair keys
//! (as shipped) or per call (every configuration without a pair key).

use cubicle_core::{
    impl_component, ComponentImage, CubicleId, IsolationMode, System, SystemConfig, TraceEvent,
    PARKED_KEY,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::rng::Rng64;
use cubicle_ramfs::boot_fs;
use cubicle_sqldb::pager::{Pager, DB_PAGE};
use cubicle_sqldb::storage::{CubicleEnv, HostEnv, StorageEnv, VEC_STAGING};
use cubicle_sqldb::wal::{wal_path, Wal, FRAME_SIZE};
use cubicle_sqldb::{Database, JournalMode, SqlValue};
use cubicle_ukbase::boot_base;
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

    /// The paper's Figure 8 deployment under full isolation, as shipped.
    fn cubicle() -> Side {
        Side::cubicle_with(IsolationMode::Full.into(), false)
    }

    /// The Figure 8 deployment under `config`; with `exhaust`, cubicles
    /// that do nothing take every key left in the pool before boot ends.
    fn cubicle_with(config: SystemConfig, exhaust: bool) -> Side {
        let mut sys = System::new(config);
        let base = boot_base(&mut sys).unwrap();
        let fs = boot_fs(&mut sys, &base, None).unwrap();
        let app = sys
            .load(
                ComponentImage::new("SQLITE", CodeImage::plain(64 * 1024)).heap_pages(256),
                Box::new(SqliteApp),
            )
            .unwrap();
        if exhaust {
            for i in 0.. {
                let pad = ComponentImage::new(format!("PAD{i}"), CodeImage::plain(4096));
                let pad = sys.load(pad, Box::new(SqliteApp)).unwrap();
                if sys.cubicle(pad.cid).key == PARKED_KEY {
                    break;
                }
            }
        }
        sys.mark_boot_complete();
        let env = sys.run_in_cubicle(app.cid, |sys| CubicleEnv::new(fs.port(sys).unwrap()));
        Side {
            sys,
            app: Some(app.cid),
            vfs: Some(fs.vfs_cid),
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
    run_script_on(Side::cubicle(), ops, seed);
}

/// [`run_script`] with `cubicle` as the isolated side.
fn run_script_on(cubicle: Side, ops: &[Op], seed: u64) {
    let mut sides = [Side::host(), cubicle];
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
    run_script(&checkpoint_script(), 0x5EED_0017);
}

/// Commits and checkpoints of 1 to 84 pages, limited and not.
fn checkpoint_script() -> Vec<Op> {
    vec![
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
    ]
}

/// Without a pair key — pair keys off, or no free key left — every
/// file call shares its buffers for the call only,
/// and the stack's bytes still match the host's.
#[test]
fn files_without_a_pair_key_share_per_call_and_agree_with_the_host_model() {
    let no_pair_keys = SystemConfig {
        pair_keys: false,
        ..IsolationMode::Full.into()
    };
    for (what, mut side) in [
        ("pair keys off", Side::cubicle_with(no_pair_keys, false)),
        (
            "exhausted pool",
            Side::cubicle_with(IsolationMode::Full.into(), true),
        ),
    ] {
        let (app, vfs) = (side.app.unwrap(), side.vfs.unwrap());
        let env = side.env();
        let mut pager = side.run(|sys| Pager::open(sys, env, "/probe.db", 256).unwrap());
        let ops = side.sys.stats().window_ops;
        side.run(|sys| {
            pager.begin(sys).unwrap();
            pager.allocate_page(sys).unwrap();
            pager.commit(sys).unwrap();
        });
        assert!(
            side.sys.stats().window_ops > ops,
            "{what}: a commit opens windows"
        );
        assert_eq!(side.sys.pair_key(app, vfs), None, "{what}");
        run_script_on(side, &checkpoint_script(), 0x5EED_0017);
    }
}

/// A close that fails in the kernel still ends the file's shares and
/// frees both staging areas: SQLITE's heap and windows are back where
/// they were before the open.
#[test]
fn a_failed_close_releases_the_files_staging_and_shares() {
    let mut side = Side::cubicle();
    let (app, vfs) = (side.app.unwrap(), side.vfs.unwrap());
    let held = |sys: &System| {
        let row = sys.ledger().into_iter().find(|r| r.cubicle == app);
        let row = row.expect("SQLITE has a ledger row");
        (row.heap_used, row.windows)
    };
    let before = held(&side.sys);
    let mut env = side.env();
    side.run(|sys| {
        let mut f = env.open(sys, "/closing").unwrap();
        // Both staging areas and the iov page are live.
        f.pwrite_vec(sys, &[(0, &[7u8; 3 * DB_PAGE])]).unwrap();
        f.pwrite(sys, 0, &[1u8; 64]).unwrap();
        assert_eq!(f.size(sys).unwrap(), 3 * DB_PAGE as u64);
        assert_eq!(held(sys).1, before.1 + 3, "three paired windows");
        sys.quarantine(vfs, "test: VFSCORE gone").unwrap();
        assert!(f.close(sys).is_err(), "the kernel refuses the close");
    });
    assert_eq!(held(&side.sys), before, "(heap_used, windows) of SQLITE");
    side.sys.audit().assert_clean("after a failed close");
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
fn checkpoint_of_n_pages_makes_one_copy_range_per_sixty_four() {
    // As shipped, the iov page is shared with VFSCORE under a pair key: a
    // checkpoint takes no fault on a SQLITE page at all.
    checkpoint_crossings(IsolationMode::Full.into(), |n, faults| {
        assert_eq!(faults, 0, "{n} pages: no fault on a SQLITE page");
    });
    // The paper's per-call port: the staged iov ping-pongs.
    let per_call = SystemConfig {
        pair_keys: false,
        ..IsolationMode::Full.into()
    };
    checkpoint_crossings(per_call, |n, faults| {
        assert!(faults > 0, "{n} pages: VFSCORE reads the staged iov");
    });
}

/// Checkpoints of 1 to 129 pages on the stack under `config`: one
/// `vfs_copy_range` per 64 pages and no data call. Every fault on a
/// SQLITE page lands on a page SQLITE allocated during the checkpoint —
/// the iov each `vfs_copy_range` stages — with VFSCORE or SQLITE as the
/// accessor; `check` judges their count for `n` pages.
fn checkpoint_crossings(config: SystemConfig, check: impl Fn(u32, usize)) {
    let mut side = Side::cubicle_with(config, false);
    side.sys.enable_tracing(1 << 20);
    let (app, vfs) = (side.app.unwrap(), side.vfs.unwrap());
    let env = side.env();
    let mut pager = side.run(|sys| Pager::open(sys, env, DB, 256).unwrap());
    let mut rng = Rng64::new(8);
    side.run(|sys| {
        pager.begin(sys).unwrap();
        for _ in 0..140 {
            let pno = pager.allocate_page(sys).unwrap();
            pager.write_page(sys, pno, &page_image(&mut rng)).unwrap();
        }
        pager.commit(sys).unwrap();
        assert!(pager.checkpoint(sys).unwrap());
    });
    for n in [1u32, 7, 8, 9, 63, 64, 65, 129] {
        side.run(|sys| {
            pager.begin(sys).unwrap();
            for pno in pages(2, n) {
                pager.write_page(sys, pno, &page_image(&mut rng)).unwrap();
            }
            pager.commit(sys).unwrap();
        });
        let mark = side.sys.trace().unwrap().records().last().unwrap().seq + 1;
        let (done, calls) = vfs_calls(&mut side, |sys| pager.checkpoint(sys).unwrap());
        assert!(done);
        assert_eq!(
            count(&calls, "vfs_copy_range"),
            u64::from(n.div_ceil(64)),
            "{n} pages: {calls:?}"
        );
        for data_call in ["vfs_pread", "vfs_pwrite", "vfs_pread_vec", "vfs_pwrite_vec"] {
            assert_eq!(count(&calls, data_call), 0, "{n} pages: {calls:?}");
        }

        // The page bytes stay inside RAMFS: no fault lands on a SQLITE
        // data page. Only the iov each `vfs_copy_range` stages may fault
        // (VFSCORE reading it, SQLITE taking the page back to stage the
        // next one), and RAMFS never touches SQLITE memory.
        let records: Vec<_> = side
            .sys
            .trace()
            .unwrap()
            .records()
            .filter(|r| r.seq >= mark)
            .map(|r| r.event)
            .collect();
        let iov_pages: Vec<u64> = records
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::HeapAlloc {
                    cubicle,
                    addr,
                    bytes,
                } if cubicle == app => {
                    Some(addr.raw() / 4096..=(addr.raw() + bytes as u64 - 1) / 4096)
                }
                _ => None,
            })
            .flatten()
            .collect();
        let mut faults = 0;
        for e in &records {
            if let TraceEvent::FaultResolved {
                addr,
                owner,
                accessor,
                ..
            }
            | TraceEvent::FaultDenied {
                addr,
                owner,
                accessor,
                ..
            } = *e
            {
                if owner != app {
                    continue;
                }
                faults += 1;
                assert!(accessor == vfs || accessor == app, "{n} pages: {e:?}");
                assert!(
                    iov_pages.contains(&(addr.raw() / 4096)),
                    "{n} pages: fault off the iov page: {e:?}"
                );
            }
        }
        check(n, faults);
    }
}

/// A committed frame past the database's size, as an honest log never
/// holds one, costs the next checkpoint nothing and leaves the db file at
/// `page_count` pages (SQLite's mxPage rule).
#[test]
fn checkpoint_skips_committed_frames_past_the_database_size() {
    const FAR: u32 = 1 << 16;
    let mut side = Side::cubicle();
    let env = side.env();
    side.run(|sys| {
        let mut pager = Pager::open(sys, env, DB, 256).unwrap();
        pager.begin(sys).unwrap();
        let pno = pager.allocate_page(sys).unwrap();
        pager.write_page(sys, pno, &[7u8; DB_PAGE]).unwrap();
        pager.commit(sys).unwrap();
        assert!(pager.checkpoint(sys).unwrap());
        assert_eq!(pager.page_count(), 2);
    });
    let mut env = side.env();
    side.run(|sys| {
        let (mut wal, _) = Wal::open(sys, env.as_mut(), DB).unwrap();
        wal.append_frame(sys, FAR, 2, &[9u8; DB_PAGE]).unwrap();
        wal.sync(sys).unwrap();
        wal.close(sys).unwrap();
    });
    let env = side.env();
    let mut pager = side.run(|sys| Pager::open(sys, env, DB, 256).unwrap());
    let start = side.sys.now();
    side.run(|sys| assert!(pager.checkpoint(sys).unwrap()));
    let cycles = side.sys.now() - start;
    assert!(cycles < 1_000_000, "checkpoint took {cycles} cycles");
    let db = side.slurp(DB);
    assert_eq!(db.len(), 2 * DB_PAGE);
    assert!(db[DB_PAGE..].iter().all(|&b| b == 7), "page 1 intact");
    side.run(|sys| assert_eq!(pager.read_page(sys, 1).unwrap(), vec![7u8; DB_PAGE]));
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

/// A WAL commit of `d` dirty pages is `⌈d × FRAME_SIZE / VEC_STAGING⌉`
/// `vfs_pwrite_vec` calls whose last carries `RWF_DSYNC`: a one-page
/// commit goes vectored too, and no commit makes a `vfs_pwrite` or a
/// `vfs_fsync`.
#[test]
fn wal_commit_is_fused_vectored_writes_and_no_fsync() {
    let mut side = Side::cubicle();
    side.sys.enable_tracing(1 << 20);
    let env = side.env();
    let mut pager = side.run(|sys| Pager::open(sys, env, DB, 256).unwrap());
    let mut rng = Rng64::new(13);
    side.run(|sys| {
        pager.begin(sys).unwrap();
        for _ in 0..10 {
            let pno = pager.allocate_page(sys).unwrap();
            pager.write_page(sys, pno, &page_image(&mut rng)).unwrap();
        }
        pager.commit(sys).unwrap();
    });
    for d in 1..=9u32 {
        let images: Vec<Vec<u8>> = (0..d).map(|_| page_image(&mut rng)).collect();
        let ((), calls) = vfs_calls(&mut side, |sys| {
            pager.begin(sys).unwrap();
            for (pno, image) in pages(1, d).into_iter().zip(&images) {
                pager.write_page(sys, pno, image).unwrap();
            }
            pager.commit(sys).unwrap();
        });
        let bytes = u64::from(d) * FRAME_SIZE;
        assert_eq!(
            count(&calls, "vfs_pwrite_vec"),
            bytes.div_ceil(VEC_STAGING as u64),
            "{d} dirty pages: {calls:?}"
        );
        assert_eq!(count(&calls, "vfs_pwrite"), 0, "{d} dirty pages: {calls:?}");
        assert_eq!(count(&calls, "vfs_fsync"), 0, "{d} dirty pages: {calls:?}");
    }
}

/// The paper's per-call port (the one Figures 6, 8 and 10 run) keeps its
/// sequences: a rollback-journal commit still syncs the journal and then
/// the database, two `vfs_fsync` calls, and a WAL commit is still a write
/// and then a `vfs_fsync` (there a vector's staged iov costs more
/// trap-and-map round trips than the fused sync saves).
#[test]
fn the_per_call_port_keeps_its_commit_sequences() {
    let per_call = SystemConfig {
        pair_keys: false,
        ..IsolationMode::Full.into()
    };
    let mut side = Side::cubicle_with(per_call, false);
    side.sys.enable_tracing(1 << 20);
    let mut rng = Rng64::new(21);
    for (path, mode) in [
        ("/rollback.db", JournalMode::Rollback),
        ("/wal.db", JournalMode::Wal),
    ] {
        let env = side.env();
        let mut pager = side.run(|sys| Pager::open_with_mode(sys, env, path, 256, mode).unwrap());
        for d in [1u32, 3, 9] {
            let images: Vec<Vec<u8>> = (0..d).map(|_| page_image(&mut rng)).collect();
            let ((), calls) = vfs_calls(&mut side, |sys| {
                pager.begin(sys).unwrap();
                for image in &images {
                    let pno = pager.allocate_page(sys).unwrap();
                    pager.write_page(sys, pno, image).unwrap();
                }
                pager.commit(sys).unwrap();
            });
            let (fsyncs, vectored) = match mode {
                // the journal, then the database
                JournalMode::Rollback => (2, 0),
                // one write of d + 1 frames (the header page is dirty,
                // so each commit is above the scalar staging)
                JournalMode::Wal => {
                    let bytes = u64::from(d + 1) * FRAME_SIZE;
                    (1, bytes.div_ceil(VEC_STAGING as u64))
                }
            };
            assert_eq!(
                count(&calls, "vfs_fsync"),
                fsyncs,
                "{mode:?} {d}: {calls:?}"
            );
            assert_eq!(
                count(&calls, "vfs_pwrite_vec"),
                vectored,
                "{mode:?} {d}: {calls:?}"
            );
        }
    }
}
