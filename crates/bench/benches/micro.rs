//! Micro-benchmarks of the isolation primitives (host wall-clock of the
//! simulator — useful to keep the simulator itself fast; the *simulated*
//! cycle costs are fixed by the cost model).
//!
//! Self-timed with a small min-of-samples harness so the suite runs
//! with no external dependencies (the build must work fully offline).
//! The *minimum* over batched samples is reported: under a noisy shared
//! host it is the only stable estimator of the code's intrinsic speed
//! (every source of interference only ever adds time).
//! Besides the console table, results land in `BENCH_results.json`
//! (see `cubicle_bench::report::results`) together with the wall-clock
//! numbers recorded at the seed commit, so the speedup trajectory of the
//! simulator hot path is tracked across PRs.

use cubicle_bench::report::results::BenchResults;
use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleId, IsolationMode, System, Value,
};
use cubicle_httpd::boot_web;
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::rng::Rng64;
use cubicle_mpk::PAGE_SIZE;
use cubicle_net::WireModel;
use std::hint::black_box;
use std::time::Instant;

struct Dummy;
impl_component!(Dummy);

/// Runs `f` in batches until the sampling budget is exhausted and
/// returns the minimum ns/iter plus the sample count. The batch size
/// adapts so slow benches still collect several samples.
fn measure(mut f: impl FnMut()) -> (u64, u64) {
    // warm-up, also yields a batch-size estimate
    let t0 = Instant::now();
    for _ in 0..4 {
        f();
    }
    let est_ns = (t0.elapsed().as_nanos() as u64 / 4).max(1);
    let batch = (2_000_000 / est_ns).clamp(1, 256) as u32;
    let mut best = u64::MAX;
    let mut samples = 0u64;
    let deadline = Instant::now() + std::time::Duration::from_millis(60);
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as u64 / u64::from(batch));
        samples += 1;
        if Instant::now() >= deadline && samples >= 5 {
            break;
        }
    }
    (best, samples)
}

/// Measures `f`, prints a row, and records it (with the simulated cycles
/// of one iteration, taken from `sim_cycles`) in the result set.
fn bench_function(results: &mut BenchResults, name: &str, sim_cycles: u64, f: impl FnMut()) {
    let (best, samples) = measure(f);
    println!("{name:<44} {best:>10} ns/iter   ({samples} samples)");
    results.push(name, best, samples, sim_cycles);
}

fn setup(mode: IsolationMode) -> (System, CubicleId, CubicleId) {
    let builder = Builder::new();
    let mut sys = System::new(mode);
    let a = sys
        .load(
            ComponentImage::new("A", CodeImage::plain(4096)).heap_pages(32),
            Box::new(Dummy),
        )
        .unwrap();
    let b = sys
        .load(
            ComponentImage::new("B", CodeImage::plain(4096))
                .heap_pages(32)
                .export(
                    builder
                        .export("long b_read(const void *buf, size_t n)")
                        .unwrap(),
                    |sys, _this, args| {
                        let (addr, len) = args[0].as_buf();
                        let v = sys.read_vec(addr, len)?;
                        Ok(Value::I64(i64::from(v[0])))
                    },
                ),
            Box::new(Dummy),
        )
        .unwrap();
    (sys, a.cid, b.cid)
}

fn bench_cross_call(results: &mut BenchResults) {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    let entry = sys.entry("b_read").unwrap();
    let iter = |sys: &mut System| {
        sys.run_in_cubicle(a, |sys| {
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            sys.write(buf, &[1]).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, buf, 4096).unwrap();
            sys.window_open(wid, b).unwrap();
            let r = sys.cross_call(entry, &[Value::buf_in(buf, 64)]).unwrap();
            sys.window_destroy(wid).unwrap();
            sys.heap_free(buf).unwrap();
            black_box(r);
        });
    };
    let c0 = sys.now();
    iter(&mut sys);
    let cycles = sys.now() - c0;
    bench_function(
        results,
        "cross_cubicle_call_with_window_fault",
        cycles,
        || iter(&mut sys),
    );
}

fn bench_window_ops(results: &mut BenchResults) {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    let iter = |sys: &mut System| {
        sys.run_in_cubicle(a, |sys| {
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, buf, 4096).unwrap();
            sys.window_open(wid, b).unwrap();
            sys.window_close(wid, b).unwrap();
            sys.window_destroy(wid).unwrap();
            sys.heap_free(buf).unwrap();
        });
    };
    let c0 = sys.now();
    iter(&mut sys);
    let cycles = sys.now() - c0;
    bench_function(
        results,
        "window_init_add_open_close_destroy",
        cycles,
        || iter(&mut sys),
    );
}

fn bench_memory_access(results: &mut BenchResults) {
    let (mut sys, a, _b) = setup(IsolationMode::Full);
    let buf = sys.run_in_cubicle(a, |sys| sys.heap_alloc(4096, 4096).unwrap());
    let mut scratch = vec![0u8; 4096];
    let c0 = sys.now();
    sys.run_in_cubicle(a, |sys| sys.read(buf, &mut scratch).unwrap());
    let cycles = sys.now() - c0;
    bench_function(results, "checked_4k_read", cycles, || {
        sys.run_in_cubicle(a, |sys| sys.read(buf, black_box(&mut scratch)).unwrap());
    });
}

/// Bulk multi-page reads and writes: the page-table walk + copy path with
/// no faults — the purest measure of the simulated memory system's host
/// overhead per page.
fn bench_bulk(results: &mut BenchResults) {
    const LEN: usize = 64 * PAGE_SIZE; // 256 KiB = 64 pages
    let (mut sys, a, _b) = setup(IsolationMode::Full);
    let buf = sys.run_in_cubicle(a, |sys| sys.heap_alloc(LEN, 4096).unwrap());
    let mut host = vec![0xa5u8; LEN];

    let c0 = sys.now();
    sys.run_in_cubicle(a, |sys| sys.write(buf, &host).unwrap());
    let cycles = sys.now() - c0;
    bench_function(results, "bulk_256k_write", cycles, || {
        sys.run_in_cubicle(a, |sys| sys.write(buf, black_box(&host)).unwrap());
    });

    let c0 = sys.now();
    sys.run_in_cubicle(a, |sys| sys.read(buf, &mut host).unwrap());
    let cycles = sys.now() - c0;
    bench_function(results, "bulk_256k_read", cycles, || {
        sys.run_in_cubicle(a, |sys| sys.read(buf, black_box(&mut host)).unwrap());
    });

    let iter = |sys: &mut System| {
        let v = sys.run_in_cubicle(a, |sys| sys.read_vec(buf, LEN).unwrap());
        black_box(v);
    };
    let c0 = sys.now();
    iter(&mut sys);
    let cycles = sys.now() - c0;
    bench_function(results, "bulk_256k_read_vec", cycles, || iter(&mut sys));
}

/// Scattered small checked reads over a 128-page working set: unlike the
/// bulk benches (which sit at the host's memory-bandwidth floor), this is
/// *translation*-bound — per-access page lookup and permission checks
/// dominate, which is exactly what the flat page table + software TLB
/// accelerate over the seed's per-page HashMap probes.
fn bench_scattered(results: &mut BenchResults) {
    const PAGES: usize = 128;
    const READS: usize = 256;
    let (mut sys, a, _b) = setup(IsolationMode::Full);
    let region = sys.run_in_cubicle(a, |sys| sys.heap_alloc(PAGES * PAGE_SIZE, 4096).unwrap());
    let mut rng = Rng64::new(0x5CA7_7E4D);
    let offs: Vec<usize> = (0..READS)
        .map(|_| rng.range_usize(0, PAGES * PAGE_SIZE - 64))
        .collect();
    let mut buf = [0u8; 64];
    let c0 = sys.now();
    sys.run_in_cubicle(a, |sys| {
        for &o in &offs {
            sys.read(region + o, &mut buf).unwrap();
        }
    });
    let cycles = sys.now() - c0;
    bench_function(results, "scattered_64b_reads_x256", cycles, || {
        sys.run_in_cubicle(a, |sys| {
            for &o in &offs {
                sys.read(region + o, black_box(&mut buf)).unwrap();
            }
        });
    });
}

/// 16 invocations of the same entry: sequentially vs under one batched
/// dispatch (`System::cross_call_batch`). The window stays open across
/// iterations so the pair isolates the dispatch overhead the batch
/// amortises — boundary tax, trampoline, PKRU round-trip.
fn bench_batching(results: &mut BenchResults) {
    const N: usize = 16;
    let persistent_buf = |sys: &mut System, a: CubicleId, b: CubicleId| {
        sys.run_in_cubicle(a, |sys| {
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            sys.write(buf, &[1]).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, buf, 4096).unwrap();
            sys.window_open(wid, b).unwrap();
            buf
        })
    };

    let (mut sys, a, b) = setup(IsolationMode::Full);
    let entry = sys.entry("b_read").unwrap();
    let buf = persistent_buf(&mut sys, a, b);
    let iter = |sys: &mut System| {
        sys.run_in_cubicle(a, |sys| {
            for _ in 0..N {
                let r = sys.cross_call(entry, &[Value::buf_in(buf, 64)]).unwrap();
                black_box(r);
            }
        });
    };
    iter(&mut sys); // warm: first iteration pays the window fault
    let c0 = sys.now();
    iter(&mut sys);
    let cycles = sys.now() - c0;
    bench_function(results, "unbatched_call_x16", cycles, || iter(&mut sys));

    let (mut sys, a, b) = setup(IsolationMode::Full);
    let entry = sys.entry("b_read").unwrap();
    let buf = persistent_buf(&mut sys, a, b);
    let iter = |sys: &mut System| {
        sys.run_in_cubicle(a, |sys| {
            let elems: Vec<[Value; 1]> = (0..N).map(|_| [Value::buf_in(buf, 64)]).collect();
            let refs: Vec<&[Value]> = elems.iter().map(|e| e.as_slice()).collect();
            let rs = sys.cross_call_batch(entry, &refs).unwrap();
            black_box(rs);
        });
    };
    iter(&mut sys);
    let c0 = sys.now();
    iter(&mut sys);
    let cycles = sys.now() - c0;
    bench_function(results, "batched_call_x16", cycles, || iter(&mut sys));
}

/// The trap-and-map ping-pong the grant cache accelerates: the owner
/// writes its buffer (implicit-window reclaim retags the page), then the
/// callee reads it through a window (a fresh protection fault every
/// time). Decoy windows ahead of the authorising one lengthen the linear
/// ACL search that a cache hit skips. The miss entry closes and reopens
/// the window before each ping-pong, which drops the cached grant, so
/// every fault takes the linear search; its simulated cycles cover the
/// ping-pong only, not the close and reopen.
fn bench_grant_cache(results: &mut BenchResults) {
    const DECOYS: usize = 16;
    for (name, miss) in [
        ("grant_cache_miss_pingpong", true),
        ("grant_cache_hit_pingpong", false),
    ] {
        let (mut sys, a, b) = setup(IsolationMode::Full);
        let entry = sys.entry("b_read").unwrap();
        let (buf, wid) = sys.run_in_cubicle(a, |sys| {
            let decoy = sys.heap_alloc(4096, 4096).unwrap();
            for _ in 0..DECOYS {
                let wid = sys.window_init();
                sys.window_add(wid, decoy, 4096).unwrap();
                sys.window_open(wid, b).unwrap();
            }
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, buf, 4096).unwrap();
            sys.window_open(wid, b).unwrap();
            (buf, wid)
        });
        let revoke = |sys: &mut System| {
            if miss {
                sys.run_in_cubicle(a, |sys| {
                    sys.window_close(wid, b).unwrap();
                    sys.window_open(wid, b).unwrap();
                });
            }
        };
        let pingpong = |sys: &mut System| {
            sys.run_in_cubicle(a, |sys| {
                sys.write(buf, &[7]).unwrap();
                let r = sys.cross_call(entry, &[Value::buf_in(buf, 64)]).unwrap();
                black_box(r);
            });
        };
        pingpong(&mut sys); // warm: the first fault always misses
        revoke(&mut sys);
        let (h0, m0) = (sys.stats().grant_cache_hits, sys.stats().grant_cache_misses);
        let c0 = sys.now();
        pingpong(&mut sys);
        let cycles = sys.now() - c0;
        let (h1, m1) = (sys.stats().grant_cache_hits, sys.stats().grant_cache_misses);
        assert_eq!(
            (h1 - h0, m1 - m0),
            if miss { (0, 1) } else { (1, 0) },
            "{name} must take the path it names"
        );
        bench_function(results, name, cycles, || {
            revoke(&mut sys);
            pingpong(&mut sys);
        });
    }
}

/// The Figure 7 large-file path: a full HTTP fetch of a 1 MiB file
/// through the 8-component CubicleOS web stack (VFS reads, LWIP segment
/// copies, window faults — the memory-heaviest end-to-end scenario),
/// with cross-call batching, the window-grant cache and sendfile.
fn bench_fig7_large_file(results: &mut BenchResults) {
    const LEN: usize = 1 << 20;
    let content: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();

    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.put_file("/large.bin", &content).unwrap();
    let iter = |dep: &mut cubicle_httpd::WebDeployment| {
        let (latency, resp) = dep.fetch("/large.bin", WireModel::default()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), LEN);
        black_box(latency);
    };
    let c0 = dep.sys.now();
    iter(&mut dep);
    let cycles = dep.sys.now() - c0;
    bench_function(results, "fig7_http_fetch_1m", cycles, || iter(&mut dep));
    let hits = dep.sys.stats().grant_cache_hits;
    println!("fig7 grant_cache_hits={hits}");
    assert!(hits > 0, "the fig-7 fetch must produce grant-cache hits");
}

fn bench_speedtest_statement(results: &mut BenchResults) {
    use cubicle_sqldb::storage::HostEnv;
    use cubicle_sqldb::Database;
    let mut sys = System::new(IsolationMode::Unikraft);
    let mut db = Database::open(&mut sys, Box::new(HostEnv::new()), "/bench.db").unwrap();
    db.execute(
        &mut sys,
        "CREATE TABLE t(id INTEGER PRIMARY KEY, v INTEGER)",
    )
    .unwrap();
    db.execute(&mut sys, "BEGIN").unwrap();
    for i in 0..1000 {
        db.execute(
            &mut sys,
            &format!("INSERT INTO t VALUES ({i}, {})", i * 7 % 100),
        )
        .unwrap();
    }
    db.execute(&mut sys, "COMMIT").unwrap();

    let c0 = sys.now();
    black_box(
        db.query(&mut sys, "SELECT v FROM t WHERE id = 500")
            .unwrap(),
    );
    let cycles = sys.now() - c0;
    bench_function(results, "sql_point_query", cycles, || {
        black_box(
            db.query(&mut sys, "SELECT v FROM t WHERE id = 500")
                .unwrap(),
        );
    });

    let c0 = sys.now();
    black_box(
        db.query(&mut sys, "SELECT count(*), sum(v) FROM t")
            .unwrap(),
    );
    let cycles = sys.now() - c0;
    bench_function(results, "sql_aggregate_scan", cycles, || {
        black_box(
            db.query(&mut sys, "SELECT count(*), sum(v) FROM t")
                .unwrap(),
        );
    });
}

/// Commit-path A/B: the PR-1 rollback journal against the WAL at group
/// sizes 1/8/32, over the real cubicle stack (SQL → VFSCORE → RAMFS),
/// where every page write and sync is a cross-cubicle call with a
/// simulated cost. One iteration commits 8 single-row transactions and
/// flushes; the recorded `sim_cycles` cover only that burst (the
/// bounded-state cleanup between iterations is excluded), exposing the
/// sync coalescing: group 8 pays one WAL sync where group 1 pays eight
/// and the rollback journal pays journal + db write-back per txn.
fn bench_sql_commit(results: &mut BenchResults) {
    use cubicle_ramfs::{mount_at, Ramfs};
    use cubicle_sqldb::storage::CubicleEnv;
    use cubicle_sqldb::{Database, JournalMode};
    use cubicle_ukbase::boot_base;
    use cubicle_vfs::{Vfs, VfsPort, VfsProxy};

    let variants: [(&str, JournalMode, u32); 4] = [
        ("sql_commit_rollback_journal", JournalMode::Rollback, 1),
        ("sql_commit_wal_group1", JournalMode::Wal, 1),
        ("sql_commit_wal_group8", JournalMode::Wal, 8),
        ("sql_commit_wal_group32", JournalMode::Wal, 32),
    ];
    for (name, mode, group) in variants {
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
                ComponentImage::new("SQL", CodeImage::plain(4096)).heap_pages(128),
                Box::new(Dummy),
            )
            .unwrap();
        sys.mark_boot_complete();
        let vfs = VfsProxy::resolve(&vfs_loaded).unwrap();
        let (app, ramfs_cid) = (app.cid, ramfs_loaded.cid);
        let mut db = sys.run_in_cubicle(app, |sys| {
            let port = VfsPort::new(sys, vfs, &[ramfs_cid]).unwrap();
            let mut db = Database::open_with_mode(
                sys,
                Box::new(CubicleEnv::new(port)),
                "/bench.db",
                64,
                mode,
            )
            .unwrap();
            db.execute(sys, "CREATE TABLE t(v INTEGER)").unwrap();
            db
        });
        db.set_group_commit(group);

        let burst = |sys: &mut System, db: &mut Database| {
            for _ in 0..8 {
                db.execute(sys, "BEGIN").unwrap();
                db.execute(sys, "INSERT INTO t VALUES (42)").unwrap();
                db.execute(sys, "COMMIT").unwrap();
            }
            db.flush(sys).unwrap();
        };
        // Keeps the data set and the WAL bounded across wall-clock
        // iterations (checkpoint is a no-op under the rollback journal).
        let cleanup = |sys: &mut System, db: &mut Database| {
            db.execute(sys, "DELETE FROM t").unwrap();
            db.flush(sys).unwrap();
            db.query(sys, "PRAGMA wal_checkpoint").unwrap();
        };

        let c0 = sys.now();
        sys.run_in_cubicle(app, |sys| burst(sys, &mut db));
        let cycles = sys.now() - c0;
        sys.run_in_cubicle(app, |sys| cleanup(sys, &mut db));
        bench_function(results, name, cycles, || {
            sys.run_in_cubicle(app, |sys| {
                burst(sys, &mut db);
                cleanup(sys, &mut db);
            });
        });
    }
}

/// One WAL checkpoint folding a fixed set of 64 committed pages back
/// into the db file, on the calibrated SQLite deployment cubench and
/// Figure 6 run (`build_sqlite`: RAMFS split out, the Unikraft boundary
/// tax on every SQLITE→VFSCORE call): eight staging vectors, each one
/// vectored read out of the log and one vectored write into the file.
/// The recorded `sim_cycles` cover the checkpoint only; the commit that
/// refills the log before each wall-clock iteration is excluded.
fn bench_sql_wal_checkpoint(results: &mut BenchResults) {
    use cubicle_bench::scenario::{build_sqlite, Partitioning, UNIKRAFT_BOUNDARY_TAX};
    use cubicle_sqldb::pager::{Pager, DB_PAGE};
    use cubicle_sqldb::storage::CubicleEnv;
    use cubicle_vfs::VfsPort;
    const PAGES: u32 = 64;

    let mut dep = build_sqlite(
        IsolationMode::Full,
        Partitioning::Split,
        UNIKRAFT_BOUNDARY_TAX,
    )
    .unwrap();
    let (app, vfs, ramfs) = (dep.app, dep.vfs, dep.ramfs_cid);
    let mut pager = dep.sys.run_in_cubicle(app, |sys| {
        let port = VfsPort::new(sys, vfs, &[ramfs]).unwrap();
        let mut pager = Pager::open(sys, Box::new(CubicleEnv::new(port)), "/ckpt.db", 256).unwrap();
        pager.begin(sys).unwrap();
        for _ in 0..PAGES {
            pager.allocate_page(sys).unwrap();
        }
        pager.commit(sys).unwrap();
        assert!(pager.checkpoint(sys).unwrap());
        pager
    });
    let refill = |sys: &mut System, pager: &mut Pager| {
        pager.begin(sys).unwrap();
        for pno in 1..=PAGES {
            pager.write_page(sys, pno, &[pno as u8; DB_PAGE]).unwrap();
        }
        pager.commit(sys).unwrap();
    };

    let sys = &mut dep.sys;
    sys.run_in_cubicle(app, |sys| refill(sys, &mut pager));
    let c0 = sys.now();
    sys.run_in_cubicle(app, |sys| assert!(pager.checkpoint(sys).unwrap()));
    let cycles = sys.now() - c0;
    bench_function(results, "sql_wal_checkpoint", cycles, || {
        sys.run_in_cubicle(app, |sys| {
            refill(sys, &mut pager);
            assert!(pager.checkpoint(sys).unwrap());
        });
    });
}

fn main() {
    let mut results = BenchResults::new();
    bench_cross_call(&mut results);
    bench_window_ops(&mut results);
    bench_memory_access(&mut results);
    bench_bulk(&mut results);
    bench_scattered(&mut results);
    bench_batching(&mut results);
    bench_grant_cache(&mut results);
    bench_fig7_large_file(&mut results);
    bench_speedtest_statement(&mut results);
    bench_sql_commit(&mut results);
    bench_sql_wal_checkpoint(&mut results);
    let path = BenchResults::default_path();
    results.save(&path).unwrap();
    println!("\nresults written to {}", path.display());
}
