//! Mapped database reads (DESIGN §6s): on the keyed port the database
//! file holds a read-only map of its pages in `RAMFS`, and a page read
//! below the mapped length is one checked load with no crossing. These
//! tests pin what must never go wrong with it: a revoked map serves no
//! byte, the reader cannot store through it, a file whose map is refused
//! for want of a key reads through `pread`, and closing a database gives
//! back what it held.

use cubicle_core::{
    impl_component, ComponentImage, CubicleError, CubicleId, IsolationMode, System, SystemConfig,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::PAGE_SIZE;
use cubicle_ramfs::{boot_fs, FsStack};
use cubicle_sqldb::storage::{CubicleEnv, StorageEnv, StorageFile};
use cubicle_sqldb::{Database, SqlError, SqlValue};
use cubicle_ukbase::boot_base;
use cubicle_vfs::{flags, Vfs, VfsPort};

struct App;
impl_component!(App);

struct Stack {
    sys: System,
    app: CubicleId,
    fs: FsStack,
    port: VfsPort,
}

/// Boots SQLITE → VFSCORE → RAMFS (+ ALLOC) with `journal` pages of
/// RAMFS redo journal, and the app's one file port.
fn boot(config: SystemConfig, journal: Option<usize>) -> Stack {
    let mut sys = System::new(config);
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, journal).unwrap();
    let app = sys
        .load(
            ComponentImage::new("SQLITE", CodeImage::plain(4096)).heap_pages(256),
            Box::new(App),
        )
        .unwrap()
        .cid;
    sys.mark_boot_complete();
    let port = sys.run_in_cubicle(app, |sys| fs.port(sys).unwrap());
    Stack { sys, app, fs, port }
}

fn full() -> SystemConfig {
    IsolationMode::Full.into()
}

impl Stack {
    fn in_app<T>(&mut self, f: impl FnOnce(&mut System, &mut CubicleEnv) -> T) -> T {
        let mut env = CubicleEnv::new(self.port.clone());
        self.sys.run_in_cubicle(self.app, |sys| f(sys, &mut env))
    }

    fn open_fds(&mut self) -> usize {
        self.sys
            .with_component_mut::<Vfs, _>(self.fs.vfs_slot, |vfs, _| vfs.open_fds())
            .unwrap()
    }
}

/// A page of `fill` bytes.
fn page(fill: u8) -> Vec<u8> {
    vec![fill; PAGE_SIZE]
}

/// Writes pages `fills` from the file's first, one page per call.
fn put_pages(sys: &mut System, file: &mut dyn StorageFile, fills: &[u8]) {
    for (i, &fill) in fills.iter().enumerate() {
        file.pwrite(sys, (i * PAGE_SIZE) as u64, &page(fill))
            .unwrap();
    }
}

/// Reads page `i` and the crossings it took.
fn read_page(sys: &mut System, file: &mut dyn StorageFile, i: usize) -> (Vec<u8>, u64) {
    let mut buf = page(0);
    let before = sys.stats().cross_calls;
    let n = file.pread(sys, (i * PAGE_SIZE) as u64, &mut buf).unwrap();
    assert_eq!(n, PAGE_SIZE, "page {i}: short read");
    (buf, sys.stats().cross_calls - before)
}

#[test]
fn a_mapped_page_read_is_a_load_under_the_read_only_key() {
    let mut st = boot(full(), None);
    let ramfs = st.fs.ramfs_cid;
    st.in_app(|sys, env| {
        let mut f = env.open(sys, "/m.db").unwrap();
        put_pages(sys, f.as_mut(), &[1, 2, 3]);
        f.map_reads(sys);
        let faults = sys.stats().faults_resolved;
        for i in 0..3 {
            let (bytes, crossings) = read_page(sys, f.as_mut(), i);
            assert_eq!(bytes, page(i as u8 + 1));
            assert_eq!(crossings, 0, "page {i} crossed");
        }
        assert_eq!(sys.stats().faults_resolved, faults, "mapped loads trap");
        // A read the map cannot serve whole crosses to RAMFS.
        let mut half = vec![0u8; 100];
        let before = sys.stats().cross_calls;
        f.pread(sys, 10, &mut half).unwrap();
        assert_eq!(half, vec![1u8; 100]);
        assert!(sys.stats().cross_calls > before);
        f.close(sys).unwrap();
    });
    assert_eq!(
        st.sys.read_only_key(ramfs, st.app),
        None,
        "closing the file ends the map and its key"
    );
    st.sys.audit().assert_clean("mapped reads");
}

#[test]
fn a_map_grows_past_one_listing_of_pages() {
    // 1 300 pages: more than the 1 024 a sendfile extent buffer holds, and
    // more than one staging area of page addresses.
    const PAGES: usize = 1300;
    let mut st = boot(full(), None);
    st.in_app(|sys, env| {
        let mut f = env.open(sys, "/big.db").unwrap();
        let fills: Vec<u8> = (0..PAGES).map(|i| (i % 251) as u8).collect();
        for (chunk, fills) in fills.chunks(8).enumerate() {
            let bytes: Vec<u8> = fills.iter().flat_map(|&b| page(b)).collect();
            let off = (chunk * 8 * PAGE_SIZE) as u64;
            f.pwrite(sys, off, &bytes).unwrap();
        }
        f.map_reads(sys);
        for i in [0, 1023, 1024, PAGES - 1] {
            let (bytes, crossings) = read_page(sys, f.as_mut(), i);
            assert_eq!(bytes, page(fills[i]), "page {i}");
            assert_eq!(crossings, 0, "page {i} crossed");
        }
        // Growth lists the new page at the next map_reads, once.
        f.pwrite(sys, (PAGES * PAGE_SIZE) as u64, &page(7)).unwrap();
        assert!(read_page(sys, f.as_mut(), PAGES).1 > 0, "past the map");
        f.map_reads(sys);
        assert_eq!(read_page(sys, f.as_mut(), PAGES), (page(7), 0));
        let before = sys.stats().cross_calls;
        f.map_reads(sys);
        assert_eq!(sys.stats().cross_calls, before, "no growth, no listing");
        f.close(sys).unwrap();
    });
    st.sys.audit().assert_clean("a large map");
}

#[test]
fn a_same_size_truncate_keeps_the_map_and_a_shrink_revokes_it() {
    let mut st = boot(full(), None);
    st.in_app(|sys, env| {
        let mut f = env.open(sys, "/t.db").unwrap();
        put_pages(sys, f.as_mut(), &[1, 2, 3, 4]);
        f.map_reads(sys);
        f.truncate(sys, 4 * PAGE_SIZE as u64).unwrap();
        assert_eq!(read_page(sys, f.as_mut(), 3), (page(4), 0), "same size");
        f.truncate(sys, 2 * PAGE_SIZE as u64).unwrap();
        let (bytes, crossings) = read_page(sys, f.as_mut(), 1);
        assert_eq!(bytes, page(2));
        assert!(crossings > 0, "a shrink revokes the map");
        // The map is dropped until the next map_reads lists it again.
        assert!(read_page(sys, f.as_mut(), 0).1 > 0);
        f.map_reads(sys);
        assert_eq!(read_page(sys, f.as_mut(), 0), (page(1), 0));
        f.close(sys).unwrap();
    });
    st.sys.audit().assert_clean("truncates");
}

#[test]
fn a_handle_never_reads_pages_another_handle_replaced() {
    let mut st = boot(full(), None);
    st.in_app(|sys, env| {
        let mut a = env.open(sys, "/two.db").unwrap();
        let mut b = env.open(sys, "/two.db").unwrap();
        put_pages(sys, a.as_mut(), &[10, 11, 12, 13, 14, 15, 16, 17]);
        a.map_reads(sys);
        assert_eq!(read_page(sys, a.as_mut(), 5), (page(15), 0));
        // B shrinks the file and regrows it: RAMFS recycles the dropped
        // extents, in another order, and B maps the new ones.
        b.truncate(sys, 2 * PAGE_SIZE as u64).unwrap();
        for i in 2..8 {
            b.pwrite(sys, (i * PAGE_SIZE) as u64, &page(100 + i as u8))
                .unwrap();
        }
        b.map_reads(sys);
        assert_eq!(read_page(sys, b.as_mut(), 7), (page(107), 0));
        for i in 0..8 {
            let want = if i < 2 { 10 + i as u8 } else { 100 + i as u8 };
            assert_eq!(read_page(sys, a.as_mut(), i).0, page(want), "A, page {i}");
        }
        a.close(sys).unwrap();
        b.close(sys).unwrap();
    });
    st.sys.audit().assert_clean("two handles");
}

#[test]
fn a_microrebooted_ramfs_is_read_through_pread() {
    let config = SystemConfig {
        fault_containment: true,
        ..full()
    };
    let mut st = boot(config, Some(64));
    let ramfs = st.fs.ramfs_cid;
    let mut f = st.in_app(|sys, env| {
        let mut f = env.open(sys, "/j.db").unwrap();
        put_pages(sys, f.as_mut(), &[1, 2, 3]);
        f.map_reads(sys);
        assert_eq!(read_page(sys, f.as_mut(), 2), (page(3), 0));
        f
    });
    st.sys.quarantine(ramfs, "test: crash RAMFS").unwrap();
    st.sys.restart(ramfs).unwrap();
    let app = st.app;
    st.sys.run_in_cubicle(app, |sys| {
        for i in 0..3 {
            let mut buf = page(0);
            let before = sys.stats().cross_calls;
            match f.pread(sys, (i * PAGE_SIZE) as u64, &mut buf) {
                Ok(n) => {
                    assert_eq!((n, &buf), (PAGE_SIZE, &page(i as u8 + 1)), "page {i}");
                    assert!(sys.stats().cross_calls > before, "page {i} was mapped");
                }
                Err(SqlError::Io(_)) => {}
                Err(e) => panic!("page {i}: untyped failure {e}"),
            }
        }
        f.close(sys).unwrap();
    });
    st.sys.audit().assert_clean("after the microreboot");
}

#[test]
fn a_store_into_a_mapped_page_is_denied() {
    let mut st = boot(full(), None);
    let (ramfs, port) = (st.fs.ramfs_cid, st.port.clone());
    let app = st.app;
    let (fd, target) = st.sys.run_in_cubicle(app, |sys| {
        let fd = port
            .open(sys, "/ro.db", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        let buf = sys.heap_alloc(2 * PAGE_SIZE, PAGE_SIZE).unwrap();
        sys.write(buf, &[page(5), page(6)].concat()).unwrap();
        let n = port.pwrite(sys, fd, buf, 2 * PAGE_SIZE, 0).unwrap();
        assert_eq!(n, 2 * PAGE_SIZE as i64);
        let list = port
            .map_pages(sys, fd, (buf, 2 * PAGE_SIZE), 0, false)
            .unwrap()
            .unwrap();
        assert_eq!(list.pages.len(), 2);
        (fd, list.pages[1])
    });
    let key = st.sys.read_only_key(ramfs, app).expect("a keyed map");
    assert_eq!(st.sys.machine().page_entry(target).unwrap().key, key);
    let denied = st.sys.run_in_cubicle(app, |sys| {
        assert_eq!(sys.read_vec(target, 4).unwrap(), vec![6; 4], "loads pass");
        sys.write(target, b"evil")
    });
    assert!(
        matches!(denied, Err(CubicleError::WindowDenied { .. })),
        "{denied:?}"
    );
    assert_eq!(st.sys.machine().page_entry(target).unwrap().key, key);
    let bytes = st
        .sys
        .run_in_cubicle(ramfs, |sys| sys.read_vec(target, PAGE_SIZE));
    assert_eq!(bytes.unwrap(), page(6), "RAMFS's bytes");
    st.sys.audit().assert_clean("a denied store");
    st.sys.run_in_cubicle(app, |sys| {
        assert_eq!(port.unmap_pages(sys, fd).unwrap(), 0);
        assert_eq!(port.close(sys, fd).unwrap(), 0);
    });
}

#[test]
fn a_reader_restarted_after_quarantine_maps_afresh_under_its_key() {
    let mut st = boot(full(), None);
    let (ramfs, app) = (st.fs.ramfs_cid, st.app);
    st.in_app(|sys, env| {
        let mut f = env.open(sys, "/r.db").unwrap();
        put_pages(sys, f.as_mut(), &[5, 6]);
        f.map_reads(sys);
        assert_eq!(read_page(sys, f.as_mut(), 1), (page(6), 0));
        // the handle dies with the reader, never closed
    });
    st.sys.quarantine(app, "test: crash the reader").unwrap();
    st.sys.restart(app).unwrap();
    assert_eq!(st.sys.read_only_key(ramfs, app), None);
    let fs = &st.fs;
    let port = st.sys.run_in_cubicle(app, |sys| fs.port(sys).unwrap());
    let (fd, target) = st.sys.run_in_cubicle(app, |sys| {
        let fd = port.open(sys, "/r.db", flags::O_RDWR).unwrap();
        let buf = sys.heap_alloc(2 * PAGE_SIZE, PAGE_SIZE).unwrap();
        let list = port
            .map_pages(sys, fd, (buf, 2 * PAGE_SIZE), 0, false)
            .unwrap()
            .unwrap();
        assert_eq!(list.pages.len(), 2);
        (fd, list.pages[1])
    });
    // RAMFS ended the map of the reader's last life and built a new one
    let key = st.sys.read_only_key(ramfs, app).expect("a keyed map");
    assert_eq!(st.sys.machine().page_entry(target).unwrap().key, key);
    let denied = st.sys.run_in_cubicle(app, |sys| {
        assert_eq!(sys.read_vec(target, 4).unwrap(), vec![6; 4], "loads pass");
        sys.write(target, b"evil")
    });
    assert!(
        matches!(denied, Err(CubicleError::WindowDenied { .. })),
        "{denied:?}"
    );
    let bytes = st
        .sys
        .run_in_cubicle(ramfs, |sys| sys.read_vec(target, PAGE_SIZE));
    assert_eq!(bytes.unwrap(), page(6), "RAMFS's bytes");
    st.sys.audit().assert_clean("a restarted reader's map");
    st.sys.run_in_cubicle(app, |sys| {
        assert_eq!(port.unmap_pages(sys, fd).unwrap(), 0);
        assert_eq!(port.close(sys, fd).unwrap(), 0);
    });
    assert_eq!(st.sys.read_only_key(ramfs, app), None);
}

/// RAMFS pages carrying the app's key: a page handed over to it.
fn ramfs_pages_under(sys: &System, app: CubicleId, ramfs: CubicleId) -> usize {
    let key = sys.cubicle(app).key;
    let pages = sys.machine().pages_with_key(key);
    pages
        .iter()
        .filter(|p| sys.page_owner(p.base()) == Some(ramfs))
        .count()
}

#[test]
fn with_no_free_key_the_file_reads_through_pread() {
    let mut st = boot(full(), None);
    let ramfs = st.fs.ramfs_cid;
    let mut i = 0;
    while st.sys.free_keys() > 0 {
        let image = ComponentImage::new(format!("FILLER{i}"), CodeImage::plain(64));
        st.sys.load(image, Box::new(App)).unwrap();
        i += 1;
    }
    let app = st.app;
    st.in_app(|sys, env| {
        let mut f = env.open(sys, "/plain.db").unwrap();
        put_pages(sys, f.as_mut(), &[1, 2, 3]);
        // RAMFS refuses the map (-ENOSPC): the file keeps `pread`.
        f.map_reads(sys);
        for round in 0..2 {
            for i in 0..3 {
                let (bytes, crossings) = read_page(sys, f.as_mut(), i);
                assert_eq!(bytes, page(i as u8 + 1), "round {round}, page {i}");
                assert!(crossings > 0, "round {round}, page {i} was mapped");
                assert_eq!(ramfs_pages_under(sys, app, ramfs), 0, "page {i}");
            }
            // A later listing (after a checkpoint) is refused alike.
            f.map_reads(sys);
        }
        f.pwrite(sys, PAGE_SIZE as u64, &page(9)).unwrap();
        assert_eq!(read_page(sys, f.as_mut(), 1).0, page(9));
        f.close(sys).unwrap();
    });
    assert_eq!(st.sys.read_only_key(ramfs, app), None);
    assert_eq!(st.sys.free_keys(), 0, "no key drawn");
    assert_eq!(ramfs_pages_under(&st.sys, app, ramfs), 0);
    st.sys.audit().assert_clean("a refused map");
}

#[test]
fn closing_a_database_gives_back_its_descriptors_and_keys() {
    let mut st = boot(full(), None);
    let (fds, keys) = (st.open_fds(), st.sys.free_keys());
    for i in 0..20 {
        st.in_app(|sys, env| {
            let mut db = Database::open(sys, Box::new(env.clone()), "/leak.db").unwrap();
            if i == 0 {
                db.execute(sys, "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)")
                    .unwrap();
            }
            db.execute(sys, &format!("INSERT INTO t VALUES ({i}, 'row {i}')"))
                .unwrap();
            db.close(sys).unwrap();
        });
        assert_eq!(st.open_fds(), fds, "cycle {i}: descriptors");
        assert_eq!(st.sys.free_keys(), keys, "cycle {i}: pool keys");
    }
    let rows = st.in_app(|sys, env| {
        let mut db = Database::open(sys, Box::new(env.clone()), "/leak.db").unwrap();
        let rows = db.query(sys, "SELECT count(*) FROM t").unwrap();
        db.close(sys).unwrap();
        rows
    });
    assert_eq!(rows, vec![vec![SqlValue::Integer(20)]]);
    st.sys.audit().assert_clean("20 open/close cycles");
}

#[test]
fn the_per_call_port_never_maps() {
    let config = SystemConfig {
        pair_keys: false,
        ..full()
    };
    let mut st = boot(config, None);
    st.in_app(|sys, env| {
        let mut f = env.open(sys, "/pc.db").unwrap();
        put_pages(sys, f.as_mut(), &[1, 2]);
        f.map_reads(sys);
        let (bytes, crossings) = read_page(sys, f.as_mut(), 1);
        assert_eq!(bytes, page(2));
        assert!(crossings > 0, "the figures' port reads through pread");
        f.close(sys).unwrap();
    });
}

#[test]
fn the_unikraft_port_maps_too() {
    let mut st = boot(IsolationMode::Unikraft.into(), None);
    st.in_app(|sys, env| {
        let mut f = env.open(sys, "/u.db").unwrap();
        put_pages(sys, f.as_mut(), &[1, 2]);
        f.map_reads(sys);
        assert_eq!(read_page(sys, f.as_mut(), 1), (page(2), 0));
        f.close(sys).unwrap();
    });
}
