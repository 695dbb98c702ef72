//! End-to-end file-system stack tests: APP → VFSCORE → RAMFS → (ALLOC),
//! the component graph of the paper's Figure 8, exercised through real
//! windows and trap-and-map.

use cubicle_core::{
    impl_component, ComponentImage, CubicleError, CubicleId, Errno, IsolationMode, System,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::{mount_at, Ramfs};
use cubicle_ukbase::{boot_base, BaseSystem};
use cubicle_vfs::{flags, whence, Vfs, VfsPort, VfsProxy};

struct App;
impl_component!(App);

struct Stack {
    sys: System,
    app: CubicleId,
    vfs: VfsProxy,
    backends: Vec<CubicleId>,
    #[allow(dead_code)]
    base: BaseSystem,
}

fn boot(mode: IsolationMode) -> Stack {
    let mut sys = System::new(mode);
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
            ComponentImage::new("APP", CodeImage::plain(4096)).heap_pages(64),
            Box::new(App),
        )
        .unwrap();
    sys.mark_boot_complete();
    Stack {
        sys,
        app: app.cid,
        vfs: VfsProxy::resolve(&vfs_loaded).unwrap(),
        backends: vec![ramfs_loaded.cid],
        base,
    }
}

fn with_port<T>(stack: &mut Stack, f: impl FnOnce(&mut System, &VfsPort) -> T) -> T {
    let (app, vfs, backends) = (stack.app, stack.vfs, stack.backends.clone());
    stack.sys.run_in_cubicle(app, move |sys| {
        let port = VfsPort::new(sys, vfs, &backends).unwrap();
        f(sys, &port)
    })
}

#[test]
fn create_write_read_round_trip() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/hello.txt", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        assert!(fd >= 0, "open failed: {fd}");
        assert_eq!(port.write_all(sys, fd, b"hello cubicles").unwrap(), 14);
        port.lseek(sys, fd, 0, whence::SEEK_SET).unwrap();
        assert_eq!(port.read_vec(sys, fd, 64).unwrap(), b"hello cubicles");
        assert_eq!(port.close(sys, fd), Ok(0));
    });
}

#[test]
fn round_trip_in_every_isolation_mode() {
    for mode in [
        IsolationMode::Unikraft,
        IsolationMode::NoMpk,
        IsolationMode::NoAcl,
        IsolationMode::Full,
    ] {
        let mut stack = boot(mode);
        let out = with_port(&mut stack, |sys, port| {
            let fd = port
                .open(sys, "/f", flags::O_CREAT | flags::O_RDWR)
                .unwrap();
            port.write_all(sys, fd, b"mode-independent semantics")
                .unwrap();
            port.read_back(sys, port, fd)
        });
        assert_eq!(out, b"mode-independent semantics", "{mode:?}");
    }
}

// helper extension used by the mode test
trait ReadBack {
    fn read_back(&self, sys: &mut System, port: &VfsPort, fd: i64) -> Vec<u8>;
}
impl ReadBack for VfsPort {
    fn read_back(&self, sys: &mut System, port: &VfsPort, fd: i64) -> Vec<u8> {
        let buf = sys.heap_alloc(64, 8).unwrap();
        let n = port
            .with_buffer_window(sys, buf, 64, |sys| port.proxy().pread(sys, fd, buf, 64, 0))
            .unwrap();
        sys.read_vec(buf, n as usize).unwrap()
    }
}

#[test]
fn large_file_spans_many_extents() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/big.bin", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        let pattern: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        // write in uneven chunks to exercise extent arithmetic
        let mut off = 0usize;
        for chunk in pattern.chunks(7_777) {
            let buf = sys.heap_alloc(chunk.len(), 8).unwrap();
            sys.write(buf, chunk).unwrap();
            let n = port
                .with_buffer_window(sys, buf, chunk.len(), |sys| {
                    port.proxy().pwrite(sys, fd, buf, chunk.len(), off as u64)
                })
                .unwrap();
            assert_eq!(n as usize, chunk.len());
            sys.heap_free(buf).unwrap();
            off += chunk.len();
        }
        // read back across extent boundaries
        let buf = sys.heap_alloc(100_000, 8).unwrap();
        let n = port
            .with_buffer_window(sys, buf, 100_000, |sys| {
                port.proxy().pread(sys, fd, buf, 100_000, 0)
            })
            .unwrap();
        assert_eq!(n, 100_000);
        assert_eq!(sys.read_vec(buf, 100_000).unwrap(), pattern);
        let stat = port.fstat(sys, fd).unwrap().unwrap();
        assert_eq!(stat.size, 100_000);
        assert!(!stat.is_dir);
    });
}

#[test]
fn directories_and_listing() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        assert_eq!(port.mkdir(sys, "/www").unwrap(), 1); // inode number
        for name in ["a.html", "b.html", "c.html"] {
            let fd = port
                .open(sys, &format!("/www/{name}"), flags::O_CREAT | flags::O_RDWR)
                .unwrap();
            port.write_all(sys, fd, name.as_bytes()).unwrap();
            port.close(sys, fd).unwrap();
        }
        let dirfd = port.open(sys, "/www", 0).unwrap();
        let mut names = Vec::new();
        for i in 0.. {
            match port.readdir(sys, dirfd, i).unwrap() {
                Ok(name) => names.push(name),
                Err(e) => {
                    assert_eq!(e, Errno::Enoent.neg());
                    break;
                }
            }
        }
        names.sort();
        assert_eq!(names, vec!["a.html", "b.html", "c.html"]);
        let stat = port.stat(sys, "/www").unwrap().unwrap();
        assert!(stat.is_dir);
    });
}

#[test]
fn unlink_frees_and_refuses_nonempty_dirs() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        port.mkdir(sys, "/d").unwrap();
        let fd = port
            .open(sys, "/d/file", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        port.write_all(sys, fd, b"x").unwrap();
        port.close(sys, fd).unwrap();

        assert_eq!(port.unlink(sys, "/d").unwrap(), Errno::Enotempty.neg());
        assert_eq!(port.unlink(sys, "/d/file").unwrap(), 0);
        assert_eq!(port.unlink(sys, "/d").unwrap(), 0);
        assert_eq!(port.open(sys, "/d/file", 0).unwrap(), Errno::Enoent.neg());
    });
}

#[test]
fn truncate_shrinks_and_grows_zeroed() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/t", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        port.write_all(sys, fd, &[0xFFu8; 5000]).unwrap();
        port.ftruncate(sys, fd, 100).unwrap();
        assert_eq!(port.fstat(sys, fd).unwrap().unwrap().size, 100);
        port.ftruncate(sys, fd, 9000).unwrap();
        // bytes beyond the old extent must read back zeroed (the pool
        // zeroes recycled pages)
        let buf = sys.heap_alloc(9000, 8).unwrap();
        let n = port
            .with_buffer_window(sys, buf, 9000, |sys| {
                port.proxy().pread(sys, fd, buf, 9000, 0)
            })
            .unwrap();
        assert_eq!(n, 9000);
        let data = sys.read_vec(buf, 9000).unwrap();
        assert!(data[..100].iter().all(|&b| b == 0xFF));
        assert!(
            data[4096..].iter().all(|&b| b == 0),
            "grown region must be zeroed"
        );
    });
}

#[test]
fn append_mode_appends() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(
                sys,
                "/log",
                flags::O_CREAT | flags::O_WRONLY | flags::O_APPEND,
            )
            .unwrap();
        port.write_all(sys, fd, b"one.").unwrap();
        port.write_all(sys, fd, b"two.").unwrap();
        port.close(sys, fd).unwrap();
        let fd = port.open(sys, "/log", 0).unwrap();
        assert_eq!(port.read_vec(sys, fd, 64).unwrap(), b"one.two.");
    });
}

#[test]
fn open_errors() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        assert_eq!(port.open(sys, "/missing", 0).unwrap(), Errno::Enoent.neg());
        port.mkdir(sys, "/dir").unwrap();
        // creating over an existing dir fails
        assert_eq!(port.mkdir(sys, "/dir").unwrap(), Errno::Eexist.neg());
        // writing to a dir ino is EISDIR
        let dirfd = port.open(sys, "/dir", 0).unwrap();
        assert!(dirfd >= 0);
        let buf = sys.heap_alloc(8, 8).unwrap();
        let r = port.write(sys, dirfd, buf, 8).unwrap();
        assert_eq!(r, Errno::Eisdir.neg());
        // bad fd
        assert_eq!(port.close(sys, 999).unwrap(), Errno::Ebadf.neg());
        assert_eq!(port.fsync(sys, 999).unwrap(), Errno::Ebadf.neg());
    });
}

#[test]
fn data_path_faults_only_under_mpk() {
    let mut full = boot(IsolationMode::Full);
    with_port(&mut full, |sys, port| {
        let fd = port
            .open(sys, "/x", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        port.write_all(sys, fd, &[7u8; 4096]).unwrap();
    });
    assert!(
        full.sys.stats().faults_resolved > 0,
        "Full mode resolves window faults"
    );

    let mut base = boot(IsolationMode::NoMpk);
    with_port(&mut base, |sys, port| {
        let fd = port
            .open(sys, "/x", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        port.write_all(sys, fd, &[7u8; 4096]).unwrap();
    });
    assert_eq!(base.sys.machine_stats().faults, 0, "NoMpk never faults");
}

#[test]
fn figure8_style_call_edges_exist() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/wl", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        for i in 0..50u64 {
            let data = i.to_le_bytes();
            port.write_all(sys, fd, &data).unwrap();
        }
        port.fsync(sys, fd).unwrap();
        port.close(sys, fd).unwrap();
    });
    let sys = &stack.sys;
    let app = stack.app;
    let vfs = sys.find_cubicle("VFSCORE").unwrap();
    let ramfs = sys.find_cubicle("RAMFS").unwrap();
    let alloc = sys.find_cubicle("ALLOC").unwrap();
    let (_, stats) = sys.since_boot();
    assert!(stats.edge(app, vfs) > 50, "APP → VFSCORE is the hot edge");
    assert!(
        stats.edge(vfs, ramfs) > 50,
        "VFSCORE → RAMFS is the hot edge"
    );
    assert!(
        stats.edge(ramfs, alloc) >= 1,
        "RAMFS → ALLOC coarse allocations"
    );
    assert!(
        stats.edge(ramfs, alloc) < stats.edge(vfs, ramfs) / 10,
        "ALLOC edge is sparse (Fig. 8)"
    );
    assert_eq!(stats.edge(app, ramfs), 0, "APP never calls RAMFS directly");
}

#[test]
fn isolation_holds_across_the_stack() {
    // The application cannot touch RAMFS extents directly even though
    // RAMFS copied its data from the app's buffers moments ago.
    let mut stack = boot(IsolationMode::Full);
    let ramfs_cid = stack.sys.find_cubicle("RAMFS").unwrap();
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/sec", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        port.write_all(sys, fd, b"in ramfs now").unwrap();
        port.close(sys, fd).unwrap();
    });
    // Find a RAMFS-owned heap page and try to read it from the app.
    let mut target = None;
    for page in 16..4096u64 {
        let addr = cubicle_mpk::VAddr::new(page * 4096);
        if stack.sys.page_owner(addr) == Some(ramfs_cid) {
            target = Some(addr);
        }
    }
    let target = target.expect("ramfs owns pages");
    let app = stack.app;
    let denied = stack.sys.run_in_cubicle(app, |sys| sys.read_vec(target, 8));
    assert!(denied.is_err(), "app must not read RAMFS pages");
}

#[test]
fn refused_vectored_call_leaves_no_window_or_iov_behind() {
    // A segment in a page the app does not own makes `window_add` fail
    // half-way through publishing the vector; the port must still
    // destroy the window and free the iov staging it allocated.
    let mut stack = boot(IsolationMode::Full);
    let ramfs_cid = stack.backends[0];
    let foreign = stack.sys.heap_alloc_for(ramfs_cid, 4096, 4096).unwrap();
    let app = stack.app;
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/vec", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        let before = (
            sys.cubicle(app).window_count(),
            sys.cubicle(app).heap.in_use(),
        );
        let err = port.pwrite_vec(sys, fd, &[(foreign, 4096, 0)]).unwrap_err();
        assert!(matches!(err, CubicleError::NotOwner { .. }), "got {err:?}");
        let after = (
            sys.cubicle(app).window_count(),
            sys.cubicle(app).heap.in_use(),
        );
        assert_eq!(
            after, before,
            "(windows, heap bytes) after a refused vector"
        );
        port.close(sys, fd).unwrap();
    });
}
