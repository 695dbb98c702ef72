//! End-to-end file-system stack tests: APP → VFSCORE → RAMFS → (ALLOC),
//! the component graph of the paper's Figure 8, exercised through real
//! windows and trap-and-map.

use cubicle_core::{
    impl_component, ComponentImage, CubicleError, CubicleId, Errno, IsolationMode, System,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::{boot_fs, FsStack};
use cubicle_ukbase::boot_base;
use cubicle_vfs::{flags, whence, VfsPort};

struct App;
impl_component!(App);

struct Stack {
    sys: System,
    app: CubicleId,
    fs: FsStack,
}

fn boot(mode: IsolationMode) -> Stack {
    let mut sys = System::new(mode);
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, None).unwrap();
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
        fs,
    }
}

fn with_port<T>(stack: &mut Stack, f: impl FnOnce(&mut System, &VfsPort) -> T) -> T {
    let fs = stack.fs;
    stack.sys.run_in_cubicle(stack.app, move |sys| {
        let port = fs.port(sys).unwrap();
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
fn growing_past_a_shrunk_end_reads_zeros() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/g", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        let read_at = |sys: &mut System, off: i64, n: usize| {
            port.lseek(sys, fd, off, whence::SEEK_SET).unwrap();
            port.read_vec(sys, fd, n).unwrap()
        };
        port.write_all(sys, fd, &[b'a'; 100]).unwrap();
        port.ftruncate(sys, fd, 50).unwrap();
        port.ftruncate(sys, fd, 100).unwrap();
        assert_eq!(read_at(sys, 50, 10), [0; 10], "a growing truncate");
        // A write that starts past the end of file leaves a gap of zeros.
        port.ftruncate(sys, fd, 50).unwrap();
        port.lseek(sys, fd, 200, whence::SEEK_SET).unwrap();
        port.write_all(sys, fd, &[b'b'; 10]).unwrap();
        let bytes = read_at(sys, 0, 210);
        assert_eq!(bytes[..50], [b'a'; 50]);
        assert_eq!(bytes[50..200], [0; 150], "a write past the end");
        assert_eq!(bytes[200..], [b'b'; 10]);
        assert_eq!(port.close(sys, fd), Ok(0));
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
    let ramfs_cid = stack.fs.ramfs_cid;
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
        let err = port
            .pwrite_vec(sys, fd, &[(foreign, 4096, 0)], 0)
            .unwrap_err();
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

#[test]
fn failed_port_calls_free_their_scratch_heap() {
    let mut stack = boot(IsolationMode::Full);
    let (app, vfs) = (stack.app, stack.fs.vfs_cid);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/f", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        port.write_all(sys, fd, b"bytes").unwrap();
        sys.quarantine(vfs, "test: VFSCORE gone").unwrap();
        let heap_used = |sys: &System| {
            let row = sys.ledger().into_iter().find(|r| r.cubicle == app);
            row.expect("APP has a ledger row").heap_used
        };
        let before = heap_used(sys);
        assert!(port.stat(sys, "/f").is_err());
        assert_eq!(heap_used(sys), before, "stat");
        assert!(port.fstat(sys, fd).is_err());
        assert_eq!(heap_used(sys), before, "fstat");
        assert!(port.read_vec(sys, fd, 100).is_err());
        assert_eq!(heap_used(sys), before, "read_vec");
        assert!(port.readdir(sys, fd, 0).is_err());
        assert_eq!(heap_used(sys), before, "readdir");
        assert!(port.sendfile_map(sys, fd, app).is_err());
        assert_eq!(heap_used(sys), before, "sendfile_map");
        assert!(port.write_all(sys, fd, b"more").is_err());
        assert_eq!(heap_used(sys), before, "write_all");
    });
}

#[test]
fn overlong_paths_are_einval() {
    let mut stack = boot(IsolationMode::Full);
    with_port(&mut stack, |sys, port| {
        let long = format!("/{}", "p".repeat(4_096));
        let einval = Errno::Einval.neg();
        assert_eq!(port.open(sys, &long, flags::O_CREAT).unwrap(), einval);
        assert_eq!(port.mkdir(sys, &long).unwrap(), einval);
        assert_eq!(port.unlink(sys, &long).unwrap(), einval);
        assert_eq!(port.stat(sys, &long).unwrap(), Err(einval));
    });
}

/// `RWF_DSYNC` is `vfs_pwrite_vec`'s only flag. The fused write on a bad
/// fd is `-EBADF` like any write; an unknown bit is `-EINVAL` before a
/// byte moves; and the sync rides the write's one VFSCORE→RAMFS batch.
#[test]
fn pwrite_vec_flags_refuse_a_bad_fd_and_unknown_bits() {
    let mut stack = boot(IsolationMode::Full);
    let (ramfs, vfs) = (stack.fs.ramfs_cid, stack.fs.vfs_cid);
    with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/dsync", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        let buf = sys.heap_alloc(128, 8).unwrap();
        sys.write(buf, &[1u8; 128]).unwrap();
        let segs = [(buf, 64, 0), (buf + 64, 64, 64)];
        assert_eq!(port.pwrite_vec(sys, fd, &segs, 0).unwrap(), 128);
        sys.write(buf, &[2u8; 128]).unwrap();

        let dsync = flags::RWF_DSYNC;
        assert_eq!(
            port.pwrite_vec(sys, 999, &segs, dsync).unwrap(),
            Errno::Ebadf.neg()
        );
        for bad in [1, 4, dsync | 0x10, i64::MIN] {
            assert_eq!(
                port.pwrite_vec(sys, fd, &segs, bad).unwrap(),
                Errno::Einval.neg(),
                "flags {bad:#x}"
            );
        }
        port.lseek(sys, fd, 0, whence::SEEK_SET).unwrap();
        assert_eq!(
            port.read_vec(sys, fd, 256).unwrap(),
            [1u8; 128],
            "file unchanged"
        );

        let edge = |sys: &System| sys.since_boot().1.edge(vfs, ramfs);
        let before = edge(sys);
        assert_eq!(port.pwrite_vec(sys, fd, &segs, dsync).unwrap(), 128);
        assert_eq!(edge(sys) - before, 1, "one batched dispatch, no ramfs_sync");
        port.lseek(sys, fd, 0, whence::SEEK_SET).unwrap();
        assert_eq!(port.read_vec(sys, fd, 256).unwrap(), [2u8; 128]);

        // The flag adds only the sync's own work: half a VFSCORE op and
        // half a RAMFS op, as `vfs_fsync` → `ramfs_sync` charged.
        let cycles = |sys: &mut System, flags| {
            let t0 = sys.now();
            assert_eq!(port.pwrite_vec(sys, fd, &segs, flags).unwrap(), 128);
            sys.now() - t0
        };
        cycles(sys, 0);
        let plain = cycles(sys, 0);
        assert_eq!(cycles(sys, dsync) - plain, 60 + 40);
    });
}

#[test]
fn a_descriptor_belongs_to_the_cubicle_that_opened_it() {
    let mut stack = boot(IsolationMode::Full);
    let evil = stack
        .sys
        .load(
            ComponentImage::new("EVIL", CodeImage::plain(4096)).heap_pages(8),
            Box::new(App),
        )
        .unwrap()
        .cid;
    let fd = with_port(&mut stack, |sys, port| {
        let fd = port
            .open(sys, "/owner.txt", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        port.write_all(sys, fd, b"owner bytes").unwrap();
        fd
    });
    let fs = stack.fs;
    let ebadf = Errno::Ebadf.neg();
    stack.sys.run_in_cubicle(evil, |sys| {
        let port = fs.port(sys).unwrap();
        let buf = sys.heap_alloc(16, 8).unwrap();
        sys.write(buf, b"evil bytes!").unwrap();
        assert_eq!(port.lseek(sys, fd, 0, whence::SEEK_SET).unwrap(), ebadf);
        assert_eq!(port.read(sys, fd, buf, 16).unwrap(), ebadf);
        assert_eq!(port.write(sys, fd, buf, 11).unwrap(), ebadf);
        assert_eq!(port.pwrite(sys, fd, buf, 11, 0).unwrap(), ebadf);
        // A copy between the owner's file and one of its own needs both.
        let own = port
            .open(sys, "/evil.txt", flags::O_CREAT | flags::O_RDWR)
            .unwrap();
        assert_eq!(port.copy_range(sys, fd, own, &[(0, 11, 0)]).unwrap(), ebadf);
        assert_eq!(port.copy_range(sys, own, fd, &[(0, 11, 0)]).unwrap(), ebadf);
        assert_eq!(port.close(sys, fd).unwrap(), ebadf);
        assert_eq!(port.close(sys, own).unwrap(), 0);
    });
    let back = with_port(&mut stack, |sys, port| {
        assert_eq!(port.lseek(sys, fd, 0, whence::SEEK_CUR).unwrap(), 11);
        port.lseek(sys, fd, 0, whence::SEEK_SET).unwrap();
        port.read_vec(sys, fd, 64).unwrap()
    });
    assert_eq!(back, b"owner bytes");
    assert!(stack.sys.audit().is_clean(), "{}", stack.sys.audit());
}
