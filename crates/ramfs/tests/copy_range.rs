//! The `vfs_copy_range` / `ramfs_copy_range` contract, end to end through
//! APP → VFSCORE → RAMFS: argument errors, short counts, growth and
//! overlap, sendfile revocation, and redo across a RAMFS microreboot.

use cubicle_core::{
    impl_component, ComponentImage, CubicleId, Errno, IsolationMode, System, SystemConfig,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;
use cubicle_ramfs::{boot_fs, FsStack};
use cubicle_ukbase::boot_base;
use cubicle_vfs::{flags, VfsPort, IOV_ENTRY_SIZE, IOV_MAX};

struct App;
impl_component!(App);

struct Stack {
    sys: System,
    app: CubicleId,
    peer: CubicleId,
    fs: FsStack,
}

/// RAMFS mounted at `/` and again at `/mnt`, plus a peer cubicle for
/// sendfile mappings; `Some(pages)` gives RAMFS a redo journal kept by
/// `VFSCORE`.
fn boot(journal_pages: Option<usize>) -> Stack {
    let mut sys = System::new(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    });
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, journal_pages).unwrap();
    fs.mount(&mut sys, "/mnt");
    let app = sys
        .load(
            ComponentImage::new("APP", CodeImage::plain(4096)).heap_pages(64),
            Box::new(App),
        )
        .unwrap();
    let peer = sys
        .load(
            ComponentImage::new("PEER", CodeImage::plain(4096)).heap_pages(4),
            Box::new(App),
        )
        .unwrap();
    sys.mark_boot_complete();
    Stack {
        sys,
        app: app.cid,
        peer: peer.cid,
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

fn open(sys: &mut System, port: &VfsPort, path: &str) -> i64 {
    let fd = port
        .open(sys, path, flags::O_CREAT | flags::O_RDWR)
        .unwrap();
    assert!(fd >= 0, "open {path}: {fd}");
    fd
}

fn put(sys: &mut System, port: &VfsPort, path: &str, data: &[u8]) -> i64 {
    let fd = open(sys, port, path);
    let buf = sys.heap_alloc(data.len(), 8).unwrap();
    sys.write(buf, data).unwrap();
    let n = port.pwrite(sys, fd, buf, data.len(), 0).unwrap();
    assert_eq!(n as usize, data.len());
    sys.heap_free(buf).unwrap();
    fd
}

fn contents(sys: &mut System, port: &VfsPort, fd: i64) -> Vec<u8> {
    let size = port.fstat(sys, fd).unwrap().unwrap().size as usize;
    let buf = sys.heap_alloc(size.max(1), 8).unwrap();
    let n = port.pread(sys, fd, buf, size, 0).unwrap();
    assert_eq!(n as usize, size, "short read");
    let data = sys.read_vec(buf, size).unwrap();
    sys.heap_free(buf).unwrap();
    data
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

#[test]
fn argument_errors() {
    let mut stack = boot(None);
    with_port(&mut stack, |sys, port| {
        let src = put(sys, port, "/src", &pattern(100, 1));
        let dst = open(sys, port, "/dst");
        let one = [(0u64, 10usize, 0u64)];
        let ebadf = Errno::Ebadf.neg();
        assert_eq!(port.copy_range(sys, 99, dst, &one).unwrap(), ebadf);
        assert_eq!(port.copy_range(sys, src, 99, &one).unwrap(), ebadf);
        assert_eq!(port.copy_range(sys, -1, dst, &one).unwrap(), ebadf);

        let einval = Errno::Einval.neg();
        assert_eq!(port.copy_range(sys, src, dst, &[]).unwrap(), einval);
        let too_many = vec![(0u64, 1usize, 0u64); IOV_MAX + 1];
        assert_eq!(port.copy_range(sys, src, dst, &too_many).unwrap(), einval);
        let at_max = vec![(0u64, 1usize, 0u64); IOV_MAX];
        assert_eq!(port.copy_range(sys, src, dst, &at_max).unwrap(), 64);
        // An iov length that is not a whole number of triples.
        let len = IOV_ENTRY_SIZE - 1;
        let iov = sys.heap_alloc(len, 8).unwrap();
        let r = port
            .with_buffer_window(sys, iov, len, |sys| {
                port.proxy().copy_range(sys, src, dst, iov, len)
            })
            .unwrap();
        assert_eq!(r, einval);

        let other_mount = open(sys, port, "/mnt/other");
        let exdev = Errno::Exdev.neg();
        assert_eq!(port.copy_range(sys, src, other_mount, &one).unwrap(), exdev);
        assert_eq!(port.copy_range(sys, other_mount, dst, &one).unwrap(), exdev);
        assert_eq!(contents(sys, port, other_mount), b"");
    });
}

#[test]
fn short_count_at_source_eof() {
    let mut stack = boot(None);
    with_port(&mut stack, |sys, port| {
        let data = pattern(5_000, 2);
        let src = put(sys, port, "/src", &data);
        let dst = open(sys, port, "/dst");
        // The source ends 2 000 bytes into the second segment.
        let segs = [(0u64, 3_000usize, 0u64), (3_000, 3_000, 3_000)];
        assert_eq!(port.copy_range(sys, src, dst, &segs).unwrap(), 5_000);
        assert_eq!(contents(sys, port, dst), data);
        // Entirely past the end: nothing to copy, nothing written.
        let past = [(5_000u64, 100usize, 0u64)];
        assert_eq!(port.copy_range(sys, src, dst, &past).unwrap(), 0);
        assert_eq!(contents(sys, port, dst), data);
    });
}

#[test]
fn growing_past_a_gap_zero_fills() {
    let mut stack = boot(None);
    with_port(&mut stack, |sys, port| {
        let data = pattern(3_000, 3);
        let src = put(sys, port, "/src", &data);
        let dst = put(sys, port, "/dst", b"head");
        let segs = [(0u64, 3_000usize, 10_000u64)];
        assert_eq!(port.copy_range(sys, src, dst, &segs).unwrap(), 3_000);
        let mut want = b"head".to_vec();
        want.resize(10_000, 0);
        want.extend_from_slice(&data);
        assert_eq!(contents(sys, port, dst), want);
    });
}

#[test]
fn overlapping_copy_within_one_file() {
    let mut stack = boot(None);
    with_port(&mut stack, |sys, port| {
        let data = pattern(9_000, 4);
        let fd = put(sys, port, "/f", &data);
        // Forward overlap across a page boundary: memmove semantics.
        let segs = [(0u64, 6_000usize, 2_500u64)];
        assert_eq!(port.copy_range(sys, fd, fd, &segs).unwrap(), 6_000);
        let mut want = data.clone();
        want.copy_within(0..6_000, 2_500);
        assert_eq!(contents(sys, port, fd), want);
        // Backward overlap.
        let segs = [(3_000u64, 6_000usize, 1_000u64)];
        assert_eq!(port.copy_range(sys, fd, fd, &segs).unwrap(), 6_000);
        want.copy_within(3_000..9_000, 1_000);
        assert_eq!(contents(sys, port, fd), want);
    });
}

/// Maps `/dst` (two pages) to the peer, runs `grow`, and reports whether
/// the peer can still read the first extent page.
fn mapping_survives(grow: impl FnOnce(&mut System, &VfsPort, i64, i64) -> i64) -> bool {
    let mut stack = boot(None);
    let peer = stack.peer;
    let (first, grew) = with_port(&mut stack, |sys, port| {
        let src = put(sys, port, "/src", &pattern(4_096, 5));
        let dst = put(sys, port, "/dst", &pattern(8_192, 6));
        let extents = port.sendfile_map(sys, dst, peer).unwrap().unwrap();
        assert_eq!(extents.len(), 2);
        (extents[0], grow(sys, port, src, dst))
    });
    assert_eq!(grew, 4_096);
    let first: VAddr = first;
    stack
        .sys
        .run_in_cubicle(peer, |sys| sys.read_vec(first, 8))
        .is_ok()
}

#[test]
fn growing_copy_revokes_sendfile_mapping_like_a_growing_write() {
    // In place: the extent set does not change, the mapping stays.
    assert!(mapping_survives(|sys, port, src, dst| {
        port.copy_range(sys, src, dst, &[(0, 4_096, 4_096)])
            .unwrap()
    }));
    // Growing by a page revokes it, for a copy and a write alike.
    assert!(!mapping_survives(|sys, port, src, dst| {
        port.copy_range(sys, src, dst, &[(0, 4_096, 8_192)])
            .unwrap()
    }));
    assert!(!mapping_survives(|sys, port, _src, dst| {
        let buf = sys.heap_alloc(4_096, 8).unwrap();
        port.pwrite(sys, dst, buf, 4_096, 8_192).unwrap()
    }));
}

#[test]
fn journaled_copy_survives_microreboot_and_replay() {
    let mut stack = boot(Some(16));
    let data = pattern(10_000, 7);
    let want = with_port(&mut stack, |sys, port| {
        let src = put(sys, port, "/src", &data);
        let dst = open(sys, port, "/dst");
        let segs = [(1_000u64, 5_000usize, 0u64), (0, 10_000, 7_000)];
        assert_eq!(port.copy_range(sys, src, dst, &segs).unwrap(), 15_000);
        // And an overlapping copy within the source itself.
        assert_eq!(
            port.copy_range(sys, src, src, &[(0, 6_000, 3_000)])
                .unwrap(),
            6_000
        );
        (contents(sys, port, src), contents(sys, port, dst))
    });
    let mut dst_want = data[1_000..6_000].to_vec();
    dst_want.resize(7_000, 0);
    dst_want.extend_from_slice(&data);
    assert_eq!(want.1, dst_want);

    let ramfs = stack.fs.ramfs_cid;
    let wild = stack
        .sys
        .run_in_cubicle(ramfs, |sys| sys.read_vec(VAddr::new(0x0FFF_0000), 8));
    assert!(wild.is_err(), "wild read must fault");
    assert!(stack.sys.cubicle(ramfs).is_quarantined());
    stack.sys.restart(ramfs).unwrap();
    assert_eq!(stack.sys.stats().ramfs_journal_replays, 1);

    let got = with_port(&mut stack, |sys, port| {
        let src = open(sys, port, "/src");
        let dst = open(sys, port, "/dst");
        (contents(sys, port, src), contents(sys, port, dst))
    });
    assert_eq!(got, want, "copies replay byte for byte");
    let audit = stack.sys.audit();
    assert!(audit.is_clean(), "post-recovery audit dirty:\n{audit}");
}
