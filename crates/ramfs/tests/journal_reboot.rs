//! Crash-consistent recovery over the real cubicle stack: a `RAMFS`
//! with a custodian-held journal is quarantined mid-operation and
//! microrebooted, and every acknowledged file comes back bit-for-bit —
//! the tree is *not* re-populated by the test.

use cubicle_core::{
    impl_component, ComponentImage, CubicleId, Errno, IsolationMode, System, SystemConfig,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::{boot_fs, FsStack, Ramfs};
use cubicle_ukbase::boot_base;
use cubicle_vfs::{flags, whence, VfsPort};

struct App;
impl_component!(App);

struct Stack {
    sys: System,
    app: CubicleId,
    fs: FsStack,
}

/// Boots APP → VFSCORE → RAMFS → ALLOC with `VFSCORE` acting as the
/// journal's custodian (`None` skips the journal — the pre-journal
/// baseline).
fn boot(journal_pages: Option<usize>) -> Stack {
    let mut sys = System::new(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    });
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, journal_pages).unwrap();
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

fn put(sys: &mut System, port: &VfsPort, path: &str, data: &[u8]) {
    let fd = port
        .open(sys, path, flags::O_CREAT | flags::O_RDWR)
        .unwrap();
    assert!(fd >= 0, "open {path}: {fd}");
    // uneven chunks exercise multi-extent writes (and multi-record
    // journaling) for payloads over a page
    for (i, chunk) in data.chunks(3_001).enumerate() {
        port.lseek(sys, fd, (i * 3_001) as i64, whence::SEEK_SET)
            .unwrap();
        assert_eq!(
            port.write_all(sys, fd, chunk).unwrap() as usize,
            chunk.len()
        );
    }
    port.close(sys, fd).unwrap();
}

fn get(sys: &mut System, port: &VfsPort, path: &str) -> Result<Vec<u8>, i64> {
    let fd = port.open(sys, path, 0).unwrap();
    if fd < 0 {
        return Err(fd);
    }
    let size = port.fstat(sys, fd).unwrap().unwrap().size as usize;
    let buf = sys.heap_alloc(size.max(1), 8).unwrap();
    let n = port
        .with_buffer_window(sys, buf, size.max(1), |sys| {
            port.proxy().pread(sys, fd, buf, size, 0)
        })
        .unwrap();
    assert_eq!(n as usize, size, "{path}: short read");
    let data = sys.read_vec(buf, size).unwrap();
    sys.heap_free(buf).unwrap();
    port.close(sys, fd).unwrap();
    Ok(data)
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

#[test]
fn quarantine_mid_write_then_microreboot_restores_every_file() {
    let mut stack = boot(Some(16));
    let index_body = b"<h1>crash-consistent cubicles</h1>".to_vec();
    let big = pattern(10_000, 0x5A);

    // Build a tree that exercises all four record types: creates,
    // multi-extent writes, a truncate, and a remove.
    with_port(&mut stack, |sys, port| {
        port.mkdir(sys, "/www").unwrap();
        put(sys, port, "/www/index.html", &index_body);
        put(sys, port, "/big.bin", &big);
        put(sys, port, "/cut.txt", &[0xFFu8; 5000]);
        let fd = port.open(sys, "/cut.txt", flags::O_RDWR).unwrap();
        port.ftruncate(sys, fd, 100).unwrap();
        port.close(sys, fd).unwrap();
        put(sys, port, "/gone.txt", b"doomed");
        assert_eq!(port.unlink(sys, "/gone.txt").unwrap(), 0);
    });

    // Arm the torn-append hook: the next journaled write dies *between*
    // the record bytes and the len update, and the containment policy
    // quarantines RAMFS right there.
    let slot = stack.fs.ramfs_slot;
    stack
        .sys
        .with_component_mut::<Ramfs, _>(slot, |fs, _| fs.set_journal_crash_after(Some(0)))
        .unwrap();
    let denied = with_port(&mut stack, |sys, port| {
        let fd = port.open(sys, "/www/index.html", flags::O_RDWR).unwrap();
        port.write_all(sys, fd, b"never acknowledged")
    });
    // Containment converts the mid-append fault to a negative errno at
    // the first healthy boundary (or an Err if the unwind goes further).
    assert!(
        !matches!(denied, Ok(n) if n >= 0),
        "mid-append crash must surface as an error: {denied:?}"
    );
    assert!(
        stack.sys.cubicle(stack.fs.ramfs_cid).is_quarantined(),
        "wild touch mid-append must quarantine RAMFS"
    );
    assert!(
        !stack.sys.cubicle(stack.app).is_quarantined(),
        "fault must not cascade into the app"
    );

    // Microreboot. The restart hook replays the journal under the
    // reborn cubicle's own privileges — nothing is re-put by the test.
    stack.sys.restart(stack.fs.ramfs_cid).unwrap();
    assert_eq!(stack.sys.stats().ramfs_journal_replays, 1);

    with_port(&mut stack, |sys, port| {
        assert_eq!(get(sys, port, "/www/index.html").unwrap(), index_body);
        assert_eq!(get(sys, port, "/big.bin").unwrap(), big);
        let cut = get(sys, port, "/cut.txt").unwrap();
        assert_eq!(cut.len(), 100, "truncate must be replayed");
        assert!(cut.iter().all(|&b| b == 0xFF));
        assert_eq!(
            get(sys, port, "/gone.txt").unwrap_err(),
            Errno::Enoent.neg(),
            "removes must be replayed too"
        );
        // The torn write was never acknowledged: the file carries the
        // pre-crash bytes, not the half-logged mutation.
        assert_eq!(get(sys, port, "/www/index.html").unwrap(), index_body);
        // And the file system is fully usable afterwards.
        put(sys, port, "/after.txt", b"post-reboot write");
        assert_eq!(
            get(sys, port, "/after.txt").unwrap(),
            b"post-reboot write".to_vec()
        );
    });
    let audit = stack.sys.audit();
    assert!(audit.is_clean(), "post-recovery audit dirty:\n{audit}");
}

#[test]
fn journal_compaction_survives_the_reboot() {
    // A 2-page region fills after a handful of 1 KiB writes, forcing
    // snapshot compaction; recovery must replay the *compacted* log.
    let mut stack = boot(Some(2));
    let finale = pattern(1_024, 0x11);
    with_port(&mut stack, |sys, port| {
        for round in 0..8u8 {
            put(sys, port, "/hot.bin", &pattern(1_024, round));
        }
        put(sys, port, "/hot.bin", &finale);
    });
    let slot = stack.fs.ramfs_slot;
    let compactions = stack
        .sys
        .with_component_mut::<Ramfs, _>(slot, |fs, _| fs.journal().map(|j| j.compactions))
        .unwrap()
        .expect("journal installed");
    assert!(compactions > 0, "the tiny region must have compacted");

    let ramfs = stack.fs.ramfs_cid;
    let r = stack.sys.run_in_cubicle(ramfs, |sys| {
        sys.read_vec(cubicle_mpk::VAddr::new(0x0FFF_0000), 8)
    });
    assert!(r.is_err(), "wild read must fault");
    assert!(stack.sys.cubicle(ramfs).is_quarantined());
    stack.sys.restart(ramfs).unwrap();
    assert_eq!(stack.sys.stats().ramfs_journal_replays, 1);

    with_port(&mut stack, |sys, port| {
        assert_eq!(get(sys, port, "/hot.bin").unwrap(), finale);
    });
    let audit = stack.sys.audit();
    assert!(audit.is_clean(), "post-recovery audit dirty:\n{audit}");
}

#[test]
fn a_replayed_grow_past_a_shrunk_end_reads_zeros() {
    let mut stack = boot(Some(16));
    let tail = |stack: &mut Stack| {
        with_port(stack, |sys, port| {
            get(sys, port, "/g").unwrap()[50..60].to_vec()
        })
    };
    with_port(&mut stack, |sys, port| {
        put(sys, port, "/g", &[b'a'; 100]);
        let fd = port.open(sys, "/g", flags::O_RDWR).unwrap();
        port.ftruncate(sys, fd, 50).unwrap();
        port.ftruncate(sys, fd, 100).unwrap();
        port.close(sys, fd).unwrap();
    });
    assert_eq!(tail(&mut stack), [0; 10], "before the microreboot");
    let ramfs = stack.fs.ramfs_cid;
    stack.sys.quarantine(ramfs, "test: crash RAMFS").unwrap();
    stack.sys.restart(ramfs).unwrap();
    assert_eq!(stack.sys.stats().ramfs_journal_replays, 1);
    assert_eq!(tail(&mut stack), [0; 10], "after the replay");
    stack.sys.audit().assert_clean("after the replay");
}

#[test]
fn without_a_journal_the_reboot_loses_the_tree() {
    // The pre-journal baseline this PR exists to fix: same crash, no
    // custodian region — the microrebooted RAMFS comes back empty.
    let mut stack = boot(None);
    with_port(&mut stack, |sys, port| {
        put(sys, port, "/f", b"volatile");
    });
    let ramfs = stack.fs.ramfs_cid;
    let r = stack.sys.run_in_cubicle(ramfs, |sys| {
        sys.read_vec(cubicle_mpk::VAddr::new(0x0FFF_0000), 8)
    });
    assert!(r.is_err());
    stack.sys.restart(ramfs).unwrap();
    assert_eq!(stack.sys.stats().ramfs_journal_replays, 0);
    with_port(&mut stack, |sys, port| {
        assert_eq!(get(sys, port, "/f").unwrap_err(), Errno::Enoent.neg());
    });
}
