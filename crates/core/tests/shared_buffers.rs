//! The shared-buffer seam (`System::share`, `share_paired`, `reshare`
//! and the scoped `with_shared`): it issues exactly the Table 1 calls a
//! component would hand-roll, and it never leaves a half-built or
//! finished-with window behind.

use cubicle_core::{
    impl_component, ComponentImage, CubicleError, CubicleId, IsolationMode, System, SystemConfig,
    WindowId,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;

struct Dummy;
impl_component!(Dummy);

/// A Full-isolation kernel with the default cost model and cubicles A,
/// B and C.
fn boot() -> (System, [CubicleId; 3]) {
    let mut sys = System::new(SystemConfig::from(IsolationMode::Full));
    let cids = ["A", "B", "C"].map(|name| {
        sys.load(
            ComponentImage::new(name, CodeImage::plain(64)),
            Box::new(Dummy),
        )
        .unwrap()
        .cid
    });
    (sys, cids)
}

fn alloc(sys: &mut System, owner: CubicleId, len: usize) -> VAddr {
    sys.run_in_cubicle(owner, |sys| sys.heap_alloc(len, 4096).unwrap())
}

/// Live window descriptors of `cid`, from its ledger row.
fn windows(sys: &System, cid: CubicleId) -> usize {
    let row = sys.ledger().into_iter().find(|r| r.cubicle == cid);
    row.expect("every cubicle has a ledger row").windows
}

#[test]
fn share_of_an_unowned_range_is_refused_and_leaves_no_window() {
    let (mut sys, [a, b, c]) = boot();
    let mine = alloc(&mut sys, a, 4096);
    let theirs = alloc(&mut sys, b, 4096);
    let before = windows(&sys, a);
    let r = sys.run_in_cubicle(a, |sys| sys.share(&[(mine, 4096), (theirs, 4096)], &[c]));
    assert!(matches!(r, Err(CubicleError::NotOwner { .. })), "got {r:?}");
    assert_eq!(windows(&sys, a), before, "the half-built window is gone");
    sys.audit().assert_clean("after a refused share");
}

#[test]
fn scoped_share_destroys_its_window_on_every_path() {
    let (mut sys, [a, b, _]) = boot();
    let buf = alloc(&mut sys, a, 4096);
    let before = windows(&sys, a);
    sys.run_in_cubicle(a, |sys| {
        let ok = sys.with_shared(&[(buf, 4096)], &[b], |sys| {
            sys.run_in_cubicle(b, |sys| sys.read_vec(buf, 8))
        });
        assert!(ok.is_ok(), "the peer reads while the window lives");
    });
    assert_eq!(windows(&sys, a), before, "destroyed after success");
    sys.run_in_cubicle(a, |sys| {
        let err: Result<(), _> = sys.with_shared(&[(buf, 4096)], &[b], |_| {
            Err(CubicleError::InvalidArgument("the call failed"))
        });
        assert!(matches!(err, Err(CubicleError::InvalidArgument(_))));
    });
    assert_eq!(windows(&sys, a), before, "destroyed after an error");
    // Revocation is lazy (§5.6): once the owner takes its page back, the
    // former peer has no window left to be granted it through.
    sys.run_in_cubicle(a, |sys| sys.read_vec(buf, 8)).unwrap();
    let denied = sys.run_in_cubicle(b, |sys| sys.read_vec(buf, 8));
    assert!(
        denied.is_err(),
        "no authority outlives the scope: {denied:?}"
    );
}

#[test]
fn paired_share_with_one_peer_gets_the_pair_key() {
    let (mut sys, [a, b, c]) = boot();
    let (x, y) = (alloc(&mut sys, a, 4096), alloc(&mut sys, a, 4096));
    sys.run_in_cubicle(a, |sys| sys.share(&[(x, 4096)], &[c]).unwrap());
    assert_eq!(
        sys.pair_key(a, c),
        None,
        "a plain one-peer share is not paired"
    );
    sys.run_in_cubicle(a, |sys| sys.share_paired(&[(y, 4096)], b).unwrap());
    let key = sys.pair_key(a, b).expect("the pool had a key to lend");
    assert_eq!(sys.machine().page_entry(y).unwrap().key, key);
}

#[test]
fn reshare_opens_only_for_a_new_peer() {
    let (mut sys, [a, b, c]) = boot();
    let buf = alloc(&mut sys, a, 4096);
    let wid = sys.run_in_cubicle(a, |sys| sys.share(&[(buf, 4096)], &[b]).unwrap());
    let ops = sys.stats().window_ops;
    sys.run_in_cubicle(a, |sys| sys.reshare(wid, b).unwrap());
    assert_eq!(sys.stats().window_ops, ops, "b is already admitted");
    sys.run_in_cubicle(a, |sys| sys.reshare(wid, c).unwrap());
    assert_eq!(sys.stats().window_ops, ops + 1, "one window_open for c");
    assert!(sys.run_in_cubicle(c, |sys| sys.read_vec(buf, 8)).is_ok());
}

/// Runs `f` in A of a fresh kernel over two of A's pages, with B and C as
/// peers; returns the kernel's clock and window-op count afterwards.
fn charged(f: impl FnOnce(&mut System, [VAddr; 2], [CubicleId; 2])) -> (u64, u64) {
    let (mut sys, [a, b, c]) = boot();
    let bufs = [alloc(&mut sys, a, 4096), alloc(&mut sys, a, 8192)];
    sys.run_in_cubicle(a, |sys| f(sys, bufs, [b, c]));
    (sys.now(), sys.stats().window_ops)
}

/// The Table 1 sequence a component used to hand-roll.
fn open_coded(sys: &mut System, [x, y]: [VAddr; 2], peers: &[CubicleId], pair: bool) -> WindowId {
    let wid = sys.window_init();
    sys.window_add(wid, x, 4096).unwrap();
    sys.window_add(wid, y, 8192).unwrap();
    for &peer in peers {
        if pair {
            sys.window_share(wid, peer).unwrap();
        } else {
            sys.window_open(wid, peer).unwrap();
        }
    }
    wid
}

#[test]
fn the_seam_charges_what_the_open_coded_table1_sequence_does() {
    let ranges = |[x, y]: [VAddr; 2]| [(x, 4096), (y, 8192)];
    // persistent, then torn down
    let seam = charged(|sys, bufs, peers| {
        let wid = sys.share(&ranges(bufs), &peers).unwrap();
        sys.window_destroy(wid).unwrap();
    });
    let table1 = charged(|sys, bufs, peers| {
        let wid = open_coded(sys, bufs, &peers, false);
        sys.window_destroy(wid).unwrap();
    });
    assert_eq!(seam, table1);
    // paired
    let seam = charged(|sys, bufs, [b, _]| {
        sys.share_paired(&ranges(bufs), b).unwrap();
    });
    let table1 = charged(|sys, bufs, [b, _]| {
        open_coded(sys, bufs, &[b], true);
    });
    assert_eq!(seam, table1);
    // scoped, around a peer's read
    let seam = charged(|sys, bufs, peers| {
        sys.with_shared(&ranges(bufs), &peers, |sys| {
            sys.run_in_cubicle(peers[0], |sys| sys.read_vec(bufs[1], 100))
        })
        .unwrap();
    });
    let table1 = charged(|sys, bufs, peers| {
        let wid = open_coded(sys, bufs, &peers, false);
        sys.run_in_cubicle(peers[0], |sys| sys.read_vec(bufs[1], 100))
            .unwrap();
        sys.window_destroy(wid).unwrap();
    });
    assert_eq!(seam, table1);
    assert!(seam.1 > 0 && seam.0 > 0);
}

#[test]
fn paired_shares_take_whole_pages_only() {
    let (mut sys, [a, b, _]) = boot();
    let buf = alloc(&mut sys, a, 3 * 4096);
    let before = (sys.stats().window_ops, windows(&sys, a));
    for (what, range) in [
        ("unaligned start", (buf + 8, 4096)),
        ("part of a page", (buf, 100)),
        ("a page and a bit", (buf, 4096 + 1)),
        ("empty", (buf, 0)),
    ] {
        let r = sys.run_in_cubicle(a, |sys| sys.share_paired(&[(buf, 4096), range], b));
        assert!(
            matches!(r, Err(CubicleError::InvalidArgument(_))),
            "{what}: {r:?}"
        );
        assert_eq!(
            (sys.stats().window_ops, windows(&sys, a)),
            before,
            "{what}: refused before any window op"
        );
    }
    assert_eq!(sys.pair_key(a, b), None);
    sys.run_in_cubicle(a, |sys| sys.share_paired(&[(buf, 2 * 4096)], b))
        .expect("whole pages are shared");
    assert!(sys.pair_key(a, b).is_some());
}
