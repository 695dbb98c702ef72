//! Randomized tests of the isolation invariants.
//!
//! The central safety property of CubicleOS: **no sequence of window
//! operations ever lets a cubicle read memory whose owner has not
//! currently opened a covering window for it** — and conversely, an
//! open window always admits the grantee.
//!
//! Formerly proptest-based; rewritten over the in-tree deterministic
//! [`Rng64`] so the suite builds fully offline.

use cubicle_core::{
    impl_component, ComponentImage, CubicleError, CubicleId, IsolationMode, System, SystemConfig,
    WindowId,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::rng::Rng64;
use cubicle_mpk::CostModel;
use cubicle_mpk::VAddr;

struct Dummy;
impl_component!(Dummy);

#[derive(Clone, Copy, Debug)]
enum WinOp {
    Open(usize),  // open for peer i
    Close(usize), // close for peer i
    CloseAll,
    OwnerTouch,      // owner reclaims the page
    PeerRead(usize), // peer i attempts a read
}

fn rand_op(rng: &mut Rng64) -> WinOp {
    match rng.range_usize(0, 5) {
        0 => WinOp::Open(rng.range_usize(0, 3)),
        1 => WinOp::Close(rng.range_usize(0, 3)),
        2 => WinOp::CloseAll,
        3 => WinOp::OwnerTouch,
        _ => WinOp::PeerRead(rng.range_usize(0, 3)),
    }
}

#[test]
fn window_acl_algebra_never_leaks() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xAC1_0000 + case);
        let mut sys = System::new(SystemConfig {
            cost: CostModel::free(),
            ..IsolationMode::Full.into()
        });
        let owner = sys
            .load(
                ComponentImage::new("OWNER", CodeImage::plain(64)),
                Box::new(Dummy),
            )
            .unwrap()
            .cid;
        let peers: Vec<CubicleId> = (0..3)
            .map(|i| {
                sys.load(
                    ComponentImage::new(format!("P{i}"), CodeImage::plain(64)),
                    Box::new(Dummy),
                )
                .unwrap()
                .cid
            })
            .collect();
        let (buf, wid): (VAddr, WindowId) = sys.run_in_cubicle(owner, |sys| {
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            sys.write(buf, b"owner data").unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, buf, 4096).unwrap();
            (buf, wid)
        });

        // model state: which peers the window is open for, and — for the
        // causal-consistency rule — who currently "holds" the page tag.
        let mut open = [false; 3];
        let mut holder: Option<usize> = None; // None = owner holds it

        for step in 0..rng.range_usize(1, 60) {
            match rand_op(&mut rng) {
                WinOp::Open(i) => {
                    sys.run_in_cubicle(owner, |sys| sys.window_open(wid, peers[i]).unwrap());
                    open[i] = true;
                }
                WinOp::Close(i) => {
                    sys.run_in_cubicle(owner, |sys| sys.window_close(wid, peers[i]).unwrap());
                    open[i] = false;
                }
                WinOp::CloseAll => {
                    sys.run_in_cubicle(owner, |sys| sys.window_close_all(wid).unwrap());
                    open = [false; 3];
                }
                WinOp::OwnerTouch => {
                    sys.run_in_cubicle(owner, |sys| sys.read_vec(buf, 4).unwrap());
                    holder = None;
                }
                WinOp::PeerRead(i) => {
                    let res = sys.run_in_cubicle(peers[i], |sys| sys.read_vec(buf, 4));
                    // expected: allowed iff the window is open for the
                    // peer, or the peer already holds the page tag
                    // (causal consistency after a lazy close).
                    let expect_ok = open[i] || holder == Some(i);
                    match res {
                        Ok(_) => {
                            assert!(
                                expect_ok,
                                "case {case}: peer {i} read owner memory while closed \
                                 (holder {holder:?})"
                            );
                            holder = Some(i);
                        }
                        Err(CubicleError::WindowDenied { .. }) => {
                            assert!(
                                !expect_ok,
                                "case {case}: peer {i} denied although window open \
                                 (holder {holder:?})"
                            );
                        }
                        Err(e) => panic!("case {case}: unexpected error: {e}"),
                    }
                }
            }
            // global invariants must hold after *every* step, whatever
            // the interleaving of opens, closes, reclaims and reads
            sys.audit()
                .assert_clean(&format!("case {case}, step {step}"));
        }
    }
}

#[test]
fn suballocator_never_hands_out_overlaps() {
    use cubicle_core::SubAllocator;
    for case in 0..80u64 {
        let mut rng = Rng64::new(0x5BA1_0000 + case);
        let mut heap = SubAllocator::new();
        heap.add_region(VAddr::new(0x10000), 16 * 4096);
        let mut live: Vec<(u64, usize)> = Vec::new();
        for _ in 0..rng.range_usize(1, 80) {
            let is_alloc = rng.flip();
            let size = rng.range_usize(1, 400);
            if is_alloc || live.is_empty() {
                if let Some(a) = heap.alloc(size, 8) {
                    let start = a.raw();
                    for &(s, l) in &live {
                        assert!(
                            start + size as u64 <= s || s + l as u64 <= start,
                            "case {case}: overlap [{start:#x}+{size}] vs [{s:#x}+{l}]"
                        );
                    }
                    live.push((start, size));
                }
            } else {
                let (start, _) = live.swap_remove(size % live.len());
                heap.free(VAddr::new(start)).unwrap();
            }
        }
        // everything still accounted for
        let total: usize = live.iter().map(|&(_, l)| l).sum();
        assert_eq!(heap.in_use(), total, "case {case}");
    }
}
