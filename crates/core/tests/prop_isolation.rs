//! Randomized tests of the isolation invariants.
//!
//! The central safety property of CubicleOS: **no sequence of window
//! operations ever lets a cubicle read memory whose owner has not
//! currently opened a covering window for it** — and conversely, an
//! open window always admits the grantee. The window may also be shared
//! with one peer under a pair key (`System::window_share`); the model
//! then follows the pair key's eager revocation. A second model maps
//! pages to a peer for loads only (`System::share_read_only`) under a
//! read-only pair key, or sees the map refused when no key can be bound,
//! and follows growth, revocation and the peer's denied stores.
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
    Share(usize), // share with peer i (an open, if shared with another)
    Close(usize), // close for peer i
    CloseAll,
    OwnerTouch,      // owner reclaims the page
    PeerRead(usize), // peer i attempts a read
}

fn rand_op(rng: &mut Rng64) -> WinOp {
    match rng.range_usize(0, 6) {
        0 => WinOp::Open(rng.range_usize(0, 3)),
        1 => WinOp::Share(rng.range_usize(0, 3)),
        2 => WinOp::Close(rng.range_usize(0, 3)),
        3 => WinOp::CloseAll,
        4 => WinOp::OwnerTouch,
        _ => WinOp::PeerRead(rng.range_usize(0, 3)),
    }
}

/// The key the model says the page carries.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Tag {
    Owner,
    Peer(usize),
    /// The pair key of the live share.
    Pair,
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

        // model state: which peers the window is open for, which one it
        // is shared with, and — for the causal-consistency rule — which
        // key the page carries.
        let mut open = [false; 3];
        let mut shared: Option<usize> = None;
        let mut tag = Tag::Owner;

        for step in 0..rng.range_usize(1, 60) {
            match rand_op(&mut rng) {
                WinOp::Open(i) => {
                    sys.run_in_cubicle(owner, |sys| sys.window_open(wid, peers[i]).unwrap());
                    open[i] = true;
                }
                WinOp::Share(i) if shared.is_none_or(|j| j == i) => {
                    sys.run_in_cubicle(owner, |sys| sys.window_share(wid, peers[i]).unwrap());
                    open[i] = true;
                    if shared.is_none() {
                        // the share retags the page to the pair key
                        shared = Some(i);
                        tag = Tag::Pair;
                    }
                }
                WinOp::Share(i) => {
                    // one share per window in this model
                    sys.run_in_cubicle(owner, |sys| sys.window_open(wid, peers[i]).unwrap());
                    open[i] = true;
                }
                WinOp::Close(i) => {
                    sys.run_in_cubicle(owner, |sys| sys.window_close(wid, peers[i]).unwrap());
                    open[i] = false;
                    if shared == Some(i) {
                        // eager revocation: the page goes home at once
                        shared = None;
                        if tag == Tag::Pair {
                            tag = Tag::Owner;
                        }
                    }
                }
                WinOp::CloseAll => {
                    sys.run_in_cubicle(owner, |sys| sys.window_close_all(wid).unwrap());
                    open = [false; 3];
                    shared = None;
                    if tag == Tag::Pair {
                        tag = Tag::Owner;
                    }
                }
                WinOp::OwnerTouch => {
                    sys.run_in_cubicle(owner, |sys| sys.read_vec(buf, 4).unwrap());
                    // no fault on the pair key; a reclaim otherwise,
                    // to the pair key while the share lives
                    if tag != Tag::Pair {
                        tag = if shared.is_some() {
                            Tag::Pair
                        } else {
                            Tag::Owner
                        };
                    }
                }
                WinOp::PeerRead(i) => {
                    let res = sys.run_in_cubicle(peers[i], |sys| sys.read_vec(buf, 4));
                    // expected: allowed iff the window is open for the
                    // peer, or the page carries a key the peer holds —
                    // its own (causal consistency after a lazy close) or
                    // its pair key with the owner.
                    let holds = tag == Tag::Peer(i) || (tag == Tag::Pair && shared == Some(i));
                    let expect_ok = open[i] || holds;
                    match res {
                        Ok(_) => {
                            assert!(
                                expect_ok,
                                "case {case}: peer {i} read owner memory while closed \
                                 (tag {tag:?})"
                            );
                            if !holds {
                                tag = if shared == Some(i) {
                                    Tag::Pair
                                } else {
                                    Tag::Peer(i)
                                };
                            }
                        }
                        Err(CubicleError::WindowDenied { .. }) => {
                            assert!(
                                !expect_ok,
                                "case {case}: peer {i} denied although window open \
                                 (tag {tag:?})"
                            );
                        }
                        Err(e) => panic!("case {case}: unexpected error: {e}"),
                    }
                }
            }
            // the model's key is the machine's
            let key = sys.machine().page_entry(buf).unwrap().key;
            let expect = match tag {
                Tag::Owner => sys.cubicle(owner).key,
                Tag::Peer(i) => sys.cubicle(peers[i]).key,
                Tag::Pair => sys.pair_key(owner, peers[shared.unwrap()]).unwrap(),
            };
            assert_eq!(key, expect, "case {case}, step {step}: tag {tag:?}");
            // global invariants must hold after *every* step, whatever
            // the interleaving of opens, closes, reclaims and reads
            sys.audit()
                .assert_clean(&format!("case {case}, step {step}"));
        }
    }
}

/// One step of the read-only holder model: the owner maps a growing
/// prefix of its pages to a load-only peer `R` (a file's page map), a
/// third cubicle `P` holds a read-write window over all of them.
#[derive(Clone, Copy, Debug)]
enum MapOp {
    OwnerWrite(usize, u8),
    RLoad(usize),
    RStore(usize),
    PLoad(usize),
    PStore(usize, u8),
    /// The map gains the next page (a growing file).
    Grow,
    /// The map is revoked (a shrinking truncate, a removal).
    Revoke,
}

fn rand_map_op(rng: &mut Rng64, pages: usize) -> MapOp {
    let page = rng.range_usize(0, pages);
    let byte = rng.range_u64(1, 256) as u8;
    match rng.range_usize(0, 9) {
        0 => MapOp::OwnerWrite(page, byte),
        1 | 2 => MapOp::RLoad(page),
        3 => MapOp::RStore(page),
        4 => MapOp::PLoad(page),
        5 => MapOp::PStore(page, byte),
        6 | 7 => MapOp::Grow,
        _ => MapOp::Revoke,
    }
}

/// Who holds a page of the map model, i.e. whose key it carries.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Holder {
    Owner,
    P,
    /// The read-only pair key of the live map.
    Map,
}

/// A load-only peer can load exactly the pages the owner maps to it,
/// never store to any of them, and always loads the owner's current
/// bytes; growth and revocation keep the page keys where the model puts
/// them. Run keyed (the map is a read-only pair-keyed share) and refused
/// (no key to bind, the pool exhausted or pair keys off: the map is
/// `OutOfKeys` with no window operation and no key drawn, and the peer
/// reaches nothing).
#[test]
fn read_only_holders_load_and_never_store() {
    const PAGES: usize = 4;
    for case in 0..64u64 {
        let (keyed, exhausted) = (case % 2 == 0, case % 4 == 1);
        let mut rng = Rng64::new(0x0F0_0000 + case);
        let mut sys = System::new(SystemConfig {
            cost: CostModel::free(),
            pair_keys: keyed || exhausted,
            ..IsolationMode::Full.into()
        });
        let mut load = |name: &str| {
            sys.load(
                ComponentImage::new(name, CodeImage::plain(64)).heap_pages(8),
                Box::new(Dummy),
            )
            .unwrap()
            .cid
        };
        let (owner, r, p) = (load("OWNER"), load("R"), load("P"));
        let mut filler = 0;
        while exhausted && sys.free_keys() > 0 {
            let image = ComponentImage::new(format!("F{filler}"), CodeImage::plain(64));
            sys.load(image, Box::new(Dummy)).unwrap();
            filler += 1;
        }
        let pages: Vec<VAddr> = sys.run_in_cubicle(owner, |sys| {
            let pages: Vec<VAddr> = (0..PAGES)
                .map(|_| sys.heap_alloc(4096, 4096).unwrap())
                .collect();
            let ranges: Vec<_> = pages.iter().map(|&a| (a, 4096)).collect();
            sys.share(&ranges, &[p]).unwrap();
            pages
        });

        let mut bytes = [0u8; PAGES];
        let mut holder = [Holder::Owner; PAGES];
        let mut map: Option<(WindowId, usize)> = None;
        let mapped = |map: &Option<(WindowId, usize)>, i: usize| map.is_some_and(|(_, n)| i < n);

        for step in 0..rng.range_usize(1, 80) {
            let op = rand_map_op(&mut rng, PAGES);
            let ctx = format!("case {case} (keyed {keyed}), step {step}: {op:?}");
            match op {
                MapOp::OwnerWrite(i, b) => {
                    sys.run_in_cubicle(owner, |sys| sys.write(pages[i], &[b]))
                        .unwrap();
                    bytes[i] = b;
                    holder[i] = if mapped(&map, i) {
                        Holder::Map
                    } else {
                        Holder::Owner
                    };
                }
                MapOp::RLoad(i) => {
                    let res = sys.run_in_cubicle(r, |sys| sys.read_vec(pages[i], 1));
                    match res {
                        Ok(got) => {
                            assert!(mapped(&map, i), "{ctx}: R loaded an unmapped page");
                            assert_eq!(got, [bytes[i]], "{ctx}: R loaded stale bytes");
                            holder[i] = Holder::Map;
                        }
                        Err(CubicleError::WindowDenied { .. }) => {
                            assert!(!mapped(&map, i), "{ctx}: R denied a mapped page")
                        }
                        Err(e) => panic!("{ctx}: unexpected error: {e}"),
                    }
                }
                MapOp::RStore(i) => {
                    let res = sys.run_in_cubicle(r, |sys| sys.write(pages[i], &[0xEE]));
                    assert!(
                        matches!(res, Err(CubicleError::WindowDenied { .. })),
                        "{ctx}: a load-only peer stored: {res:?}"
                    );
                }
                MapOp::PLoad(i) => {
                    let got = sys.run_in_cubicle(p, |sys| sys.read_vec(pages[i], 1));
                    assert_eq!(got.unwrap(), [bytes[i]], "{ctx}");
                    holder[i] = Holder::P;
                }
                MapOp::PStore(i, b) => {
                    sys.run_in_cubicle(p, |sys| sys.write(pages[i], &[b]))
                        .unwrap();
                    bytes[i] = b;
                    holder[i] = Holder::P;
                }
                MapOp::Grow => {
                    let n = map.map_or(0, |(_, n)| n);
                    if n < PAGES {
                        let before = (
                            sys.cubicle(owner).window_count(),
                            sys.stats().window_ops,
                            sys.free_keys(),
                        );
                        let range = [(pages[n], 4096)];
                        let wid = sys.run_in_cubicle(owner, |sys| match map {
                            Some((wid, _)) => sys.window_add(wid, pages[n], 4096).map(|()| wid),
                            None => sys.share_read_only(&range, r),
                        });
                        if keyed {
                            map = Some((wid.unwrap(), n + 1));
                            // the new page joins the share at once
                            holder[n] = Holder::Map;
                        } else {
                            assert!(
                                matches!(wid, Err(CubicleError::OutOfKeys)),
                                "{ctx}: {wid:?}"
                            );
                            let after = (
                                sys.cubicle(owner).window_count(),
                                sys.stats().window_ops,
                                sys.free_keys(),
                            );
                            assert_eq!(after, before, "{ctx}: the refusal left a trace");
                        }
                    }
                }
                MapOp::Revoke => {
                    if let Some((wid, _)) = map.take() {
                        sys.run_in_cubicle(owner, |sys| sys.window_destroy(wid))
                            .unwrap();
                        // eager: the pages go home
                        for h in &mut holder {
                            if *h == Holder::Map {
                                *h = Holder::Owner;
                            }
                        }
                    }
                }
            }
            for i in 0..PAGES {
                let entry = sys.machine().page_entry(pages[i]).unwrap();
                let expect = match holder[i] {
                    Holder::Owner => sys.cubicle(owner).key,
                    Holder::P => sys.cubicle(p).key,
                    Holder::Map => sys.read_only_key(owner, r).expect("a live map"),
                };
                assert_eq!(entry.key, expect, "{ctx}: page {i} held by {:?}", holder[i]);
            }
            sys.audit().assert_clean(&ctx);
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
