//! Window-grant cache: repeat trap-and-map over the same
//! `(accessor, page)` reuses the grant that authorised it last time —
//! and every operation that can narrow the remembered authority drops
//! the entry first. Each test drives a real tag ping-pong (owner write
//! reclaims the page, peer read re-faults) and then checks that the
//! cache never outlives the window that backed it.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, IsolationMode, System, Value,
    WindowId,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;

struct Dummy;
impl_component!(Dummy);

fn boot() -> (System, CubicleId, CubicleId) {
    let b = Builder::new();
    let mut sys = System::new(IsolationMode::Full);
    let a = sys
        .load(
            ComponentImage::new("A", CodeImage::plain(256)).heap_pages(8),
            Box::new(Dummy),
        )
        .unwrap();
    let bee = sys
        .load(
            ComponentImage::new("B", CodeImage::plain(256)).export(
                b.export("long b_read(const void *buf, size_t n)").unwrap(),
                |sys, _this, args| {
                    let (addr, len) = args[0].as_buf();
                    let v = sys.read_vec(addr, len)?;
                    Ok(Value::I64(i64::from(v[0])))
                },
            ),
            Box::new(Dummy),
        )
        .unwrap();
    (sys, a.cid, bee.cid)
}

/// Opens a window over a fresh page and ping-pongs it until the cache
/// holds a warm entry (first fault = miss, second = hit).
fn warm(sys: &mut System, a: CubicleId, b: CubicleId) -> (VAddr, WindowId) {
    let entry = sys.entry("b_read").unwrap();
    let (buf, wid) = sys.run_in_cubicle(a, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, &[5]).unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        sys.window_open(wid, b).unwrap();
        (buf, wid)
    });
    let h0 = sys.stats().grant_cache_hits;
    for round in 0..2 {
        let r = sys.run_in_cubicle(a, |sys| {
            sys.write(buf, &[5]).unwrap(); // owner reclaim → tag ping
            sys.cross_call(entry, &[Value::buf_in(buf, 64)]).unwrap()
        });
        assert_eq!(r.as_i64(), 5, "round {round}");
    }
    assert!(
        sys.stats().grant_cache_hits > h0,
        "the second fault over a warm tuple must hit"
    );
    (buf, wid)
}

/// After an invalidating operation, the peer's next access must be
/// denied by the real ACL walk — a stale cache entry would let it
/// through (and trips a debug assertion inside the kernel first).
fn assert_denied(sys: &mut System, a: CubicleId, buf: VAddr) {
    let entry = sys.entry("b_read").unwrap();
    let inv0 = sys.stats().grant_cache_invalidations;
    assert!(inv0 > 0, "the revoking operation must purge cache entries");
    let err = sys.run_in_cubicle(a, |sys| {
        sys.write(buf, &[9]).unwrap(); // reclaim: the next read re-faults
        sys.cross_call(entry, &[Value::buf_in(buf, 64)])
    });
    assert!(
        matches!(err, Err(CubicleError::WindowDenied { .. })),
        "revoked authority must deny, got {err:?}"
    );
    sys.audit().assert_clean("after revoked access attempt");
}

#[test]
fn window_close_invalidates() {
    let (mut sys, a, b) = boot();
    let (buf, wid) = warm(&mut sys, a, b);
    sys.run_in_cubicle(a, |sys| sys.window_close(wid, b))
        .unwrap();
    assert_denied(&mut sys, a, buf);
}

#[test]
fn window_remove_invalidates() {
    let (mut sys, a, b) = boot();
    let (buf, wid) = warm(&mut sys, a, b);
    sys.run_in_cubicle(a, |sys| sys.window_remove(wid, buf))
        .unwrap();
    assert_denied(&mut sys, a, buf);
}

#[test]
fn window_destroy_invalidates() {
    let (mut sys, a, b) = boot();
    let (buf, wid) = warm(&mut sys, a, b);
    sys.run_in_cubicle(a, |sys| sys.window_destroy(wid))
        .unwrap();
    assert_denied(&mut sys, a, buf);
}

#[test]
fn ownership_transfer_invalidates() {
    let (mut sys, a, b) = boot();
    let (buf, wid) = warm(&mut sys, a, b);
    // Retag: A hands the page to B outright. The remembered grant
    // (B-over-A's-page via A's window) is now nonsense — B owns it.
    let inv0 = sys.stats().grant_cache_invalidations;
    sys.run_in_cubicle(a, |sys| sys.grant_pages_to(buf, 4096, b))
        .unwrap();
    assert!(
        sys.stats().grant_cache_invalidations > inv0,
        "ownership transfer must purge entries over the pages"
    );
    // A's window descriptor still names a range it no longer owns; drop
    // it like a well-behaved component would after handing the page off.
    sys.run_in_cubicle(a, |sys| sys.window_remove(wid, buf))
        .unwrap();
    // B reclaims its new page through implicit window 0, no window of
    // A's involved; A in turn has no authority left over it.
    let entry = sys.entry("b_read").unwrap();
    let r = sys.run_in_cubicle(b, |sys| {
        sys.cross_call(entry, &[Value::buf_in(buf, 64)]).unwrap()
    });
    assert_eq!(r.as_i64(), 5);
    let err = sys.run_in_cubicle(a, |sys| sys.read_vec(buf, 8));
    assert!(err.is_err(), "the old owner lost the page");
    sys.audit().assert_clean("after ownership transfer");
}

#[test]
fn quarantine_purges_both_sides() {
    // Accessor quarantined: its remembered grants die with it.
    let (mut sys, a, b) = boot();
    let (_buf, _wid) = warm(&mut sys, a, b);
    let inv0 = sys.stats().grant_cache_invalidations;
    sys.quarantine(b, "test: accessor dies").unwrap();
    assert!(
        sys.stats().grant_cache_invalidations > inv0,
        "quarantining the accessor must purge its entries"
    );
    sys.audit().assert_clean("accessor quarantined");

    // Owner quarantined: entries over its pages die too.
    let (mut sys, a, b) = boot();
    let (buf, _wid) = warm(&mut sys, a, b);
    let inv0 = sys.stats().grant_cache_invalidations;
    sys.quarantine(a, "test: owner dies").unwrap();
    assert!(
        sys.stats().grant_cache_invalidations > inv0,
        "quarantining the owner must purge entries over its pages"
    );
    // The page is tombstoned: nobody gets it back through the cache.
    let err = sys.run_in_cubicle(b, |sys| sys.read_vec(buf, 8));
    assert!(
        matches!(err, Err(CubicleError::Quarantined { cubicle }) if cubicle == a),
        "tombstone wins over any remembered grant, got {err:?}"
    );
    sys.audit().assert_clean("owner quarantined");
}

#[test]
fn cached_pingpong_reads_the_owner_bytes() {
    // The cache changes cycle counts, never outcomes: every round of the
    // ping-pong reads the byte the owner just wrote, cache hit or not.
    let (mut sys, a, b) = boot();
    let entry = sys.entry("b_read").unwrap();
    let buf = sys.run_in_cubicle(a, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        sys.window_open(wid, b).unwrap();
        buf
    });
    let mut got = Vec::new();
    for round in 0..4u8 {
        let r = sys.run_in_cubicle(a, |sys| {
            sys.write(buf, &[7 + round]).unwrap(); // owner reclaim → tag ping
            sys.cross_call(entry, &[Value::buf_in(buf, 64)]).unwrap()
        });
        got.push(r.as_i64());
    }
    assert_eq!(got, [7, 8, 9, 10]);
    let s = sys.stats();
    assert_eq!(s.grant_cache_misses, 1, "only the first fault searches");
    assert_eq!(s.grant_cache_hits, 3, "every later fault reuses the grant");
    sys.audit().assert_clean("cached ping-pong");
}
