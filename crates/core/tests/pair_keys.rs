//! Pair keys (`System::window_share`): a persistent window its owner
//! shares with exactly one peer carries a key both members' PKRU sets
//! enable, so neither traps on it. Every third cubicle still goes
//! through trap-and-map, revocation is eager, and without a key to lend
//! the call is exactly `window_open`. A read-only share
//! (`System::share_read_only`) exists only under its key: without one it
//! is refused.

use cubicle_core::{
    impl_component, ComponentImage, CubicleError, CubicleId, FaultDecision, IsolationMode, System,
    SystemConfig, WindowId, PARKED_KEY,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::{CostModel, ProtKey, VAddr};

struct Dummy;
impl_component!(Dummy);

fn load(sys: &mut System, name: &str) -> CubicleId {
    sys.load(
        ComponentImage::new(name, CodeImage::plain(64)),
        Box::new(Dummy),
    )
    .unwrap()
    .cid
}

/// A kernel under `config` with cubicles A, B, C and D.
fn boot(config: SystemConfig) -> (System, [CubicleId; 4]) {
    let mut sys = System::new(config);
    let cids = ["A", "B", "C", "D"].map(|n| load(&mut sys, n));
    (sys, cids)
}

fn full() -> SystemConfig {
    SystemConfig {
        cost: CostModel::free(),
        ..IsolationMode::Full.into()
    }
}

/// `owner` writes a fresh page and shares a window over it with `peer`
/// (or merely opens it, with `share` false).
fn publish(sys: &mut System, owner: CubicleId, peer: CubicleId, share: bool) -> (VAddr, WindowId) {
    sys.run_in_cubicle(owner, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, b"in transit").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        if share {
            sys.window_share(wid, peer).unwrap();
        } else {
            sys.window_open(wid, peer).unwrap();
        }
        (buf, wid)
    })
}

/// Trap-and-map faults (resolved or denied) and retags so far.
fn traps(sys: &System) -> (u64, u64) {
    let s = sys.stats();
    (
        s.faults_resolved + s.faults_denied,
        sys.machine_stats().retags,
    )
}

fn page_key(sys: &System, addr: VAddr) -> ProtKey {
    sys.machine().page_entry(addr).unwrap().key
}

fn read(sys: &mut System, cid: CubicleId, buf: VAddr) -> Result<Vec<u8>, CubicleError> {
    sys.run_in_cubicle(cid, |sys| sys.read_vec(buf, 10))
}

#[test]
fn owner_and_peer_reuse_a_shared_page_with_no_fault_and_no_retag() {
    let (mut sys, [a, b, ..]) = boot(full());
    let (buf, _) = publish(&mut sys, a, b, true);
    let key = sys.pair_key(a, b).expect("the pool had a key to lend");
    assert_eq!(sys.pair_key(b, a), Some(key), "one key per pair");
    assert_eq!(page_key(&sys, buf), key, "the share retags eagerly");
    let before = traps(&sys);
    for round in 0..16u8 {
        sys.run_in_cubicle(a, |sys| sys.write(buf, &[round]).unwrap());
        assert_eq!(read(&mut sys, b, buf).unwrap()[0], round);
        sys.run_in_cubicle(b, |sys| sys.write(buf, &[round, 1]).unwrap());
        assert_eq!(read(&mut sys, a, buf).unwrap()[..2], [round, 1]);
    }
    assert_eq!(traps(&sys), before, "no fault and no retag after the share");
    sys.audit().assert_clean("after pair-keyed reuse");
}

#[test]
fn a_third_cubicle_is_denied_or_trap_and_maps_and_the_pair_refaults_once() {
    let (mut sys, [a, b, c, d]) = boot(full());
    let (buf, _) = publish(&mut sys, a, b, true);
    let key = sys.pair_key(a, b).unwrap();
    // no window admits C: the pair key does not widen anyone's access
    assert!(matches!(
        read(&mut sys, c, buf),
        Err(CubicleError::WindowDenied { .. })
    ));
    // another window admits D: trap-and-map, to D's own key
    sys.run_in_cubicle(a, |sys| {
        let w = sys.window_init();
        sys.window_add(w, buf, 4096).unwrap();
        sys.window_open(w, d).unwrap();
    });
    let before = traps(&sys);
    assert_eq!(read(&mut sys, d, buf).unwrap(), b"in transit");
    assert_eq!(traps(&sys), (before.0 + 1, before.1 + 1));
    assert_eq!(page_key(&sys, buf), sys.cubicle(d).key);
    sys.audit().assert_clean("third cubicle holds the page");
    // the pair's next touch takes the pair key back, once
    for (first, second) in [(a, b), (b, a)] {
        read(&mut sys, d, buf).unwrap();
        let before = traps(&sys);
        read(&mut sys, first, buf).unwrap();
        read(&mut sys, second, buf).unwrap();
        read(&mut sys, first, buf).unwrap();
        assert_eq!(traps(&sys), (before.0 + 1, before.1 + 1));
        assert_eq!(page_key(&sys, buf), key);
        sys.audit().assert_clean("pair took the page back");
    }
}

#[test]
fn close_remove_and_destroy_revoke_the_peer_at_once() {
    type Revoke = fn(&mut System, WindowId, CubicleId, VAddr);
    let revokes: [(&str, Revoke, bool); 4] = [
        ("close", |s, w, p, _| s.window_close(w, p).unwrap(), false),
        (
            "close_all",
            |s, w, _, _| s.window_close_all(w).unwrap(),
            false,
        ),
        ("destroy", |s, w, _, _| s.window_destroy(w).unwrap(), false),
        (
            "remove",
            |s, w, _, buf| s.window_remove(w, buf).unwrap(),
            true,
        ),
    ];
    for (name, revoke, share_lives) in revokes {
        let (mut sys, [a, b, ..]) = boot(full());
        let (buf, wid) = publish(&mut sys, a, b, true);
        read(&mut sys, b, buf).unwrap();
        sys.run_in_cubicle(a, |sys| revoke(sys, wid, b, buf));
        assert_eq!(page_key(&sys, buf), sys.cubicle(a).key, "{name}");
        assert_eq!(sys.pair_key(a, b).is_some(), share_lives, "{name}");
        sys.audit().assert_clean(name);
        assert!(
            matches!(
                read(&mut sys, b, buf),
                Err(CubicleError::WindowDenied { .. })
            ),
            "{name}: the peer's next touch is denied"
        );
        let before = traps(&sys);
        read(&mut sys, a, buf).unwrap();
        assert_eq!(traps(&sys), before, "{name}: the owner never traps");
    }
    // unlike the lazy plain close: the holder keeps its tag (§5.6)
    let (mut sys, [a, b, ..]) = boot(full());
    let (buf, wid) = publish(&mut sys, a, b, false);
    read(&mut sys, b, buf).unwrap();
    sys.run_in_cubicle(a, |sys| sys.window_close(wid, b).unwrap());
    assert_eq!(read(&mut sys, b, buf).unwrap(), b"in transit");
}

/// Isolated cubicles the key pool can still load with a key of their
/// own; the first one that loads parked ends the count.
fn loadable(sys: &mut System) -> usize {
    let mut n = 0;
    loop {
        let cid = load(sys, &format!("X{n}"));
        if sys.cubicle(cid).key == PARKED_KEY {
            return n;
        }
        n += 1;
    }
}

#[test]
fn quarantine_and_restart_of_either_member_return_the_key() {
    for victim in 0..2 {
        let (mut sys, [a, b, ..]) = boot(full());
        let (buf, _) = publish(&mut sys, a, b, true);
        read(&mut sys, b, buf).unwrap();
        let (victim, survivor) = if victim == 0 { (a, b) } else { (b, a) };
        sys.quarantine(victim, "test").unwrap();
        assert_eq!(sys.pair_key(a, b), None);
        sys.audit().assert_clean("after quarantine");
        if survivor == a {
            assert_eq!(page_key(&sys, buf), sys.cubicle(a).key);
            let before = traps(&sys);
            read(&mut sys, a, buf).unwrap();
            assert_eq!(traps(&sys), before, "the owner's page came home");
        }
        sys.restart(victim).unwrap();
        assert_eq!(sys.pair_key(a, b), None);
        sys.audit().assert_clean("after restart");
        if victim == a {
            // the owner's pages died with it
            assert!(matches!(
                read(&mut sys, b, buf),
                Err(CubicleError::Quarantined { .. })
            ));
        } else {
            // the window stays open for the reborn peer, without the
            // share: plain trap-and-map, to the peer's own key
            let before = traps(&sys);
            read(&mut sys, b, buf).unwrap();
            assert_eq!(traps(&sys), (before.0 + 1, before.1 + 1));
            assert_eq!(page_key(&sys, buf), sys.cubicle(b).key);
        }
        // A, B, C, D hold four of the 14 keys; the pair key is back in
        // the pool
        assert_eq!(
            loadable(&mut sys),
            10,
            "victim {}",
            sys.cubicle_name(victim)
        );
    }
}

/// Cycles, traps, retags and `wrpkru`s of a ping-pong over a window
/// `publish`ed with or without `share`, after `fill` more cubicles.
fn ping_pong(config: SystemConfig, fill: usize, share: bool) -> (u64, (u64, u64), u64) {
    let (mut sys, [a, b, ..]) = boot(config);
    for i in 0..fill {
        load(&mut sys, &format!("F{i}"));
    }
    let (buf, _) = publish(&mut sys, a, b, share);
    assert_eq!(sys.pair_key(a, b), None, "no pair key to lend");
    for round in 0..8u8 {
        sys.run_in_cubicle(a, |sys| sys.write(buf, &[round]).unwrap());
        assert_eq!(read(&mut sys, b, buf).unwrap()[0], round);
    }
    sys.audit().assert_clean("ping-pong");
    (sys.now(), traps(&sys), sys.machine_stats().wrpkru)
}

#[test]
fn without_a_key_to_lend_share_is_exactly_open() {
    let paper = SystemConfig::from(IsolationMode::Full);
    let cases = [
        ("pool exhausted", paper, 10),
        (
            "pair keys off",
            SystemConfig {
                pair_keys: false,
                ..paper
            },
            0,
        ),
    ];
    for (name, config, fill) in cases {
        assert_eq!(
            ping_pong(config, fill, true),
            ping_pong(config, fill, false),
            "{name}"
        );
    }
    // the exhausted case really exhausted the pool
    let (mut sys, _) = boot(paper);
    assert_eq!(loadable(&mut sys), 10);
}

#[test]
fn without_a_key_a_read_only_share_is_refused_where_pages_are_keyed() {
    for mode in [IsolationMode::Full, IsolationMode::Unikraft] {
        let (mut sys, [a, b, ..]) = boot(SystemConfig {
            cost: CostModel::free(),
            ..mode.into()
        });
        loadable(&mut sys);
        assert_eq!(sys.free_keys(), 0, "{mode:?}: the pool is exhausted");
        let before = (sys.cubicle(a).window_count(), sys.stats().window_ops);
        let (buf, shared) = sys.run_in_cubicle(a, |sys| {
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            sys.write(buf, b"in transit").unwrap();
            (buf, sys.share_read_only(&[(buf, 4096)], b))
        });
        assert_eq!(sys.free_keys(), 0, "{mode:?}: no key drawn");
        if mode == IsolationMode::Full {
            assert_eq!(shared, Err(CubicleError::OutOfKeys));
            let after = (sys.cubicle(a).window_count(), sys.stats().window_ops);
            assert_eq!(after, before, "refused before any window operation");
            assert!(matches!(
                read(&mut sys, b, buf),
                Err(CubicleError::WindowDenied { .. })
            ));
        } else {
            // No page key is ever checked: a plain window.
            let wid = shared.unwrap();
            assert!(sys.cubicle(a).window(wid).unwrap().is_open_for(b));
            assert_eq!(read(&mut sys, b, buf).unwrap(), b"in transit");
        }
        assert_eq!(sys.read_only_key(a, b), None);
        sys.audit().assert_clean(&format!("{mode:?}"));
    }
}

#[test]
fn a_reader_restarted_after_quarantine_keeps_no_admission_to_a_read_only_share() {
    let (mut sys, [a, b, ..]) = boot(full());
    let (buf, wid) = sys.run_in_cubicle(a, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, b"in transit").unwrap();
        (buf, sys.share_read_only(&[(buf, 4096)], b).unwrap())
    });
    assert_eq!(read(&mut sys, b, buf).unwrap(), b"in transit");
    sys.quarantine(b, "test").unwrap();
    sys.restart(b).unwrap();
    assert_eq!(sys.read_only_key(a, b), None);
    // the owner's window outlives the share, closed for the reader
    assert!(!sys.cubicle(a).window(wid).unwrap().is_open_for(b));
    for store in [false, true] {
        let touched = sys.run_in_cubicle(b, |sys| {
            if store {
                sys.write(buf, b"overwrite!")
            } else {
                sys.read_vec(buf, 10).map(drop)
            }
        });
        assert!(
            matches!(touched, Err(CubicleError::WindowDenied { .. })),
            "store {store}: {touched:?}"
        );
        if sys.cubicle(b).is_quarantined() {
            sys.restart(b).unwrap();
        }
    }
    assert_eq!(read(&mut sys, a, buf).unwrap(), b"in transit");
    sys.audit()
        .assert_clean("after the restarted reader's touches");
}

#[test]
fn a_stale_pkru_on_a_second_core_resolves_without_a_retag() {
    let (mut sys, [a, b, ..]) = boot(SystemConfig { cores: 2, ..full() });
    sys.enable_tracing(1 << 12);
    // B's PKRU as a core running B loaded it before the share
    let stale = sys.pkru_for(b);
    let (buf, _) = publish(&mut sys, a, b, true);
    assert_ne!(sys.pkru_for(b), stale, "the share enables the pair key");
    sys.switch_to_core(1);
    let before = traps(&sys);
    let wrpkru = sys.machine_stats().wrpkru;
    sys.run_in_cubicle(b, |sys| {
        sys.corrupt_machine_for_test().set_pkru_at_load(stale);
        assert_eq!(sys.read_vec(buf, 10).unwrap(), b"in transit");
        assert_eq!(sys.read_vec(buf, 10).unwrap(), b"in transit");
    });
    assert_eq!(traps(&sys), (before.0 + 1, before.1), "one fault, no retag");
    assert_eq!(sys.machine_stats().wrpkru, wrpkru + 1, "the PKRU refresh");
    let last = sys.fault_audit().last().unwrap();
    assert_eq!(
        (last.accessor, last.decision),
        (b, FaultDecision::PkruRefresh)
    );
    assert!(sys
        .export_fault_audit()
        .contains("RESOLVED (pair key, PKRU refreshed)"));
    sys.audit().assert_clean("after the refresh");
}
