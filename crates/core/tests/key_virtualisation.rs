//! The key pool (paper §8's tag virtualisation): keys 1–14 bind, key 15
//! is the parked key, and more isolated compartments than keys bind
//! lazily on entry, evicting the least recently entered binding.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, InvariantClass,
    IsolationMode, System, Value, PARKED_KEY,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::{KeyRights, ProtKey, VAddr};
use std::collections::BTreeMap;

struct Dummy;
impl_component!(Dummy);

fn load_n(sys: &mut System, n: usize) -> Vec<CubicleId> {
    load_named(sys, "C", n)
}

fn load_named(sys: &mut System, prefix: &str, n: usize) -> Vec<CubicleId> {
    (0..n)
        .map(|i| {
            sys.load(
                ComponentImage::new(format!("{prefix}{i}"), CodeImage::plain(256)),
                Box::new(Dummy),
            )
            .unwrap()
            .cid
        })
        .collect()
}

#[test]
fn sixteen_isolated_cubicles_load_and_run() {
    let mut sys = System::new(IsolationMode::Full);
    let cids = load_n(&mut sys, 16);
    assert!(cids[..14].iter().all(|&c| sys.cubicle(c).key != PARKED_KEY));
    assert!(cids[14..].iter().all(|&c| sys.cubicle(c).key == PARKED_KEY));
    for &cid in &cids[14..] {
        plant_secret(&mut sys, cid);
        assert_ne!(sys.cubicle(cid).key, PARKED_KEY, "entry binds a key");
    }
    assert_eq!(sys.key_evictions(), 2);
    sys.audit()
        .assert_clean("after binding two parked cubicles");
}

#[test]
fn with_virtualisation_32_cubicles_load_and_run() {
    let mut sys = System::new(IsolationMode::Full);
    let cids = load_n(&mut sys, 32);
    // every cubicle can run and use its own memory
    for &cid in &cids {
        sys.run_in_cubicle(cid, |sys| {
            let p = sys.heap_alloc(64, 8).unwrap();
            sys.write(p, b"mine").unwrap();
            assert_eq!(sys.read_vec(p, 4).unwrap(), b"mine");
        });
    }
    assert!(
        sys.key_evictions() > 0,
        "more cubicles than keys forces evictions"
    );
}

#[test]
fn isolation_holds_across_rebinding() {
    let mut sys = System::new(IsolationMode::Full);
    let cids = load_n(&mut sys, 24);
    // cubicle 0 stores a secret…
    let secret = sys.run_in_cubicle(cids[0], |sys| {
        let p = sys.heap_alloc(64, 8).unwrap();
        sys.write(p, b"secret").unwrap();
        p
    });
    // …then every other cubicle runs (cycling the key pool repeatedly)…
    for &cid in &cids[1..] {
        sys.run_in_cubicle(cid, |sys| {
            let p = sys.heap_alloc(16, 8).unwrap();
            sys.write(p, b"x").unwrap();
        });
    }
    // …no one could ever read the secret…
    for &cid in &cids[1..] {
        let denied = sys.run_in_cubicle(cid, |sys| sys.read_vec(secret, 6));
        assert!(
            denied.is_err(),
            "{cid} read another cubicle's page after rebinding"
        );
    }
    // …and the owner still can, even after its key was recycled.
    let back = sys.run_in_cubicle(cids[0], |sys| sys.read_vec(secret, 6).unwrap());
    assert_eq!(back, b"secret");
}

#[test]
fn windows_still_work_under_virtualisation() {
    let builder = Builder::new();
    let mut sys = System::new(IsolationMode::Full);
    // a reader component plus enough filler to overflow the key pool
    let reader = sys
        .load(
            ComponentImage::new("READER", CodeImage::plain(256)).export(
                builder
                    .export("long reader_sum(const void *buf, size_t n)")
                    .unwrap(),
                |sys, _this, args| {
                    let (addr, len) = args[0].as_buf();
                    let v = sys.read_vec(addr, len)?;
                    Ok(Value::I64(v.iter().map(|&b| i64::from(b)).sum()))
                },
            ),
            Box::new(Dummy),
        )
        .unwrap();
    let cids = load_n(&mut sys, 20);
    let app = cids[19];
    let reader_cid = reader.cid;
    let sum = sys.run_in_cubicle(app, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, &[1, 2, 3, 4]).unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        sys.window_open(wid, reader_cid).unwrap();
        sys.call("reader_sum", &[Value::buf_in(buf, 4)])
            .unwrap()
            .as_i64()
    });
    assert_eq!(sum, 10);
}

#[test]
fn shared_cubicles_stay_pinned() {
    let mut sys = System::new(IsolationMode::Full);
    let libc = sys
        .load(
            ComponentImage::new("LIBC", CodeImage::plain(64)).shared(),
            Box::new(Dummy),
        )
        .unwrap();
    let shared_buf = sys.run_in_cubicle(libc.cid, |sys| {
        let p = sys.heap_alloc(32, 8).unwrap();
        sys.write(p, b"table").unwrap();
        p
    });
    let cids = load_n(&mut sys, 20);
    // after heavy key churn, shared data is still reachable fault-free
    for &cid in &cids {
        let v = sys.run_in_cubicle(cid, |sys| sys.read_vec(shared_buf, 5).unwrap());
        assert_eq!(v, b"table");
    }
}

#[test]
fn evictions_are_charged() {
    let mut sys = System::new(IsolationMode::Full);
    let cids = load_n(&mut sys, 20);
    // warm every cubicle once
    for &cid in &cids {
        sys.run_in_cubicle(cid, |sys| {
            let p = sys.heap_alloc(8, 8).unwrap();
            sys.write(p, b"w").unwrap();
        });
    }
    let retags_before = sys.machine_stats().retags;
    let evictions_before = sys.key_evictions();
    // cycle through everyone again: rebinding must retag parked pages
    for &cid in &cids {
        sys.run_in_cubicle(cid, |sys| {
            let p = sys.heap_alloc(8, 8).unwrap();
            sys.write(p, b"w").unwrap();
        });
    }
    assert!(sys.key_evictions() > evictions_before);
    assert!(
        sys.machine_stats().retags > retags_before,
        "evictions must pay pkey_mprotect costs"
    );
}

/// Stores a per-cubicle secret on `cid`'s heap.
fn plant_secret(sys: &mut System, cid: CubicleId) -> VAddr {
    sys.run_in_cubicle(cid, |sys| {
        let p = sys.heap_alloc(16, 8).unwrap();
        sys.write(p, format!("secret-{}", cid.index()).as_bytes())
            .unwrap();
        p
    })
}

#[test]
fn keys_stay_unique_across_quarantine_restart_and_reload() {
    let mut sys = System::new(IsolationMode::Full);
    let mut cids = load_n(&mut sys, 20);
    for &cid in &cids {
        plant_secret(&mut sys, cid);
    }
    for &victim in &[cids[3], cids[11]] {
        sys.quarantine(victim, "test").unwrap();
    }
    for &victim in &[cids[3], cids[11]] {
        sys.restart(victim).unwrap();
    }
    cids.extend(load_named(&mut sys, "D", 4));
    let secrets: Vec<VAddr> = cids.iter().map(|&c| plant_secret(&mut sys, c)).collect();

    // No two live cubicles share a physical key (parked ones hold none).
    let mut holders = BTreeMap::new();
    for c in sys.cubicles().skip(1) {
        if c.is_quarantined() || c.key == PARKED_KEY {
            continue;
        }
        if let Some(other) = holders.insert(c.key.raw(), c.name.clone()) {
            panic!("{other} and {} both hold {}", c.name, c.key);
        }
    }
    let audit = sys.audit();
    assert!(
        !audit
            .findings
            .iter()
            .any(|f| f.class == InvariantClass::KeyUniqueness),
        "{audit:?}"
    );
    audit.assert_clean("after quarantine, restart and reload");

    // A non-holder never reads a peer's heap, whichever keys moved.
    for (i, &reader) in cids.iter().enumerate() {
        let peer = (i + 1) % cids.len();
        let r = sys.run_in_cubicle(reader, |sys| sys.read_vec(secrets[peer], 8));
        assert!(r.is_err(), "{reader} read {}'s heap", cids[peer]);
    }
    // Owners still read their own.
    for (&cid, &p) in cids.iter().zip(&secrets) {
        let back = sys.run_in_cubicle(cid, |sys| sys.read_vec(p, 7).unwrap());
        assert_eq!(back, b"secret-");
    }
}

/// No binding is evictable: every key is pinned by a shared cubicle, so
/// a crossing into a parked cubicle fails instead of binding it.
#[test]
fn a_crossing_with_no_evictable_binding_fails_out_of_keys() {
    let builder = Builder::new();
    let mut sys = System::new(IsolationMode::Full);
    let shared = |name: String| ComponentImage::new(name, CodeImage::plain(64)).shared();
    for i in 0..14 {
        sys.load(shared(format!("S{i}")), Box::new(Dummy)).unwrap();
    }
    let iso = sys
        .load(
            ComponentImage::new("ISO", CodeImage::plain(64)).export(
                builder.export("long iso_ping(void)").unwrap(),
                |_sys, _this, _args| Ok(Value::I64(1)),
            ),
            Box::new(Dummy),
        )
        .unwrap();
    assert_eq!(sys.cubicle(iso.cid).key, PARKED_KEY);
    let ping = iso.entry("iso_ping").unwrap();
    for _ in 0..2 {
        // twice: the failed crossing left the component in place
        assert!(matches!(
            sys.cross_call(ping, &[]),
            Err(CubicleError::OutOfKeys)
        ));
    }
    assert!(matches!(
        sys.load(shared("S14".into()), Box::new(Dummy)),
        Err(CubicleError::OutOfKeys)
    ));
    assert_eq!(sys.key_evictions(), 0);
    sys.audit().assert_clean("after refused crossings");
}

/// A quarantined cubicle carries the parked key, which the pool never
/// binds and no PKRU set enables: running as it reaches no live
/// cubicle's, parked cubicle's or pair's pages.
#[test]
fn a_quarantined_cubicle_reaches_no_other_cubicles_pages() {
    let mut sys = System::new(IsolationMode::Full);
    let cids = load_n(&mut sys, 15);
    assert_eq!(sys.cubicle(cids[14]).key, PARKED_KEY);
    // entering the 15th evicts the least recently entered, C0
    let secrets: Vec<VAddr> = cids.iter().map(|&c| plant_secret(&mut sys, c)).collect();
    let victim = cids[5];
    sys.quarantine(victim, "test").unwrap();
    // the released key becomes a pair key of two survivors
    let (owner, peer) = (cids[1], cids[2]);
    sys.run_in_cubicle(owner, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        sys.window_share(wid, peer).unwrap();
    });
    let pair = sys.pair_key(owner, peer).expect("a free key to lend");

    let pkru = sys.pkru_for(victim);
    let live: Vec<ProtKey> = sys
        .cubicles()
        .skip(1)
        .filter(|c| c.id != victim)
        .map(|c| c.key)
        .chain([pair, PARKED_KEY])
        .collect();
    for key in live {
        assert_eq!(pkru.rights(key), KeyRights::None, "{key} enabled");
    }
    for (i, &secret) in secrets.iter().enumerate() {
        if cids[i] != victim {
            let r = sys.run_in_cubicle(victim, |sys| sys.read_vec(secret, 8));
            assert!(
                r.is_err(),
                "the quarantined cubicle read {}'s heap",
                cids[i]
            );
        }
    }
    assert_eq!(sys.cubicle(cids[0]).key, PARKED_KEY);
    sys.audit()
        .assert_clean("after quarantine with a parked cubicle");
}
