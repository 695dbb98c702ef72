//! Tests of the kernel invariant auditor (`System::audit`).
//!
//! Two halves: scenarios exercising the real kernel must audit clean at
//! every point, and *seeded corruption* — reaching around the kernel's
//! bookkeeping through the `#[doc(hidden)]` test hooks — must make each
//! invariant class fire. The second half is what proves the auditor
//! actually detects what it claims to.

use cubicle_core::{
    impl_component, ComponentImage, CubicleId, InvariantClass, IsolationMode, System, SystemConfig,
    Value, PARKED_KEY,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::{CostModel, PageFlags, ProtKey, VAddr};

struct Dummy;
impl_component!(Dummy);

/// A kernel with an owner + peer pair, an owner-owned buffer and a
/// window over it that the peer has already read through (so a page tag
/// legitimately sits with a non-owner).
fn windowed_pair() -> (System, CubicleId, CubicleId, VAddr) {
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
    let peer = sys
        .load(
            ComponentImage::new("PEER", CodeImage::plain(64)),
            Box::new(Dummy),
        )
        .unwrap()
        .cid;
    let buf = sys.run_in_cubicle(owner, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, b"window me").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        sys.window_open(wid, peer).unwrap();
        buf
    });
    sys.run_in_cubicle(peer, |sys| sys.read_vec(buf, 9).unwrap());
    (sys, owner, peer, buf)
}

fn classes(sys: &System) -> Vec<InvariantClass> {
    sys.audit().findings.into_iter().map(|f| f.class).collect()
}

// ───────────────────────── clean scenarios ─────────────────────────

#[test]
fn windowed_scenario_audits_clean() {
    let (sys, _, _, _) = windowed_pair();
    let report = sys.audit();
    report.assert_clean("windowed pair, tag with peer");
    assert!(report.pages_checked > 0);
    assert_eq!(report.cubicles_checked, 3); // monitor + owner + peer
    assert_eq!(report.windows_checked, 1);
}

#[test]
fn every_isolation_mode_audits_clean() {
    for mode in [
        IsolationMode::Unikraft,
        IsolationMode::NoMpk,
        IsolationMode::NoAcl,
        IsolationMode::Full,
    ] {
        let mut sys = System::new(SystemConfig {
            cost: CostModel::free(),
            ..mode.into()
        });
        let a = sys
            .load(
                ComponentImage::new("A", CodeImage::plain(64)),
                Box::new(Dummy),
            )
            .unwrap()
            .cid;
        let b = sys
            .load(
                ComponentImage::new("B", CodeImage::plain(64)),
                Box::new(Dummy),
            )
            .unwrap()
            .cid;
        let buf = sys.run_in_cubicle(a, |sys| {
            let buf = sys.heap_alloc(64, 8).unwrap();
            sys.write(buf, b"x").unwrap();
            buf
        });
        // in the ablation/baseline modes the peer may read freely; in
        // Full it is denied — either way the state must stay consistent
        let _ = sys.run_in_cubicle(b, |sys| sys.read_vec(buf, 1));
        sys.audit().assert_clean(&format!("{mode:?}"));
    }
}

#[test]
fn key_virtualisation_parking_audits_clean() {
    // more cubicles than physical keys: parked pages carry PARKED_KEY
    // while their holder's binding moves around
    let mut sys = System::new(SystemConfig {
        cost: CostModel::free(),
        ..IsolationMode::Full.into()
    });
    let cids: Vec<CubicleId> = (0..20)
        .map(|i| {
            sys.load(
                ComponentImage::new(format!("C{i}"), CodeImage::plain(64)),
                Box::new(Dummy),
            )
            .unwrap()
            .cid
        })
        .collect();
    for &cid in &cids {
        sys.run_in_cubicle(cid, |sys| {
            let buf = sys.heap_alloc(16, 8).unwrap();
            sys.write(buf, b"tick").unwrap();
        });
        sys.audit().assert_clean("during key-virt churn");
    }
    assert!(sys.key_evictions() > 0, "scenario must actually evict");
    sys.audit().assert_clean("after key-virt churn");
}

#[test]
fn cross_call_scenario_audits_clean() {
    let mut sys = System::new(SystemConfig {
        cost: CostModel::free(),
        ..IsolationMode::Full.into()
    });
    let builder = cubicle_core::Builder::new();
    let srv = sys.load(
        ComponentImage::new("SRV", CodeImage::plain(128)).export(
            builder
                .export("ssize_t srv_echo(const void *buf, size_t len)")
                .unwrap(),
            |sys, _this, args| {
                let (src, len) = args[0].as_buf();
                let dst = sys.heap_alloc(len, 8)?;
                sys.copy(dst, src, len)?;
                Ok(Value::I64(len as i64))
            },
        ),
        Box::new(Dummy),
    );
    srv.unwrap();
    let app = sys
        .load(
            ComponentImage::new("APP", CodeImage::plain(64)),
            Box::new(Dummy),
        )
        .unwrap()
        .cid;
    let n = sys.run_in_cubicle(app, |sys| {
        let buf = sys.heap_alloc(32, 8).unwrap();
        sys.write(buf, b"ping").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 32).unwrap();
        let srv_cid = sys.find_cubicle("SRV").unwrap();
        sys.window_open(wid, srv_cid).unwrap();
        sys.call("srv_echo", &[Value::buf_in(buf, 4)])
            .unwrap()
            .as_i64()
    });
    assert_eq!(n, 4);
    sys.audit().assert_clean("after cross call");
}

// ──────────────────── seeded corruption: each class ────────────────────

#[test]
fn wx_violation_fires_on_rwx_page() {
    let (mut sys, _, _, buf) = windowed_pair();
    sys.corrupt_machine_for_test()
        .set_page_flags(buf, PageFlags::rwx())
        .unwrap();
    let classes = classes(&sys);
    assert!(
        classes.contains(&InvariantClass::WriteExecute),
        "rwx data page must fire w^x: {classes:?}"
    );
}

#[test]
fn wx_violation_fires_on_writable_code_page() {
    let (mut sys, _, _, _) = windowed_pair();
    // find a code page (execute permission) and quietly make it writable
    let code = sys
        .machine()
        .mapped_pages()
        .into_iter()
        .find(|(_, e)| e.flags.can_execute())
        .expect("loaded components have code")
        .0;
    sys.corrupt_machine_for_test()
        .set_page_flags(code.base(), PageFlags::rw())
        .unwrap();
    let report = sys.audit();
    let detail = report
        .of_class(InvariantClass::WriteExecute)
        .next()
        .expect("writable code page must fire w^x");
    assert!(detail.detail.contains("code page"), "{detail}");
}

#[test]
fn tag_consistency_fires_on_stray_retag() {
    let (mut sys, _, _, buf) = windowed_pair();
    // keys 1 and 2 belong to the cubicles; 9 belongs to nobody
    sys.corrupt_machine_for_test()
        .set_page_key(buf, ProtKey::new(9).unwrap())
        .unwrap();
    let classes = classes(&sys);
    assert!(
        classes.contains(&InvariantClass::TagConsistency),
        "stray tag must fire tag-consistency: {classes:?}"
    );
}

#[test]
fn tag_consistency_fires_on_metadata_orphan() {
    let (mut sys, _, _, buf) = windowed_pair();
    // unmap behind the monitor's back: metadata now points at nothing
    assert!(sys.corrupt_machine_for_test().unmap_page(buf));
    let report = sys.audit();
    let finding = report
        .of_class(InvariantClass::TagConsistency)
        .next()
        .expect("orphaned metadata must fire tag-consistency");
    assert!(finding.detail.contains("unmapped page"), "{finding}");
}

#[test]
fn window_range_fires_when_granting_away_windowed_pages() {
    let (mut sys, owner, peer, buf) = windowed_pair();
    // the owner gives the windowed pages away; its window descriptor now
    // publishes memory it no longer owns
    sys.run_in_cubicle(owner, |sys| {
        sys.grant_pages_to(buf, 4096, peer).unwrap();
    });
    let classes = classes(&sys);
    assert!(
        classes.contains(&InvariantClass::WindowRange),
        "window over foreign pages must fire window-range: {classes:?}"
    );
}

#[test]
fn stack_guard_fires_when_guard_page_mapped() {
    let (mut sys, owner, _, _) = windowed_pair();
    let (guard, key) = {
        let c = sys.cubicles().find(|c| c.id == owner).unwrap();
        assert!(c.stack_len > 0, "components get stacks by default");
        (c.stack_base + c.stack_len, c.key)
    };
    sys.corrupt_machine_for_test()
        .map_page(guard, key, PageFlags::rw());
    let classes = classes(&sys);
    assert!(
        classes.contains(&InvariantClass::StackGuard),
        "mapped guard page must fire stack-guard: {classes:?}"
    );
}

#[test]
fn key_uniqueness_fires_on_duplicate_assignment() {
    let (mut sys, owner, peer, _) = windowed_pair();
    let owner_key = sys.cubicles().find(|c| c.id == owner).unwrap().key;
    sys.corrupt_cubicle_key_for_test(peer, owner_key);
    let report = sys.audit();
    let finding = report
        .of_class(InvariantClass::KeyUniqueness)
        .next()
        .expect("duplicate key must fire key-uniqueness");
    assert!(
        finding.detail.contains("OWNER") && finding.detail.contains("PEER"),
        "{finding}"
    );
}

#[test]
fn key_uniqueness_fires_when_the_pool_disagrees_with_the_cubicles() {
    // a cubicle on a key the pool never bound to it
    let (mut sys, _, peer, _) = windowed_pair();
    sys.corrupt_cubicle_key_for_test(peer, ProtKey::new(14).unwrap());
    let report = sys.audit();
    assert!(
        report
            .of_class(InvariantClass::KeyUniqueness)
            .any(|f| f.detail.ends_with("but PEER holds it")),
        "{report}"
    );
    // a live cubicle stamped parked leaves its key bound to no holder
    let (mut sys, owner, _, _) = windowed_pair();
    sys.corrupt_cubicle_key_for_test(owner, PARKED_KEY);
    let report = sys.audit();
    assert!(
        report
            .of_class(InvariantClass::KeyUniqueness)
            .any(|f| f.detail.ends_with("to OWNER, but no one holds it")),
        "{report}"
    );
}

/// An owner + peer pair sharing a window over one owner page under a
/// pair key, a second owner page outside the window, and a third
/// cubicle.
fn shared_pair() -> (System, [CubicleId; 3], VAddr, VAddr) {
    let (mut sys, owner, peer, _) = windowed_pair();
    let third = sys
        .load(
            ComponentImage::new("THIRD", CodeImage::plain(64)),
            Box::new(Dummy),
        )
        .unwrap()
        .cid;
    let (shared, private) = sys.run_in_cubicle(owner, |sys| {
        let shared = sys.heap_alloc(4096, 4096).unwrap();
        let private = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(private, b"mine").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, shared, 4096).unwrap();
        sys.window_share(wid, peer).unwrap();
        (shared, private)
    });
    sys.run_in_cubicle(peer, |sys| sys.write(shared, b"frame").unwrap());
    sys.audit().assert_clean("pair-keyed share");
    (sys, [owner, peer, third], shared, private)
}

#[test]
fn tag_consistency_fires_on_a_pair_key_outside_its_share() {
    let (mut sys, [owner, peer, _], _, private) = shared_pair();
    let key = sys.pair_key(owner, peer).unwrap();
    // the owner's page outside the shared window, retagged behind the
    // monitor's back: both members could now reach it without a trap
    sys.corrupt_machine_for_test()
        .set_page_key(private, key)
        .unwrap();
    let report = sys.audit();
    let finding = report
        .of_class(InvariantClass::TagConsistency)
        .next()
        .expect("a pair key off its share must fire tag-consistency");
    assert!(finding.detail.contains(&key.to_string()), "{finding}");
    // so does a third cubicle's page carrying it
    let (mut sys, [owner, peer, third], _, _) = shared_pair();
    let theirs = sys.run_in_cubicle(third, |sys| sys.heap_alloc(4096, 4096).unwrap());
    let key = sys.pair_key(owner, peer).unwrap();
    sys.corrupt_machine_for_test()
        .set_page_key(theirs, key)
        .unwrap();
    assert!(classes(&sys).contains(&InvariantClass::TagConsistency));
}

#[test]
fn key_uniqueness_fires_on_a_cubicle_holding_a_pair_key() {
    let (mut sys, [owner, peer, third], _, _) = shared_pair();
    let key = sys.pair_key(owner, peer).unwrap();
    sys.corrupt_cubicle_key_for_test(third, key);
    let report = sys.audit();
    let finding = report
        .of_class(InvariantClass::KeyUniqueness)
        .next()
        .expect("a cubicle on a pair key must fire key-uniqueness");
    assert!(
        finding.detail.contains("THIRD") && finding.detail.contains("pair key"),
        "{finding}"
    );
}

#[test]
fn quarantine_fires_on_a_member_of_a_live_share() {
    let (mut sys, [_, peer, _], _, _) = shared_pair();
    sys.corrupt_quarantine_for_test(peer);
    let report = sys.audit();
    assert!(
        report
            .of_class(InvariantClass::Quarantine)
            .any(|f| f.detail.contains("still shares")),
        "{report}"
    );
}

#[test]
fn corrupted_reports_render_with_class_tags() {
    let (mut sys, _, _, buf) = windowed_pair();
    sys.corrupt_machine_for_test()
        .set_page_flags(buf, PageFlags::rwx())
        .unwrap();
    let text = sys.audit().to_string();
    assert!(text.contains("[w^x]"), "{text}");
}
