//! Property test: kernel invariants hold under randomized fault storms.
//!
//! Drives random interleavings of healthy cross-calls, wild accesses,
//! manual quarantines, microreboots and dangling-pointer touches over a
//! small cubicle population, asserting after **every** step that
//! `System::audit()` is clean and that a healthy pair of cubicles can
//! still complete a cross-call — the paper's containment claim: a fault
//! never escapes the offending compartment.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, IsolationMode, System,
    SystemConfig, Value,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::rng::Rng64;
use cubicle_mpk::VAddr;

struct Node;
impl_component!(Node);

const POP: usize = 4;
const STEPS: usize = 64;
const CASES: u64 = 24;

/// Far above anything the monitor maps in these runs.
const WILD: VAddr = VAddr::new(0x0FFF_0000);

fn node_image(i: usize) -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new(format!("N{i}"), CodeImage::plain(128))
        .export(
            b.export(&format!("long ping{i}(void)")).unwrap(),
            |_sys, _this, _| Ok(Value::I64(1)),
        )
        .export(
            b.export(&format!("long crash{i}(void)")).unwrap(),
            |sys, _this, _| {
                sys.read_vec(VAddr::new(0x0FFF_0000), 8)?;
                Ok(Value::I64(0))
            },
        )
}

#[test]
fn audit_stays_clean_under_random_fault_storms() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xFA17_0000 + case);
        let mut sys = System::new(SystemConfig {
            fault_containment: true,
            ..IsolationMode::Full.into()
        });

        let mut ids: Vec<CubicleId> = Vec::new();
        let mut bufs: Vec<VAddr> = Vec::new();
        for i in 0..POP {
            let loaded = sys.load(node_image(i), Box::new(Node)).unwrap();
            ids.push(loaded.cid);
            bufs.push(sys.run_in_cubicle(loaded.cid, |sys| sys.heap_alloc(64, 8).unwrap()));
        }
        // Mirror of the kernel's view, updated as we inject faults.
        let mut dead = [false; POP];

        for step in 0..STEPS {
            let ctx = format!("case {case} step {step}");
            match rng.range_usize(0, 6) {
                // Cross-call between two random cubicles.
                0 => {
                    let a = rng.range_usize(0, POP);
                    let c = rng.range_usize(0, POP);
                    let r = sys.run_in_cubicle(ids[a], |sys| sys.call(&format!("ping{c}"), &[]));
                    if dead[a] || dead[c] {
                        assert!(
                            matches!(r, Err(CubicleError::Quarantined { .. })),
                            "{ctx}: call touching quarantined must be typed-rejected, got {r:?}"
                        );
                    } else if a == c {
                        // Merged component: no trampoline, plain call.
                        assert_eq!(r.unwrap().as_i64(), 1, "{ctx}");
                    } else {
                        assert_eq!(r.unwrap().as_i64(), 1, "{ctx}");
                    }
                }
                // A cubicle wild-reads unmapped memory in its own frame.
                1 => {
                    let a = rng.range_usize(0, POP);
                    let r = sys.run_in_cubicle(ids[a], |sys| sys.read_vec(WILD, 8));
                    assert!(r.is_err(), "{ctx}: wild read must fail");
                    if !dead[a] {
                        // Containment policy quarantines the accessor.
                        assert!(sys.cubicle(ids[a]).is_quarantined(), "{ctx}");
                        dead[a] = true;
                    }
                }
                // A healthy caller cross-calls an entry that faults.
                2 => {
                    let a = rng.range_usize(0, POP);
                    let c = rng.range_usize(0, POP);
                    let r = sys.run_in_cubicle(ids[a], |sys| sys.call(&format!("crash{c}"), &[]));
                    if dead[a] || dead[c] {
                        assert!(matches!(r, Err(CubicleError::Quarantined { .. })), "{ctx}");
                    } else if a == c {
                        // Fault in a merged frame: no healthy boundary
                        // below the offender, so the raw error surfaces.
                        assert!(r.is_err(), "{ctx}");
                        dead[a] = true;
                    } else {
                        assert_eq!(r.unwrap().as_i64(), -14, "{ctx}: EFAULT at caller");
                        dead[c] = true;
                    }
                }
                // Monitor-initiated quarantine.
                3 => {
                    let a = rng.range_usize(0, POP);
                    let r = sys.quarantine(ids[a], "storm");
                    if dead[a] {
                        assert!(matches!(r, Err(CubicleError::InvalidArgument(_))), "{ctx}");
                    } else {
                        r.unwrap();
                        dead[a] = true;
                    }
                }
                // Microreboot a quarantined cubicle.
                4 => {
                    let a = rng.range_usize(0, POP);
                    let r = sys.restart(ids[a]);
                    if dead[a] {
                        r.unwrap();
                        dead[a] = false;
                        // Fresh heap: the old buffer address is gone for good.
                        bufs[a] = sys.run_in_cubicle(ids[a], |sys| sys.heap_alloc(64, 8).unwrap());
                    } else {
                        assert!(matches!(r, Err(CubicleError::InvalidArgument(_))), "{ctx}");
                    }
                }
                // Touch another cubicle's buffer (live or tombstoned).
                _ => {
                    let a = rng.range_usize(0, POP);
                    let t = rng.range_usize(0, POP);
                    let addr = bufs[t];
                    let r = sys.run_in_cubicle(ids[a], |sys| sys.read_vec(addr, 8));
                    if a == t && !dead[a] {
                        assert!(r.is_ok(), "{ctx}: own live buffer readable");
                    } else if dead[a] {
                        assert!(r.is_err(), "{ctx}: quarantined context cannot read");
                    } else if dead[t] {
                        // Tombstoned page: a typed error naming the dead
                        // cubicle, and the toucher is NOT punished.
                        assert!(
                            matches!(r, Err(CubicleError::Quarantined { cubicle }) if cubicle == ids[t]),
                            "{ctx}: expected tombstone error, got {r:?}"
                        );
                        assert!(!sys.cubicle(ids[a]).is_quarantined(), "{ctx}");
                    } else {
                        // Live foreign page with no window: an isolation
                        // violation — the policy quarantines the accessor.
                        assert!(r.is_err(), "{ctx}");
                        assert!(sys.cubicle(ids[a]).is_quarantined(), "{ctx}");
                        dead[a] = true;
                    }
                }
            }

            // Invariants, after every single step.
            sys.audit().assert_clean(&ctx);
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(sys.cubicle(*id).is_quarantined(), dead[i], "{ctx}: N{i}");
            }
            // The containment claim: any healthy pair still serves.
            let healthy: Vec<usize> = (0..POP).filter(|&i| !dead[i]).collect();
            if healthy.len() >= 2 {
                let a = healthy[0];
                let c = healthy[healthy.len() - 1];
                let r = sys.run_in_cubicle(ids[a], |sys| sys.call(&format!("ping{c}"), &[]));
                assert_eq!(r.unwrap().as_i64(), 1, "{ctx}: healthy pair must serve");
            }
        }
    }
}
