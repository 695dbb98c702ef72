//! Integration tests for the per-call-edge cycle watchdog: a callee
//! that overruns its cross-call cycle budget is quarantined mid-call,
//! the caller unwinds to `-ETIMEDOUT`, and unrelated cubicles keep
//! serving.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, IsolationMode, System,
    SystemConfig, Value,
};
use cubicle_mpk::insn::CodeImage;

struct Node;
impl_component!(Node);

/// Loads a driver, a callee that busy-loops `spin_forever` for far more
/// cycles than any budget allows, and a healthy echo pair, on a kernel
/// with the given containment policy and default cycle budget.
fn setup(fault_containment: bool, cycle_budget: Option<u64>) -> (System, CubicleId, CubicleId) {
    let b = Builder::new();
    let mut sys = System::new(SystemConfig {
        fault_containment,
        cycle_budget,
        ..IsolationMode::Full.into()
    });
    let app = sys
        .load(
            ComponentImage::new("APP", CodeImage::plain(4096)).heap_pages(32),
            Box::new(Node),
        )
        .unwrap();
    let spinner = sys
        .load(
            ComponentImage::new("SPIN", CodeImage::plain(4096))
                .heap_pages(32)
                .export(
                    b.export("long spin_forever(void)").unwrap(),
                    |sys, _this, _| {
                        let buf = sys.heap_alloc(64, 8)?;
                        sys.write_u64(buf, 1)?;
                        // A runaway loop: each iteration burns simulated
                        // cycles, so a cycle budget must cut it short.
                        for _ in 0..100_000 {
                            sys.read_u64(buf)?;
                        }
                        Ok(Value::I64(0))
                    },
                )
                .export(
                    b.export("long spin_quick(void)").unwrap(),
                    |sys, _this, _| {
                        let buf = sys.heap_alloc(64, 8)?;
                        sys.write_u64(buf, 7)?;
                        let v = sys.read_u64(buf)?;
                        Ok(Value::I64(v as i64))
                    },
                ),
            Box::new(Node),
        )
        .unwrap();
    sys.load(
        ComponentImage::new("ECHO", CodeImage::plain(4096))
            .heap_pages(32)
            .export(
                b.export("long echo(long v)").unwrap(),
                |_sys, _this, args| Ok(Value::I64(args[0].as_i64())),
            ),
        Box::new(Node),
    )
    .unwrap();
    (sys, app.cid, spinner.cid)
}

#[test]
fn runaway_callee_times_out_and_caller_sees_etimedout() {
    let (mut sys, app, spinner) = setup(true, Some(10_000));

    // The runaway call is cut short: the callee is quarantined mid-call
    // and the unwind converts the trip to -ETIMEDOUT at the caller.
    let r = sys.run_in_cubicle(app, |sys| sys.call("spin_forever", &[]));
    assert_eq!(
        r.unwrap().as_i64(),
        -110,
        "caller sees ETIMEDOUT, not a crash"
    );
    assert_eq!(sys.stats().watchdog_trips, 1);
    assert!(
        sys.cubicle(spinner).is_quarantined(),
        "offender is quarantined"
    );

    // The rest of the system keeps serving.
    let r = sys.run_in_cubicle(app, |sys| sys.call("echo", &[Value::I64(42)]));
    assert_eq!(
        r.unwrap().as_i64(),
        42,
        "healthy pair unaffected by the trip"
    );

    // Fresh calls into the timed-out cubicle are typed-rejected until
    // restart, exactly like any other quarantined cubicle.
    let r = sys.run_in_cubicle(app, |sys| sys.call("spin_quick", &[]));
    assert!(
        matches!(r, Err(CubicleError::Quarantined { cubicle }) if cubicle == spinner),
        "quarantined-by-watchdog rejects new calls, got {r:?}"
    );

    // Kernel invariants hold after the mid-call unwind.
    assert!(sys.audit().is_clean(), "audit clean after watchdog unwind");
}

#[test]
fn watchdog_trip_without_containment_surfaces_typed_error() {
    let (mut sys, app, spinner) = setup(false, Some(10_000));
    let r = sys.run_in_cubicle(app, |sys| sys.call("spin_forever", &[]));
    assert!(
        matches!(r, Err(CubicleError::CycleBudgetExceeded { cubicle }) if cubicle == spinner),
        "raw typed error without containment, got {r:?}"
    );
    assert_eq!(sys.stats().watchdog_trips, 1);
}

#[test]
fn restart_recovers_a_timed_out_cubicle() {
    let (mut sys, app, spinner) = setup(true, Some(10_000));
    let r = sys.run_in_cubicle(app, |sys| sys.call("spin_forever", &[]));
    assert_eq!(r.unwrap().as_i64(), -110);

    sys.restart(spinner).unwrap();
    let r = sys.run_in_cubicle(app, |sys| sys.call("spin_quick", &[]));
    assert_eq!(r.unwrap().as_i64(), 7, "microrebooted cubicle serves again");

    // The timed-out marker was cleared: a later ordinary fault in the
    // restarted cubicle reports EFAULT, not a stale ETIMEDOUT.
    assert_eq!(sys.stats().watchdog_trips, 1);
}

#[test]
fn edge_budget_overrides_the_global_default() {
    // Global budget generous enough for the spin loop; the specific
    // APP→SPIN edge gets a tight override.
    let (mut sys, app, spinner) = setup(true, Some(u64::MAX / 2));
    sys.set_edge_cycle_budget(app, spinner, Some(10_000));
    let r = sys.run_in_cubicle(app, |sys| sys.call("spin_forever", &[]));
    assert_eq!(r.unwrap().as_i64(), -110, "edge override trips first");
    assert_eq!(sys.stats().watchdog_trips, 1);
}

#[test]
fn generous_budget_never_trips() {
    let (mut sys, app, _spinner) = setup(true, Some(u64::MAX / 2));
    let r = sys.run_in_cubicle(app, |sys| sys.call("spin_quick", &[]));
    assert_eq!(r.unwrap().as_i64(), 7);
    let r = sys.run_in_cubicle(app, |sys| sys.call("echo", &[Value::I64(9)]));
    assert_eq!(r.unwrap().as_i64(), 9);
    assert_eq!(
        sys.stats().watchdog_trips,
        0,
        "healthy workload never trips"
    );
}

#[test]
fn budget_accounting_is_cycle_exact_when_disarmed() {
    // Arming and never tripping must not change simulated cycles: the
    // watchdog polls state, it does not charge the workload.
    let (mut plain, a1, _) = setup(false, None);
    let (mut armed, a2, _) = setup(false, Some(u64::MAX / 2));
    for sys_app in [(&mut plain, a1), (&mut armed, a2)] {
        let (sys, app) = sys_app;
        let r = sys.run_in_cubicle(app, |sys| sys.call("spin_quick", &[]));
        assert_eq!(r.unwrap().as_i64(), 7);
    }
    assert_eq!(
        plain.now(),
        armed.now(),
        "an armed-but-silent watchdog is free"
    );
}
