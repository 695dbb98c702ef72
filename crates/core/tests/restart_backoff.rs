//! Restart backoff policy: a crash-looping cubicle waits exponentially
//! longer between incarnations (delay = base × 2^generation, measured in
//! simulated cycles from the quarantine timestamp), and is refused
//! permanently once its restart strikes are spent.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, IsolationMode, RestartPolicy, System,
    SystemConfig, Value,
};
use cubicle_mpk::insn::CodeImage;

struct Dummy;
impl_component!(Dummy);

fn boot(restart_policy: Option<RestartPolicy>) -> (System, cubicle_core::CubicleId) {
    let mut sys = System::new(SystemConfig {
        restart_policy,
        ..IsolationMode::Full.into()
    });
    let b = Builder::new();
    let v = sys
        .load(
            ComponentImage::new("V", CodeImage::plain(256))
                .export(b.export("long v_ping(void)").unwrap(), |_sys, _this, _| {
                    Ok(Value::I64(1))
                }),
            Box::new(Dummy),
        )
        .unwrap();
    (sys, v.cid)
}

#[test]
fn backoff_delays_each_incarnation_exponentially() {
    const BASE: u64 = 1_000_000;
    let (mut sys, v) = boot(Some(RestartPolicy {
        base_backoff_cycles: BASE,
        max_restarts: 8,
    }));

    // Generation 0: the first restart must wait base × 2^0 cycles from
    // the quarantine timestamp (the teardown itself burns cycles, so the
    // deadline anchors on the stamp, not on when quarantine() returned).
    sys.quarantine(v, "strike 1").unwrap();
    let deadline = match sys.restart(v) {
        Err(CubicleError::RestartBackoff { cubicle, ready_at }) => {
            assert_eq!(cubicle, v);
            assert_eq!(ready_at, sys.cubicle(v).quarantined_at + BASE);
            ready_at
        }
        other => panic!("expected RestartBackoff, got {other:?}"),
    };
    // Still early one cycle before the deadline …
    sys.charge(deadline - sys.now() - 1);
    assert!(matches!(
        sys.restart(v),
        Err(CubicleError::RestartBackoff { .. })
    ));
    // … and allowed exactly at it.
    sys.charge(1);
    sys.restart(v).unwrap();
    sys.audit().assert_clean("after first backoff restart");

    // Generation 1: the delay doubles.
    sys.quarantine(v, "strike 2").unwrap();
    match sys.restart(v) {
        Err(CubicleError::RestartBackoff { ready_at, .. }) => {
            assert_eq!(ready_at, sys.cubicle(v).quarantined_at + 2 * BASE);
        }
        other => panic!("expected RestartBackoff, got {other:?}"),
    }
    sys.charge(2 * BASE);
    sys.restart(v).unwrap();
    sys.audit().assert_clean("after second backoff restart");

    // Backoff errors are kernel-level refusals, not contained faults.
    sys.quarantine(v, "strike 3").unwrap();
    let err = sys.restart(v).unwrap_err();
    assert_eq!(err.contained_errno(), None);
}

#[test]
fn strikes_exhausted_means_permanent_quarantine() {
    let (mut sys, v) = boot(Some(RestartPolicy {
        base_backoff_cycles: 10,
        max_restarts: 3,
    }));

    for strike in 1..=3 {
        sys.quarantine(v, "crash loop").unwrap();
        sys.charge(1 << 20); // far past any backoff deadline
        sys.restart(v)
            .unwrap_or_else(|e| panic!("strike {strike} should restart: {e:?}"));
    }

    // Fourth quarantine: generation == max_restarts, written off.
    sys.quarantine(v, "final crash").unwrap();
    sys.charge(1 << 20);
    match sys.restart(v) {
        Err(CubicleError::PermanentlyQuarantined { cubicle }) => assert_eq!(cubicle, v),
        other => panic!("expected PermanentlyQuarantined, got {other:?}"),
    }
    // The refusal is stable — waiting longer changes nothing.
    sys.charge(1 << 30);
    assert!(matches!(
        sys.restart(v),
        Err(CubicleError::PermanentlyQuarantined { .. })
    ));
    let err = sys.restart(v).unwrap_err();
    assert_eq!(err.contained_errno(), None);
    sys.audit()
        .assert_clean("permanent quarantine leaves a clean kernel");
}

#[test]
fn no_policy_means_immediate_restart() {
    let (mut sys, v) = boot(None);
    for _ in 0..4 {
        sys.quarantine(v, "crash").unwrap();
        sys.restart(v).unwrap(); // no delay, no strike budget
    }
    sys.audit().assert_clean("policy-free restarts");
}
