//! Fault containment: quarantine, cross-call unwinding, microreboot.
//!
//! The tentpole robustness property: a cubicle that faults is confined
//! to itself. The monitor quarantines the offender (reclaiming its
//! pages, windows and key), unwinds the in-flight cross-call chain to
//! the nearest healthy caller as a POSIX errno, rejects further calls
//! into the offender with a typed error, and can microreboot it through
//! the trusted loader path — all while `System::audit()` stays clean.

use cubicle_core::{
    component_mut, impl_component, Builder, ComponentImage, CubicleError, CubicleState,
    InvariantClass, IsolationMode, System, SystemConfig, TraceEvent, Value,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;

struct Dummy;
impl_component!(Dummy);

/// An address far above anything the monitor ever maps.
const WILD: VAddr = VAddr::new(0x0FFF_0000);

fn load_plain(sys: &mut System, name: &str) -> cubicle_core::LoadedComponent {
    sys.load(
        ComponentImage::new(name, CodeImage::plain(256)),
        Box::new(Dummy),
    )
    .unwrap()
}

/// A component whose entries exercise every injected-fault shape.
struct Victim {
    restarted: u32,
}
impl Victim {
    fn note_restart(&mut self) {
        self.restarted += 1;
    }
}
impl_component!(Victim, restart = note_restart);

fn victim_image(name: &str) -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new(name, CodeImage::plain(512))
        .export(b.export("long v_ping(void)").unwrap(), |_sys, _this, _| {
            Ok(Value::I64(1))
        })
        .export(b.export("long v_wild(void)").unwrap(), |sys, _this, _| {
            sys.read_vec(WILD, 8)?;
            Ok(Value::I64(0))
        })
        .export(
            b.export("long v_wild_swallow(void)").unwrap(),
            |sys, _this, _| {
                // Faults, then pretends nothing happened: the monitor
                // must not trust the swallowed error.
                let _ = sys.read_vec(WILD, 8);
                Ok(Value::I64(7))
            },
        )
        .export(
            b.export("long v_quarantine_self(void)").unwrap(),
            |sys, _this, _| {
                // Quarantined mid-call, yet reports success.
                sys.quarantine(sys.current_cubicle(), "self-inflicted")?;
                Ok(Value::I64(7))
            },
        )
        .export(b.export("long v_spin(void)").unwrap(), |sys, _this, _| {
            // Overruns any cycle budget and swallows the watchdog trip.
            let buf = sys.heap_alloc(64, 8)?;
            (0..100_000)
                .take_while(|_| sys.read_u64(buf).is_ok())
                .count();
            Ok(Value::I64(7))
        })
        .export(
            b.export("long v_deref(const void *p)").unwrap(),
            |sys, _this, args| {
                sys.read_vec(args[0].as_ptr(), 8)?;
                Ok(Value::I64(0))
            },
        )
        .export(
            b.export("long v_hog(uint64_t bytes)").unwrap(),
            |sys, _this, args| {
                sys.heap_alloc(args[0].as_u64() as usize, 8)?;
                Ok(Value::I64(0))
            },
        )
        .export(
            b.export("long v_restarts(void)").unwrap(),
            |_sys, this, _| {
                Ok(Value::I64(i64::from(
                    component_mut::<Victim>(this).restarted,
                )))
            },
        )
}

fn setup() -> (System, cubicle_core::CubicleId, cubicle_core::CubicleId) {
    setup_with(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    })
}

fn setup_with(config: SystemConfig) -> (System, cubicle_core::CubicleId, cubicle_core::CubicleId) {
    let mut sys = System::new(config);
    let app = load_plain(&mut sys, "APP");
    let victim = sys
        .load(victim_image("VICTIM"), Box::new(Victim { restarted: 0 }))
        .unwrap();
    (sys, app.cid, victim.cid)
}

// ---------------------------------------------------------------------------
// Quarantine teardown
// ---------------------------------------------------------------------------

#[test]
fn quarantine_reclaims_everything_and_audits_clean() {
    let (mut sys, app, victim) = setup();
    // Give the victim live state: a buffer published through a window.
    let buf = sys.run_in_cubicle(victim, |sys| {
        let buf = sys.heap_alloc(64, 8).unwrap();
        sys.write(buf, b"victim data").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 64).unwrap();
        sys.window_open(wid, app).unwrap();
        buf
    });

    sys.quarantine(victim, "test teardown").unwrap();

    assert!(sys.cubicle(victim).is_quarantined());
    assert_eq!(sys.cubicle(victim).state, CubicleState::Quarantined);
    assert_eq!(sys.stats().quarantines, 1);
    sys.audit().assert_clean("post quarantine");

    // The reclaimed page is tombstoned: a dangling reference yields a
    // typed error naming the dead cubicle, not a wild machine fault.
    let err = sys.run_in_cubicle(app, |sys| sys.read_vec(buf, 8));
    assert!(
        matches!(err, Err(CubicleError::Quarantined { cubicle }) if cubicle == victim),
        "tombstone must name the dead cubicle, got {err:?}"
    );

    // Cross-calls into the offender are refused with a typed error.
    let err = sys.run_in_cubicle(app, |sys| sys.call("v_ping", &[]));
    assert!(matches!(err, Err(CubicleError::Quarantined { cubicle }) if cubicle == victim));

    // The monitor grants a quarantined cubicle nothing.
    let err = sys.heap_alloc_for(victim, 64, 8);
    assert!(matches!(err, Err(CubicleError::Quarantined { .. })));
}

#[test]
fn quarantine_rejects_monitor_unknown_and_double() {
    let (mut sys, _app, victim) = setup();
    assert!(matches!(
        sys.quarantine(cubicle_core::CubicleId::MONITOR, "no"),
        Err(CubicleError::InvalidArgument(_))
    ));
    assert!(matches!(
        sys.quarantine(cubicle_core::CubicleId(99), "no"),
        Err(CubicleError::NoSuchCubicle(_))
    ));
    sys.quarantine(victim, "first").unwrap();
    assert!(matches!(
        sys.quarantine(victim, "second"),
        Err(CubicleError::InvalidArgument(_))
    ));
}

// ---------------------------------------------------------------------------
// Containment policy: auto-quarantine + unwind to errno
// ---------------------------------------------------------------------------

#[test]
fn wild_access_quarantines_callee_and_unwinds_to_errno() {
    let (mut sys, app, victim) = setup();
    let r = sys.run_in_cubicle(app, |sys| sys.call("v_wild", &[]));
    // The fault was contained: the healthy caller sees -EFAULT, not Err.
    assert_eq!(r.unwrap().as_i64(), -14, "EFAULT at the healthy boundary");
    assert!(sys.cubicle(victim).is_quarantined());
    let s = sys.stats();
    assert_eq!(
        (s.quarantines, s.unwound_frames, s.contained_faults),
        (1, 1, 1)
    );
    sys.audit().assert_clean("post contained fault");

    // The rest of the system keeps serving.
    let ok = sys.run_in_cubicle(app, |sys| sys.heap_alloc(64, 8));
    assert!(ok.is_ok());
}

#[test]
fn swallowed_fault_in_quarantined_callee_is_overridden() {
    let (mut sys, app, victim) = setup();
    let r = sys.run_in_cubicle(app, |sys| sys.call("v_wild_swallow", &[]));
    // The callee returned Ok(7), but it was quarantined mid-call: the
    // monitor does not trust a faulting component's own return value.
    assert_eq!(r.unwrap().as_i64(), -14);
    assert!(sys.cubicle(victim).is_quarantined());
}

#[test]
fn quarantined_callee_ok_is_one_outcome_through_both_entry_points() {
    for containment in [false, true] {
        for (name, budget, errno) in [
            ("v_quarantine_self", None, -14),
            ("v_spin", Some(10_000), -110),
        ] {
            let run = |batched: bool| {
                let (mut sys, app, victim) = setup_with(SystemConfig {
                    fault_containment: containment,
                    cycle_budget: budget,
                    ..IsolationMode::Full.into()
                });
                let entry = sys.entry(name).unwrap();
                let r = sys.run_in_cubicle(app, |sys| match batched {
                    true => sys.cross_call_batch(entry, &[&[]]).map(|v| v[0]),
                    false => sys.cross_call(entry, &[]),
                });
                assert!(sys.cubicle(victim).is_quarantined(), "{name}");
                sys.audit().assert_clean(name);
                r.map(|v| v.as_i64()).map_err(
                    |e| matches!(e, CubicleError::Quarantined { cubicle } if cubicle == victim),
                )
            };
            let single = run(false);
            assert_eq!(single, run(true), "{name}, containment {containment}");
            // The callee's Ok is never trusted: Err(Quarantined), or its errno.
            let want = containment.then_some(errno).ok_or(true);
            assert_eq!(single, want, "{name}, containment {containment}");
        }
    }
}

#[test]
fn bad_pointer_passing_blames_the_caller() {
    let (mut sys, app, victim) = setup();
    // APP passes a pointer to its own memory without opening a window:
    // the confused-deputy rule blames the pointer's owner in the call
    // chain, not the deputy that dereferenced it.
    let r = sys.run_in_cubicle(app, |sys| {
        let secret = sys.heap_alloc(32, 8).unwrap();
        sys.call("v_deref", &[Value::Ptr(secret)])
    });
    // APP itself is the quarantined party, so the error unwinds as Err
    // all the way out of its own frame.
    assert!(
        r.is_err(),
        "no healthy boundary inside the offender's chain"
    );
    assert!(sys.cubicle(app).is_quarantined(), "owner is the offender");
    assert!(
        !sys.cubicle(victim).is_quarantined(),
        "deputy stays healthy"
    );
    sys.audit().assert_clean("post confused-deputy quarantine");
}

#[test]
fn heap_exhaustion_unwinds_as_enomem_without_quarantine() {
    let (mut sys, app, victim) = setup();
    sys.set_heap_limit(victim, Some(64)).unwrap();
    let r = sys.run_in_cubicle(app, |sys| {
        sys.call("v_hog", &[Value::U64(64 * 1024 * 1024)])
    });
    assert_eq!(r.unwrap().as_i64(), -12, "ENOMEM at the healthy boundary");
    // Resource exhaustion is contained but is not an isolation breach:
    // the callee stays in service.
    assert!(!sys.cubicle(victim).is_quarantined());
    assert_eq!(sys.stats().contained_faults, 1);
    let ok = sys.run_in_cubicle(app, |sys| sys.call("v_ping", &[]));
    assert_eq!(ok.unwrap().as_i64(), 1);
}

#[test]
fn policy_off_keeps_raw_errors_and_never_quarantines() {
    let mut sys = System::new(IsolationMode::Full);
    let app = load_plain(&mut sys, "APP");
    let victim = sys
        .load(victim_image("VICTIM"), Box::new(Victim { restarted: 0 }))
        .unwrap();
    assert!(!sys.fault_containment());
    let r = sys.run_in_cubicle(app.cid, |sys| sys.call("v_wild", &[]));
    assert!(matches!(r, Err(CubicleError::MachineFault(_))));
    assert!(!sys.cubicle(victim.cid).is_quarantined());
    let s = sys.stats();
    assert_eq!(
        (s.quarantines, s.unwound_frames, s.contained_faults),
        (0, 0, 0)
    );
}

// ---------------------------------------------------------------------------
// Microreboot
// ---------------------------------------------------------------------------

#[test]
fn restart_reboots_through_the_loader_and_serves_again() {
    let (mut sys, app, victim) = setup();
    let r = sys.run_in_cubicle(app, |sys| sys.call("v_wild", &[]));
    assert_eq!(r.unwrap().as_i64(), -14);
    assert!(sys.cubicle(victim).is_quarantined());

    sys.restart(victim).unwrap();

    let c = sys.cubicle(victim);
    assert_eq!(c.state, CubicleState::Active);
    assert_eq!(c.generation, 1);
    assert_eq!(sys.stats().restarts, 1);
    sys.audit().assert_clean("post restart");

    // Entry IDs survived the reboot; the component's restart hook ran.
    let (ping, restarts) = sys.run_in_cubicle(app, |sys| {
        let ping = sys.call("v_ping", &[]).unwrap().as_i64();
        let restarts = sys.call("v_restarts", &[]).unwrap().as_i64();
        (ping, restarts)
    });
    assert_eq!(ping, 1);
    assert_eq!(restarts, 1, "Component::on_restart must have run");

    // And the reborn cubicle can fault & recover again (generation 2).
    let r = sys.run_in_cubicle(app, |sys| sys.call("v_wild", &[]));
    assert_eq!(r.unwrap().as_i64(), -14);
    sys.restart(victim).unwrap();
    assert_eq!(sys.cubicle(victim).generation, 2);
    sys.audit().assert_clean("post second restart");
}

#[test]
fn restart_requires_a_quarantined_idle_cubicle() {
    let (mut sys, _app, victim) = setup();
    assert!(matches!(
        sys.restart(victim),
        Err(CubicleError::InvalidArgument(_))
    ));
    assert!(matches!(
        sys.restart(cubicle_core::CubicleId(99)),
        Err(CubicleError::NoSuchCubicle(_))
    ));
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

#[test]
fn containment_emits_trace_events_and_exports() {
    let (mut sys, app, victim) = setup();
    sys.enable_tracing(4096);
    let r = sys.run_in_cubicle(app, |sys| sys.call("v_wild", &[]));
    assert_eq!(r.unwrap().as_i64(), -14);
    sys.restart(victim).unwrap();

    let events: Vec<TraceEvent> = sys.trace().unwrap().records().map(|r| r.event).collect();
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Quarantine { cubicle } if *cubicle == victim)));
    assert!(events.iter().any(
        |e| matches!(e, TraceEvent::Restart { cubicle, generation: 1 } if *cubicle == victim)
    ));
    assert!(events.iter().any(
        |e| matches!(e, TraceEvent::FaultContained { callee, caller, errno: -14 }
                if *callee == victim && *caller == app)
    ));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::PageReclaim { .. })));

    let chrome = sys.export_chrome_trace();
    assert!(chrome.contains("\"quarantined\""));
    assert!(chrome.contains("fault_contained"));
    assert!(chrome.contains("page_reclaim"));

    let prom = sys.export_prometheus();
    assert!(prom.contains("cubicle_quarantines_total 1"));
    assert!(prom.contains("cubicle_restarts_total 1"));
    assert!(prom.contains("cubicle_unwound_frames_total 1"));
    assert!(prom.contains("cubicle_contained_faults_total 1"));
    assert!(prom.contains("cubicle_page_reclaims_total"));

    let audit_log = sys.export_fault_audit();
    assert!(audit_log.contains("containment: quarantined VICTIM"));
    assert!(audit_log.contains("containment: restarted VICTIM"));

    let stats_text = sys.stats().to_string();
    assert!(stats_text.contains("quarantines: 1"));
}

#[test]
fn healthy_stats_display_omits_containment_line() {
    // The golden Fig. 6 surface: a run without containment events must
    // render exactly as before this machinery existed.
    let (mut sys, app, _victim) = setup();
    let ok = sys.run_in_cubicle(app, |sys| sys.call("v_ping", &[]));
    assert_eq!(ok.unwrap().as_i64(), 1);
    assert!(!sys.stats().to_string().contains("quarantines"));
}

#[test]
fn audit_flags_a_half_torn_down_quarantine() {
    let (mut sys, _app, victim) = setup();
    sys.run_in_cubicle(victim, |sys| {
        sys.heap_alloc(64, 8).unwrap();
    });
    // Seeded corruption: mark quarantined without the teardown.
    sys.corrupt_quarantine_for_test(victim);
    let report = sys.audit();
    assert!(!report.is_clean());
    assert!(
        report.of_class(InvariantClass::Quarantine).count() >= 2,
        "pages + live key (at least) must be flagged:\n{report}"
    );
}
