//! CubicleSan integration tests: the seeded lock-elision experiment,
//! silence on well-behaved multi-core runs, cycle identity with
//! detection on vs off, the audit's sanitizer class, and the
//! fault-audit export block the harnesses grep.

use cubicle_core::{impl_component, ComponentImage, IsolationMode, System, SystemConfig};
use cubicle_mpk::insn::CodeImage;

struct Dummy;
impl_component!(Dummy);

/// A Full-mode kernel on `cores` cores, with CubicleSan on or off.
fn kernel(cores: usize, race_detection: bool) -> System {
    System::new(SystemConfig {
        cores,
        race_detection,
        ..IsolationMode::Full.into()
    })
}

fn load_plain(sys: &mut System, name: &str) -> cubicle_core::LoadedComponent {
    sys.load(
        ComponentImage::new(name, CodeImage::plain(256)),
        Box::new(Dummy),
    )
    .unwrap()
}

/// A deterministic multi-core workload that takes every monitor lock:
/// heap traffic (Ledger), window grants (Windows), trap-and-map faults
/// (PageMeta) and the cross-core grant-cache hits they warm
/// (GrantCache), spread over 4 cores (`sys` must have at least 4).
fn multicore_workload(sys: &mut System) {
    let a = load_plain(sys, "A");
    let b = load_plain(sys, "B");
    let b_cid = b.cid;

    for round in 0..4usize {
        sys.switch_to_core(round);
        let buf = sys.run_in_cubicle(a.cid, |sys| {
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            sys.write(buf, b"cross-core payload").unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, buf, 4096).unwrap();
            sys.window_open(wid, b_cid).unwrap();
            buf
        });
        sys.switch_to_core((round + 1) % 4);
        let data = sys.run_in_cubicle(b.cid, |sys| sys.read_vec(buf, 18).unwrap());
        assert_eq!(data, b"cross-core payload");
        sys.switch_to_core(round);
        sys.run_in_cubicle(a.cid, |sys| sys.heap_free(buf).unwrap());
    }
}

#[test]
fn seeded_lock_elision_reports_exactly_that_pair() {
    let mut sys = kernel(2, true);

    // The well-behaved half on core 0, the elided write on core 1 with
    // no intervening lock traffic: no happens-before edge, no common
    // lock — the canonical race.
    sys.switch_to_core(0);
    sys.san_probe_locked_for_test();
    sys.switch_to_core(1);
    sys.san_probe_elided_for_test();

    let reports = sys.race_reports();
    assert_eq!(reports.len(), 1, "exactly the seeded pair: {reports:?}");
    let text = reports[0].to_string();
    assert!(
        text.contains("san_probe:page_meta.locked_write")
            && text.contains("san_probe:page_meta.elided_write"),
        "report must attribute both sites: {text}"
    );
    assert!(text.contains("page_meta"), "object named: {text}");
    assert_eq!(sys.stats().race_reports, 1);
}

#[test]
fn clean_multicore_run_is_silent() {
    let mut sys = kernel(4, true);
    multicore_workload(&mut sys);

    assert_eq!(sys.race_reports().len(), 0, "{:?}", sys.race_reports());
    assert_eq!(sys.lockorder_cycle(), None);
    assert!(sys.lockset_violations().is_empty());
    assert!(
        sys.lockorder_edges() > 0,
        "the workload must actually nest locks for the graph to mean anything"
    );
    let audit = sys.audit();
    assert!(audit.is_clean(), "sanitizer-clean audit:\n{audit}");
}

#[test]
fn detection_is_a_pure_observer_cycles_bit_identical() {
    let run = |detect: bool| -> (u64, Vec<u64>) {
        let mut sys = kernel(4, detect);
        multicore_workload(&mut sys);
        (sys.now(), (0..4).map(|i| sys.core_cycles(i)).collect())
    };
    let (now_off, cores_off) = run(false);
    let (now_on, cores_on) = run(true);
    assert_eq!(now_off, now_on, "detector charged simulated cycles");
    assert_eq!(cores_off, cores_on, "per-core clocks must be bit-identical");
}

#[test]
fn audit_carries_the_sanitizer_class() {
    let mut sys = kernel(2, true);
    sys.switch_to_core(0);
    sys.san_probe_locked_for_test();
    sys.switch_to_core(1);
    sys.san_probe_elided_for_test();

    let audit = sys.audit();
    assert!(!audit.is_clean(), "race must dirty the audit");
    let text = audit.to_string();
    assert!(text.contains("sanitizer"), "class named in report:\n{text}");
    assert!(
        text.contains("san_probe:page_meta.elided_write"),
        "finding carries the offending site:\n{text}"
    );
}

#[test]
fn export_block_is_gated_on_detection() {
    // Off: the export must stay byte-free of sanitizer lines, so
    // feature-off runs are identical to the pre-sanitizer kernel.
    let mut sys = kernel(4, false);
    multicore_workload(&mut sys);
    let off = sys.export_fault_audit();
    assert!(!off.contains("races:"), "off-export leaked: {off}");
    assert!(!off.contains("lockorder:"));
    assert!(!off.contains("sanitizer:"));

    // On and clean: exactly the lines CI greps.
    let mut sys = kernel(4, true);
    multicore_workload(&mut sys);
    let on = sys.export_fault_audit();
    assert!(on.contains("races: 0\n"), "{on}");
    assert!(on.contains("lockorder: acyclic\n"), "{on}");
    assert!(on.contains("lockset-violations: 0\n"), "{on}");

    // On and racy: the report line appears, greppable as non-zero.
    let mut sys = kernel(2, true);
    sys.switch_to_core(0);
    sys.san_probe_locked_for_test();
    sys.switch_to_core(1);
    sys.san_probe_elided_for_test();
    let racy = sys.export_fault_audit();
    assert!(racy.contains("races: 1\n"), "{racy}");
    assert!(racy.contains("sanitizer:"), "{racy}");
}

#[test]
fn detection_off_records_no_history() {
    // The seeded elision on a kernel built without CubicleSan leaves
    // nothing behind: no reports, no lock-order edges, a clean audit.
    let mut sys = kernel(2, false);
    sys.switch_to_core(0);
    sys.san_probe_locked_for_test();
    sys.switch_to_core(1);
    sys.san_probe_elided_for_test();
    assert!(sys.race_reports().is_empty());
    assert_eq!(sys.lockorder_edges(), 0);
    assert_eq!(sys.stats().race_reports, 0);
    sys.audit().assert_clean("detection off");

    // A kernel built with it starts from a clean slate.
    let sys = kernel(2, true);
    assert!(sys.race_reports().is_empty());
    assert_eq!(sys.lockorder_edges(), 0);
}
