//! Determinism under concurrency (ISSUE 8, satellite 3).
//!
//! A multi-core siege is a pure function of its scheduler seed: two
//! replays must produce bit-identical merged traces (every record,
//! including its core stamp), per-core cycle totals and fault ordering.
//! And the 1-core scheduled path must collapse to exactly today's
//! single-hart run — same total cycles, same call and fault counts as a
//! plain sequential `fetch` loop that never heard of the scheduler.

use cubicle_bench::mt::{prepare_web_files, run_siege, MtConfig, MtOutcome, STANDARD_FILES};
use cubicle_core::{IsolationMode, SystemConfig};
use cubicle_httpd::boot_web;
use cubicle_net::WireModel;

/// A cheap wire so the (host-slow) debug-mode runs stay quick without
/// changing what is being tested: interleaving, locking, trap-and-map.
fn fast_wire() -> WireModel {
    WireModel {
        hop_cycles: 2_000,
        per_byte_cycles: 1,
        request_overhead_cycles: 50_000,
    }
}

/// A Full-mode kernel on `cores` cores, with CubicleSan on or off.
fn full(cores: usize, race_detection: bool) -> SystemConfig {
    SystemConfig {
        cores,
        race_detection,
        ..IsolationMode::Full.into()
    }
}

/// Everything observable about one traced siege, bitwise-comparable.
#[derive(PartialEq, Debug)]
struct RunRecord {
    outcome: MtOutcome,
    /// Merged trace: (timestamp, core, event) of every record.
    trace: Vec<String>,
    faults_resolved: u64,
    cross_calls: u64,
}

fn traced_siege(seed: u64, cores: usize, requests: usize) -> RunRecord {
    let mut dep = boot_web(full(cores, false)).expect("boot_web");
    dep.sys.enable_tracing(1 << 16);
    prepare_web_files(&mut dep).expect("files");
    let mut cfg = MtConfig::new(requests, seed);
    cfg.wire = fast_wire();
    let outcome = run_siege(&mut dep, &cfg).expect("siege");
    let report = dep.sys.audit();
    report.assert_clean("mt determinism siege");
    let trace = dep
        .sys
        .trace()
        .expect("tracing on")
        .records()
        .map(|r| format!("{r:?}"))
        .collect();
    let stats = dep.sys.stats();
    RunRecord {
        outcome,
        trace,
        faults_resolved: stats.faults_resolved,
        cross_calls: stats.cross_calls,
    }
}

#[test]
fn multi_core_sieges_replay_bit_identically_across_seeds() {
    for seed in 0..16u64 {
        let a = traced_siege(seed, 4, 6);
        let b = traced_siege(seed, 4, 6);
        assert!(!a.trace.is_empty(), "seed {seed}: trace must record");
        assert_eq!(a, b, "seed {seed}: replay must be bit-identical");
    }
}

/// ISSUE 9 acceptance: the unmutated fig-5 siege, swept over the full
/// core matrix and 16 scheduler seeds with CubicleSan armed, must be
/// race-free with an acyclic lock order — and the detector must stay a
/// pure observer (same digest as the detection-off run).
#[test]
fn cubiclesan_sweep_is_race_free_and_a_pure_observer() {
    for cores in [1usize, 2, 4, 8] {
        for seed in 0..16u64 {
            let mut dep = boot_web(full(cores, true)).expect("boot_web");
            prepare_web_files(&mut dep).expect("files");
            let mut cfg = MtConfig::new(6, seed);
            cfg.wire = fast_wire();
            let on = run_siege(&mut dep, &cfg).expect("siege");
            assert_eq!(
                dep.sys.race_reports(),
                &[],
                "{cores} cores, seed {seed}: siege must be race-free"
            );
            assert_eq!(
                dep.sys.lockorder_cycle(),
                None,
                "{cores} cores, seed {seed}: lock order must stay acyclic"
            );
            assert!(
                dep.sys.lockset_violations().is_empty(),
                "{cores} cores, seed {seed}: {:?}",
                dep.sys.lockset_violations()
            );
            dep.sys.audit().assert_clean("cubiclesan sweep");

            // Observer check once per core count: detection off must
            // produce the identical outcome, per-core clocks included.
            if seed == 0 {
                let mut dep = boot_web(full(cores, false)).expect("boot_web");
                prepare_web_files(&mut dep).expect("files");
                let off = run_siege(&mut dep, &cfg).expect("siege");
                assert_eq!(off, on, "{cores} cores: detector charged cycles");
            }
        }
    }
}

#[test]
fn different_seeds_interleave_differently() {
    // Not a correctness requirement per se, but if every seed produced
    // the same interleaving the property test above would be vacuous.
    let a = traced_siege(1, 4, 6);
    let b = traced_siege(2, 4, 6);
    assert_ne!(
        (a.outcome.switches, a.outcome.digest),
        (b.outcome.switches, b.outcome.digest),
        "seeds 1 and 2 should schedule differently"
    );
}

#[test]
fn one_core_schedule_matches_the_single_hart_run() {
    // Scheduled 1-core siege.
    let requests = 6usize;
    let mut dep = boot_web(IsolationMode::Full).expect("boot_web");
    prepare_web_files(&mut dep).expect("files");
    let t0 = dep.sys.now();
    let mut cfg = MtConfig::new(requests, 7);
    cfg.wire = fast_wire();
    let outcome = run_siege(&mut dep, &cfg).expect("siege");
    let scheduled_cycles = dep.sys.now() - t0;
    let scheduled_stats = dep.sys.stats().clone();
    assert_eq!(outcome.switches, 0, "one core never switches");
    assert_eq!(outcome.makespan_cycles, scheduled_cycles);

    // The same requests through the plain sequential fetch loop on a
    // fresh deployment (the pre-PR single-hart path).
    let mut dep = boot_web(IsolationMode::Full).expect("boot_web");
    prepare_web_files(&mut dep).expect("files");
    let t0 = dep.sys.now();
    for i in 0..requests {
        let path = STANDARD_FILES[i % STANDARD_FILES.len()].0;
        let (_lat, resp) = dep.fetch(path, fast_wire()).expect("fetch");
        assert_eq!(resp.status, 200);
    }
    let sequential_cycles = dep.sys.now() - t0;
    let sequential_stats = dep.sys.stats().clone();

    assert_eq!(
        scheduled_cycles, sequential_cycles,
        "a 1-core schedule must be cycle-identical to the single-hart run"
    );
    assert_eq!(scheduled_stats.cross_calls, sequential_stats.cross_calls);
    assert_eq!(
        scheduled_stats.faults_resolved,
        sequential_stats.faults_resolved
    );
}
