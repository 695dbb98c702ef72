//! `mt` — the multi-core smoke gate.
//!
//! Exercises the interleaved fig-5 siege at N cores and checks the
//! tentpole's hard guarantees:
//!
//! 1. **Replay determinism**: two sieges with the same scheduler seed
//!    produce bit-identical digests, makespans and per-core clocks.
//! 2. **Audit**: the kernel invariant auditor — including the
//!    concurrency/lock-discipline class — is clean after the siege.
//! 3. **Containment**: a faultstorm leg (wild RAMFS access from a
//!    non-zero core mid-siege) is fully contained and the deployment
//!    serves again after a microreboot.
//! 4. **Sanitizer**: a CubicleSan leg re-runs the siege with race
//!    detection on — the digest must match the detection-off run (the
//!    detector is a pure observer), the run must be race-free with an
//!    acyclic lock order, and a *seeded* lock elision must be caught
//!    with exactly the planted access pair attributed.
//!
//! Exit status is non-zero unless all four hold. The CI `mt-smoke` job
//! greps the literal `audit: clean`, `replay: deterministic`,
//! `uncontained: 0`, `races: 0` and `lockorder: acyclic` lines from
//! stdout.
//!
//! Usage: `mt [cores] [requests]`

use cubicle_bench::mt::{boot_and_siege, faultstorm_leg, MtConfig};
use cubicle_core::{IsolationMode, System, SystemConfig};

/// Seed of the smoke siege (the run is a pure function of it).
const SEED: u64 = 0xC0DE_CAFE;

fn main() {
    let cores: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let requests: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);

    println!("== mt smoke: {cores} cores x {requests} requests, seed {SEED:#x} ==");
    let cfg = MtConfig::new(requests, SEED);
    let config = SystemConfig {
        cores,
        ..IsolationMode::Full.into()
    };
    let (a, sys) = boot_and_siege(config, &cfg).expect("siege A");
    let (b, _) = boot_and_siege(config, &cfg).expect("siege B");
    println!(
        "siege: {}/{} requests, makespan {} cycles, {} switches, digest {:#018x}",
        a.requests_done, requests, a.makespan_cycles, a.switches, a.digest
    );
    for (i, c) in a.core_cycles.iter().enumerate() {
        println!("  core {i}: {c} cycles");
    }
    let replay_ok = a == b;
    if !replay_ok {
        println!(
            "DIVERGED: digests {:#018x} vs {:#018x}, makespans {} vs {}",
            a.digest, b.digest, a.makespan_cycles, b.makespan_cycles
        );
    }

    let audit = sys.audit();
    let audit_ok = audit.is_clean();
    if !audit_ok {
        println!("audit findings:\n{audit}");
    }

    println!("== cubiclesan leg ({cores} cores) ==");
    let san_config = SystemConfig {
        race_detection: true,
        ..config
    };
    let (s, san_sys) = boot_and_siege(san_config, &cfg).expect("siege with CubicleSan");
    let san_observer_ok = s == a;
    if !san_observer_ok {
        println!(
            "DIVERGED: detection-on digest {:#018x} vs off {:#018x}",
            s.digest, a.digest
        );
    }
    // The verdict block of the fault-audit export, verbatim — CI greps
    // `^races: 0$` and `^lockorder: acyclic$` from these lines.
    for line in san_sys.export_fault_audit().lines() {
        if line.starts_with("sanitizer:")
            || line.starts_with("races:")
            || line.starts_with("lockorder:")
            || line.starts_with("lockset-violations:")
        {
            println!("{line}");
        }
    }
    let san_clean = san_sys.race_reports().is_empty()
        && san_sys.lockorder_cycle().is_none()
        && san_sys.lockset_violations().is_empty();

    // Seeded lock elision: plant the classic bug and require CubicleSan
    // to report exactly that access pair — a silent detector must fail
    // the gate just as loudly as a false positive.
    let mut seeded = System::new(SystemConfig {
        cores: 2,
        race_detection: true,
        ..IsolationMode::Full.into()
    });
    seeded.switch_to_core(0);
    seeded.san_probe_locked_for_test();
    seeded.switch_to_core(1);
    seeded.san_probe_elided_for_test();
    let seeded_caught = seeded.race_reports().len() == 1
        && seeded.race_reports()[0]
            .to_string()
            .contains("san_probe:page_meta.elided_write");
    if !seeded_caught {
        println!(
            "MISSED: seeded lock elision not attributed: {:?}",
            seeded.race_reports()
        );
    }

    println!("== faultstorm leg ({cores} cores) ==");
    let uncontained = faultstorm_leg(cores, SEED ^ 0xF00D);

    println!("== summary ==");
    println!("requests: {}", a.requests_done);
    println!("uncontained: {uncontained}");
    println!(
        "replay: {}",
        if replay_ok {
            "deterministic"
        } else {
            "DIVERGED"
        }
    );
    println!("audit: {}", if audit_ok { "clean" } else { "dirty" });
    println!(
        "sanitizer: {}",
        if san_observer_ok && san_clean && seeded_caught {
            "clean"
        } else {
            "FAILED"
        }
    );
    if !replay_ok
        || !audit_ok
        || uncontained != 0
        || a.requests_done != requests
        || !san_observer_ok
        || !san_clean
        || !seeded_caught
    {
        std::process::exit(1);
    }
}
