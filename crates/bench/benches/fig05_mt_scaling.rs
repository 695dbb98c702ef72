//! Figure 5 (multi-core): NGINX siege throughput as simulated cores are
//! added — the headline curve of the multi-core simulator.
//!
//! Runs the same interleaved siege at 1, 2, 4 and 8 cores, each with one
//! concurrent connection per core, and reports the **makespan** (maximum
//! per-core cycle delta): with the work conserved, more cores means a
//! shorter makespan, i.e. higher aggregate throughput. Each run's
//! makespan lands in `BENCH_results.json` as `fig5_mt_scaling_<n>c`.

use cubicle_bench::mt::{boot_and_siege, MtConfig};
use cubicle_bench::report::results::BenchResults;
use cubicle_bench::report::{audit_gate, banner, factor, ms};
use cubicle_core::{IsolationMode, SystemConfig};
use std::time::Instant;

/// Scheduler seed for the recorded curve (any seed reproduces its own
/// interleaving bit-identically; this one is the canonical record).
const SEED: u64 = 0x5CA1_AB1E;

fn main() {
    banner(
        "Figure 5 (multi-core): NGINX siege throughput vs simulated cores",
        "Sartakov et al., ASPLOS'21, Fig. 5/7 deployment, multi-core extension",
    );
    let requests: usize = std::env::var("CUBICLE_MT_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);

    let mut results = BenchResults::new();
    let mut baseline = None;
    println!("issuing {requests} requests per configuration…\n");
    println!(
        "{:>5} {:>9} {:>16} {:>12} {:>12} {:>10} {:>9}",
        "cores", "requests", "makespan", "sim time", "req/Mcycle", "speedup", "switches"
    );
    println!("{}", "-".repeat(79));
    for cores in [1usize, 2, 4, 8] {
        let cfg = MtConfig::new(requests, SEED);
        let t0 = Instant::now();
        let config = SystemConfig {
            cores,
            ..IsolationMode::Full.into()
        };
        let (outcome, sys) = boot_and_siege(config, &cfg).unwrap();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(outcome.requests_done, requests, "every request must land");
        audit_gate(&sys, &format!("fig5 mt siege, {cores} cores"));

        let speedup = match baseline {
            None => {
                baseline = Some(outcome.makespan_cycles);
                1.0
            }
            Some(one_core) => one_core as f64 / outcome.makespan_cycles as f64,
        };
        println!(
            "{:>5} {:>9} {:>16} {:>12} {:>12.3} {:>10} {:>9}",
            cores,
            outcome.requests_done,
            outcome.makespan_cycles,
            ms(outcome.makespan_cycles),
            outcome.requests_per_mcycle(),
            factor(speedup),
            outcome.switches,
        );
        if cores == 4 {
            assert!(
                speedup >= 2.0,
                "acceptance: >=2x aggregate throughput at 4 cores, got {speedup:.2}x"
            );
        }
        results.push(
            &format!("fig5_mt_scaling_{cores}c"),
            wall_ns,
            1,
            outcome.makespan_cycles,
        );
    }
    // CubicleSan overhead A/B: the same 4-core siege with the race
    // detector off and on. The detector is a pure observer, so the
    // simulated cycle counts must be EQUAL — only the host wall clock
    // pays for the vector clocks and locksets.
    println!("\nCubicleSan A/B (4 cores, detection off vs on):");
    let cfg = MtConfig::new(requests, SEED);
    let off_config = SystemConfig {
        cores: 4,
        ..IsolationMode::Full.into()
    };
    let t0 = Instant::now();
    let (off, sys_off) = boot_and_siege(off_config, &cfg).unwrap();
    let off_wall = t0.elapsed().as_nanos() as u64;
    audit_gate(&sys_off, "fig5 mt siege, racedetect off");
    let on_config = SystemConfig {
        race_detection: true,
        ..off_config
    };
    let t0 = Instant::now();
    let (on, sys_on) = boot_and_siege(on_config, &cfg).unwrap();
    let on_wall = t0.elapsed().as_nanos() as u64;
    audit_gate(&sys_on, "fig5 mt siege, racedetect on");
    assert_eq!(
        off.makespan_cycles, on.makespan_cycles,
        "the detector must be a pure observer: simulated cycles identical"
    );
    assert_eq!(off.digest, on.digest, "bit-identical replay either way");
    assert!(
        sys_on.race_reports().is_empty() && sys_on.lockorder_cycle().is_none(),
        "the recorded curve must be race-free with an acyclic lock order"
    );
    println!(
        "  off: {:.1} ms host ({} sim cycles)   on: {:.1} ms host ({} sim cycles)   \
         host overhead {}",
        off_wall as f64 / 1e6,
        off.makespan_cycles,
        on_wall as f64 / 1e6,
        on.makespan_cycles,
        factor(on_wall as f64 / off_wall.max(1) as f64),
    );
    results.push("fig5_mt_racedetect_off", off_wall, 1, off.makespan_cycles);
    results.push("fig5_mt_racedetect_on", on_wall, 1, on.makespan_cycles);

    results.save(&BenchResults::default_path()).unwrap();
    println!(
        "\nmakespan = max per-core cycle delta; work is conserved as cores are\n\
         added, so the curve is the aggregate throughput scaling of the\n\
         re-entrant monitor (stack pools + per-core PKRU/TLB)."
    );
}
