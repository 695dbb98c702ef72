//! Figure 6: per-query SQLite execution time under the four
//! configurations (Unikraft, CubicleOS w/o MPK, CubicleOS w/o ACLs,
//! full CubicleOS), plus the §6.4 ablation analysis.
//!
//! Scale with `CUBICLE_SCALE` (default 100 = the paper's `--stat 100`).

use cubicle_bench::report::results::BenchResults;
use cubicle_bench::report::{audit_gate, banner, bar, factor};
use cubicle_bench::scenario::{build_sqlite, Partitioning, UNIKRAFT_BOUNDARY_TAX};
use cubicle_core::IsolationMode;
use cubicle_sqldb::speedtest::{query_group, QueryGroup, SpeedtestConfig, TestResult};
use cubicle_ukbase::time::cycles_to_ms;

fn run(mode: IsolationMode, cfg: &SpeedtestConfig) -> Vec<TestResult> {
    // The Unikraft baseline is the monolithic image (no partitioning);
    // the CubicleOS configurations run the full 7-cubicle split.
    let partitioning = match mode {
        IsolationMode::Unikraft => Partitioning::Merged,
        _ => Partitioning::Split,
    };
    let mut dep = build_sqlite(mode, partitioning, UNIKRAFT_BOUNDARY_TAX).unwrap();
    let mut db = dep
        .open_db(cubicle_sqldb::pager::DEFAULT_CACHE_PAGES)
        .unwrap();
    let results = dep.run_speedtest(&mut db, cfg).unwrap();
    audit_gate(&dep.sys, &format!("fig06 {mode:?}"));
    results
}

fn main() {
    let scale: u32 = std::env::var("CUBICLE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let cfg = SpeedtestConfig {
        scale,
        ..Default::default()
    };
    banner(
        "Figure 6: query execution times for SQLite under CubicleOS",
        "Sartakov et al., ASPLOS'21, Fig. 6 + §6.4 (speedtest1, local execution)",
    );
    println!("scale = {scale} ({} rows per main table)\n", cfg.rows());

    let modes = [
        IsolationMode::Unikraft,
        IsolationMode::NoMpk,
        IsolationMode::NoAcl,
        IsolationMode::Full,
    ];
    let t0 = std::time::Instant::now();
    let results: Vec<Vec<TestResult>> = modes.iter().map(|&m| run(m, &cfg)).collect();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let sim_cycles: u64 = results.iter().flatten().map(|r| r.cycles).sum();
    let mut recorded = BenchResults::new();
    recorded.push("fig06_speedtest_4modes", wall_ns, 1, sim_cycles);
    recorded.save(&BenchResults::default_path()).unwrap();

    println!(
        "{:>5} {:>5} | {:>12} {:>12} {:>12} {:>12} | {:>8}  (ms, simulated)",
        "query", "group", "Unikraft", "w/o MPK", "w/o ACLs", "CubicleOS", "slowdown"
    );
    println!("{}", "-".repeat(104));
    let max_ms = results[3]
        .iter()
        .map(|r| cycles_to_ms(r.cycles))
        .fold(0.0, f64::max);
    for (i, base) in results[0].iter().enumerate() {
        let id = base.id;
        let group = match query_group(id) {
            QueryGroup::A => "A",
            QueryGroup::B => "B",
        };
        let slow = results[3][i].cycles as f64 / base.cycles as f64;
        println!(
            "{:>5} {:>5} | {:>9.3} ms {:>9.3} ms {:>9.3} ms {:>9.3} ms | {:>8} {}",
            id,
            group,
            cycles_to_ms(base.cycles),
            cycles_to_ms(results[1][i].cycles),
            cycles_to_ms(results[2][i].cycles),
            cycles_to_ms(results[3][i].cycles),
            factor(slow),
            bar(cycles_to_ms(results[3][i].cycles), max_ms, 24),
        );
    }

    // §6.4 analysis: group means and mechanism deltas
    println!("\n--- §6.4 analysis (per-group geometric-mean slowdowns) ---");
    for (gname, g) in [
        ("A (cache-friendly)", QueryGroup::A),
        ("B (OS-heavy)", QueryGroup::B),
    ] {
        let mut deltas = [0.0f64; 4]; // ln-sums per mode vs baseline
        let mut n = 0u32;
        for (i, base) in results[0].iter().enumerate() {
            if query_group(base.id) != g {
                continue;
            }
            n += 1;
            for m in 0..4 {
                deltas[m] += (results[m][i].cycles as f64 / results[0][i].cycles as f64).ln();
            }
        }
        let gm = |x: f64| (x / f64::from(n)).exp();
        let (tramp, mpk, win) = (gm(deltas[1]), gm(deltas[2]), gm(deltas[3]));
        println!(
            "group {gname:<20} split+trampolines: {}  +MPK: {}  +windows: {}  (total {})",
            factor(tramp),
            factor(mpk / tramp),
            factor(win / mpk),
            factor(win),
        );
    }
    println!("\npaper: group A ≈ 1.8x total (trampolines +2%, MPK +50%, windows +20%);");
    println!("       group B ≈ 8x total (trampolines +17%, MPK 4x, windows 1.2x)");
    println!(
        "note: the first delta here also contains the 7-way partitioning cost\n\
         (the baseline is the monolithic Unikraft image, as in the paper)."
    );
}
