//! Golden cycle-snapshot regression test for the Figure 6 scenario.
//!
//! The invariant this file guards: *the cost model is decoupled from the
//! host algorithm*. Host-side optimisations of the simulator (flat page
//! table, software TLB, fused check+copy passes, scratch buffers) must
//! leave every **simulated** observable — total cycles, per-query
//! cycles, kernel counters, machine counters — byte-for-byte identical.
//! Figures 6/7/10 are derived from exactly these numbers, so if this
//! test passes, the paper figures are unchanged.
//!
//! The snapshot records the shipped configuration, in which cross-call
//! batching, the window-grant cache and sendfile are the only paths. A
//! host-side optimisation never regenerates it. To re-bless after an
//! *intentional* cost-model or configuration change:
//!
//! ```sh
//! CUBICLE_BLESS=1 cargo test -p cubicle-core --test golden_fig6
//! ```

use cubicle_bench::scenario::{build_sqlite, Partitioning, UNIKRAFT_BOUNDARY_TAX};
use cubicle_core::IsolationMode;
use cubicle_sqldb::speedtest::SpeedtestConfig;

/// Small but representative: ~2.5k rows, every query group exercised,
/// thousands of cross-calls and trap-and-map faults.
const SCALE: u32 = 5;

fn golden_path() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig6_split_scale5.txt"
    )
}

/// Runs the Fig 6 SQLite-split scenario (full CubicleOS isolation, the
/// 4-component partitioning) and renders every simulated observable.
fn render() -> String {
    let cfg = SpeedtestConfig {
        scale: SCALE,
        ..Default::default()
    };
    let mut dep = build_sqlite(
        IsolationMode::Full,
        Partitioning::Split,
        UNIKRAFT_BOUNDARY_TAX,
    )
    .unwrap();
    let mut db = dep
        .open_db(cubicle_sqldb::pager::DEFAULT_CACHE_PAGES)
        .unwrap();
    let results = dep.run_speedtest(&mut db, &cfg).unwrap();

    let mut out = String::new();
    out.push_str(&format!("fig6 split scale={SCALE} mode=Full\n"));
    for r in &results {
        out.push_str(&format!(
            "query {:>3}: cycles={} rows={}\n",
            r.id, r.cycles, r.rows
        ));
    }
    out.push_str(&format!("total cycles: {}\n", dep.sys.now()));

    let s = dep.sys.stats();
    out.push_str(&format!("sys stats:\n{s}"));

    // Machine counters, field by field. Host-side observability counters
    // (e.g. TLB hit/miss rates) are intentionally NOT part of the golden
    // surface: they describe the simulator, not the simulated machine.
    let m = dep.sys.machine_stats();
    out.push_str(&format!(
        "machine: reads={} writes={} bytes_read={} bytes_written={} \
         wrpkru={} retags={} faults={}\n",
        m.reads, m.writes, m.bytes_read, m.bytes_written, m.wrpkru, m.retags, m.faults
    ));
    out
}

#[test]
fn fig6_split_simulated_behaviour_matches_golden() {
    let got = render();
    if std::env::var_os("CUBICLE_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(golden_path(), &got).unwrap();
        eprintln!("blessed {}", golden_path());
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("golden snapshot missing; regenerate with CUBICLE_BLESS=1");
    assert_eq!(
        got, want,
        "simulated behaviour diverged from the golden snapshot — a host-side \
         optimisation changed charged cycles, counters or fault behaviour"
    );
}

#[test]
fn fig6_scenario_is_deterministic_run_to_run() {
    // The golden test is only meaningful if the scenario itself is
    // deterministic within one build.
    assert_eq!(render(), render());
}
