//! Runs the SQLite scenario with tracing enabled and dumps the three
//! observability artifacts: a Chrome `trace_event` JSON timeline
//! (loadable in Perfetto / `chrome://tracing`), a Prometheus metrics
//! snapshot, and the trap-and-map fault audit log.
//!
//! ```text
//! cargo run --release --bin trace -- [scale] [out-dir]
//! ```
//!
//! Defaults: scale 5, `target/traces`. Exits non-zero if the exporter
//! counters disagree with the kernel's own statistics, or — when the
//! ring dropped nothing — its `Retag` / `WrPkru` records disagree with
//! the machine's counters or the fold of its records through
//! `SysStats::apply` differs from the kernel counters' change since
//! tracing began (then it prints `event views: agree`), so CI can use
//! it as a smoke test.

use cubicle_bench::report::{audit_gate, dump_observability, metrics_summary};
use cubicle_bench::scenario::{build_sqlite, Partitioning, UNIKRAFT_BOUNDARY_TAX};
use cubicle_core::{IsolationMode, SysStats, TraceEvent};
use cubicle_sqldb::speedtest::SpeedtestConfig;
use std::path::PathBuf;

const TRACE_CAPACITY: usize = 1 << 20;

fn main() {
    let scale: u32 = match std::env::args().nth(1) {
        None => 5,
        Some(arg) => match arg.parse() {
            Ok(s) if s >= 1 => s,
            _ => {
                eprintln!("error: scale must be a positive integer, got `{arg}`");
                eprintln!("usage: trace [scale] [out-dir]");
                std::process::exit(2);
            }
        },
    };
    let out_dir: PathBuf = std::env::args()
        .nth(2)
        .map_or_else(|| PathBuf::from("target/traces"), PathBuf::from);
    let cfg = SpeedtestConfig {
        scale,
        ..Default::default()
    };

    let mut dep = build_sqlite(
        IsolationMode::Full,
        Partitioning::Split,
        UNIKRAFT_BOUNDARY_TAX,
    )
    .unwrap();
    let machine0 = dep.sys.machine_stats();
    let stats0 = dep.sys.stats().clone();
    dep.sys.enable_tracing(TRACE_CAPACITY);
    let mut db = dep.open_db(64).unwrap();
    let t0 = dep.sys.now();
    dep.run_speedtest(&mut db, &cfg).unwrap();
    let cycles = dep.sys.now() - t0;

    // The tracer's histograms must agree with the kernel counters —
    // this is the acceptance criterion the exporters are held to.
    let cross_calls = dep.sys.stats().cross_calls;
    let traced_calls = dep.sys.metrics().expect("tracing enabled").total_calls();
    assert_eq!(
        traced_calls, cross_calls,
        "histogram counts must equal SysStats::cross_calls"
    );
    audit_gate(&dep.sys, "trace SQLite split");

    // The monitor records every retag and PKRU write it issues, so a
    // ring that dropped nothing holds exactly the machine's counts.
    let trace = dep.sys.trace().expect("tracing enabled");
    if trace.dropped() == 0 {
        let machine = dep.sys.machine_stats();
        let count = |pick: fn(&TraceEvent) -> bool| {
            trace.records().filter(|r| pick(&r.event)).count() as u64
        };
        assert_eq!(
            count(|e| matches!(e, TraceEvent::Retag { .. })),
            machine.retags - machine0.retags,
            "Retag records must equal MachineStats::retags since enable_tracing"
        );
        assert_eq!(
            count(|e| matches!(e, TraceEvent::WrPkru { .. })),
            machine.wrpkru - machine0.wrpkru,
            "WrPkru records must equal MachineStats::wrpkru since enable_tracing"
        );
        // Every counter changes through a recorded event, so the ring
        // alone rebuilds them.
        let mut folded = SysStats::default();
        trace.records().for_each(|r| folded.apply(&r.event));
        assert_eq!(
            folded,
            dep.sys.stats().since(&stats0),
            "the ring's fold must equal the SysStats change since enable_tracing"
        );
    }

    let stem = format!("sqlite_split_scale{scale}");
    let paths = match dump_observability(&dep.sys, &out_dir, &stem) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("error: cannot write to {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    };

    println!("speedtest1 scale {scale}: {cycles} cycles, {cross_calls} cross-calls");
    println!("{}", metrics_summary(&dep.sys));
    println!(
        "trace ring: {} records held / {} recorded / {} dropped",
        trace.len(),
        trace.total_recorded(),
        trace.dropped()
    );
    if trace.dropped() == 0 {
        println!("event views: agree");
    }
    for p in paths {
        println!("wrote {}", p.display());
    }
}
