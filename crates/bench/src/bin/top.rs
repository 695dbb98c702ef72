//! `cubicle-top`: runs a traced scenario and prints the live
//! per-cubicle resource ledger as a `top`-style table — exclusive vs.
//! inclusive cycles, pages owned and held foreign, open windows, heap
//! and stack usage, generation and quarantine state — then drops the
//! full observability bundle (Chrome trace, collapsed-stack flamegraph,
//! Prometheus snapshot, fault audit log) for offline digging.
//!
//! ```text
//! cargo run --release --bin top -- [nginx|sqlite] [work] [out-dir]
//! ```
//!
//! `work` is requests for nginx (default 50) or the speedtest scale for
//! sqlite (default 5); artifacts go to `out-dir` (default `target/top`).
//! Exits non-zero if the profiler's attribution invariant breaks or the
//! run leaves the kernel audit dirty, so CI can use it as a smoke test.

use cubicle_bench::report::{assert_spans_partition, audit_gate, dump_observability, top_table};
use cubicle_bench::scenario::{build_sqlite, Partitioning, UNIKRAFT_BOUNDARY_TAX};
use cubicle_core::{IsolationMode, System};
use cubicle_httpd::boot_web;
use cubicle_mpk::rng::Rng64;
use cubicle_net::WireModel;
use cubicle_sqldb::speedtest::SpeedtestConfig;
use std::path::PathBuf;

const TRACE_CAPACITY: usize = 1 << 20;

fn usage() -> ! {
    eprintln!("usage: top [nginx|sqlite] [work] [out-dir]");
    std::process::exit(2);
}

fn run_nginx(requests: usize) -> System {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.sys.enable_tracing(TRACE_CAPACITY);
    let mut rng = Rng64::new(7);
    let sizes = [1 << 10, 8 << 10, 64 << 10, 256 << 10];
    for (i, &size) in sizes.iter().enumerate() {
        let content: Vec<u8> = (0..size).map(|j| ((i + j) % 251) as u8).collect();
        dep.put_file(&format!("/file{i}.bin"), &content).unwrap();
    }
    eprintln!("siege: {requests} requests over 4 file sizes…");
    for _ in 0..requests {
        let which = rng.range_usize(0, sizes.len());
        let (_lat, resp) = dep
            .fetch(&format!("/file{which}.bin"), WireModel::default())
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    dep.sys
}

fn run_sqlite(scale: u32) -> System {
    let mut dep = build_sqlite(
        IsolationMode::Full,
        Partitioning::Split,
        UNIKRAFT_BOUNDARY_TAX,
    )
    .unwrap();
    dep.sys.enable_tracing(TRACE_CAPACITY);
    let mut db = dep.open_db(64).unwrap();
    eprintln!("speedtest1 at scale {scale}…");
    let cfg = SpeedtestConfig {
        scale,
        ..Default::default()
    };
    dep.run_speedtest(&mut db, &cfg).unwrap();
    dep.sys
}

fn main() {
    let scenario = std::env::args().nth(1).unwrap_or_else(|| "nginx".into());
    let work: u64 = match std::env::args().nth(2) {
        None => match scenario.as_str() {
            "nginx" => 50,
            _ => 5,
        },
        Some(arg) => match arg.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: work must be a positive integer, got `{arg}`");
                usage();
            }
        },
    };
    let out_dir: PathBuf = std::env::args()
        .nth(3)
        .map_or_else(|| PathBuf::from("target/top"), PathBuf::from);

    let sys = match scenario.as_str() {
        "nginx" => run_nginx(work as usize),
        "sqlite" => run_sqlite(work as u32),
        _ => usage(),
    };

    // Gates first: attribution must partition the window and the run
    // must leave the kernel invariant-clean, or this exits non-zero.
    let window = assert_spans_partition(&sys, "cubicle-top");
    audit_gate(&sys, &format!("cubicle-top {scenario}"));

    println!();
    println!("cubicle-top — {scenario}, {window} attributed cycles");
    println!("{}", "-".repeat(110));
    print!("{}", top_table(&sys));

    let profiler = sys.span_profiler().expect("tracing enabled");
    println!(
        "spans: {} completed / {} dropped; trace ring: {} dropped",
        profiler.spans_completed(),
        profiler.spans_dropped(),
        sys.trace().expect("tracing enabled").dropped(),
    );
    match dump_observability(&sys, &out_dir, &format!("top_{scenario}")) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("error: cannot write to {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    }
}
