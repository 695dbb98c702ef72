//! Figure 5: the NGINX component graph with per-edge cross-cubicle call
//! counts, collected during a siege-like measurement run.

use cubicle_bench::report::results::BenchResults;
use cubicle_bench::report::{
    assert_spans_partition, audit_gate, banner, dump_observability, obs_dir,
};
use cubicle_core::{IsolationMode, SystemConfig};
use cubicle_httpd::boot_web;
use cubicle_mpk::rng::Rng64;
use cubicle_net::WireModel;
use std::time::Instant;

fn main() {
    banner(
        "Figure 5: NGINX with cubicles (call counts during measurement)",
        "Sartakov et al., ASPLOS'21, Fig. 5",
    );
    let requests: usize = std::env::var("CUBICLE_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);

    // The figure measures the paper's mechanism: per-page trap-and-map on
    // every shared buffer, no pair keys.
    let mut dep = boot_web(SystemConfig {
        pair_keys: false,
        ..IsolationMode::Full.into()
    })
    .unwrap();
    let obs = obs_dir();
    if obs.is_some() {
        dep.sys.enable_tracing(1 << 20);
    }
    // random static files, as in the paper's siege setup
    let mut rng = Rng64::new(7);
    let sizes = [1 << 10, 8 << 10, 64 << 10, 256 << 10];
    for (i, &size) in sizes.iter().enumerate() {
        let content: Vec<u8> = (0..size).map(|j| ((i + j) % 251) as u8).collect();
        dep.put_file(&format!("/file{i}.bin"), &content).unwrap();
    }
    dep.sys.mark_boot_complete(); // Fig. 5 counts measurement time only
    eprintln!("issuing {requests} requests…");
    let t0 = Instant::now();
    for _ in 0..requests {
        let which = rng.range_usize(0, sizes.len());
        let (_lat, resp) = dep
            .fetch(&format!("/file{which}.bin"), WireModel::default())
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let sys = &dep.sys;
    let (cycles, stats) = sys.since_boot();
    let mut results = BenchResults::new();
    results.push("fig05_siege_requests", wall_ns, 1, cycles);
    results.save(&BenchResults::default_path()).unwrap();
    let name = |n: &str| sys.find_cubicle(n).unwrap();
    let edges = [
        ("NGINX", "LWIP"),
        ("NGINX", "VFSCORE"),
        ("NGINX", "TIME"),
        ("LWIP", "NETDEV"),
        ("LWIP", "ALLOC"),
        ("VFSCORE", "RAMFS"),
        ("RAMFS", "ALLOC"),
        ("NGINX", "PLAT"),
    ];
    println!("\nedge (caller -> callee)        calls");
    println!("{}", "-".repeat(42));
    for (from, to) in edges {
        let n = stats.edge(name(from), name(to));
        println!("{from:>8} -> {to:<10} {n:>12}");
    }
    println!("\ntotal cross-cubicle calls: {}", stats.cross_calls);
    println!("trap-and-map faults resolved: {}", stats.faults_resolved);
    println!(
        "\npaper's shape: LWIP→NETDEV is the hottest edge (segmentation fan-out),\n\
         NGINX↔LWIP and VFSCORE→RAMFS carry the request/file traffic, ALLOC and\n\
         TIME edges are sparse; the application never touches NETDEV or RAMFS\n\
         directly. Direct-edge check: NGINX→NETDEV = {}, NGINX→RAMFS = {}.",
        stats.edge(name("NGINX"), name("NETDEV")),
        stats.edge(name("NGINX"), name("RAMFS")),
    );
    println!();
    audit_gate(sys, "fig05 NGINX siege");

    if let Some(dir) = obs {
        assert_spans_partition(&dep.sys, "fig05");
        for p in dump_observability(&dep.sys, &dir, "fig05").unwrap() {
            println!("wrote {}", p.display());
        }
    }
}
