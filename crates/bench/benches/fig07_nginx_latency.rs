//! Figure 7: NGINX download latency vs file size — baseline Unikraft
//! against CubicleOS with 8 partitions, over the simulated wire.

use cubicle_bench::report::results::BenchResults;
use cubicle_bench::report::{
    assert_spans_partition, audit_gate, banner, dump_observability, factor, obs_dir,
};
use cubicle_core::{IsolationMode, SystemConfig};
use cubicle_httpd::boot_web;
use cubicle_net::WireModel;
use cubicle_ukbase::time::cycles_to_ms;

const SIZES: [(&str, usize); 15] = [
    ("1K", 1 << 10),
    ("2K", 2 << 10),
    ("4K", 4 << 10),
    ("8K", 8 << 10),
    ("16K", 16 << 10),
    ("32K", 32 << 10),
    ("64K", 64 << 10),
    ("128K", 128 << 10),
    ("256K", 256 << 10),
    ("512K", 512 << 10),
    ("1M", 1 << 20),
    ("2M", 2 << 20),
    ("4M", 4 << 20),
    ("6M", 6 << 20),
    ("8M", 8 << 20),
];

fn series(mode: IsolationMode) -> Vec<u64> {
    // The figure measures the paper's mechanism: per-page trap-and-map on
    // every shared buffer, no pair keys.
    let mut dep = boot_web(SystemConfig {
        pair_keys: false,
        ..mode.into()
    })
    .unwrap();
    // Profile the CubicleOS run only: the baseline has no cross-calls
    // worth a flamegraph.
    let obs = if matches!(mode, IsolationMode::Full) {
        obs_dir()
    } else {
        None
    };
    if obs.is_some() {
        dep.sys.enable_tracing(1 << 20);
    }
    for (name, size) in SIZES {
        let content: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        dep.put_file(&format!("/{name}.bin"), &content).unwrap();
    }
    let mut out = Vec::new();
    for (name, size) in SIZES {
        let (latency, resp) = dep
            .fetch(&format!("/{name}.bin"), WireModel::default())
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), size);
        out.push(latency);
    }
    audit_gate(&dep.sys, &format!("fig07 {mode:?}"));
    if let Some(dir) = obs {
        assert_spans_partition(&dep.sys, "fig07");
        for p in dump_observability(&dep.sys, &dir, "fig07").unwrap() {
            println!("wrote {}", p.display());
        }
    }
    out
}

fn main() {
    banner(
        "Figure 7: NGINX download latencies for different file sizes",
        "Sartakov et al., ASPLOS'21, Fig. 7 + §6.3 (siege-like driver, 8 partitions)",
    );
    eprintln!("running baseline (Unikraft)…");
    let t0 = std::time::Instant::now();
    let base = series(IsolationMode::Unikraft);
    eprintln!("running CubicleOS…");
    let cubicle = series(IsolationMode::Full);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let sim_cycles = base.iter().chain(&cubicle).sum();
    let mut recorded = BenchResults::new();
    recorded.push("fig07_latency_sweep", wall_ns, 1, sim_cycles);
    recorded.save(&BenchResults::default_path()).unwrap();

    println!(
        "{:>6} | {:>14} {:>14} | {:>9}",
        "size", "Baseline (ms)", "CubicleOS (ms)", "overhead"
    );
    println!("{}", "-".repeat(54));
    for (i, (name, _)) in SIZES.iter().enumerate() {
        println!(
            "{name:>6} | {:>14.3} {:>14.3} | {:>9}",
            cycles_to_ms(base[i]),
            cycles_to_ms(cubicle[i]),
            factor(cubicle[i] as f64 / base[i] as f64),
        );
    }

    // shape checks the paper calls out
    let small_overhead = cubicle[..6]
        .iter()
        .zip(&base[..6])
        .map(|(c, b)| *c as f64 / *b as f64)
        .fold(0.0f64, f64::max);
    let large_overhead = cubicle[SIZES.len() - 1] as f64 / base[SIZES.len() - 1] as f64;
    println!("\nshape summary:");
    println!(
        "  small files (≤32K): latency ≈ constant, overhead ≤ {} (paper: ~15%)",
        factor(small_overhead)
    );
    println!(
        "  large files (8M): overhead {} (paper: ~2x — \"partitioning NGINX into\n\
         \x20 eight components that exchange a high volume of data halves the throughput\")",
        factor(large_overhead)
    );
    println!("  slope grows once transfers exceed the 64 KiB LWIP send buffer (paper §6.3)");
}
