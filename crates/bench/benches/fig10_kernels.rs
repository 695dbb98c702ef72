//! Figure 10: CubicleOS vs component frameworks on other kernels.
//!
//! * 10a — slowdown of each system against native Linux;
//! * 10b — the cost of adding the RAMFS compartment (4- vs 3-component
//!   partitioning of Figure 9) per kernel.
//!
//! Scale with `CUBICLE_SCALE` (default 100).

use cubicle_bench::report::results::BenchResults;
use cubicle_bench::report::{banner, bar, factor};
use cubicle_bench::scenario::{speedtest_total_cycles, Partitioning, UNIKRAFT_BOUNDARY_TAX};
use cubicle_core::IsolationMode;
use cubicle_sqldb::speedtest::SpeedtestConfig;

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
        "Figure 10: CubicleOS overhead compared to different kernels",
        "Sartakov et al., ASPLOS'21, Fig. 9 + Fig. 10 (speedtest1)",
    );
    println!("scale = {scale} ({} rows per main table)\n", cfg.rows());

    let total = |label: &str, mode: IsolationMode, p: Partitioning, tax: u64| -> u64 {
        let (cycles, _) = speedtest_total_cycles(mode, p, tax, &cfg).unwrap();
        eprintln!("  [measured {label}: {cycles} cycles]");
        cycles
    };

    let t0 = std::time::Instant::now();
    let linux = total("Linux", IsolationMode::Unikraft, Partitioning::Merged, 0);
    let unikraft = total(
        "Unikraft",
        IsolationMode::Unikraft,
        Partitioning::Merged,
        UNIKRAFT_BOUNDARY_TAX,
    );
    let cub3 = total(
        "CubicleOS-3",
        IsolationMode::Full,
        Partitioning::Merged,
        UNIKRAFT_BOUNDARY_TAX,
    );
    let cub4 = total(
        "CubicleOS-4",
        IsolationMode::Full,
        Partitioning::Split,
        UNIKRAFT_BOUNDARY_TAX,
    );

    let mut k3 = Vec::new();
    let mut k4 = Vec::new();
    for k in cubicle_ipc::KERNELS {
        k3.push(total(
            &format!("{}-3", k.kernel),
            cubicle_ipc::mode_for(k),
            Partitioning::Merged,
            0,
        ));
        k4.push(total(
            &format!("{}-4", k.kernel),
            cubicle_ipc::mode_for(k),
            Partitioning::Split,
            0,
        ));
    }
    let genode3 = k3[3]; // Genode/Linux
    let genode4 = k4[3];

    let sim_cycles =
        linux + unikraft + cub3 + cub4 + k3.iter().sum::<u64>() + k4.iter().sum::<u64>();
    let mut recorded = BenchResults::new();
    recorded.push(
        "fig10_kernel_matrix",
        t0.elapsed().as_nanos() as u64,
        1,
        sim_cycles,
    );
    recorded.save(&BenchResults::default_path()).unwrap();

    println!("\n--- Figure 10a: slowdown compared to Linux ---");
    println!("{:>14} {:>9}  {:>9}  ", "system", "measured", "paper");
    let rows_a = [
        ("Linux", linux, 1.0),
        ("Unikraft", unikraft, 2.8),
        ("Genode-3", genode3, 1.4),
        ("Genode-4", genode4, 29.0),
        ("CubicleOS-3", cub3, 4.1),
        ("CubicleOS-4", cub4, 5.4),
    ];
    for (label, cycles, paper) in rows_a {
        let slow = cycles as f64 / linux as f64;
        println!(
            "{label:>14} {:>9}  {:>9}  {}",
            factor(slow),
            factor(paper),
            bar(slow.min(40.0), 40.0, 30)
        );
    }

    println!("\n--- Figure 10b: slowdown of adding the RAMFS compartment (4 vs 3) ---");
    println!("{:>14} {:>9}  {:>9}", "kernel", "measured", "paper");
    let paper_b = [7.5, 4.5, 4.7, 20.7];
    for (i, k) in cubicle_ipc::KERNELS.iter().enumerate() {
        let ratio = k4[i] as f64 / k3[i] as f64;
        println!(
            "{:>14} {:>9}  {:>9}  {}",
            k.kernel,
            factor(ratio),
            factor(paper_b[i]),
            bar(ratio, 25.0, 30)
        );
    }
    let cub_ratio = cub4 as f64 / cub3 as f64;
    println!(
        "{:>14} {:>9}  {:>9}  {}",
        "CubicleOS",
        factor(cub_ratio),
        factor(1.4),
        bar(cub_ratio, 25.0, 30)
    );
    println!(
        "\nheadline (paper §6.5 / A.8): the RAMFS compartment costs >4x on every\n\
         microkernel but only ~1.4x on CubicleOS — window-based crossings beat\n\
         message-based interfaces."
    );
}
