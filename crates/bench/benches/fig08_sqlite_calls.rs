//! Figure 8: the SQLite component graph with per-edge call counts
//! (including boot, as the paper's caption notes). Uses the full
//! 7-isolated-cubicle deployment: SQLITE, VFSCORE, RAMFS, ALLOC, TIME,
//! PLAT (+ shared LIBC).

use cubicle_bench::report::results::BenchResults;
use cubicle_bench::report::{
    assert_spans_partition, audit_gate, banner, dump_observability, obs_dir,
};
use cubicle_bench::scenario::per_call_port;
use cubicle_core::{impl_component, ComponentImage, IsolationMode, System};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::boot_fs;
use cubicle_sqldb::speedtest::{run_speedtest, SpeedtestConfig};
use cubicle_sqldb::storage::CubicleEnv;
use cubicle_sqldb::Database;
use cubicle_ukbase::boot_base;

struct SqliteApp;
impl_component!(SqliteApp);

fn main() {
    banner(
        "Figure 8: SQLite with cubicles (call counts include boot time)",
        "Sartakov et al., ASPLOS'21, Fig. 8",
    );
    let scale: u32 = std::env::var("CUBICLE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let cfg = SpeedtestConfig {
        scale,
        ..Default::default()
    };
    eprintln!("running speedtest1 at scale {scale}…");

    // The paper's per-call file port: every file call opens its windows.
    let mut sys = System::new(per_call_port(IsolationMode::Full));
    let obs = obs_dir();
    if obs.is_some() {
        // Fig. 8 counts include boot, so tracing starts before it too.
        sys.enable_tracing(1 << 20);
    }
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, None).unwrap();
    let app = sys
        .load(
            ComponentImage::new("SQLITE", CodeImage::plain(128 * 1024)).heap_pages(256),
            Box::new(SqliteApp),
        )
        .unwrap();
    let time = base.time;
    let c0 = sys.now();
    let t0 = std::time::Instant::now();
    sys.run_in_cubicle(app.cid, move |sys| {
        let port = fs.port(sys).unwrap();
        let mut db = Database::open(sys, Box::new(CubicleEnv::new(port)), "/speedtest.db").unwrap();
        // the application stamps start/end times, like speedtest1 does
        time.now_ns(sys).unwrap();
        run_speedtest(sys, &mut db, &cfg).unwrap();
        time.now_ns(sys).unwrap();
    });
    let mut recorded = BenchResults::new();
    recorded.push(
        "fig08_speedtest_split",
        t0.elapsed().as_nanos() as u64,
        1,
        sys.now() - c0,
    );
    recorded.save(&BenchResults::default_path()).unwrap();

    let stats = sys.stats(); // includes boot, per the figure's caption
    let name = |n: &str| sys.find_cubicle(n).unwrap();
    println!("\nedge (caller -> callee)        calls     (paper)");
    println!("{}", "-".repeat(52));
    for (from, to, paper) in [
        ("SQLITE", "VFSCORE", "967,366"),
        ("SQLITE", "TIME", "2"),
        ("VFSCORE", "RAMFS", "1,948,187"),
        ("RAMFS", "ALLOC", "31"),
        ("SQLITE", "PLAT", "10"),
    ] {
        let n = stats.edge(name(from), name(to));
        println!("{from:>8} -> {to:<10} {n:>10}   ({paper})");
    }
    println!("\ntotal cross-cubicle calls: {}", stats.cross_calls);
    println!("trap-and-map faults resolved: {}", stats.faults_resolved);
    println!(
        "faults denied (isolation violations): {}",
        stats.faults_denied
    );
    println!(
        "\npaper's shape, reproduced: the hot path is SQLITE→VFSCORE→RAMFS with\n\
         VFSCORE→RAMFS the hotter edge; RAMFS→ALLOC carries only coarse pool\n\
         refills; TIME is touched a handful of times; no direct SQLITE→RAMFS\n\
         edge exists (measured: {}). Absolute counts differ with workload scale.",
        stats.edge(name("SQLITE"), name("RAMFS"))
    );
    println!();
    audit_gate(&sys, "fig08 SQLite split");

    if let Some(dir) = obs {
        assert_spans_partition(&sys, "fig08");
        for p in dump_observability(&sys, &dir, "fig08").unwrap() {
            println!("wrote {}", p.display());
        }
    }
}
