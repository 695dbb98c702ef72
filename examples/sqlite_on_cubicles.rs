//! SQLite on CubicleOS: the paper's Figure 8 deployment, end to end.
//!
//! Boots the full component stack (ALLOC/TIME/PLAT/LIBC + VFSCORE +
//! RAMFS + the SQL engine as the application cubicle), runs a small
//! workload in each isolation mode over the paper's per-call file port,
//! and prints the overhead ladder that Figure 6 measures. A last row runs
//! full isolation as shipped, with each file's staging pages shared under
//! pair keys.
//!
//! Run with: `cargo run --release --example sqlite_on_cubicles`

use cubicleos::kernel::{impl_component, ComponentImage, IsolationMode, System, SystemConfig};
use cubicleos::mpk::insn::CodeImage;
use cubicleos::ramfs::boot_fs;
use cubicleos::sqldb::storage::CubicleEnv;
use cubicleos::sqldb::Database;
use cubicleos::ukbase::boot_base;

struct SqliteApp;
impl_component!(SqliteApp);

fn run_mode(label: &str, config: SystemConfig) -> Result<u64, Box<dyn std::error::Error>> {
    let mut sys = System::new(config);
    let base = boot_base(&mut sys)?;
    let fs = boot_fs(&mut sys, &base, None)?;
    let app = sys.load(
        ComponentImage::new("SQLITE", CodeImage::plain(64 * 1024)).heap_pages(128),
        Box::new(SqliteApp),
    )?;
    sys.mark_boot_complete();

    let cycles = sys.run_in_cubicle(
        app.cid,
        move |sys| -> Result<u64, Box<dyn std::error::Error>> {
            let port = fs.port(sys)?;
            let mut db = Database::open(sys, Box::new(CubicleEnv::new(port)), "/demo.db")?;
            let t0 = sys.now();
            db.execute(
                sys,
                "CREATE TABLE orders(id INTEGER PRIMARY KEY, customer TEXT, total REAL)",
            )?;
            db.execute(sys, "CREATE INDEX ic ON orders(customer)")?;
            db.execute(sys, "BEGIN")?;
            for i in 0..500 {
                db.execute(
                    sys,
                    &format!(
                        "INSERT INTO orders VALUES ({i}, 'cust{}', {}.5)",
                        i % 20,
                        i % 97
                    ),
                )?;
            }
            db.execute(sys, "COMMIT")?;
            let top = db.query(
                sys,
                "SELECT customer, count(*), sum(total) FROM orders \
             GROUP BY customer ORDER BY sum(total) DESC LIMIT 3",
            )?;
            assert_eq!(top.len(), 3);
            db.execute(
                sys,
                "UPDATE orders SET total = total * 1.1 WHERE customer = 'cust7'",
            )?;
            db.execute(sys, "DELETE FROM orders WHERE id % 50 = 0")?;
            let check = db.query(sys, "PRAGMA integrity_check")?;
            assert_eq!(format!("{}", check[0][0]), "ok");
            Ok(sys.now() - t0)
        },
    )?;

    let (_, stats) = sys.since_boot();
    let vfs_cid = sys.find_cubicle("VFSCORE").unwrap();
    println!(
        "{:<22} {:>12} cycles | SQLITE→VFSCORE calls: {:>6} | faults resolved: {:>6}",
        label,
        cycles,
        stats.edge(app.cid, vfs_cid),
        stats.faults_resolved,
    );
    Ok(cycles)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("SQLite on the Figure 8 component graph, per isolation mode:\n");
    let per_call = |mode: IsolationMode| SystemConfig {
        pair_keys: false,
        ..mode.into()
    };
    let unikraft = IsolationMode::Unikraft;
    let base = run_mode(unikraft.label(), per_call(unikraft))?;
    let rows = [
        IsolationMode::NoMpk,
        IsolationMode::NoAcl,
        IsolationMode::Full,
    ]
    .map(|mode| (mode.label(), per_call(mode)))
    .into_iter()
    .chain([("Full, pair-keyed", IsolationMode::Full.into())]);
    for (label, config) in rows {
        let c = run_mode(label, config)?;
        println!(
            "{:<22}   → {:.2}x the Unikraft baseline",
            "",
            c as f64 / base as f64
        );
    }
    Ok(())
}
