//! `faultstorm` — the seeded fault-injection campaign.
//!
//! Two legs:
//!
//! 1. **Micro storms**: N seeds (default 5) drive randomized faults —
//!    wild reads/writes, premature window closes, out-of-window pointer
//!    passing, forbidden-instruction images, heap exhaustion mid-call —
//!    against a 3-cubicle deployment. Every storm runs twice and the
//!    kernel-trace digests must match bit-for-bit (replay determinism).
//! 2. **Figure 5 NGINX**: the full 8-partition web deployment keeps
//!    serving after its RAMFS cubicle is quarantined and microrebooted.
//!
//! Exit status is non-zero unless every fault was contained. The CI
//! smoke job greps the literal `uncontained: 0` and `audit: clean`
//! lines from stdout.
//!
//! Usage: `faultstorm [seeds] [injections-per-seed]`

use cubicle_bench::inject::run_campaign;
use cubicle_core::{IsolationMode, SystemConfig};
use cubicle_httpd::boot_web;
use cubicle_mpk::VAddr;
use cubicle_net::WireModel;

/// Base seed of the campaign series.
const BASE_SEED: u64 = 0x57_0A11;

fn fast_wire() -> WireModel {
    WireModel {
        hop_cycles: 2_000,
        per_byte_cycles: 1,
        request_overhead_cycles: 0,
    }
}

/// The Figure 5 leg: NGINX survives a RAMFS quarantine + microreboot.
/// Returns the number of uncontained faults (0 on success).
fn nginx_leg() -> u64 {
    println!("== nginx (fig. 5) leg ==");
    let mut dep = boot_web(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    })
    .expect("boot_web");
    let body = b"<h1>cubicles</h1>".to_vec();
    dep.put_file("/index.html", &body).expect("put_file");
    let (_, resp) = dep.fetch("/index.html", fast_wire()).expect("warm fetch");
    assert_eq!(resp.status, 200, "warm fetch must serve");

    // RAMFS goes wild: the containment policy quarantines it.
    let ramfs = dep.ramfs_cid;
    let r = dep
        .sys
        .run_in_cubicle(ramfs, |sys| sys.read_vec(VAddr::new(0x0FFF_0000), 8));
    assert!(r.is_err(), "wild read must fault");
    let mut uncontained = 0;
    if !dep.sys.cubicle(ramfs).is_quarantined() {
        println!("ESCAPE: RAMFS not quarantined after wild read");
        uncontained += 1;
    }
    let audit = dep.sys.audit();
    if audit.is_clean() {
        println!("post-quarantine audit: clean");
    } else {
        println!("ESCAPE: post-quarantine audit dirty:\n{audit}");
        uncontained += 1;
    }

    // The server itself must survive the dead backend: a fetch now
    // degrades (error page or graceful failure), it does not cascade.
    let degraded = dep.fetch("/index.html", fast_wire());
    match degraded {
        Ok((_, resp)) if resp.status != 200 => {
            println!("degraded fetch: HTTP {} (served by NGINX)", resp.status);
        }
        Ok((_, resp)) => {
            println!("ESCAPE: fetch served {} from a dead backend", resp.status);
            uncontained += 1;
        }
        Err(e) => println!("degraded fetch: refused gracefully ({e})"),
    }
    for c in dep.sys.cubicles() {
        if c.is_quarantined() && c.id != ramfs {
            println!("ESCAPE: fault cascaded into {}", c.name);
            uncontained += 1;
        }
    }

    // Microreboot, repopulate, and the deployment serves again.
    dep.sys.restart(ramfs).expect("restart RAMFS");
    dep.put_file("/index.html", &body)
        .expect("re-put after reboot");
    let (_, resp) = dep
        .fetch("/index.html", fast_wire())
        .expect("fetch after reboot");
    if resp.status == 200 && resp.body == body {
        println!("post-reboot fetch: HTTP 200, body intact");
    } else {
        println!("ESCAPE: post-reboot fetch broken (HTTP {})", resp.status);
        uncontained += 1;
    }
    let audit = dep.sys.audit();
    if audit.is_clean() {
        println!("post-reboot audit: clean");
    } else {
        println!("ESCAPE: post-reboot audit dirty:\n{audit}");
        uncontained += 1;
    }
    let stats = dep.sys.stats();
    println!(
        "nginx leg: quarantines={} restarts={} contained-faults={}",
        stats.quarantines, stats.restarts, stats.contained_faults
    );
    uncontained
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let injections: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);

    println!("== micro storms: {seeds} seed(s) x {injections} injection(s) ==");
    let mut total_injected = 0;
    let mut total_uncontained = 0;
    let mut replays_ok = true;
    for i in 0..seeds {
        let seed = BASE_SEED + i;
        let a = run_campaign(seed, injections);
        let b = run_campaign(seed, injections);
        let identical = a.digest == b.digest;
        replays_ok &= identical;
        total_injected += a.injected;
        total_uncontained += a.uncontained;
        println!(
            "seed {seed:#x}: injected={} contained={} quarantines={} restarts={} \
             digest={:#018x} replay={}",
            a.injected,
            a.contained,
            a.quarantines,
            a.restarts,
            a.digest,
            if identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );
        for e in &a.escapes {
            println!("ESCAPE: {e}");
        }
    }

    total_uncontained += nginx_leg();

    println!("== summary ==");
    println!("injected: {total_injected}");
    println!("uncontained: {total_uncontained}");
    println!(
        "replay: {}",
        if replays_ok {
            "deterministic"
        } else {
            "DIVERGED"
        }
    );
    println!(
        "audit: {}",
        if total_uncontained == 0 {
            "clean"
        } else {
            "dirty"
        }
    );
    if total_uncontained != 0 || !replays_ok {
        std::process::exit(1);
    }
}
