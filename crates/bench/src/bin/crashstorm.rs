//! `crashstorm` — the seeded crash-consistency campaign.
//!
//! Two legs:
//!
//! 1. **Commit-path storms**: N seeds (default 5) drive quarantines into
//!    the sqldb durability path — before the WAL sync, mid-frame, between
//!    commit and checkpoint, mid-checkpoint, and inside a RAMFS journal
//!    append. After every crash the offender is microrebooted, the
//!    database reopened, and the durability contract checked: every
//!    synced transaction present in full, the recovered set a gap-free
//!    prefix, nothing torn, nothing phantom, `integrity_check` ok.
//!    Every storm runs twice; the semantic digests must match
//!    bit-for-bit (replay determinism).
//! 2. **Figure 5 NGINX, without re-population**: with the RAMFS inode
//!    journal enabled, the web deployment keeps serving the *same bytes*
//!    after its file-system cubicle is quarantined and microrebooted —
//!    no `put_file` after the crash, unlike `faultstorm`'s leg.
//!
//! Exit status is non-zero unless every injection recovered cleanly.
//! The CI smoke job greps the literal `durability: 0 violations`,
//! `replay: deterministic` and `audit: clean` lines from stdout.
//!
//! Usage: `crashstorm [seeds] [injections-per-seed]`

use cubicle_bench::inject::run_crash_campaign;
use cubicle_core::{IsolationMode, SystemConfig};
use cubicle_httpd::boot_web;
use cubicle_mpk::VAddr;
use cubicle_net::WireModel;

/// Base seed of the campaign series (disjoint from `faultstorm`'s).
const BASE_SEED: u64 = 0xD1_5C_CA;

/// Journal region for the NGINX leg: 64 pages = 256 KiB.
const NGINX_JOURNAL_PAGES: usize = 64;

fn fast_wire() -> WireModel {
    WireModel {
        hop_cycles: 2_000,
        per_byte_cycles: 1,
        request_overhead_cycles: 0,
    }
}

/// The no-repopulation leg: NGINX serves identical bytes across a RAMFS
/// quarantine + microreboot, courtesy of the inode journal. Returns the
/// number of violations (0 on success).
fn nginx_leg() -> u64 {
    println!("== nginx (fig. 5, journal recovery) leg ==");
    let mut dep = boot_web(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    })
    .expect("boot_web");
    dep.enable_ramfs_journal(NGINX_JOURNAL_PAGES)
        .expect("enable journal");
    let body: Vec<u8> = (0..8_192u32).map(|i| (i % 253) as u8).collect();
    dep.put_file("/index.html", &body).expect("put_file");
    dep.put_file("/app.js", b"console.log('cubicles')")
        .expect("put_file");
    let (_, warm) = dep.fetch("/index.html", fast_wire()).expect("warm fetch");
    assert_eq!(warm.status, 200, "warm fetch must serve");
    assert_eq!(warm.body, body, "warm fetch must serve the payload");

    // RAMFS goes wild mid-flight and is quarantined on the spot.
    let ramfs = dep.ramfs_cid;
    let r = dep
        .sys
        .run_in_cubicle(ramfs, |sys| sys.read_vec(VAddr::new(0x0FFF_0000), 8));
    assert!(r.is_err(), "wild read must fault");
    let mut violations = 0;
    if !dep.sys.cubicle(ramfs).is_quarantined() {
        println!("VIOLATION: RAMFS not quarantined after wild read");
        violations += 1;
    }

    // Microreboot. No put_file from here on: the restart hook's journal
    // replay is the only thing standing between NGINX and a 404.
    dep.sys.restart(ramfs).expect("restart RAMFS");
    let stats = dep.sys.stats();
    if stats.ramfs_journal_replays == 0 {
        println!("VIOLATION: microreboot did not replay the inode journal");
        violations += 1;
    }
    match dep.fetch("/index.html", fast_wire()) {
        Ok((_, resp)) if resp.status == 200 && resp.body == body => {
            println!("post-reboot fetch: HTTP 200, body identical (no re-put)");
        }
        Ok((_, resp)) => {
            println!(
                "VIOLATION: post-reboot fetch lost the file (HTTP {}, {} bytes)",
                resp.status,
                resp.body.len()
            );
            violations += 1;
        }
        Err(e) => {
            println!("VIOLATION: post-reboot fetch failed ({e})");
            violations += 1;
        }
    }
    match dep.fetch("/app.js", fast_wire()) {
        Ok((_, resp)) if resp.status == 200 => {
            println!("post-reboot fetch: second file served too");
        }
        _ => {
            println!("VIOLATION: second file lost across the reboot");
            violations += 1;
        }
    }
    let audit = dep.sys.audit();
    if audit.is_clean() {
        println!("post-reboot audit: clean");
    } else {
        println!("VIOLATION: post-reboot audit dirty:\n{audit}");
        violations += 1;
    }
    let stats = dep.sys.stats();
    println!(
        "nginx leg: quarantines={} restarts={} journal-replays={}",
        stats.quarantines, stats.restarts, stats.ramfs_journal_replays
    );
    violations
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

    println!("== crash storms: {seeds} seed(s) x {injections} injection(s) ==");
    let mut total_injected = 0;
    let mut total_violations = 0;
    let mut wal_replays = 0;
    let mut journal_replays = 0;
    let mut replays_ok = true;
    for i in 0..seeds {
        let seed = BASE_SEED + i;
        let a = run_crash_campaign(seed, injections);
        let b = run_crash_campaign(seed, injections);
        let identical = a.digest == b.digest;
        replays_ok &= identical;
        total_injected += a.injected;
        total_violations += a.violations;
        wal_replays += a.wal_replays;
        journal_replays += a.ramfs_journal_replays;
        println!(
            "seed {seed:#x}: injected={} recovered={} quarantines={} restarts={} \
             wal-replays={} journal-replays={} digest={:#018x} replay={}",
            a.injected,
            a.recovered,
            a.quarantines,
            a.restarts,
            a.wal_replays,
            a.ramfs_journal_replays,
            a.digest,
            if identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );
        for n in &a.notes {
            println!("VIOLATION: {n}");
        }
    }

    total_violations += nginx_leg();

    println!("== summary ==");
    println!("injected: {total_injected}");
    println!("recovery: wal-replays={wal_replays} journal-replays={journal_replays}");
    println!("durability: {total_violations} violations");
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
        if total_violations == 0 {
            "clean"
        } else {
            "dirty"
        }
    );
    if total_violations != 0 || !replays_ok {
        std::process::exit(1);
    }
}
