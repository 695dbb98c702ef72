//! Multi-core NGINX siege: the fig-5/fig-7 deployment serving many
//! interleaved connections across N simulated cores.
//!
//! Host execution stays sequential — exactly one simulated core runs at
//! a time — but simulated time is concurrent: every core owns a private
//! cycle counter, PKRU and software TLB, and the seeded
//! [`CoreScheduler`] decides which core executes the next top-level
//! step. Each core drives its own external [`SimClient`] (one in-flight
//! HTTP connection per core, a fresh connection per request), so a
//! 4-core siege has four connections interleaving through the shared
//! NGINX/LWIP/VFS/RAMFS cubicles, each cross-call chain running on a
//! pooled per-core stack.
//!
//! The headline number is the **makespan**: the maximum per-core cycle
//! delta over the siege. Total simulated work is conserved as cores are
//! added, so makespan shrinks roughly linearly — the
//! throughput-vs-cores curve recorded in `BENCH_results.json`.
//!
//! Everything is a pure function of the scheduler seed: replaying a
//! siege with the same seed reproduces every core switch, cycle count
//! and response byte, folded into [`MtOutcome::digest`] for
//! bit-identical comparison.

use cubicle_core::{CubicleError, IsolationMode, Result, System, SystemConfig};
use cubicle_httpd::{boot_web, HttpResponse, WebDeployment, HTTP_PORT};
use cubicle_mpk::CoreScheduler;
use cubicle_net::{SimClient, WireModel};

/// Client ports used by the multi-core siege (distinct from the
/// single-core `fetch` path's 40 000 range, so the two can mix).
const MT_PORT_BASE: u16 = 41_000;

/// Idle pump/poll rounds before a connection is declared stalled. More
/// generous than `fetch`'s 64: another core's poll can progress our
/// connection, so several quiet rounds in a row are normal.
const STALL_ROUNDS: u32 = 512;

/// The client-side per-request overhead is charged in chunks of this
/// many cycles, one per scheduler step, instead of one lump. Chunking
/// bounds the clock skew between cores to roughly quantum × chunk: a
/// core that jumped a whole request-overhead (11M cycles) ahead would
/// turn every monitor-lock acquisition by a lagging core into a
/// skew-sized spin-wait, serializing the siege for no physical reason —
/// the real client work is spread over those milliseconds.
const OVERHEAD_CHUNK: u64 = 256_000;

/// Configuration of one multi-core siege run. The core count (= the
/// number of concurrent connections) and CubicleSan are properties of
/// the deployment's [`System`] ([`SystemConfig::cores`],
/// [`SystemConfig::race_detection`]).
#[derive(Clone, Debug)]
pub struct MtConfig {
    /// Total requests, distributed round-robin over the cores.
    pub requests: usize,
    /// Scheduler seed: the full interleaving is a pure function of it.
    pub seed: u64,
    /// Network cost model charged on the issuing core's clock.
    pub wire: WireModel,
    /// First client port. Sieges sharing one deployment must use
    /// disjoint ranges — LWIP keeps per-4-tuple connection state, so a
    /// reused port looks like a retransmission of a dead connection.
    pub port_base: u16,
    /// Paths to request, cycled per request (must exist; see
    /// [`prepare_web_files`]).
    pub paths: Vec<String>,
}

impl MtConfig {
    /// A siege of `requests` requests over the standard file set with
    /// the default wire model.
    pub fn new(requests: usize, seed: u64) -> MtConfig {
        MtConfig {
            requests,
            seed,
            wire: WireModel::default(),
            port_base: MT_PORT_BASE,
            paths: STANDARD_FILES
                .iter()
                .map(|(p, _)| (*p).to_string())
                .collect(),
        }
    }
}

/// The standard document set: one small file (request-overhead bound,
/// the paper's fig-7 latency floor) and one bulk file (streaming bound).
pub const STANDARD_FILES: &[(&str, usize)] = &[("/1k.html", 1024), ("/16k.html", 16 * 1024)];

/// Populates the deployment's document root with [`STANDARD_FILES`]
/// (deterministic byte patterns, no host randomness).
///
/// # Errors
///
/// File-system errors from the VFS path.
pub fn prepare_web_files(dep: &mut WebDeployment) -> Result<()> {
    for &(path, len) in STANDARD_FILES {
        let body: Vec<u8> = (0..len).map(|i| b'a' + (i % 23) as u8).collect();
        dep.put_file(path, &body)?;
    }
    Ok(())
}

/// What one siege run produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MtOutcome {
    /// Cores the siege ran on.
    pub cores: usize,
    /// Requests completed (HTTP 200 each; anything else is an error).
    pub requests_done: usize,
    /// Response-body bytes received across all connections.
    pub bytes: u64,
    /// Maximum per-core cycle delta over the siege — the simulated
    /// wall-clock of the whole run.
    pub makespan_cycles: u64,
    /// Cycle delta of each core individually.
    pub core_cycles: Vec<u64>,
    /// Scheduler decisions taken.
    pub steps: u64,
    /// Core switches performed.
    pub switches: u64,
    /// Order-sensitive fold of every completed request (core, latency,
    /// status, body bytes) and the final per-core clocks: two runs are
    /// bit-identical iff their digests match.
    pub digest: u64,
}

impl MtOutcome {
    /// Aggregate throughput in requests per million simulated cycles.
    pub fn requests_per_mcycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.requests_done as f64 * 1e6 / self.makespan_cycles as f64
    }
}

/// One core's private siege state: its request budget and the
/// connection currently in flight.
struct Lane {
    remaining: usize,
    inflight: Option<Inflight>,
    done: usize,
    bytes: u64,
    digest: u64,
}

struct Inflight {
    client: SimClient,
    t0: u64,
    /// Client-side request overhead still to charge (in chunks) before
    /// the connection starts pumping.
    overhead_left: u64,
    idle_rounds: u32,
}

/// SplitMix64-style mixing for the replay digest.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs one multi-core siege against an already-booted deployment
/// (files must be in place; see [`prepare_web_files`]) on every core
/// its `System` was built with. Loops: ask the scheduler which core
/// goes next, switch the machine onto it, and advance that core's
/// connection by one step — start a request, or one client-pump /
/// server-poll round.
///
/// # Errors
///
/// A stalled connection, a non-200 response, or any kernel error.
pub fn run_siege(dep: &mut WebDeployment, cfg: &MtConfig) -> Result<MtOutcome> {
    let cores = dep.sys.num_cores();
    let start: Vec<u64> = (0..cores).map(|i| dep.sys.core_cycles(i)).collect();
    let mut sched = CoreScheduler::new(cfg.seed, cores);
    let mut lanes: Vec<Lane> = (0..cores)
        .map(|i| Lane {
            // round-robin request distribution
            remaining: cfg.requests / cores + usize::from(i < cfg.requests % cores),
            inflight: None,
            done: 0,
            bytes: 0,
            digest: 0,
        })
        .collect();
    let mut next_port = cfg.port_base;
    let mut next_path = 0usize;

    loop {
        let clocks: Vec<u64> = (0..cores).map(|i| dep.sys.core_cycles(i)).collect();
        let runnable: Vec<bool> = lanes
            .iter()
            .map(|l| l.remaining > 0 || l.inflight.is_some())
            .collect();
        let Some(core) = sched.next_core(&clocks, &runnable) else {
            break;
        };
        dep.sys.switch_to_core(core);
        let lane = &mut lanes[core];
        match lane.inflight.take() {
            None => {
                // Open the next connection: queue the request; the
                // client-side per-request cost is charged chunk-wise on
                // this core's clock by the following steps.
                let path = &cfg.paths[next_path % cfg.paths.len()];
                next_path += 1;
                let mut client =
                    SimClient::new(dep.net.netdev_slot, next_port, HTTP_PORT, cfg.wire);
                next_port = next_port.wrapping_add(1);
                client.send(format!("GET {path} HTTP/1.0\r\nHost: cubicle\r\n\r\n").as_bytes());
                lane.remaining -= 1;
                lane.inflight = Some(Inflight {
                    client,
                    t0: dep.sys.now(),
                    overhead_left: cfg.wire.request_overhead_cycles,
                    idle_rounds: 0,
                });
            }
            Some(mut f) if f.overhead_left > 0 => {
                let chunk = f.overhead_left.min(OVERHEAD_CHUNK);
                dep.sys.charge(chunk);
                f.overhead_left -= chunk;
                lane.inflight = Some(f);
            }
            Some(mut f) => {
                let processed = f.client.pump(&mut dep.sys);
                if f.client.fin_seen() {
                    let latency = dep.sys.now() - f.t0;
                    let resp = HttpResponse::parse(&f.client.received)
                        .ok_or_else(|| CubicleError::Component("malformed HTTP response".into()))?;
                    if resp.status != 200 {
                        return Err(CubicleError::Component(format!(
                            "siege request on core {core} got HTTP {}",
                            resp.status
                        )));
                    }
                    lane.done += 1;
                    lane.bytes += resp.body.len() as u64;
                    lane.digest = mix(lane.digest, core as u64);
                    lane.digest = mix(lane.digest, latency);
                    lane.digest = mix(lane.digest, u64::from(resp.status));
                    lane.digest = mix(lane.digest, resp.body.len() as u64);
                } else {
                    let progressed = dep.httpd.poll(&mut dep.sys)?;
                    if processed == 0 && progressed == 0 {
                        f.idle_rounds += 1;
                        if f.idle_rounds > STALL_ROUNDS {
                            return Err(CubicleError::Component(format!(
                                "siege connection on core {core} stalled after {} bytes",
                                f.client.received.len()
                            )));
                        }
                    } else {
                        f.idle_rounds = 0;
                    }
                    lane.inflight = Some(f);
                }
            }
        }
    }

    let core_cycles: Vec<u64> = (0..cores)
        .map(|i| dep.sys.core_cycles(i) - start[i])
        .collect();
    let mut digest = 0u64;
    for lane in &lanes {
        digest = mix(digest, lane.digest);
    }
    for &c in &core_cycles {
        digest = mix(digest, c);
    }
    Ok(MtOutcome {
        cores,
        requests_done: lanes.iter().map(|l| l.done).sum(),
        bytes: lanes.iter().map(|l| l.bytes).sum(),
        makespan_cycles: core_cycles.iter().copied().max().unwrap_or(0),
        core_cycles,
        steps: sched.steps(),
        switches: sched.switches(),
        digest,
    })
}

/// Boots a fresh deployment with `config` (cores, CubicleSan, …),
/// populates the standard files and runs one siege — the one-call entry
/// used by the benches, the determinism tests and the CI gate.
///
/// # Errors
///
/// Boot or siege failures.
pub fn boot_and_siege(
    config: impl Into<SystemConfig>,
    cfg: &MtConfig,
) -> Result<(MtOutcome, System)> {
    let mut dep = boot_web(config)?;
    prepare_web_files(&mut dep)?;
    let outcome = run_siege(&mut dep, cfg)?;
    Ok((outcome, dep.sys))
}

/// The multi-core faultstorm leg: a siege is interrupted by a wild
/// access inside RAMFS issued from a non-zero core; the cubicle must be
/// quarantined, the fault must not cascade, the audit (including the
/// concurrency/lock-discipline class) must stay clean, and after a
/// microreboot a second siege must complete. CubicleSan is armed from
/// construction, so it watches the whole leg — boot, both sieges and
/// the fault handling in between — and any race report, lock-order cycle or lockset violation
/// counts as an escape. Returns the number of uncontained faults (0 on
/// success), printing `ESCAPE:` lines for each.
///
/// # Panics
///
/// Panics on boot/setup failures (not containment escapes).
pub fn faultstorm_leg(cores: usize, seed: u64) -> u64 {
    use cubicle_mpk::VAddr;

    let mut dep = boot_web(SystemConfig {
        cores,
        fault_containment: true,
        race_detection: true,
        ..IsolationMode::Full.into()
    })
    .expect("boot_web");
    prepare_web_files(&mut dep).expect("prepare files");
    let mut cfg = MtConfig::new(2 * cores, seed);
    cfg.wire = WireModel {
        hop_cycles: 2_000,
        per_byte_cycles: 1,
        request_overhead_cycles: 0,
    };
    run_siege(&mut dep, &cfg).expect("warm siege");

    let mut uncontained = 0;
    // RAMFS goes wild on the last core, mid-deployment.
    dep.sys.switch_to_core(cores - 1);
    let ramfs = dep.ramfs_cid;
    let r = dep
        .sys
        .run_in_cubicle(ramfs, |sys| sys.read_vec(VAddr::new(0x0FFF_0000), 8));
    if r.is_ok() {
        println!("ESCAPE: wild read from core {} did not fault", cores - 1);
        uncontained += 1;
    }
    if !dep.sys.cubicle(ramfs).is_quarantined() {
        println!("ESCAPE: RAMFS not quarantined after wild read");
        uncontained += 1;
    }
    for c in dep.sys.cubicles() {
        if c.is_quarantined() && c.id != ramfs {
            println!("ESCAPE: fault cascaded into {}", c.name);
            uncontained += 1;
        }
    }
    let audit = dep.sys.audit();
    if !audit.is_clean() {
        println!("ESCAPE: post-quarantine audit dirty:\n{audit}");
        uncontained += 1;
    }

    // Microreboot on core 0, repopulate, and siege again.
    dep.sys.switch_to_core(0);
    dep.sys.restart(ramfs).expect("restart RAMFS");
    prepare_web_files(&mut dep).expect("re-put after reboot");
    cfg.port_base += 2_000; // fresh 4-tuples for the second siege
    match run_siege(&mut dep, &cfg) {
        Ok(o) if o.requests_done == cfg.requests => {}
        Ok(o) => {
            println!(
                "ESCAPE: post-reboot siege finished only {}/{} requests",
                o.requests_done, cfg.requests
            );
            uncontained += 1;
        }
        Err(e) => {
            println!("ESCAPE: post-reboot siege failed: {e}");
            uncontained += 1;
        }
    }
    let audit = dep.sys.audit();
    if !audit.is_clean() {
        println!("ESCAPE: post-reboot audit dirty:\n{audit}");
        uncontained += 1;
    }
    for r in dep.sys.race_reports() {
        println!("ESCAPE: sanitizer race report: {r}");
        uncontained += 1;
    }
    if let Some(cycle) = dep.sys.lockorder_cycle() {
        println!("ESCAPE: sanitizer lock-order cycle: {cycle}");
        uncontained += 1;
    }
    for v in dep.sys.lockset_violations() {
        println!("ESCAPE: sanitizer lockset violation: {v}");
        uncontained += 1;
    }
    uncontained
}
