//! What one leg of a run records, and the outside-in probes that fill it:
//! public counters read as before/after deltas around the measured ops,
//! the span profiler and ledger of a traced session, and the fd probe.

use cubicle_core::{CubicleId, LedgerRow, System};
use cubicle_sqldb::pager::PagerStats;
use cubicle_vfs::{flags, VfsPort};
use std::path::{Path, PathBuf};

/// Renders a component, kernel or SQL error for the run's error path.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Ring capacity of a traced session: events beyond it are dropped (and
/// counted); the span profiler's per-cubicle sums stay exact regardless.
const TRACE_CAPACITY: usize = 1 << 16;

/// One measured operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Workload-defined op class (file-size class, SQL statement kind).
    pub kind: u8,
    /// Simulated latency.
    pub cycles: u64,
    /// Host time of the op.
    pub host_ns: u64,
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Public kernel, machine and pager counters, as a snapshot or as
        /// the delta between two snapshots.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// `self - earlier`, field by field.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            /// Accumulates a delta.
            pub fn add(&mut self, delta: &Counters) {
                $(self.$field += delta.$field;)*
            }
        }
    };
}

counters!(
    // SysStats
    cross_calls,
    crossings,
    faults_resolved,
    acl_probes,
    window_ops,
    stack_bytes_copied,
    batch_dispatches,
    batched_calls,
    grant_cache_hits,
    // MachineStats
    reads,
    writes,
    bytes_read,
    bytes_written,
    wrpkru,
    retags,
    machine_faults,
    tlb_hits,
    tlb_misses,
    // PagerStats
    pager_hits,
    pager_misses,
    pager_evictions,
    pager_syncs,
    wal_frames,
);

impl Counters {
    /// Snapshot of `sys` (and of a database's pager, when there is one).
    pub fn read(sys: &System, pager: Option<PagerStats>) -> Counters {
        let s = sys.stats();
        let m = sys.machine_stats();
        let p = pager.unwrap_or_default();
        Counters {
            cross_calls: s.cross_calls,
            // Edges between two different cubicles: the calls that pay a
            // trampoline pair and the boundary tax (merged components
            // call each other directly but still record an edge).
            crossings: s
                .call_edges
                .iter()
                .filter(|((from, to), _)| from != to)
                .map(|(_, n)| n)
                .sum(),
            faults_resolved: s.faults_resolved,
            acl_probes: s.acl_probes,
            window_ops: s.window_ops,
            stack_bytes_copied: s.stack_bytes_copied,
            batch_dispatches: s.batch_dispatches,
            batched_calls: s.batched_calls,
            grant_cache_hits: s.grant_cache_hits,
            reads: m.reads,
            writes: m.writes,
            bytes_read: m.bytes_read,
            bytes_written: m.bytes_written,
            wrpkru: m.wrpkru,
            retags: m.retags,
            machine_faults: m.faults,
            tlb_hits: m.tlb_hits,
            tlb_misses: m.tlb_misses,
            pager_hits: p.hits,
            pager_misses: p.misses,
            pager_evictions: p.evictions,
            pager_syncs: p.syncs,
            wal_frames: p.wal_frames,
        }
    }
}

/// Everything one leg (all sessions of one isolation mode) recorded.
#[derive(Clone, Debug, Default)]
pub struct Leg {
    /// Every op, in execution order.
    pub samples: Vec<Sample>,
    /// Ops with a wrong status, body or result, an SQL error or a stall.
    pub failed: u64,
    /// Host time of each session's boot, population and warm-up.
    pub setup_ns: Vec<u64>,
    /// Counter deltas over the measured ops of every session.
    pub counters: Counters,
    /// Host time inside the server's entry points (`nginx_poll`,
    /// `Database::execute`).
    pub server_ns: u64,
    /// Simulated cycles inside the server's entry points.
    pub server_cycles: u64,
    /// Calls into the server's entry points.
    pub server_calls: u64,
    /// Host time of the load generator: `SimClient::pump` for NGINX,
    /// statement generation and result checking for SQLite.
    pub client_ns: u64,
    /// File descriptors the fd probe found consumed across sessions.
    pub fds_leaked: i64,
}

impl Leg {
    /// An empty leg with room for `samples` ops.
    pub fn with_capacity(samples: usize) -> Leg {
        Leg {
            samples: Vec::with_capacity(samples),
            ..Leg::default()
        }
    }

    /// Simulated cycles over all ops.
    pub fn total_cycles(&self) -> u64 {
        self.samples.iter().map(|s| s.cycles).sum()
    }

    /// Checks that a session's samples account for every simulated cycle
    /// between the two counter snapshots, so the counter deltas describe
    /// exactly the measured ops.
    pub fn check_bracketed(&self, from: usize, elapsed: u64) -> Result<(), String> {
        let sum: u64 = self.samples[from..].iter().map(|s| s.cycles).sum();
        if sum == elapsed {
            Ok(())
        } else {
            Err(format!(
                "op latencies sum to {sum} cycles but the session advanced {elapsed}"
            ))
        }
    }
}

/// What the traced session adds: the per-cubicle split of its cycles.
#[derive(Clone, Debug, Default)]
pub struct TraceOut {
    /// `(cubicle, self cycles, calls in)` over the traced ops; the self
    /// cycles sum to the ops' simulated cycles.
    pub cubicles: Vec<(String, u64, u64)>,
    /// The span profiler's attributed window (its own self-cycle sum).
    pub window: u64,
    /// Events the trace ring overwrote.
    pub dropped: u64,
    /// Observability artifacts written.
    pub artifacts: Vec<PathBuf>,
}

/// Turns tracing on for the measured ops of a session; returns the ledger
/// the session's deltas are taken against.
pub fn trace_begin(sys: &mut System) -> Vec<LedgerRow> {
    sys.enable_tracing(TRACE_CAPACITY);
    sys.ledger()
}

/// Where a traced session writes its artifacts: `dir/stem.*`.
#[derive(Clone, Copy, Debug)]
pub struct TraceTo<'a> {
    pub dir: &'a Path,
    pub stem: &'a str,
}

/// Closes a traced session whose ops took `elapsed` cycles: asserts the
/// span partition, takes the per-cubicle deltas and dumps the artifacts.
/// The profiler attributes cycles up to the last span boundary; the tail
/// after it ran at depth zero, in `root` (the cubicle driving the
/// calls), so it is added there and the split covers every cycle.
pub fn trace_end(
    sys: &mut System,
    before: &[LedgerRow],
    root: CubicleId,
    elapsed: u64,
    to: TraceTo,
) -> Result<TraceOut, String> {
    let window = cubicle_bench::report::assert_spans_partition(sys, to.stem);
    let tail = elapsed
        .checked_sub(window)
        .ok_or_else(|| format!("span window {window} exceeds the {elapsed} traced cycles"))?;
    let after = sys.ledger();
    let cubicles = after
        .iter()
        .map(|row| {
            let calls_before = before
                .iter()
                .find(|b| b.cubicle == row.cubicle)
                .map_or(0, |b| b.calls_in);
            let own = if row.cubicle == root { tail } else { 0 };
            (
                row.name.clone(),
                row.cycles_self + own,
                row.calls_in - calls_before,
            )
        })
        .collect();
    let dropped = sys.trace().map_or(0, |t| t.dropped());
    let artifacts = cubicle_bench::report::dump_observability(sys, to.dir, to.stem)
        .map_err(|e| format!("writing trace artifacts to {}: {e}", to.dir.display()))?;
    Ok(TraceOut {
        cubicles,
        window,
        dropped,
        artifacts,
    })
}

/// Opens and closes a probe file from inside cubicle `app` through `port`
/// (as `WebDeployment::put_file` does) and returns the descriptor the
/// VFS handed out: the lowest free one, so it rises by one for every
/// descriptor the workload left open.
pub fn probe_fd(sys: &mut System, app: CubicleId, port: &VfsPort) -> Result<i64, String> {
    sys.run_in_cubicle(app, |sys| {
        let fd = port
            .open(sys, "/.cubench-fd-probe", flags::O_CREAT | flags::O_RDWR)
            .map_err(err)?;
        if fd < 0 {
            return Err(format!("fd probe: open returned {fd}"));
        }
        port.close(sys, fd).map_err(err)?;
        Ok(fd)
    })
}

/// Keeps freed heap memory in the process. By default glibc hands freed
/// memory at the top of the heap back to the kernel, and serves large
/// blocks from fresh mappings, by thresholds that adapt to the order of
/// earlier allocations. Every boot then faulted in a different number
/// of fresh pages (77 000 to 175 000 over one `nginx-large` run), which
/// moved set-up and per-op host times by up to a fifth between runs of
/// the same seed. A long-running server's heap stays resident; with
/// these settings the benchmark's does too.
pub fn keep_heap_resident() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // glibc's largest mmap threshold on 64-bit targets
        const MMAP_THRESHOLD_MAX: c_int = 32 << 20;
        // SAFETY: `mallopt` only sets allocator tunables, takes no
        // pointers, and runs here before the process starts a thread.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
