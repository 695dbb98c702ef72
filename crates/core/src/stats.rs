//! Kernel-level event statistics.
//!
//! Figures 5 and 8 of the paper annotate the component graphs with
//! cross-cubicle call counts "obtained during benchmark measurement
//! time"; the ablation in Figure 6 decomposes overhead into trampoline,
//! MPK and window costs. These counters provide the raw data.

use crate::ids::CubicleId;
use crate::trace::{GrantLookup, RecoveryEvent, TraceEvent};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// One Prometheus series family: its name, `# TYPE`, help text and how to
/// read its value from a sample of type `S`.
pub struct Series<S> {
    /// Metric name.
    pub name: &'static str,
    /// `counter` or `gauge`.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Reads the value from one sample.
    pub get: fn(&S) -> u64,
}

impl<S> Series<S> {
    /// A monotonic counter.
    pub const fn counter(name: &'static str, help: &'static str, get: fn(&S) -> u64) -> Self {
        Series {
            name,
            kind: "counter",
            help,
            get,
        }
    }

    /// A value that can go down.
    pub const fn gauge(name: &'static str, help: &'static str, get: fn(&S) -> u64) -> Self {
        Series {
            name,
            kind: "gauge",
            help,
            get,
        }
    }
}

/// Declares [`SysStats`] from one table. A scalar row names its field,
/// then its series: `pub field: u64 => counter "name" "help",`. A map row
/// names only its field; the exporter labels its keys itself. The table
/// generates the struct, [`SysStats::since`] and [`SysStats::SERIES`].
macro_rules! sys_stats {
    (
        $(#[$meta:meta])*
        pub struct SysStats {
            $(
                $(#[$doc:meta])*
                pub $field:ident: $ty:ty $(=> $kind:ident $name:literal $help:literal)?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct SysStats {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl SysStats {
            /// One series per scalar counter, in declaration order.
            /// CubicleSan's rows are named `cubicle_san_*`.
            pub const SERIES: &'static [Series<SysStats>] = &[$($(Series {
                name: $name,
                kind: stringify!($kind),
                help: $help,
                get: |s| s.$field,
            },)?)*];

            /// Difference `self - earlier`, for windowed measurements
            /// (e.g., excluding boot). Map keys absent from `earlier` are
            /// kept as-is.
            ///
            /// # Panics
            ///
            /// Panics if `earlier` has a counter larger than `self` (it
            /// must be a snapshot taken before).
            pub fn since(&self, earlier: &SysStats) -> SysStats {
                SysStats {
                    $($field: Since::since(&self.$field, &earlier.$field),)*
                }
            }
        }
    };
}

sys_stats! {
    /// Counters maintained by the kernel (in addition to the machine-level
    /// counters in [`cubicle_mpk::MachineStats`]). [`SysStats::apply`] is
    /// the only writer of all but the CubicleSan counters: each changes
    /// when the monitor records the event that marks the change.
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    pub struct SysStats {
        /// Total cross-cubicle calls dispatched.
        pub cross_calls: u64 => counter "cubicle_cross_calls_total"
            "Cross-cubicle calls dispatched.",
        /// Calls per (caller, callee) edge.
        pub call_edges: HashMap<(CubicleId, CubicleId), u64>,
        /// Protection faults resolved by trap-and-map (page retagged).
        pub faults_resolved: u64 => counter "cubicle_faults_resolved_total"
            "Trap-and-map faults resolved.",
        /// Protection faults denied (no open window).
        pub faults_denied: u64 => counter "cubicle_faults_denied_total"
            "Trap-and-map faults denied.",
        /// Window descriptors probed during ACL searches.
        pub acl_probes: u64 => counter "cubicle_acl_probes_total"
            "Window descriptors probed.",
        /// Window management operations (init/add/open/close/…).
        pub window_ops: u64 => counter "cubicle_window_ops_total"
            "Window API operations.",
        /// Bytes of stack-resident arguments copied across per-cubicle
        /// stacks by trampolines.
        pub stack_bytes_copied: u64 => counter "cubicle_stack_bytes_copied_total"
            "Stack argument bytes copied by trampolines.",
        /// Messages sent by the IPC baseline transport.
        pub ipc_msgs: u64 => counter "cubicle_ipc_msgs_total"
            "IPC baseline messages.",
        /// Payload bytes marshalled by the IPC baseline transport.
        pub ipc_bytes: u64 => counter "cubicle_ipc_bytes_total"
            "IPC baseline payload bytes.",
        /// Component images the loader refused (forbidden instructions).
        pub loads_rejected: u64 => counter "cubicle_loads_rejected_total"
            "Component images the loader refused.",
        /// Total forbidden `wrpkru`/`syscall` occurrences found by the
        /// loader's exhaustive audit scan of rejected images.
        pub forbidden_insns: u64 => counter "cubicle_forbidden_insns_total"
            "Forbidden wrpkru/syscall occurrences in refused images.",
        /// Cubicles quarantined by the fault containment machinery.
        pub quarantines: u64 => counter "cubicle_quarantines_total"
            "Cubicles quarantined after a contained fault.",
        /// Microreboots performed (`System::restart`).
        pub restarts: u64 => counter "cubicle_restarts_total"
            "Microreboots of quarantined cubicles.",
        /// Cross-call frames forcibly unwound while propagating a
        /// contained fault toward a healthy caller.
        pub unwound_frames: u64 => counter "cubicle_unwound_frames_total"
            "Cross-call frames unwound while containing a fault.",
        /// Containable faults converted to an errno at a cross-call
        /// boundary (one per contained incident reaching a healthy caller).
        pub contained_faults: u64 => counter "cubicle_contained_faults_total"
            "Faults converted to an errno at a healthy caller.",
        /// Callees quarantined by the cycle watchdog for exceeding their
        /// cross-call cycle budget.
        pub watchdog_trips: u64 => counter "cubicle_watchdog_trips_total"
            "Callees quarantined for exceeding their cycle budget.",
        /// Batched cross-call dispatches (one trampoline + PKRU round-trip
        /// covering a whole batch; see [`crate::System::cross_call_batch`]).
        pub batch_dispatches: u64 => counter "cubicle_batch_dispatches_total"
            "Batched cross-call dispatches (one crossing per batch).",
        /// Entry invocations carried inside batched dispatches.
        pub batched_calls: u64 => counter "cubicle_batched_calls_total"
            "Entry invocations carried inside batched dispatches.",
        /// Trap-and-map resolutions answered by the window-grant cache
        /// (O(1) re-check of the remembered descriptor, no linear search).
        pub grant_cache_hits: u64 => counter "cubicle_grant_cache_hits_total"
            "Trap-and-map faults answered by the window-grant cache.",
        /// `grant_cache_hits` per faulting cubicle (the ledger's
        /// `grant_hits`).
        pub grant_hits_by_accessor: HashMap<CubicleId, u64>,
        /// Trap-and-map resolutions that fell through to the linear window
        /// search (no live cached grant).
        pub grant_cache_misses: u64 => counter "cubicle_grant_cache_misses_total"
            "Grant-cache misses that took the linear window search.",
        /// Grant-cache entries dropped by precise invalidation (window
        /// close/remove/destroy, ownership transfer, quarantine, restart).
        pub grant_cache_invalidations: u64 => counter "cubicle_grant_cache_invalidations_total"
            "Grant-cache entries dropped by precise invalidation.",
        /// Data races detected by CubicleSan (including pairs suppressed
        /// by the dedup filter or the report cap). 0 when detection is off.
        pub race_reports: u64 => counter "cubicle_san_races_total"
            "Data races reported by CubicleSan.",
        /// Distinct lock-order edges CubicleSan observed. 0 when off.
        pub lockorder_edges: u64 => gauge "cubicle_san_lockorder_edges"
            "Distinct monitor lock-order edges observed.",
        /// Eraser lockset violations CubicleSan recorded. 0 when off.
        pub lockset_violations: u64 => counter "cubicle_san_lockset_violations_total"
            "Eraser lockset violations.",
        /// Write-ahead-log replays performed on database open (each one
        /// recovered a crashed commit path).
        pub wal_replays: u64 => counter "cubicle_wal_replays_total"
            "Write-ahead-log replays performed on database open.",
        /// Committed WAL frames applied during replays.
        pub wal_frames_recovered: u64 => counter "cubicle_wal_frames_recovered_total"
            "Committed WAL frames applied during replays.",
        /// Torn / uncommitted WAL tails discarded during replays.
        pub wal_torn_tails_discarded: u64 => counter "cubicle_wal_torn_tails_discarded_total"
            "Torn or uncommitted WAL tails discarded during replays.",
        /// RAMFS inode-journal replays performed by `on_restart` after a
        /// microreboot.
        pub ramfs_journal_replays: u64 => counter "cubicle_ramfs_journal_replays_total"
            "RAMFS inode-journal replays after microreboots.",
    }
}

/// `self - earlier` for one counter: a scalar, or a map of per-key counts.
trait Since {
    fn since(&self, earlier: &Self) -> Self;
}

impl Since for u64 {
    fn since(&self, earlier: &u64) -> u64 {
        assert!(earlier <= self, "snapshot is not earlier");
        self - earlier
    }
}

/// Per-key `now - earlier`, keeping only the keys that grew.
impl<K: Copy + Eq + Hash> Since for HashMap<K, u64> {
    fn since(&self, earlier: &Self) -> Self {
        // verify: order-ok — differences land in another hash map, so no
        // iteration order is observable
        self.iter()
            .filter_map(|(&k, &n)| {
                let base = earlier.get(&k).copied().unwrap_or(0);
                assert!(base <= n, "snapshot is not earlier");
                (n > base).then_some((k, n - base))
            })
            .collect()
    }
}

impl SysStats {
    /// Records one call on the `caller → callee` edge.
    pub fn record_edge(&mut self, caller: CubicleId, callee: CubicleId) {
        *self.call_edges.entry((caller, callee)).or_insert(0) += 1;
        self.cross_calls += 1;
    }

    /// Calls observed on the `caller → callee` edge.
    pub fn edge(&self, caller: CubicleId, callee: CubicleId) -> u64 {
        self.call_edges.get(&(caller, callee)).copied().unwrap_or(0)
    }

    /// Total calls *into* `callee` from anyone.
    pub fn calls_into(&self, callee: CubicleId) -> u64 {
        self.call_edges
            .iter()
            .filter(|((_, to), _)| *to == callee)
            .map(|(_, n)| n)
            .sum()
    }

    /// Folds one recorded monitor event into the counters. Folding a
    /// ring that dropped nothing from zero yields exactly the counters'
    /// change since tracing was enabled (CubicleSan's aside).
    ///
    /// Always inlined: each call site then keeps only the arm of the
    /// event it builds. Out of line, the call per event cost cubench
    /// nginx-small about a third more host time per request.
    #[inline(always)]
    pub fn apply(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::CrossCallEnter {
                caller,
                callee,
                batch,
                ..
            } => {
                self.record_edge(caller, callee);
                if batch > 0 {
                    self.batch_dispatches += 1;
                    self.batched_calls += u64::from(batch);
                }
            }
            TraceEvent::FaultResolved {
                accessor,
                probes,
                grant,
                ..
            } => {
                self.faults_resolved += 1;
                self.acl_probes += u64::from(probes);
                match grant {
                    GrantLookup::Hit => {
                        self.grant_cache_hits += 1;
                        *self.grant_hits_by_accessor.entry(accessor).or_insert(0) += 1;
                    }
                    GrantLookup::Miss => self.grant_cache_misses += 1,
                    GrantLookup::Stale => {
                        self.grant_cache_misses += 1;
                        self.grant_cache_invalidations += 1;
                    }
                    GrantLookup::Skipped => {}
                }
            }
            TraceEvent::FaultDenied { probes, grant, .. } => {
                self.faults_denied += 1;
                self.acl_probes += u64::from(probes);
                self.grant_cache_invalidations += u64::from(grant == GrantLookup::Stale);
            }
            TraceEvent::WindowOp { grants_dropped, .. } => {
                self.window_ops += 1;
                self.grant_cache_invalidations += u64::from(grants_dropped);
            }
            TraceEvent::StackCopy { bytes, .. } => self.stack_bytes_copied += bytes as u64,
            TraceEvent::IpcRoundTrip { bytes, .. } => {
                self.ipc_msgs += 2;
                self.ipc_bytes += bytes as u64;
            }
            TraceEvent::Quarantine { grants_dropped, .. } => {
                self.quarantines += 1;
                self.grant_cache_invalidations += u64::from(grants_dropped);
            }
            TraceEvent::Restart { grants_dropped, .. } => {
                self.restarts += 1;
                self.grant_cache_invalidations += u64::from(grants_dropped);
            }
            TraceEvent::OwnershipTransfer { grants_dropped, .. } => {
                self.grant_cache_invalidations += u64::from(grants_dropped);
            }
            TraceEvent::FaultContained { .. } => {
                self.unwound_frames += 1;
                self.contained_faults += 1;
            }
            TraceEvent::FrameUnwound { .. } => self.unwound_frames += 1,
            TraceEvent::WatchdogTrip { .. } => self.watchdog_trips += 1,
            TraceEvent::LoadRejected { forbidden } => {
                self.loads_rejected += 1;
                self.forbidden_insns += forbidden as u64;
            }
            TraceEvent::Recovery(RecoveryEvent::WalReplay { frames, torn }) => {
                self.wal_replays += 1;
                self.wal_frames_recovered += frames;
                self.wal_torn_tails_discarded += u64::from(torn);
            }
            TraceEvent::Recovery(RecoveryEvent::RamfsJournalReplay { .. }) => {
                self.ramfs_journal_replays += 1;
            }
            TraceEvent::CrossCallExit { .. }
            | TraceEvent::Retag { .. }
            | TraceEvent::WrPkru { .. }
            | TraceEvent::HeapAlloc { .. }
            | TraceEvent::HeapFree { .. }
            | TraceEvent::PageReclaim { .. } => {}
        }
    }

    /// Folds one CubicleSan event delta into the sanitizer counters.
    pub(crate) fn apply_race_delta(&mut self, delta: crate::race::RaceDelta) {
        self.race_reports += delta.races;
        self.lockorder_edges += delta.edges;
        self.lockset_violations += delta.violations;
    }
}

impl fmt::Display for SysStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cross-calls: {}  faults: {} resolved / {} denied  acl-probes: {}  window-ops: {}",
            self.cross_calls,
            self.faults_resolved,
            self.faults_denied,
            self.acl_probes,
            self.window_ops
        )?;
        writeln!(
            f,
            "stack-bytes-copied: {}  ipc: {} msgs / {} bytes",
            self.stack_bytes_copied, self.ipc_msgs, self.ipc_bytes
        )?;
        if self.loads_rejected > 0 {
            writeln!(
                f,
                "loads-rejected: {} ({} forbidden occurrences)",
                self.loads_rejected, self.forbidden_insns
            )?;
        }
        // Quiet when containment never fired, so snapshots of healthy
        // runs (e.g. the golden Fig. 6 surface) are unchanged.
        if self.quarantines + self.restarts + self.unwound_frames + self.contained_faults > 0 {
            writeln!(
                f,
                "quarantines: {}  restarts: {}  unwound-frames: {}  contained-faults: {}",
                self.quarantines, self.restarts, self.unwound_frames, self.contained_faults
            )?;
        }
        if self.watchdog_trips > 0 {
            writeln!(f, "watchdog-trips: {}", self.watchdog_trips)?;
        }
        // Quiet unless batching / the grant cache engaged (runs without
        // batched calls or trap-and-map faults render no line).
        if self.batch_dispatches > 0 {
            writeln!(
                f,
                "batch-dispatches: {}  batched-calls: {}",
                self.batch_dispatches, self.batched_calls
            )?;
        }
        if self.grant_cache_hits + self.grant_cache_misses + self.grant_cache_invalidations > 0 {
            writeln!(
                f,
                "grant-cache: {} hits / {} misses / {} invalidations",
                self.grant_cache_hits, self.grant_cache_misses, self.grant_cache_invalidations
            )?;
        }
        // Quiet unless crash recovery actually ran, so healthy-run
        // snapshots (golden Fig. 6) render identically.
        if self.wal_replays
            + self.wal_frames_recovered
            + self.wal_torn_tails_discarded
            + self.ramfs_journal_replays
            > 0
        {
            writeln!(
                f,
                "recovery: {} wal replays ({} frames, {} torn tails) / {} ramfs journal replays",
                self.wal_replays,
                self.wal_frames_recovered,
                self.wal_torn_tails_discarded,
                self.ramfs_journal_replays
            )?;
        }
        // Quiet when CubicleSan is off (lockorder_edges is nonzero on any
        // detection-on run that nests locks, so the sanitizer line shows
        // up exactly when the detector ran with something to say).
        if self.race_reports + self.lockorder_edges + self.lockset_violations > 0 {
            writeln!(
                f,
                "sanitizer: {} races / {} lock-order edges / {} lockset violations",
                self.race_reports, self.lockorder_edges, self.lockset_violations
            )?;
        }
        let mut edges: Vec<_> = self.call_edges.iter().collect();
        edges.sort();
        for ((from, to), n) in edges {
            writeln!(f, "  {from} -> {to}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_accumulate() {
        let mut s = SysStats::default();
        s.record_edge(CubicleId(1), CubicleId(2));
        s.record_edge(CubicleId(1), CubicleId(2));
        s.record_edge(CubicleId(2), CubicleId(3));
        assert_eq!(s.edge(CubicleId(1), CubicleId(2)), 2);
        assert_eq!(s.edge(CubicleId(2), CubicleId(3)), 1);
        assert_eq!(s.edge(CubicleId(3), CubicleId(1)), 0);
        assert_eq!(s.cross_calls, 3);
        assert_eq!(s.calls_into(CubicleId(2)), 2);
    }

    #[test]
    fn since_subtracts() {
        let mut s = SysStats::default();
        s.record_edge(CubicleId(1), CubicleId(2));
        let snapshot = s.clone();
        s.record_edge(CubicleId(1), CubicleId(2));
        s.record_edge(CubicleId(4), CubicleId(5));
        s.faults_resolved = 7;
        let d = s.since(&snapshot);
        assert_eq!(d.cross_calls, 2);
        assert_eq!(d.edge(CubicleId(1), CubicleId(2)), 1);
        assert_eq!(d.edge(CubicleId(4), CubicleId(5)), 1);
        assert_eq!(d.faults_resolved, 7);
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn since_rejects_future_snapshot() {
        let mut later = SysStats::default();
        later.record_edge(CubicleId(1), CubicleId(2));
        SysStats::default().since(&later);
    }

    #[test]
    fn display_lists_edges() {
        let mut s = SysStats::default();
        s.record_edge(CubicleId(1), CubicleId(2));
        s.stack_bytes_copied = 96;
        s.ipc_msgs = 4;
        s.ipc_bytes = 512;
        let out = s.to_string();
        assert!(out.contains("cubicle#1 -> cubicle#2: 1"));
        assert!(out.contains("stack-bytes-copied: 96"));
        assert!(out.contains("ipc: 4 msgs / 512 bytes"));
        assert!(!out.contains("loads-rejected"), "quiet when nothing failed");
        s.loads_rejected = 1;
        s.forbidden_insns = 3;
        assert!(s
            .to_string()
            .contains("loads-rejected: 1 (3 forbidden occurrences)"));
    }
}
