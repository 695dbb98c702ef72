//! Kernel-level event statistics.
//!
//! Figures 5 and 8 of the paper annotate the component graphs with
//! cross-cubicle call counts "obtained during benchmark measurement
//! time"; the ablation in Figure 6 decomposes overhead into trampoline,
//! MPK and window costs. These counters provide the raw data.

use crate::ids::CubicleId;
use std::collections::HashMap;
use std::fmt;

/// Counters maintained by the kernel (in addition to the machine-level
/// counters in [`cubicle_mpk::MachineStats`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SysStats {
    /// Total cross-cubicle calls dispatched.
    pub cross_calls: u64,
    /// Calls per (caller, callee) edge.
    pub call_edges: HashMap<(CubicleId, CubicleId), u64>,
    /// Protection faults resolved by trap-and-map (page retagged).
    pub faults_resolved: u64,
    /// Protection faults denied (no open window).
    pub faults_denied: u64,
    /// Window descriptors probed during ACL searches.
    pub acl_probes: u64,
    /// Window management operations (init/add/open/close/…).
    pub window_ops: u64,
    /// Bytes of stack-resident arguments copied across per-cubicle stacks
    /// by trampolines.
    pub stack_bytes_copied: u64,
    /// Messages sent by the IPC baseline transport.
    pub ipc_msgs: u64,
    /// Payload bytes marshalled by the IPC baseline transport.
    pub ipc_bytes: u64,
    /// Component images the loader refused (forbidden instructions).
    pub loads_rejected: u64,
    /// Total forbidden `wrpkru`/`syscall` occurrences found by the
    /// loader's exhaustive audit scan of rejected images.
    pub forbidden_insns: u64,
    /// Cubicles quarantined by the fault containment machinery.
    pub quarantines: u64,
    /// Microreboots performed (`System::restart`).
    pub restarts: u64,
    /// Cross-call frames forcibly unwound while propagating a contained
    /// fault toward a healthy caller.
    pub unwound_frames: u64,
    /// Containable faults converted to an errno at a cross-call boundary
    /// (one per contained incident reaching a healthy caller).
    pub contained_faults: u64,
    /// Callees quarantined by the cycle watchdog for exceeding their
    /// cross-call cycle budget.
    pub watchdog_trips: u64,
    /// Batched cross-call dispatches (one trampoline + PKRU round-trip
    /// covering a whole batch; see [`crate::System::cross_call_batch`]).
    pub batch_dispatches: u64,
    /// Entry invocations carried inside batched dispatches.
    pub batched_calls: u64,
    /// Trap-and-map resolutions answered by the window-grant cache
    /// (O(1) re-check of the remembered descriptor, no linear search).
    pub grant_cache_hits: u64,
    /// Trap-and-map resolutions that fell through to the linear window
    /// search (no live cached grant).
    pub grant_cache_misses: u64,
    /// Grant-cache entries dropped by precise invalidation (window
    /// close/remove/destroy, ownership transfer, quarantine, restart).
    pub grant_cache_invalidations: u64,
    /// Data races detected by CubicleSan (including pairs suppressed by
    /// the dedup filter or the report cap). 0 when detection is off.
    pub race_reports: u64,
    /// Distinct lock-order edges CubicleSan observed. 0 when off.
    pub lockorder_edges: u64,
    /// Eraser lockset violations CubicleSan recorded. 0 when off.
    pub lockset_violations: u64,
    /// Write-ahead-log replays performed on database open (each one
    /// recovered a crashed commit path).
    pub wal_replays: u64,
    /// Committed WAL frames applied during replays.
    pub wal_frames_recovered: u64,
    /// Torn / uncommitted WAL tails discarded during replays.
    pub wal_torn_tails_discarded: u64,
    /// RAMFS inode-journal replays performed by `on_restart` after a
    /// microreboot.
    pub ramfs_journal_replays: u64,
    /// Group-commit syncs that coalesced two or more transactions into
    /// one durable write.
    pub group_commit_batches: u64,
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

    /// Difference `self - earlier`, for windowed measurements (e.g.,
    /// excluding boot). Edges absent from `earlier` are kept as-is.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has counters larger than `self` (it must be a
    /// snapshot taken before).
    pub fn since(&self, earlier: &SysStats) -> SysStats {
        assert!(
            earlier.cross_calls <= self.cross_calls,
            "snapshot is not earlier"
        );
        let mut edges = HashMap::new();
        // verify: order-ok — differences land in another hash map, so no
        // iteration order is observable
        for (&edge, &n) in &self.call_edges {
            let base = earlier.call_edges.get(&edge).copied().unwrap_or(0);
            assert!(base <= n, "snapshot is not earlier");
            if n - base > 0 {
                edges.insert(edge, n - base);
            }
        }
        SysStats {
            cross_calls: self.cross_calls - earlier.cross_calls,
            call_edges: edges,
            faults_resolved: self.faults_resolved - earlier.faults_resolved,
            faults_denied: self.faults_denied - earlier.faults_denied,
            acl_probes: self.acl_probes - earlier.acl_probes,
            window_ops: self.window_ops - earlier.window_ops,
            stack_bytes_copied: self.stack_bytes_copied - earlier.stack_bytes_copied,
            ipc_msgs: self.ipc_msgs - earlier.ipc_msgs,
            ipc_bytes: self.ipc_bytes - earlier.ipc_bytes,
            loads_rejected: self.loads_rejected - earlier.loads_rejected,
            forbidden_insns: self.forbidden_insns - earlier.forbidden_insns,
            quarantines: self.quarantines - earlier.quarantines,
            restarts: self.restarts - earlier.restarts,
            unwound_frames: self.unwound_frames - earlier.unwound_frames,
            contained_faults: self.contained_faults - earlier.contained_faults,
            watchdog_trips: self.watchdog_trips - earlier.watchdog_trips,
            batch_dispatches: self.batch_dispatches - earlier.batch_dispatches,
            batched_calls: self.batched_calls - earlier.batched_calls,
            grant_cache_hits: self.grant_cache_hits - earlier.grant_cache_hits,
            grant_cache_misses: self.grant_cache_misses - earlier.grant_cache_misses,
            grant_cache_invalidations: self.grant_cache_invalidations
                - earlier.grant_cache_invalidations,
            race_reports: self.race_reports - earlier.race_reports,
            lockorder_edges: self.lockorder_edges - earlier.lockorder_edges,
            lockset_violations: self.lockset_violations - earlier.lockset_violations,
            wal_replays: self.wal_replays - earlier.wal_replays,
            wal_frames_recovered: self.wal_frames_recovered - earlier.wal_frames_recovered,
            wal_torn_tails_discarded: self.wal_torn_tails_discarded
                - earlier.wal_torn_tails_discarded,
            ramfs_journal_replays: self.ramfs_journal_replays - earlier.ramfs_journal_replays,
            group_commit_batches: self.group_commit_batches - earlier.group_commit_batches,
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
        if self.group_commit_batches > 0 {
            writeln!(f, "group-commit-batches: {}", self.group_commit_batches)?;
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
