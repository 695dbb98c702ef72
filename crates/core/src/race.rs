//! CubicleSan: the dynamic half of the monitor's concurrency sanitizer.
//!
//! The multi-core monitor serialises its four shared metadata structures
//! (page metadata, window descriptors, grant cache, heap ledger) on the
//! simulated-time [`MonitorLock`]s. Nothing in the lock machinery itself
//! *proves* the discipline is complete — a mutation site that forgets to
//! acquire still "works" under host-sequential execution. This module is
//! the proof harness: a vector-clock happens-before race detector plus
//! Eraser-style lockset tracking plus a lock-order (deadlock) graph,
//! driven by three kinds of events the kernel feeds it:
//!
//! * **dispatch** — the scheduler put a core on the CPU
//!   ([`System::switch_to_core`]); advances that core's own clock
//!   component. Scheduling is *not* synchronisation: no edges are drawn
//!   between cores, exactly as in the real machine.
//! * **acquire/release** — a monitor lock section. Acquire joins the
//!   lock's clock into the core's clock (the release that preceded it
//!   happens-before everything after the acquire) and records lock-order
//!   edges from every lock already held; release publishes the core's
//!   clock into the lock and ticks the core.
//! * **access** — a read or write of one of the four protected
//!   structures, annotated with the lexical site. Two accesses to the
//!   same structure from different cores, at least one a write, with
//!   *neither* a happens-before edge *nor* a common lock, are a race.
//!   Independently, Eraser's candidate-lockset intersection shrinks per
//!   structure; an empty candidate set over multi-core history is a
//!   lockset violation even when the observed interleaving happened to
//!   be ordered.
//!
//! The detector is a pure observer, like tracing and the audit: it
//! charges no simulated cycles, so enabling it changes no clock — the A/B
//! overhead entry in `BENCH_results.json` measures host wall time only.
//!
//! [`MonitorLock`]: crate::MonitorLock
//! [`System::switch_to_core`]: crate::System::switch_to_core

use crate::system::MonitorLock;
use std::fmt;

/// Number of monitor locks tracked (mirrors `MonitorLock::all()`).
const NUM_LOCKS: usize = 4;

/// Reports kept before further races are only counted, not recorded.
const REPORT_CAP: usize = 64;

/// The monitor structure an access note refers to. One-to-one with the
/// lock that is *supposed* to guard it — the whole point of the detector
/// is to find accesses where that correspondence was broken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaceObject {
    /// `System::page_meta` (+ the reclaimed-page tombstones).
    PageMeta = 0,
    /// Window descriptor arrays (`Cubicle::windows`).
    Windows = 1,
    /// The window-grant authorisation cache.
    GrantCache = 2,
    /// Heap sub-allocators and grant accounting.
    Ledger = 3,
}

impl RaceObject {
    /// Stable lower-case name used in reports and exports.
    pub fn name(self) -> &'static str {
        match self {
            RaceObject::PageMeta => "page_meta",
            RaceObject::Windows => "windows",
            RaceObject::GrantCache => "grant_cache",
            RaceObject::Ledger => "ledger",
        }
    }

    /// All objects, in index order.
    pub fn all() -> [RaceObject; 4] {
        [
            RaceObject::PageMeta,
            RaceObject::Windows,
            RaceObject::GrantCache,
            RaceObject::Ledger,
        ]
    }
}

/// One side of a reported access pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessInfo {
    /// Core the access ran on.
    pub core: usize,
    /// That core's scalar epoch at the access.
    pub epoch: u64,
    /// Bitmask of [`MonitorLock`]s held (bit = lock discriminant).
    pub locks: u8,
    /// `true` for a mutation, `false` for a read.
    pub write: bool,
    /// Lexical site label (function:operation).
    pub site: &'static str,
}

/// A detected data race: two accesses to `object` on different cores,
/// at least one a write, with no happens-before edge and no common lock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RaceReport {
    /// The structure both sides touched.
    pub object: RaceObject,
    /// The earlier access (in detection order).
    pub first: AccessInfo,
    /// The later access, which exposed the race.
    pub second: AccessInfo,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = |w: bool| if w { "write" } else { "read" };
        write!(
            f,
            "race on {}: {} at `{}` (core {}, locks {}) vs {} at `{}` (core {}, locks {})",
            self.object.name(),
            kind(self.first.write),
            self.first.site,
            self.first.core,
            lockset_names(self.first.locks),
            kind(self.second.write),
            self.second.site,
            self.second.core,
            lockset_names(self.second.locks),
        )
    }
}

/// An Eraser lockset violation: the candidate lockset of `object` became
/// empty once it had been touched from more than one core.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocksetViolation {
    /// The structure whose candidate set emptied.
    pub object: RaceObject,
    /// The access that emptied it.
    pub access: AccessInfo,
}

impl fmt::Display for LocksetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lockset violation on {}: access at `{}` (core {}, locks {}) left no \
             common lock over the structure's multi-core history",
            self.object.name(),
            self.access.site,
            self.access.core,
            lockset_names(self.access.locks),
        )
    }
}

/// Renders a lock bitmask as `{a, b}` (or `{}` for lock-free).
fn lockset_names(mask: u8) -> String {
    let mut out = String::from("{");
    for lock in MonitorLock::all() {
        if mask & (1 << lock as usize) != 0 {
            if out.len() > 1 {
                out.push_str(", ");
            }
            out.push_str(lock.name());
        }
    }
    out.push('}');
    out
}

/// A vector clock: one monotone component per core, grown on demand.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, core: usize) -> u64 {
        self.0.get(core).copied().unwrap_or(0)
    }

    fn tick(&mut self, core: usize) {
        if self.0.len() <= core {
            self.0.resize(core + 1, 0);
        }
        self.0[core] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(*theirs);
        }
    }
}

/// The last recorded access of one kind (read or write) by one core to
/// one object.
#[derive(Clone, Copy, Debug)]
struct LastAccess {
    info: AccessInfo,
}

/// Per-object detector state.
#[derive(Default)]
struct ObjectState {
    /// Last write per core.
    writes: Vec<Option<LastAccess>>,
    /// Last read per core.
    reads: Vec<Option<LastAccess>>,
    /// Eraser candidate lockset: intersection of the locksets of every
    /// access so far (`None` until the first access).
    candidate: Option<u8>,
    /// Bitmask of cores that have touched the object.
    cores_seen: u64,
    /// Violation already reported for this object (report once).
    violated: bool,
}

/// The CubicleSan dynamic detector. Owned by [`crate::System`] behind
/// [`crate::SystemConfig::race_detection`]; all methods are host-side observers.
#[derive(Default)]
pub struct RaceDetector {
    /// One vector clock per core.
    clocks: Vec<VClock>,
    /// One clock per monitor lock (the release that last published).
    lock_clocks: [VClock; NUM_LOCKS],
    /// Locks currently held, per core (bitmask).
    held: Vec<u8>,
    /// Per-object access history.
    objects: [ObjectState; 4],
    /// Lock-order adjacency matrix: `order[a][b]` = a was held while b
    /// was acquired.
    order: [[bool; NUM_LOCKS]; NUM_LOCKS],
    /// Distinct lock-order edges observed.
    edges: u64,
    /// First cycle found in the lock-order graph, rendered.
    cycle: Option<String>,
    /// Race reports, deduplicated by (object, site pair), capped.
    reports: Vec<RaceReport>,
    /// Races detected past the report cap or the dedup filter.
    suppressed: u64,
    /// Lockset violations (one per object).
    violations: Vec<LocksetViolation>,
}

/// What one detector event added, for the kernel's stat counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct RaceDelta {
    /// New race reports (including deduplicated/suppressed ones).
    pub races: u64,
    /// New distinct lock-order edges.
    pub edges: u64,
    /// New lockset violations.
    pub violations: u64,
}

impl RaceDetector {
    /// A fresh detector with empty history.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    fn ensure_core(&mut self, core: usize) {
        if self.clocks.len() <= core {
            let old = self.clocks.len();
            self.clocks.resize(core + 1, VClock::default());
            self.held.resize(core + 1, 0);
            for obj in &mut self.objects {
                obj.writes.resize(core + 1, None);
                obj.reads.resize(core + 1, None);
            }
            // A core's own component starts at 1: its first event must
            // sit *above* every other core's initial view (0) of it, or
            // two never-synchronised first accesses would compare as
            // ordered (epoch 0 <= view 0).
            for c in old..=core {
                self.clocks[c].tick(c);
            }
        }
    }

    /// The scheduler dispatched `core`. Ticks its clock component — a new
    /// scheduling slice is a new epoch, but *not* a synchronisation edge.
    pub fn on_dispatch(&mut self, core: usize) {
        self.ensure_core(core);
        self.clocks[core].tick(core);
    }

    /// `core` acquired `lock`: join the lock's clock (happens-after the
    /// previous release) and record lock-order edges from every lock
    /// already held.
    pub fn on_acquire(&mut self, core: usize, lock: MonitorLock) -> RaceDelta {
        self.ensure_core(core);
        let l = lock as usize;
        let mut delta = RaceDelta::default();
        let lock_clock = self.lock_clocks[l].clone();
        self.clocks[core].join(&lock_clock);
        let held = self.held[core];
        for prior in MonitorLock::all() {
            let p = prior as usize;
            if p != l && held & (1 << p) != 0 && !self.order[p][l] {
                self.order[p][l] = true;
                self.edges += 1;
                delta.edges += 1;
                if self.cycle.is_none() {
                    self.cycle = self.find_cycle();
                }
            }
        }
        self.held[core] |= 1 << l;
        delta
    }

    /// `core` released `lock`: publish the core's clock into the lock and
    /// tick the core (subsequent local events are a new epoch).
    pub fn on_release(&mut self, core: usize, lock: MonitorLock) {
        self.ensure_core(core);
        let l = lock as usize;
        self.held[core] &= !(1 << l);
        self.lock_clocks[l] = self.clocks[core].clone();
        self.clocks[core].tick(core);
    }

    /// `core` touched `object` at `site`. Runs the happens-before pair
    /// check against every other core's last conflicting access and the
    /// Eraser candidate-lockset intersection.
    pub fn on_access(
        &mut self,
        core: usize,
        object: RaceObject,
        write: bool,
        site: &'static str,
    ) -> RaceDelta {
        self.ensure_core(core);
        let mut delta = RaceDelta::default();
        let info = AccessInfo {
            core,
            epoch: self.clocks[core].get(core),
            locks: self.held[core],
            write,
            site,
        };

        // ── happens-before pair check ────────────────────────────────
        let mut found: Vec<RaceReport> = Vec::new();
        {
            let obj = &self.objects[object as usize];
            for other in 0..self.clocks.len() {
                if other == core {
                    continue;
                }
                // A write conflicts with prior reads and writes; a read
                // only with prior writes.
                let mut candidates: Vec<LastAccess> = Vec::new();
                if let Some(w) = obj.writes[other] {
                    candidates.push(w);
                }
                if write {
                    if let Some(r) = obj.reads[other] {
                        candidates.push(r);
                    }
                }
                for prior in candidates {
                    let ordered = prior.info.epoch <= self.clocks[core].get(other);
                    let common = prior.info.locks & info.locks != 0;
                    if !ordered && !common {
                        found.push(RaceReport {
                            object,
                            first: prior.info,
                            second: info,
                        });
                    }
                }
            }
        }
        for report in found {
            delta.races += 1;
            let dup = self.reports.iter().any(|r| {
                r.object == report.object
                    && r.first.site == report.first.site
                    && r.second.site == report.second.site
            });
            if dup || self.reports.len() >= REPORT_CAP {
                self.suppressed += 1;
            } else {
                self.reports.push(report);
            }
        }

        // ── Eraser lockset intersection ──────────────────────────────
        let obj = &mut self.objects[object as usize];
        obj.candidate = Some(match obj.candidate {
            None => info.locks,
            Some(c) => c & info.locks,
        });
        obj.cores_seen |= 1 << core.min(63);
        let multi_core = obj.cores_seen.count_ones() > 1;
        if multi_core && obj.candidate == Some(0) && !obj.violated {
            obj.violated = true;
            self.violations.push(LocksetViolation {
                object,
                access: info,
            });
            delta.violations += 1;
        }

        // ── record as the new last access ────────────────────────────
        let slot = if write {
            &mut obj.writes[core]
        } else {
            &mut obj.reads[core]
        };
        *slot = Some(LastAccess { info });
        delta
    }

    /// Depth-first search for a cycle in the 4-node lock-order graph,
    /// rendered as `a -> b -> a`.
    fn find_cycle(&self) -> Option<String> {
        // Colours: 0 unvisited, 1 on stack, 2 done.
        let mut colour = [0u8; NUM_LOCKS];
        let mut stack: Vec<usize> = Vec::new();
        fn dfs(
            order: &[[bool; NUM_LOCKS]; NUM_LOCKS],
            colour: &mut [u8; NUM_LOCKS],
            stack: &mut Vec<usize>,
            node: usize,
        ) -> Option<Vec<usize>> {
            colour[node] = 1;
            stack.push(node);
            for (next, &edge) in order[node].iter().enumerate() {
                if !edge {
                    continue;
                }
                if colour[next] == 1 {
                    let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle = stack[from..].to_vec();
                    cycle.push(next);
                    return Some(cycle);
                }
                if colour[next] == 0 {
                    if let Some(c) = dfs(order, colour, stack, next) {
                        return Some(c);
                    }
                }
            }
            stack.pop();
            colour[node] = 2;
            None
        }
        for start in 0..NUM_LOCKS {
            if colour[start] == 0 {
                if let Some(cycle) = dfs(&self.order, &mut colour, &mut stack, start) {
                    let names: Vec<&str> = cycle
                        .iter()
                        .map(|&n| MonitorLock::all()[n].name())
                        .collect();
                    return Some(names.join(" -> "));
                }
            }
        }
        None
    }

    /// Race reports recorded so far (deduplicated, capped).
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Races found past the dedup filter or report cap.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Lockset violations recorded so far (one per object).
    pub fn violations(&self) -> &[LocksetViolation] {
        &self.violations
    }

    /// Distinct lock-order edges observed.
    pub fn lockorder_edges(&self) -> u64 {
        self.edges
    }

    /// The first lock-order cycle found, rendered (`None` = acyclic).
    pub fn lockorder_cycle(&self) -> Option<&str> {
        self.cycle.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: MonitorLock = MonitorLock::PageMeta;
    const W: MonitorLock = MonitorLock::Windows;
    const G: MonitorLock = MonitorLock::GrantCache;
    const L: MonitorLock = MonitorLock::Ledger;

    fn locked_access(d: &mut RaceDetector, core: usize, lock: MonitorLock, site: &'static str) {
        d.on_acquire(core, lock);
        d.on_access(core, RaceObject::PageMeta, true, site);
        d.on_release(core, lock);
    }

    #[test]
    fn same_lock_never_races() {
        let mut d = RaceDetector::new();
        locked_access(&mut d, 0, P, "a");
        d.on_dispatch(1);
        locked_access(&mut d, 1, P, "b");
        assert!(d.reports().is_empty());
        assert!(d.violations().is_empty());
    }

    #[test]
    fn unlocked_cross_core_write_races() {
        let mut d = RaceDetector::new();
        locked_access(&mut d, 0, P, "writer");
        d.on_dispatch(1);
        // Core 1 never acquired anything after core 0's release: no
        // happens-before edge, and the access holds no lock.
        let delta = d.on_access(1, RaceObject::PageMeta, true, "elided");
        assert_eq!(delta.races, 1);
        assert_eq!(d.reports().len(), 1);
        let r = d.reports()[0];
        assert_eq!(r.first.site, "writer");
        assert_eq!(r.second.site, "elided");
        assert_eq!((r.first.core, r.second.core), (0, 1));
        assert_eq!(d.violations().len(), 1, "lockset also empties");
    }

    #[test]
    fn lock_join_creates_happens_before_edge() {
        let mut d = RaceDetector::new();
        locked_access(&mut d, 0, P, "writer");
        d.on_dispatch(1);
        // Core 1 acquires/releases the same lock first: the join orders
        // core 0's write before everything after, so even a lock-free
        // access afterwards is not a *race* (the lockset still empties).
        d.on_acquire(1, P);
        d.on_release(1, P);
        let delta = d.on_access(1, RaceObject::PageMeta, true, "late");
        assert_eq!(delta.races, 0, "happens-before edge suppresses the pair");
        assert_eq!(d.violations().len(), 1, "Eraser still flags the lockset");
    }

    #[test]
    fn read_read_does_not_race() {
        let mut d = RaceDetector::new();
        d.on_access(0, RaceObject::Windows, false, "r0");
        d.on_dispatch(1);
        let delta = d.on_access(1, RaceObject::Windows, false, "r1");
        assert_eq!(delta.races, 0);
    }

    #[test]
    fn read_vs_unordered_write_races() {
        let mut d = RaceDetector::new();
        d.on_acquire(0, W);
        d.on_access(0, RaceObject::Windows, false, "reader");
        d.on_release(0, W);
        d.on_dispatch(1);
        let delta = d.on_access(1, RaceObject::Windows, true, "wild-writer");
        assert_eq!(delta.races, 1);
    }

    #[test]
    fn single_core_never_races() {
        let mut d = RaceDetector::new();
        for i in 0..10 {
            d.on_dispatch(0);
            let delta = d.on_access(
                0,
                RaceObject::Ledger,
                i % 2 == 0,
                if i % 2 == 0 { "w" } else { "r" },
            );
            assert_eq!(delta.races, 0);
        }
        assert!(d.violations().is_empty(), "one core: no multi-core history");
    }

    #[test]
    fn duplicate_pairs_are_suppressed() {
        let mut d = RaceDetector::new();
        locked_access(&mut d, 0, P, "writer");
        d.on_dispatch(1);
        d.on_access(1, RaceObject::PageMeta, true, "elided");
        // The same site pair fires again on core 1's next slice —
        // recorded once, counted after.
        d.on_dispatch(1);
        d.on_access(1, RaceObject::PageMeta, true, "elided");
        assert_eq!(d.reports().len(), 1);
        assert!(d.suppressed() >= 1);
    }

    #[test]
    fn lock_order_edges_accumulate_and_stay_acyclic() {
        let mut d = RaceDetector::new();
        d.on_acquire(0, P);
        d.on_acquire(0, W); // P -> W
        d.on_release(0, W);
        d.on_acquire(0, G); // P -> G
        d.on_release(0, G);
        d.on_release(0, P);
        d.on_acquire(0, L);
        d.on_acquire(0, P); // L -> P
        d.on_release(0, P);
        d.on_release(0, L);
        assert_eq!(d.lockorder_edges(), 3);
        assert_eq!(d.lockorder_cycle(), None);
        // Repeats add no new edges.
        d.on_acquire(0, P);
        d.on_acquire(0, W);
        d.on_release(0, W);
        d.on_release(0, P);
        assert_eq!(d.lockorder_edges(), 3);
    }

    #[test]
    fn lock_order_cycle_is_reported() {
        let mut d = RaceDetector::new();
        d.on_acquire(0, P);
        d.on_acquire(0, W); // P -> W
        d.on_release(0, W);
        d.on_release(0, P);
        d.on_acquire(1, W);
        let delta = d.on_acquire(1, P); // W -> P: closes the cycle
        assert_eq!(delta.edges, 1);
        let cycle = d.lockorder_cycle().expect("cycle found");
        assert!(
            cycle.contains("page_meta") && cycle.contains("windows"),
            "cycle names both locks: {cycle}"
        );
    }

    #[test]
    fn report_and_violation_render() {
        let mut d = RaceDetector::new();
        locked_access(&mut d, 0, P, "writer");
        d.on_dispatch(1);
        d.on_access(1, RaceObject::PageMeta, true, "elided");
        let text = d.reports()[0].to_string();
        assert!(text.contains("race on page_meta"), "{text}");
        assert!(
            text.contains("`writer`") && text.contains("`elided`"),
            "{text}"
        );
        assert!(
            text.contains("{page_meta}") && text.contains("{}"),
            "{text}"
        );
        let v = d.violations()[0].to_string();
        assert!(v.contains("lockset violation on page_meta"), "{v}");
    }
}
