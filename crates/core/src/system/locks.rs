//! Multi-core simulation: the monitor's simulated-time locks, per-core
//! switching, the re-entrancy stack pools and the CubicleSan hooks.

use super::System;
use crate::cubicle::{RegionType, StackSlot};
use crate::ids::CubicleId;
use crate::race::{RaceObject, RaceReport};
use cubicle_mpk::{CoreStats, PageFlags, PAGE_SIZE};
use std::collections::VecDeque;

/// Pieces of monitor metadata that concurrent cross-calls from several
/// simulated cores serialise on. The monitor executes host-sequentially,
/// so these locks never block the host — they model the *simulated time*
/// a core would spin waiting for a peer that holds the lock in an
/// overlapping simulated interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MonitorLock {
    /// The page-metadata map consulted and mutated by trap-and-map
    /// fault resolution.
    PageMeta = 0,
    /// Window descriptors (open/close/destroy mutate peers' ACLs).
    Windows = 1,
    /// The window-grant authorisation cache and its invalidation paths.
    GrantCache = 2,
    /// The heap ledger: per-cubicle allocation and accounting state.
    Ledger = 3,
}

/// Number of [`MonitorLock`] variants.
const NUM_LOCKS: usize = 4;

/// Critical sections remembered per lock for the audit's concurrency
/// pass (bounded ring; oldest evicted first).
const LOCK_SECTION_CAP: usize = 128;

impl MonitorLock {
    /// Stable lower-case name used in Prometheus labels and audit
    /// findings.
    pub fn name(self) -> &'static str {
        match self {
            MonitorLock::PageMeta => "page_meta",
            MonitorLock::Windows => "windows",
            MonitorLock::GrantCache => "grant_cache",
            MonitorLock::Ledger => "ledger",
        }
    }

    /// All lock identities, in index order.
    pub fn all() -> [MonitorLock; NUM_LOCKS] {
        [
            MonitorLock::PageMeta,
            MonitorLock::Windows,
            MonitorLock::GrantCache,
            MonitorLock::Ledger,
        ]
    }
}

/// Per-lock simulated state.
#[derive(Default, Debug)]
pub(crate) struct LockState {
    /// Simulated cycle at which the last holder released the lock. A
    /// core acquiring at cycle `t < free_at` spins for `free_at - t`.
    pub(crate) free_at: u64,
    /// Total acquisitions.
    pub(crate) acquisitions: u64,
    /// Acquisitions that found the lock held (in simulated time).
    pub(crate) contended: u64,
    /// Simulated cycles spent spin-waiting across all acquisitions.
    pub(crate) wait_cycles: u64,
    /// Recent critical sections as `(start, end)` cycle stamps, in
    /// acquisition order — the audit checks they never overlap.
    pub(crate) sections: VecDeque<(u64, u64)>,
}

/// The monitor's lock table.
#[derive(Default, Debug)]
pub(crate) struct MonitorLocks {
    pub(crate) locks: [LockState; NUM_LOCKS],
}

/// Counters for one monitor lock, exported by
/// [`System::monitor_lock_stats`] and the Prometheus endpoint.
#[derive(Clone, Copy, Debug)]
pub struct MonitorLockStats {
    /// Lock name (`page_meta`, `windows`, `grant_cache`, `ledger`).
    pub name: &'static str,
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to spin (simulated contention).
    pub contended: u64,
    /// Simulated cycles spent spinning.
    pub wait_cycles: u64,
}

impl System {
    /// Feeds CubicleSan a page-metadata write performed *with* the lock
    /// held — the well-behaved half of the seeded lock-elision
    /// experiment (see [`System::corrupt_machine_for_test`] for the
    /// `*_for_test` convention; `cubicle-verify` bans the name in
    /// component sources).
    #[doc(hidden)]
    pub fn san_probe_locked_for_test(&mut self) {
        let start = self.lock_acquire(MonitorLock::PageMeta);
        self.race_note(
            RaceObject::PageMeta,
            true,
            "san_probe:page_meta.locked_write",
        );
        self.lock_release(MonitorLock::PageMeta, start);
    }

    /// Feeds CubicleSan a page-metadata write with the lock acquire
    /// *elided* — the seeded mutation: issued on a different core with
    /// no intervening lock operations, this is exactly the access pair
    /// the detector must report.
    #[doc(hidden)]
    pub fn san_probe_elided_for_test(&mut self) {
        self.race_note(
            RaceObject::PageMeta,
            true,
            "san_probe:page_meta.elided_write",
        );
    }

    /// Number of simulated cores ([`SystemConfig::cores`](crate::SystemConfig::cores)).
    pub fn num_cores(&self) -> usize {
        self.cores
    }

    /// The simulated core currently executing.
    pub fn current_core(&self) -> usize {
        self.machine.current_core()
    }

    /// Switches execution to core `i`. Only legal between top-level
    /// operations: whole cross-call chains run on one core, and the
    /// monitor's serialisation order is the order in which cores issue
    /// their operations.
    ///
    /// The first switch brings the other configured cores up with the
    /// current clock and PKRU.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or a cross-call chain is in flight.
    pub fn switch_to_core(&mut self, i: usize) {
        assert!(
            self.call_stack.is_empty(),
            "cannot switch cores while a cross-call chain is in flight"
        );
        self.machine.set_num_cores(self.cores);
        self.machine.switch_to_core(i);
        if let Some(race) = &mut self.race {
            race.on_dispatch(i);
        }
    }

    /// Core `i`'s cycle counter (its private simulated clock). A core
    /// not yet brought up reads the clock it will start with.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_cycles(&self, i: usize) -> u64 {
        assert!(i < self.cores, "core {i} out of range");
        if i < self.machine.num_cores() {
            self.machine.core_cycles(i)
        } else {
            self.machine.now()
        }
    }

    /// The furthest-ahead core clock — the simulated makespan of a
    /// multi-core run.
    pub fn max_core_cycles(&self) -> u64 {
        self.machine.max_core_cycles()
    }

    /// Core `i`'s private event counters (TLB hits/misses, cross-calls,
    /// PKRU writes); zero for a core not yet brought up.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_stats(&self, i: usize) -> CoreStats {
        assert!(i < self.cores, "core {i} out of range");
        if i < self.machine.num_cores() {
            self.machine.core_stats(i)
        } else {
            CoreStats::default()
        }
    }

    /// Counters for every monitor lock, in [`MonitorLock::all`] order.
    pub fn monitor_lock_stats(&self) -> Vec<MonitorLockStats> {
        MonitorLock::all()
            .into_iter()
            .map(|l| {
                let st = &self.locks.locks[l as usize];
                MonitorLockStats {
                    name: l.name(),
                    acquisitions: st.acquisitions,
                    contended: st.contended,
                    wait_cycles: st.wait_cycles,
                }
            })
            .collect()
    }

    /// Acquires a monitor lock in simulated time, charging a spin-wait
    /// if a core holds it in an overlapping simulated interval, and
    /// returns the section's start stamp for [`System::lock_release`].
    ///
    /// Host execution is sequential, so the lock models contention
    /// rather than enforcing mutual exclusion: a core whose clock sits
    /// before the last release spins until `free_at`. On a single-core
    /// run the clock is monotonic across sections, so no acquisition
    /// ever waits and cycle counts are untouched.
    #[inline]
    pub(super) fn lock_acquire(&mut self, lock: MonitorLock) -> u64 {
        let now = self.machine.now();
        let st = &mut self.locks.locks[lock as usize];
        st.acquisitions += 1;
        if st.free_at > now {
            let wait = st.free_at - now;
            st.contended += 1;
            st.wait_cycles += wait;
            self.machine.charge(wait);
        }
        if let Some(race) = &mut self.race {
            let delta = race.on_acquire(self.machine.current_core(), lock);
            self.record_race(delta);
        }
        self.machine.now()
    }

    /// Releases a monitor lock acquired at `start`, recording the
    /// critical section for the audit's concurrency pass.
    #[inline]
    pub(super) fn lock_release(&mut self, lock: MonitorLock, start: u64) {
        let end = self.machine.now();
        let st = &mut self.locks.locks[lock as usize];
        st.free_at = end;
        if st.sections.len() >= LOCK_SECTION_CAP {
            st.sections.pop_front();
        }
        st.sections.push_back((start, end));
        if let Some(race) = &mut self.race {
            race.on_release(self.machine.current_core(), lock);
        }
    }

    /// Feeds CubicleSan one access to a protected monitor structure,
    /// tagged with its lexical site. A no-op (and no cycle charge) when
    /// detection is off; see [`SystemConfig::race_detection`].
    #[inline]
    pub(super) fn race_note(&mut self, object: RaceObject, write: bool, site: &'static str) {
        if let Some(race) = &mut self.race {
            let delta = race.on_access(self.machine.current_core(), object, write, site);
            self.record_race(delta);
        }
    }

    /// Race reports recorded by CubicleSan (deduplicated by site pair,
    /// capped); empty when detection is off.
    pub fn race_reports(&self) -> &[RaceReport] {
        self.race.as_ref().map_or(&[], |r| r.reports())
    }

    /// Distinct lock-order edges CubicleSan has observed (0 when off).
    pub fn lockorder_edges(&self) -> u64 {
        self.race.as_ref().map_or(0, |r| r.lockorder_edges())
    }

    /// The first lock-order cycle CubicleSan found, rendered as
    /// `a -> b -> a`; `None` means acyclic so far (or detection off).
    pub fn lockorder_cycle(&self) -> Option<&str> {
        self.race.as_ref().and_then(|r| r.lockorder_cycle())
    }

    /// Eraser lockset violations recorded by CubicleSan (at most one per
    /// protected structure); empty when detection is off.
    pub fn lockset_violations(&self) -> Vec<String> {
        self.race.as_ref().map_or_else(Vec::new, |r| {
            r.violations().iter().map(|v| v.to_string()).collect()
        })
    }

    /// Hands out a stack for a cross-call entering `cid`, from the
    /// cubicle's re-entrancy pool. Returns the slot index, or `None`
    /// when pooling is inactive (single core, non-MPK mode, the monitor,
    /// or a cubicle without a stack) and the primary stack serves as
    /// always.
    ///
    /// Slot 0 mirrors the primary stack; a fresh stack is mapped (and
    /// charged at `pkey_mprotect` per page, like any mapping) only when
    /// every pooled slot is busy at the current simulated time — i.e.
    /// when entries on several cores genuinely overlap in simulated
    /// time.
    #[inline]
    pub(super) fn stack_acquire(&mut self, cid: CubicleId) -> Option<usize> {
        if self.machine.num_cores() == 1
            || !self.stacks_pooled()
            || cid == CubicleId::MONITOR
            || self.cubicles[cid.index()].stack_len == 0
        {
            if cid != CubicleId::MONITOR && cid.index() < self.cubicles.len() {
                self.cubicles[cid.index()].last_core = self.machine.current_core() as u32;
            }
            return None;
        }
        let now = self.machine.now();
        let core = self.machine.current_core() as u32;
        let (key, len) = {
            let c = &mut self.cubicles[cid.index()];
            c.last_core = core;
            if c.stack_pool.is_empty() {
                // Lazily seed slot 0 with the primary stack.
                let slot = StackSlot {
                    base: c.stack_base,
                    len: c.stack_len,
                    busy_until: 0,
                };
                c.stack_pool.push(slot);
            }
            if let Some(i) = c.stack_pool.iter().position(|s| s.busy_until <= now) {
                c.stack_pool[i].busy_until = u64::MAX;
                return Some(i);
            }
            (c.key, c.stack_len)
        };
        // Every pooled stack is busy at `now`: map and tag a fresh one,
        // charged like any runtime mapping (`pkey_mprotect` per page).
        let pages = len.div_ceil(PAGE_SIZE);
        let retag_cost = self.machine.cost_model().pkey_mprotect * pages as u64;
        self.machine.charge(retag_cost);
        let base = self.map_fresh(pages, key, PageFlags::rw(), cid, RegionType::Stack);
        let c = &mut self.cubicles[cid.index()];
        c.stack_pool.push(StackSlot {
            base,
            len,
            busy_until: u64::MAX,
        });
        Some(c.stack_pool.len() - 1)
    }

    /// In-flight frames of `cid` currently holding a pooled stack slot
    /// (the audit cross-checks them against live pool slots).
    pub(crate) fn live_pool_frames(&self, cid: CubicleId) -> usize {
        self.call_stack
            .iter()
            .filter(|f| f.cubicle == cid && f.stack_slot.is_some())
            .count()
    }

    /// Returns a pooled stack slot at frame exit; the slot becomes free
    /// for entries whose simulated time is past the exit stamp.
    #[inline]
    pub(super) fn stack_release(&mut self, cid: CubicleId, slot: Option<usize>) {
        let Some(i) = slot else { return };
        let now = self.machine.now();
        if let Some(s) = self.cubicles[cid.index()].stack_pool.get_mut(i) {
            s.busy_until = now;
        }
    }
}
