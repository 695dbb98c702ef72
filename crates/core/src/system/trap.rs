//! Trap-and-map (paper §5.3, Fig. 4): fault resolution against page
//! metadata and window ACLs, with the window-grant cache. A page under
//! a live pair share resolves to the pair's key (DESIGN §6l). Load-only
//! is a right of that key, not of a window: the peer of a read-only
//! share is denied a store before any search (DESIGN §6s).

use super::isolation::FaultPolicy;
use super::locks::MonitorLock;
use super::observe::PageOp;
use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, WindowId};
use crate::race::RaceObject;
use crate::trace::{FaultDecision, GrantLookup, TraceEvent};
use cubicle_mpk::{AccessKind, Fault, FaultKind, KeyRights, PageNum, ProtKey, VAddr};

/// One remembered trap-and-map authorisation: the window that granted
/// `accessor` the faulting page last time. A hit re-checks that single
/// descriptor in O(1) instead of linearly searching the owner's window
/// list, so a stale entry can never authorise anything the live window
/// would not — invalidation is a performance matter, not a safety one.
#[derive(Clone, Copy, Debug)]
pub(super) struct GrantEntry {
    pub(super) owner: CubicleId,
    pub(super) via: WindowId,
}

/// The trace event for one trap-and-map outcome: `probes` window
/// descriptors searched, the grant cache taking part as `grant`.
fn fault_event(
    fault: &Fault,
    owner: CubicleId,
    accessor: CubicleId,
    decision: FaultDecision,
    probes: u64,
    grant: GrantLookup,
) -> TraceEvent {
    let (addr, kind, probes) = (fault.addr, fault.access, probes as u32);
    match decision {
        FaultDecision::Denied => TraceEvent::FaultDenied {
            addr,
            owner,
            accessor,
            kind,
            probes,
            grant,
        },
        _ => TraceEvent::FaultResolved {
            addr,
            owner,
            accessor,
            kind,
            decision,
            probes,
            grant,
        },
    }
}

impl System {
    /// Trap-and-map entry: the monitor serialises fault resolution on
    /// the page-metadata lock (the map is read and its holder records
    /// mutated), then dispatches to the resolution logic.
    pub(super) fn resolve_fault(&mut self, fault: Fault) -> Result<()> {
        let start = self.lock_acquire(MonitorLock::PageMeta);
        let result = self.resolve_fault_locked(fault);
        self.lock_release(MonitorLock::PageMeta, start);
        // Quarantines decided under the lock run after its release:
        // teardown takes the windows and ledger locks, which must never
        // nest under page_meta (see `pending_quarantine`).
        while let Some((cid, reason)) = self.pending_quarantine.pop() {
            self.quarantine_for(cid, reason);
        }
        result
    }

    fn resolve_fault_locked(&mut self, fault: Fault) -> Result<()> {
        // Only protection-key faults, in a mode that resolves them, are
        // subject to window authorisation.
        let policy = self.fault_policy();
        if policy == FaultPolicy::RawDeny || !matches!(fault.kind, FaultKind::ProtectionKey(_)) {
            return Err(self.deny_raw_fault(fault));
        }
        let cost = *self.machine.cost_model();
        // ❶ the fault is captured by the monitor
        self.machine.charge(cost.trap);
        // ❷ O(1) page metadata lookup: owner + window descriptor array
        self.machine.charge(cost.page_meta_lookup);
        self.race_note(RaceObject::PageMeta, false, "resolve_fault:page_meta.get");
        let meta = match self.page_meta.get(&fault.addr.page()) {
            Some(m) => *m,
            None => return Err(self.deny_raw_fault(fault)),
        };
        let accessor = self.current_cubicle();
        let event = |decision, probes, grant| {
            fault_event(&fault, meta.owner, accessor, decision, probes, grant)
        };
        if self.cubicles[accessor.index()].is_quarantined() {
            // Residual execution of a quarantined cubicle gets no new
            // grants — not even through still-open peer windows.
            return Err(CubicleError::Quarantined { cubicle: accessor });
        }
        // The page's home key for this accessor: the pair key while a
        // live share of the owner's covers the page and the accessor is
        // one of the pair (DESIGN §6l), else the accessor's own key.
        let accessor_key = self.cubicles[accessor.index()].key;
        let (home, rights) = self
            .home_key(meta.owner, accessor, fault.addr.page())
            .unwrap_or((accessor_key, KeyRights::ReadWrite));
        let store = fault.access == AccessKind::Write;
        if store && !rights.can_write() {
            // The peer of a read-only share never stores to its pages:
            // no search, no retag (DESIGN §6s).
            let ev = event(FaultDecision::Denied, 0, GrantLookup::Skipped);
            return Err(self.deny_window_fault(fault, meta.owner, accessor, ev));
        }
        if home != accessor_key
            && self
                .machine
                .page_entry(fault.addr)
                .is_some_and(|e| e.key == home)
        {
            // The page already carries the pair key: this core's PKRU
            // was loaded before the share. Rewriting it is the whole
            // resolution — a retag would change nothing.
            let pkru = self.pkru_for(accessor);
            self.wrpkru(pkru);
            self.record(event(FaultDecision::PkruRefresh, 0, GrantLookup::Skipped));
            return Ok(());
        }

        // Implicit window 0: the owner always reclaims its own pages
        // (lazily retagged back — causal tag consistency, §5.6).
        if meta.owner == accessor {
            self.retag(fault.addr, home)?;
            self.record_holder(fault.addr, accessor, None);
            self.record(event(FaultDecision::OwnerReclaim, 0, GrantLookup::Skipped));
            return Ok(());
        }

        // Ablation mode "w/o ACLs": windows are open for any access.
        if policy == FaultPolicy::AclsOff {
            self.retag(fault.addr, home)?;
            self.record_holder(fault.addr, accessor, None);
            self.record(event(FaultDecision::AclsDisabled, 0, GrantLookup::Skipped));
            return Ok(());
        }

        // Window-grant cache: a repeat trap-and-map by the same accessor
        // over the same page reuses the grant that authorised it last
        // time, skipping the linear ACL search entirely. Soundness rests
        // on precise invalidation: every operation that can narrow the
        // remembered authority (window remove/close/close-all/destroy,
        // ownership transfer, quarantine, restart) drops the entry.
        let gstart = self.lock_acquire(MonitorLock::GrantCache);
        let cache_key = (accessor, fault.addr.page());
        self.race_note(
            RaceObject::GrantCache,
            false,
            "resolve_fault:grant_cache.get",
        );
        let (mut hit, mut grant) = (None, GrantLookup::Miss);
        if let Some(entry) = self.grant_cache.get(&cache_key).copied() {
            if entry.owner == meta.owner {
                #[cfg(debug_assertions)]
                {
                    // The invalidation rules above are what make the
                    // skip sound; cross-check them in debug builds.
                    let live = self.cubicles[meta.owner.index()]
                        .windows
                        .iter()
                        .find(|w| w.id() == entry.via)
                        .is_some_and(|w| {
                            let check = w.check(fault.addr, accessor);
                            check.covers && check.allowed
                        });
                    debug_assert!(
                        live,
                        "stale grant-cache entry survived invalidation: \
                         {accessor} over {} via {:?} of {}",
                        fault.addr, entry.via, meta.owner
                    );
                }
                self.race_note(
                    RaceObject::GrantCache,
                    true,
                    "resolve_fault:grant_cache.hit",
                );
                (hit, grant) = (Some(entry.via), GrantLookup::Hit);
            } else {
                // Remembered owner is obsolete (ownership transferred
                // under the entry): drop it and take the slow path.
                self.race_note(
                    RaceObject::GrantCache,
                    true,
                    "resolve_fault:grant_cache.remove",
                );
                self.grant_cache.remove(&cache_key);
                grant = GrantLookup::Stale;
            }
        }
        self.lock_release(MonitorLock::GrantCache, gstart);
        if let Some(via) = hit {
            // A hit pays only the trap and the O(1) lookups already
            // charged above: the kernel retags the page through its
            // cached mapping without a fresh `pkey_mprotect`
            // round-trip (the remembered grant proves the ACL still
            // authorises the access).
            self.page_op(fault.addr, PageOp::RetagCached(home))
                .map_err(CubicleError::MachineFault)?;
            self.record_holder(fault.addr, accessor, Some(via));
            self.record(event(FaultDecision::Window(via), 0, grant));
            return Ok(());
        }

        // ❸ linear search of the owner's window descriptors,
        // ❹ O(1) bitmask check per covering descriptor. The descriptor
        // array can be mutated by its owner on another core mid-search,
        // so the search runs under the windows lock (P → W nesting).
        let owner_idx = meta.owner.index();
        let wstart = self.lock_acquire(MonitorLock::Windows);
        self.race_note(RaceObject::Windows, false, "resolve_fault:windows.search");
        let mut probes = 0u64;
        let mut decided_by = None;
        for w in &self.cubicles[owner_idx].windows {
            let check = w.check(fault.addr, accessor);
            probes += check.probes;
            if check.covers && check.allowed {
                decided_by = Some(w.id());
                break;
            }
        }
        self.machine.charge(cost.acl_probe * probes);
        self.lock_release(MonitorLock::Windows, wstart);
        if let Some(wid) = decided_by {
            // ❺ assign the accessor's MPK tag — or its pair key with the
            // owner — to the page (zero-copy)
            self.retag(fault.addr, home)?;
            self.record_holder(fault.addr, accessor, Some(wid));
            if !rights.can_write() {
                // A load under a read-only pair key: no grant is cached,
                // the key's write-disable bit denies every store.
                self.record(event(FaultDecision::Window(wid), probes, grant));
                return Ok(());
            }
            let gstart = self.lock_acquire(MonitorLock::GrantCache);
            self.race_note(
                RaceObject::GrantCache,
                true,
                "resolve_fault:grant_cache.insert",
            );
            self.grant_cache.insert(
                (accessor, fault.addr.page()),
                GrantEntry {
                    owner: meta.owner,
                    via: wid,
                },
            );
            self.lock_release(MonitorLock::GrantCache, gstart);
            self.record(event(FaultDecision::Window(wid), probes, grant));
            Ok(())
        } else {
            let ev = event(FaultDecision::Denied, probes, grant);
            Err(self.deny_window_fault(fault, meta.owner, accessor, ev))
        }
    }

    /// Records a trap-and-map denial (`event`) and, under fault
    /// containment, names the offender to quarantine: the owner when it
    /// sits in a caller frame below the accessor — it passed a pointer it
    /// never opened a window for (confused deputy) — and otherwise the
    /// accessor, which touched memory it was never handed.
    fn deny_window_fault(
        &mut self,
        fault: Fault,
        owner: CubicleId,
        accessor: CubicleId,
        event: TraceEvent,
    ) -> CubicleError {
        self.record(event);
        if self.fault_containment {
            let frames = self.call_stack.len().saturating_sub(1);
            let offender = if self.call_stack[..frames].iter().any(|f| f.cubicle == owner) {
                owner
            } else {
                accessor
            };
            self.pending_quarantine.push((
                offender,
                format!(
                    "denied {} at {} (owner {}, accessor {})",
                    fault.access,
                    fault.addr,
                    self.cubicles[owner.index()].name,
                    self.cubicles[accessor.index()].name,
                ),
            ));
        }
        CubicleError::WindowDenied {
            accessor,
            owner,
            addr: fault.addr,
        }
    }

    /// Handles a fault that window authorisation cannot resolve: an
    /// unmapped or page-permission violation. A touch on a tombstoned
    /// (reclaimed) page of a quarantined cubicle becomes a typed
    /// [`CubicleError::Quarantined`] without implicating the toucher;
    /// any other raw fault is a wild access — under fault containment
    /// the accessor is quarantined as the offender.
    fn deny_raw_fault(&mut self, fault: Fault) -> CubicleError {
        if let Some(&dead) = self.reclaimed.get(&fault.addr.page()) {
            return CubicleError::Quarantined { cubicle: dead };
        }
        if self.fault_containment {
            let accessor = self.current_cubicle();
            if accessor != CubicleId::MONITOR && !self.cubicles[accessor.index()].is_quarantined() {
                self.pending_quarantine.push((
                    accessor,
                    format!("wild {} at unmapped {}", fault.access, fault.addr),
                ));
            }
        }
        CubicleError::MachineFault(fault)
    }

    /// The pair key `accessor` shares `page` under with its `owner`, and
    /// its rights on it, if any ([`System::shared_home_key`], read under
    /// the windows lock — taken only when the two have a live share at
    /// all).
    fn home_key(
        &mut self,
        owner: CubicleId,
        accessor: CubicleId,
        page: PageNum,
    ) -> Option<(ProtKey, KeyRights)> {
        if !self
            .keys
            .shares
            .iter()
            .any(|s| s.owner == owner && s.has(accessor))
        {
            return None;
        }
        let wstart = self.lock_acquire(MonitorLock::Windows);
        self.race_note(RaceObject::Windows, false, "resolve_fault:windows.shares");
        let key = self.shared_home_key(owner, accessor, page);
        self.lock_release(MonitorLock::Windows, wstart);
        key
    }

    fn retag(&mut self, addr: VAddr, key: ProtKey) -> Result<()> {
        self.page_op(addr, PageOp::Retag(key))
            .map_err(CubicleError::MachineFault)
    }

    /// Updates the causal-tag bookkeeping after a successful retag: the
    /// page's key is now expected to be `holder`'s, justified by `via`
    /// when the holder is not the owner. [`System::audit`] cross-checks
    /// the machine's page table against this record.
    #[inline]
    pub(super) fn record_holder(&mut self, addr: VAddr, holder: CubicleId, via: Option<WindowId>) {
        // Every caller (fault resolution, quarantine teardown) holds the
        // page-metadata lock around this mutation.
        self.race_note(
            RaceObject::PageMeta,
            true,
            "record_holder:page_meta.get_mut",
        );
        if let Some(m) = self.page_meta.get_mut(&addr.page()) {
            // verify: lock-held(page_meta)
            m.holder = holder;
            m.via = via;
        }
    }

    /// Drops every grant-cache entry `keep` rejects and returns how many
    /// it dropped, for the caller's event to count as invalidations.
    /// `site` names the caller for CubicleSan: quarantine
    /// and restart purge the cubicle's grants in both directions,
    /// ownership transfer drops its pages, and the narrowing window
    /// operations (remove, close, close-all, destroy) drop the window's.
    pub(super) fn grant_cache_retain(
        &mut self,
        site: &'static str,
        keep: impl FnMut(&(CubicleId, PageNum), &mut GrantEntry) -> bool,
    ) -> u32 {
        let start = self.lock_acquire(MonitorLock::GrantCache);
        self.race_note(RaceObject::GrantCache, true, site);
        let before = self.grant_cache.len();
        self.grant_cache.retain(keep);
        let dropped = before - self.grant_cache.len();
        self.lock_release(MonitorLock::GrantCache, start);
        dropped as u32
    }
}
