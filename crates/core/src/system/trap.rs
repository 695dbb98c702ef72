//! Trap-and-map (paper §5.3, Fig. 4): fault resolution against page
//! metadata and window ACLs, with the window-grant cache.

use super::locks::MonitorLock;
use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, WindowId};
use crate::race::RaceObject;
use crate::trace::{FaultAudit, FaultDecision, TraceEvent};
use cubicle_mpk::{Fault, FaultKind, PageNum, ProtKey, VAddr};
use std::collections::HashMap;

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

#[derive(Default)]
pub(super) struct GrantCache {
    /// (accessor, faulting page) → the grant that authorised it last.
    pub(super) map: HashMap<(CubicleId, PageNum), GrantEntry>,
    /// Per-accessor hit counts for the resource ledger (host-side).
    pub(super) hits_by_accessor: HashMap<CubicleId, u64>,
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
        // Only protection-key faults are subject to window authorisation.
        let FaultKind::ProtectionKey(_) = fault.kind else {
            return Err(self.deny_raw_fault(fault));
        };
        if !self.mode.mpk_active() {
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
        if self.cubicles[accessor.index()].is_quarantined() {
            // Residual execution of a quarantined cubicle gets no new
            // grants — not even through still-open peer windows.
            return Err(CubicleError::Quarantined { cubicle: accessor });
        }
        let accessor_key = self.cubicles[accessor.index()].key;

        // Implicit window 0: the owner always reclaims its own pages
        // (lazily retagged back — causal tag consistency, §5.6).
        if meta.owner == accessor {
            self.retag(fault.addr, accessor_key)?;
            self.record_holder(fault.addr, accessor, None);
            self.stats.faults_resolved += 1;
            self.trace_fault(&fault, meta.owner, accessor, FaultDecision::OwnerReclaim);
            return Ok(());
        }

        // Ablation mode "w/o ACLs": windows are open for any access.
        if !self.mode.acls_active() {
            self.retag(fault.addr, accessor_key)?;
            self.record_holder(fault.addr, accessor, None);
            self.stats.faults_resolved += 1;
            self.trace_fault(&fault, meta.owner, accessor, FaultDecision::AclsDisabled);
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
        let mut hit = None;
        if let Some(entry) = self.grant_cache.map.get(&cache_key).copied() {
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
                *self
                    .grant_cache
                    .hits_by_accessor
                    .entry(accessor)
                    .or_insert(0) += 1;
                self.stats.grant_cache_hits += 1;
                hit = Some(entry.via);
            } else {
                // Remembered owner is obsolete (ownership transferred
                // under the entry): drop it and take the slow path.
                self.race_note(
                    RaceObject::GrantCache,
                    true,
                    "resolve_fault:grant_cache.remove",
                );
                self.grant_cache.map.remove(&cache_key);
                self.stats.grant_cache_invalidations += 1;
            }
        }
        self.lock_release(MonitorLock::GrantCache, gstart);
        if let Some(via) = hit {
            // A hit pays only the trap and the O(1) lookups already
            // charged above: the kernel retags the page through its
            // cached mapping without a fresh `pkey_mprotect`
            // round-trip (the remembered grant proves the ACL still
            // authorises the access).
            self.machine
                .set_page_key_cached(fault.addr, accessor_key)
                .map_err(CubicleError::MachineFault)?;
            self.record_holder(fault.addr, accessor, Some(via));
            self.stats.faults_resolved += 1;
            self.trace_fault(&fault, meta.owner, accessor, FaultDecision::Window(via));
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
        self.stats.acl_probes += probes;
        self.machine.charge(cost.acl_probe * probes);
        self.lock_release(MonitorLock::Windows, wstart);
        if let Some(wid) = decided_by {
            // ❺ assign the accessor's MPK tag to the page (zero-copy)
            self.retag(fault.addr, accessor_key)?;
            self.record_holder(fault.addr, accessor, Some(wid));
            self.stats.faults_resolved += 1;
            let gstart = self.lock_acquire(MonitorLock::GrantCache);
            self.race_note(
                RaceObject::GrantCache,
                true,
                "resolve_fault:grant_cache.insert",
            );
            self.grant_cache.map.insert(
                (accessor, fault.addr.page()),
                GrantEntry {
                    owner: meta.owner,
                    via: wid,
                },
            );
            self.stats.grant_cache_misses += 1;
            self.lock_release(MonitorLock::GrantCache, gstart);
            self.trace_fault(&fault, meta.owner, accessor, FaultDecision::Window(wid));
            Ok(())
        } else {
            self.stats.faults_denied += 1;
            self.trace_fault(&fault, meta.owner, accessor, FaultDecision::Denied);
            if self.fault_containment {
                // Fault attribution: if the page's owner sits in a caller
                // frame below the accessor, the owner passed a pointer it
                // never opened a window for (confused deputy) — blame the
                // owner. Otherwise the accessor touched memory it was
                // never handed — blame the accessor.
                let frames = self.call_stack.len().saturating_sub(1);
                let offender = if self.call_stack[..frames]
                    .iter()
                    .any(|f| f.cubicle == meta.owner)
                {
                    meta.owner
                } else {
                    accessor
                };
                self.pending_quarantine.push((
                    offender,
                    format!(
                        "denied {} at {} (owner {}, accessor {})",
                        fault.access,
                        fault.addr,
                        self.cubicles[meta.owner.index()].name,
                        self.cubicles[accessor.index()].name,
                    ),
                ));
            }
            Err(CubicleError::WindowDenied {
                accessor,
                owner: meta.owner,
                addr: fault.addr,
            })
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

    /// Records the outcome of a trap-and-map resolution in the trace and
    /// the fault audit log (no-op when tracing is disabled).
    fn trace_fault(
        &mut self,
        fault: &Fault,
        owner: CubicleId,
        accessor: CubicleId,
        decision: FaultDecision,
    ) {
        if self.tracer.is_none() {
            return;
        }
        let event = match decision {
            FaultDecision::Denied => TraceEvent::FaultDenied {
                addr: fault.addr,
                owner,
                accessor,
                kind: fault.access,
            },
            _ => TraceEvent::FaultResolved {
                addr: fault.addr,
                owner,
                accessor,
                kind: fault.access,
            },
        };
        self.trace_push(event);
        self.audit_push(FaultAudit {
            at: self.machine.now(),
            addr: fault.addr,
            owner,
            accessor,
            access: fault.access,
            decision,
        });
    }

    fn retag(&mut self, addr: VAddr, key: ProtKey) -> Result<()> {
        self.machine
            .set_page_key(addr, key)
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

    /// Drops every grant-cache entry `keep` rejects, counting each as an
    /// invalidation. `site` names the caller for CubicleSan: quarantine
    /// and restart purge the cubicle's grants in both directions,
    /// ownership transfer drops its pages, and the narrowing window
    /// operations (remove, close, close-all, destroy) drop the window's.
    pub(super) fn grant_cache_retain(
        &mut self,
        site: &'static str,
        keep: impl FnMut(&(CubicleId, PageNum), &mut GrantEntry) -> bool,
    ) {
        let start = self.lock_acquire(MonitorLock::GrantCache);
        self.race_note(RaceObject::GrantCache, true, site);
        let before = self.grant_cache.map.len();
        self.grant_cache.map.retain(keep);
        self.stats.grant_cache_invalidations += (before - self.grant_cache.map.len()) as u64;
        self.lock_release(MonitorLock::GrantCache, start);
    }
}
