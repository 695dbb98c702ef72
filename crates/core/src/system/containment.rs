//! Fault containment: the cross-call watchdog, quarantine, the unwind
//! to an errno at the first healthy boundary, microreboot and the
//! crash-recovery milestones.

use super::keys::PARKED_KEY;
use super::locks::MonitorLock;
use super::observe::PageOp;
use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::CubicleId;
use crate::race::RaceObject;
use crate::trace::{Incident, RecoveryEvent, TraceEvent};
use crate::value::Value;
use cubicle_mpk::{PageNum, VAddr};

/// Exponential-backoff policy for [`System::restart`]: a cubicle on its
/// `g`-th incarnation must wait `base_backoff_cycles << g` simulated
/// cycles after its quarantine before a restart is accepted, and after
/// `max_restarts` incarnations the quarantine becomes permanent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Backoff delay for the first restart, in simulated cycles; doubles
    /// with every incarnation (capped at `<< 31`).
    pub base_backoff_cycles: u64,
    /// Restarts allowed before the quarantine becomes permanent.
    pub max_restarts: u32,
}

impl System {
    /// Overrides the watchdog budget for one `caller → callee` edge
    /// (`None` removes the override, falling back to the default
    /// budget). Takes effect on the next call over the edge.
    pub fn set_edge_cycle_budget(
        &mut self,
        caller: CubicleId,
        callee: CubicleId,
        cycles: Option<u64>,
    ) {
        match cycles {
            Some(c) => {
                self.edge_budgets.insert((caller, callee), c);
            }
            None => {
                self.edge_budgets.remove(&(caller, callee));
            }
        }
        if !self.watchdog_armed() {
            self.machine.set_cycle_alarm(None);
        }
    }

    /// Is any watchdog budget configured?
    #[inline]
    pub(super) fn watchdog_armed(&self) -> bool {
        self.cycle_budget.is_some() || !self.edge_budgets.is_empty()
    }

    /// The budget applying to one edge: the per-edge override, or the
    /// default.
    #[inline]
    pub(super) fn budget_for(&self, caller: CubicleId, callee: CubicleId) -> Option<u64> {
        self.edge_budgets
            .get(&(caller, callee))
            .copied()
            .or(self.cycle_budget)
    }

    /// Re-arms the machine's cycle alarm to the earliest in-flight
    /// frame deadline.
    #[inline]
    pub(super) fn refresh_cycle_alarm(&mut self) {
        let next = self.call_stack.iter().filter_map(|f| f.deadline).min();
        self.machine.set_cycle_alarm(next);
    }

    /// Watchdog poll, called on every monitor entry. The fast path is a
    /// single branch on the machine's cycle alarm.
    #[inline]
    pub(super) fn watchdog_check(&mut self) -> Result<()> {
        if !self.machine.cycle_alarm_expired() {
            return Ok(());
        }
        self.watchdog_trip()
    }

    /// Cold path of [`System::watchdog_check`]: quarantines the cubicle
    /// of the innermost expired frame and fails the in-flight call.
    fn watchdog_trip(&mut self) -> Result<()> {
        let now = self.machine.now();
        let Some(idx) = self
            .call_stack
            .iter()
            .rposition(|f| f.deadline.is_some_and(|d| d <= now))
        else {
            // Stale alarm (the deadline's frame already returned).
            self.refresh_cycle_alarm();
            return Ok(());
        };
        let cubicle = self.call_stack[idx].cubicle;
        let overrun = self.call_stack[idx]
            .deadline
            .map_or(0, |d| now.saturating_sub(d));
        self.call_stack[idx].deadline = None;
        self.refresh_cycle_alarm();
        self.record(TraceEvent::WatchdogTrip { cubicle, overrun });
        self.quarantine_for(
            cubicle,
            format!(
                "watchdog: {} exceeded its cross-call cycle budget ({overrun} cycle(s) over)",
                self.cubicles[cubicle.index()].name
            ),
        );
        if cubicle.index() < self.cubicles.len() {
            self.cubicles[cubicle.index()].timed_out = true;
        }
        Err(CubicleError::CycleBudgetExceeded { cubicle })
    }

    /// The unwind step of fault containment, applied to a failed
    /// dispatch on its way out: a containable error keeps propagating as
    /// `Err` through frames of quarantined cubicles, and converts to a
    /// well-defined `Value::I64(-errno)` at the first boundary into a
    /// healthy caller.
    pub(super) fn contain_at_boundary(
        &mut self,
        caller: CubicleId,
        callee: CubicleId,
        err: CubicleError,
    ) -> Result<Value> {
        let errno = match err {
            // Watchdog victims report ETIMEDOUT so callers can tell a
            // runaway callee apart from a memory fault.
            CubicleError::Quarantined { cubicle }
                if cubicle == callee && self.cubicles[callee.index()].timed_out =>
            {
                crate::errno::Errno::Etimedout
            }
            _ => match err.contained_errno() {
                Some(errno) => errno,
                None => return Err(err), // caller bug; propagate unchanged
            },
        };
        if caller != CubicleId::MONITOR && self.cubicles[caller.index()].is_quarantined() {
            // Still inside the offender's call chain: keep unwinding.
            self.record(TraceEvent::FrameUnwound { callee, caller });
            return Err(err);
        }
        let caller_name = self.cubicles[caller.index()].name.clone();
        self.record(Incident::Contained {
            callee,
            caller,
            caller_name,
            error: err,
            errno,
        });
        Ok(Value::I64(errno.neg()))
    }

    /// Records a crash-recovery milestone reported by a durable
    /// subsystem: it counts in [`SysStats`](crate::SysStats) and keeps a
    /// line in the recovery block of [`System::export_fault_audit`].
    pub fn record_recovery(&mut self, event: RecoveryEvent) {
        self.record(Incident::Recovery(event));
    }

    /// Is the fault containment policy
    /// ([`SystemConfig::fault_containment`](crate::SystemConfig::fault_containment))
    /// on?
    pub fn fault_containment(&self) -> bool {
        self.fault_containment
    }

    /// Caps the total heap pages the monitor will grant `cid` (`None`
    /// lifts the cap). A fault-injection knob: growth past the cap makes
    /// `heap_alloc` fail with [`CubicleError::OutOfMemory`] mid-call,
    /// which the containment machinery must unwind cleanly.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchCubicle`].
    pub fn set_heap_limit(&mut self, cid: CubicleId, pages: Option<usize>) -> Result<()> {
        let c = self
            .cubicles
            .get_mut(cid.index())
            .ok_or(CubicleError::NoSuchCubicle(cid))?;
        c.heap_limit_pages = pages;
        Ok(())
    }

    /// Infallible internal quarantine used on fault paths: no-op for the
    /// monitor, unknown IDs and already-quarantined cubicles.
    pub(super) fn quarantine_for(&mut self, cid: CubicleId, reason: String) {
        if cid == CubicleId::MONITOR
            || cid.index() >= self.cubicles.len()
            || self.cubicles[cid.index()].is_quarantined()
        {
            return;
        }
        self.quarantine_inner(cid, reason);
    }

    /// Quarantines `cid`: destroys its windows, ends its pair shares
    /// (closing an owner's read-only share for it, see
    /// `System::share_read_only`), reclaims its pages (tombstoned so
    /// dangling references yield typed errors), retags pages it held of other owners back to them, parks
    /// its MPK key and any pair key it held into the reuse pool and
    /// rejects future cross-calls with
    /// [`CubicleError::Quarantined`]. [`System::audit`] is clean
    /// immediately afterwards. Reversed by [`System::restart`].
    ///
    /// Works regardless of the containment *policy* (the policy only
    /// controls whether the monitor invokes this automatically on denied
    /// faults).
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchCubicle`] for an unknown ID,
    /// [`CubicleError::InvalidArgument`] for the monitor itself or an
    /// already-quarantined cubicle.
    pub fn quarantine(&mut self, cid: CubicleId, reason: &str) -> Result<()> {
        if cid == CubicleId::MONITOR {
            return Err(CubicleError::InvalidArgument(
                "quarantine: the monitor cannot be quarantined",
            ));
        }
        if cid.index() >= self.cubicles.len() {
            return Err(CubicleError::NoSuchCubicle(cid));
        }
        if self.cubicles[cid.index()].is_quarantined() {
            return Err(CubicleError::InvalidArgument(
                "quarantine: cubicle is already quarantined",
            ));
        }
        self.quarantine_inner(cid, reason.to_string());
        Ok(())
    }

    fn quarantine_inner(&mut self, cid: CubicleId, reason: String) {
        use crate::cubicle::CubicleState;
        // Grants into or out of the offender are void: its windows are
        // destroyed below and its held pages reclaimed.
        let grants_dropped = self
            .grant_cache_retain("quarantine:grant_cache.retain", |&(accessor, _), e| {
                accessor != cid && e.owner != cid
            });
        self.record(TraceEvent::Quarantine {
            cubicle: cid,
            grants_dropped,
        });
        self.cubicles[cid.index()].quarantined_at = self.machine.now();

        // ❶ Destroy the offender's window descriptors: nothing of its
        // (soon reclaimed) memory stays published. A fault on another
        // core may be searching this array (P → W nesting). Every pair
        // share the offender is one of ends with them, and the pages
        // still carrying a pair key go back to their owner's key.
        let wstart = self.lock_acquire(MonitorLock::Windows);
        self.race_note(RaceObject::Windows, true, "quarantine:windows.take");
        let unpair = self.unshare_locked(|s| s.has(cid));
        let windows = std::mem::take(&mut self.cubicles[cid.index()].windows);
        self.lock_release(MonitorLock::Windows, wstart);
        self.unpair(unpair);

        // ❷ + ❸ mutate the page-metadata map (holder retags, removals,
        // tombstones) — one critical section covers the whole teardown.
        let pstart = self.lock_acquire(MonitorLock::PageMeta);
        // Pages the offender *held* of other owners (faulted in via
        // trap-and-map) are retagged back to their owners — causal tag
        // consistency must not dangle on a parked key.
        self.race_note(RaceObject::PageMeta, true, "quarantine:page_meta.teardown");
        let mut held: Vec<PageNum> = self
            .page_meta
            .iter() // verify: order-ok — sorted before replaying below
            .filter(|(_, m)| m.holder == cid && m.owner != cid)
            .map(|(&p, _)| p)
            .collect();
        // Address order: teardown must replay identically run-to-run.
        held.sort_unstable();
        for page in held {
            let owner = self.page_meta[&page].owner;
            let owner_key = self.cubicles[owner.index()].key;
            self.rekey_page(page.base(), owner_key)
                .expect("held page is mapped");
            self.record_holder(page.base(), owner, None);
        }

        // Reclaim every page the offender owns (tombstoned: a later
        // touch through a dangling reference yields a typed error).
        let mut owned: Vec<PageNum> = self
            .page_meta
            .iter() // verify: order-ok — sorted before replaying below
            .filter(|(_, m)| m.owner == cid)
            .map(|(&p, _)| p)
            .collect();
        owned.sort_unstable();
        let pages_reclaimed = owned.len();
        for page in owned {
            self.page_op(page.base(), PageOp::Reclaim)
                .expect("owned page is mapped");
            self.page_meta.remove(&page);
            self.reclaimed.insert(page, cid);
        }
        self.lock_release(MonitorLock::PageMeta, pstart);

        // ❹ Park the MPK key: its physical key returns to the pool.
        self.keys.release(self.cubicles[cid.index()].key);

        // ❺ Reset the kernel-side record: empty heap, no stack, parked
        // key, quarantined state. Pooled re-entrancy stacks were owned
        // by the offender, so step ❸ already reclaimed their pages —
        // drop the slot records with them. The heap/accounting reset is
        // ledger state a concurrent heap_alloc could be reading.
        let lstart = self.lock_acquire(MonitorLock::Ledger);
        self.race_note(RaceObject::Ledger, true, "quarantine:heap.reset");
        let c = &mut self.cubicles[cid.index()];
        c.key = PARKED_KEY;
        c.heap = crate::heap::SubAllocator::new();
        c.stack_base = VAddr::NULL;
        c.stack_len = 0;
        c.stack_used = 0;
        c.stack_pool.clear();
        c.heap_pages_granted = 0;
        c.state = CubicleState::Quarantined;
        c.quarantine_reason = Some(reason.clone());
        let name = c.name.clone();
        self.lock_release(MonitorLock::Ledger, lstart);
        self.record(Incident::Quarantined {
            cubicle: cid,
            name,
            reason,
            pages_reclaimed,
            windows_destroyed: windows.len(),
        });
    }

    /// Microreboots a quarantined cubicle: re-runs the trusted loader's
    /// install path for every component slot in the cubicle (fresh code,
    /// data, heap and stack pages under a fresh key — forbidden-
    /// instruction scan included), invokes each component's
    /// [`Component::on_restart`](crate::Component::on_restart) hook so
    /// host-side state referring to the reclaimed memory is dropped, and
    /// marks the cubicle active with a bumped generation. Entry IDs and
    /// trampolines are stable across the reboot, so peers' cached
    /// proxies stay valid.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchCubicle`] for an unknown ID,
    /// [`CubicleError::InvalidArgument`] when the cubicle is not
    /// quarantined or still has in-flight frames on the call stack,
    /// [`CubicleError::OutOfKeys`] when a shared cubicle finds no free
    /// key (an isolated one restarts parked).
    pub fn restart(&mut self, cid: CubicleId) -> Result<()> {
        use crate::cubicle::CubicleState;
        if cid.index() >= self.cubicles.len() {
            return Err(CubicleError::NoSuchCubicle(cid));
        }
        if !self.cubicles[cid.index()].is_quarantined() {
            return Err(CubicleError::InvalidArgument(
                "restart: cubicle is not quarantined",
            ));
        }
        if self.call_stack.iter().any(|f| f.cubicle == cid) {
            return Err(CubicleError::InvalidArgument(
                "restart: cubicle has in-flight frames",
            ));
        }
        // Backoff policy: a crash-looping cubicle waits exponentially
        // longer after every incarnation, and is written off for good
        // once its restart strikes are spent.
        if let Some(policy) = self.restart_policy {
            let c = &self.cubicles[cid.index()];
            if c.generation >= policy.max_restarts {
                let name = c.name.clone();
                self.record(Incident::RestartRefused {
                    cubicle: cid,
                    name,
                    strikes: policy.max_restarts,
                });
                return Err(CubicleError::PermanentlyQuarantined { cubicle: cid });
            }
            let delay = policy
                .base_backoff_cycles
                .saturating_mul(1u64 << c.generation.min(31));
            let ready_at = c.quarantined_at.saturating_add(delay);
            if self.machine.now() < ready_at {
                return Err(CubicleError::RestartBackoff {
                    cubicle: cid,
                    ready_at,
                });
            }
        }
        let slots: Vec<usize> = self
            .reloads
            .iter()
            .enumerate()
            .filter(|(_, r)| r.cid == cid)
            .map(|(i, _)| i)
            .collect();
        if slots.iter().any(|&s| self.components[s].is_none()) {
            return Err(CubicleError::InvalidArgument(
                "restart: a component of the cubicle is still executing",
            ));
        }

        // Like the loader: re-scan the images (defence in depth: they
        // were verified at original load time), then draw a fresh key,
        // then replay the trusted builder's install path per slot.
        for &slot in &slots {
            if let Some(bad) = self.reloads[slot].code.scan_forbidden() {
                return Err(CubicleError::ForbiddenInstruction(bad));
            }
        }
        let shared = self.cubicles[cid.index()].shared;
        self.cubicles[cid.index()].key = self.keys.draw(cid, shared)?;
        for &slot in &slots {
            let info = self.reloads[slot].clone();
            self.map_component_segments(&info);
        }

        // Belt and braces: quarantine already purged the offender's
        // grants, and none can have formed since; make sure the fresh
        // incarnation starts with no remembered authority either way.
        let grants_dropped = self
            .grant_cache_retain("restart:grant_cache.retain", |&(accessor, _), e| {
                accessor != cid && e.owner != cid
            });
        let c = &mut self.cubicles[cid.index()];
        c.state = CubicleState::Active;
        c.quarantine_reason = None;
        c.timed_out = false;
        c.generation += 1;
        let generation = c.generation;
        let name = c.name.clone();

        // The restart hooks run *inside* the freshly activated cubicle:
        // a recovery hook (e.g. a redo-journal replay) needs checked
        // memory access under the reborn cubicle's own privileges, so a
        // window kept open by a surviving custodian resolves exactly as
        // it would for ordinary component code.
        for &slot in &slots {
            let mut comp = self.components[slot].take().expect("checked above");
            self.run_in_cubicle(cid, |sys| comp.on_restart(sys));
            self.components[slot] = Some(comp);
        }
        self.record(Incident::Restarted {
            cubicle: cid,
            name,
            generation,
            grants_dropped,
        });
        Ok(())
    }
}
