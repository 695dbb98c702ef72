//! Cross-cubicle calls (paper §5.5): the one dispatch path behind
//! [`System::cross_call`] and [`System::cross_call_batch`], and the
//! PKRU each cubicle executes with.

use super::{Frame, System};
use crate::component::{Component, EntryFn};
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, EntryId};
use crate::mode::IsolationMode;
use crate::trace::TraceEvent;
use crate::value::Value;
use cubicle_mpk::Pkru;

pub(super) struct EntryDesc {
    pub(super) name: String,
    pub(super) gate: CallGate,
}

/// What the dispatch path needs to cross into an entry: copied out of
/// its [`EntryDesc`] so the callee can borrow the `System` mutably.
#[derive(Clone, Copy)]
pub(super) struct CallGate {
    pub(super) cubicle: CubicleId,
    pub(super) slot: usize,
    pub(super) func: EntryFn,
    pub(super) stack_arg_bytes: usize,
}

impl System {
    /// Resolves a public entry point by symbol name.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchEntry`] when the symbol was never exported —
    /// the control-flow-integrity guarantee: there is no way to transfer
    /// control across cubicles except through registered trampolines.
    pub fn entry(&self, name: &str) -> Result<EntryId> {
        self.entry_names
            .get(name)
            .copied()
            .ok_or_else(|| CubicleError::NoSuchEntry(name.into()))
    }

    /// Runs `f` against the state of the component in `slot`, downcast to
    /// `T`. A trusted-boot/diagnostic facility (mount tables, console
    /// logs); components themselves must interact via
    /// [`System::cross_call`].
    ///
    /// Returns `None` when the slot is empty (component currently
    /// executing) or holds a different type.
    pub fn with_component_mut<T: Component, R>(
        &mut self,
        slot: usize,
        f: impl FnOnce(&mut T, &mut System) -> R,
    ) -> Option<R> {
        let mut comp = self.components.get_mut(slot)?.take()?;
        let out = comp.as_any_mut().downcast_mut::<T>().map(|t| f(t, self));
        self.components[slot] = Some(comp);
        out
    }

    /// Symbol name of a registered entry.
    pub fn entry_name(&self, entry: EntryId) -> Option<&str> {
        self.entries.get(entry.index()).map(|d| d.name.as_str())
    }

    /// Performs a cross-cubicle call through the entry's trampoline: a
    /// batch of one through the dispatch path of
    /// [`System::cross_call_batch`], except that it is not counted in
    /// `batch_dispatches` / `batched_calls`.
    ///
    /// Depending on the isolation mode this charges a plain call
    /// (Unikraft), the trampoline + PKRU switches (CubicleOS modes), or a
    /// marshalled message round trip (IPC baselines). The callee runs
    /// with its own cubicle's PKRU permission set; any access it makes to
    /// the caller's buffers goes through trap-and-map.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchEntry`] for an unregistered entry,
    /// [`CubicleError::ReentrantCall`] for nested A→B→A calls,
    /// [`CubicleError::Quarantined`] when the callee (or the caller
    /// itself) has been quarantined — also when the callee was
    /// quarantined mid-call and returned `Ok` anyway — plus anything the
    /// callee itself returns. With fault containment enabled
    /// ([`SystemConfig::fault_containment`]), containable callee faults do
    /// *not* surface as `Err`: the monitor unwinds them and the call
    /// returns `Ok(Value::I64(-errno))` at the first healthy boundary.
    pub fn cross_call(&mut self, entry: EntryId, args: &[Value]) -> Result<Value> {
        let mut ret = None;
        self.dispatch(entry, &[args], false, &mut |v| ret = Some(v))?;
        Ok(ret.expect("a successful dispatch returns one value per element"))
    }

    /// Convenience: resolve by name and call.
    ///
    /// # Errors
    ///
    /// See [`System::entry`] and [`System::cross_call`].
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        let entry = self.entry(name)?;
        self.cross_call(entry, args)
    }

    /// Dispatches a *batch* of invocations of `entry` under a single
    /// trampoline crossing: one boundary tax, one trampoline, one PKRU
    /// round-trip in and out (one vectored message under the IPC
    /// baseline), while per-invocation work — the call itself,
    /// stack-argument copies, everything the callee does — is still
    /// charged per element. [`System::cross_call`] is the 1-element
    /// batch.
    ///
    /// Elements execute in order and the first failing element aborts
    /// the batch with the quarantine blast radius its unbatched call
    /// would have had. Without fault containment that element's error is
    /// returned unchanged; with containment the monitor unwinds it and
    /// the returned vector ends with the faulting element's
    /// `Value::I64(-errno)`, so callers see a short count plus the errno,
    /// writev-style.
    ///
    /// The batch appears as one edge crossing in [`SysStats`]
    /// (`cross_calls`, the per-edge histogram, one span when tracing);
    /// `batch_dispatches` / `batched_calls` count the amortisation.
    ///
    /// # Errors
    ///
    /// See [`System::cross_call`]; an empty batch is a no-op.
    pub fn cross_call_batch(&mut self, entry: EntryId, batch: &[&[Value]]) -> Result<Vec<Value>> {
        let mut values = Vec::with_capacity(batch.len());
        if !batch.is_empty() {
            self.dispatch(entry, batch, true, &mut |v| values.push(v))?;
        }
        Ok(values)
    }

    /// The one dispatch path behind [`System::cross_call`] and
    /// [`System::cross_call_batch`]: refuses quarantined endpoints,
    /// records the edge, runs the elements and applies fault containment
    /// to a failure, passing each value to `ret` and a contained errno as
    /// the final one. Only `batched` dispatches count in
    /// `batch_dispatches` / `batched_calls`.
    fn dispatch(
        &mut self,
        entry: EntryId,
        batch: &[&[Value]],
        batched: bool,
        ret: &mut impl FnMut(Value),
    ) -> Result<()> {
        self.watchdog_check()?;
        let gate = self
            .entries
            .get(entry.index())
            .ok_or_else(|| CubicleError::NoSuchEntry(format!("{entry}")))?
            .gate;
        let (caller, callee) = (self.current_cubicle(), gate.cubicle);
        // The trampoline refuses to transfer control into (or out of) a
        // quarantined cubicle — before the edge is even recorded.
        if self.cubicles[callee.index()].is_quarantined() {
            return Err(CubicleError::Quarantined { cubicle: callee });
        }
        if caller != callee && self.cubicles[caller.index()].is_quarantined() {
            return Err(CubicleError::Quarantined { cubicle: caller });
        }
        // One crossing: the whole dispatch is one edge sample.
        self.stats.record_edge(caller, callee);
        if batched {
            self.stats.batch_dispatches += 1;
            self.stats.batched_calls += batch.len() as u64;
        }

        // Trace enter/exit around the whole dispatch so every recorded
        // Enter has a matching Exit — on error paths too — and the
        // histogram sample count always equals `SysStats::cross_calls`.
        let t0 = if self.tracer.is_some() {
            let t0 = self.machine.now();
            self.pump_machine_events();
            let core = self.machine.current_core();
            let (span, parent) = {
                let tracer = self.tracer.as_mut().expect("checked above");
                let span = tracer.next_span;
                tracer.next_span += 1;
                (span, tracer.current_span(core))
            };
            self.trace_push(TraceEvent::CrossCallEnter {
                span,
                parent,
                caller,
                callee,
                entry,
            });
            Some((t0, span))
        } else {
            None
        };
        let status = self.run_elements(caller, gate, batch, ret);
        if let Some((t0, span)) = t0 {
            let cycles = self.machine.now() - t0;
            self.pump_machine_events();
            self.trace_push(TraceEvent::CrossCallExit {
                span,
                caller,
                callee,
                entry,
                cycles,
            });
            if let Some(tracer) = &mut self.tracer {
                tracer.metrics.record_call(caller, callee, entry, cycles);
            }
        }
        match status {
            // Merged components call each other directly: there is no
            // monitor boundary to convert at.
            Err(e) if self.fault_containment && caller != callee => {
                self.contain_at_boundary(caller, callee, e).map(ret)
            }
            status => status,
        }
    }

    /// Runs the elements of one dispatch in order, delivering each value
    /// to `ret`. The crossing — boundary tax, trampoline and PKRU
    /// round-trip, or one vectored message each way under the IPC
    /// baselines — is charged once; the call itself and stack-argument
    /// copies are charged per element. The first failing element ends
    /// the run, and so does an `Ok` from a callee quarantined mid-call:
    /// a faulting component's swallowed errors are not trusted, and later
    /// elements could not have been dispatched into it anyway.
    ///
    /// Always inlined: as a separate call it made every cross-call
    /// ~25 % slower on the host.
    #[inline(always)]
    fn run_elements(
        &mut self,
        caller: CubicleId,
        gate: CallGate,
        batch: &[&[Value]],
        ret: &mut impl FnMut(Value),
    ) -> Result<()> {
        let cost = *self.machine.cost_model();
        let callee = gate.cubicle;
        let mut comp = self.components[gate.slot]
            .take()
            .ok_or(CubicleError::ReentrantCall(callee))?;
        // Components merged into one cubicle (Fig. 9a) call each other
        // directly: no trampoline, no PKRU switch, no message, and the
        // watchdog budget applies to the cubicle as a whole.
        let merged = caller == callee;
        let (mut stack_slot, mut deadline) = (None, None);
        // Per-element work is not amortised away: the call itself (folded
        // into the message under IPC) and the trampoline's copy of
        // stack-resident arguments between the per-cubicle stacks.
        let (mut call, mut copied) = (cost.call, 0);
        if !merged {
            self.machine.charge(self.boundary_tax);
            match self.mode {
                IsolationMode::Unikraft => {}
                IsolationMode::Ipc(m) => {
                    // One message each way carrying every element.
                    call = 0;
                    let bytes: usize = batch
                        .iter()
                        .flat_map(|args| args.iter())
                        .map(|v| v.bytes_in() + v.bytes_out())
                        .sum();
                    self.machine.charge(m.fixed + m.per_byte * bytes as u64);
                    self.stats.ipc_msgs += 2; // request + reply
                    self.stats.ipc_bytes += bytes as u64;
                }
                _ => {
                    copied = gate.stack_arg_bytes;
                    self.machine.charge(cost.trampoline);
                    if self.mode.mpk_active() {
                        self.ensure_bound(callee);
                        // Guard page enters the monitor domain, trampoline
                        // then drops to the callee's permission set.
                        self.machine.set_pkru(Pkru::allow_all());
                        let pkru = self.pkru_for(callee);
                        self.machine.set_pkru(pkru);
                    }
                }
            }
            self.machine.note_cross_call();
            stack_slot = self.stack_acquire(callee);
            deadline = self
                .budget_for(caller, callee)
                .map(|b| self.machine.now().saturating_add(b));
        }
        self.call_stack.push(Frame {
            cubicle: callee,
            deadline,
            stack_slot,
        });
        if deadline.is_some() {
            self.refresh_cycle_alarm();
        }
        let mut status = Ok(());
        for args in batch {
            self.machine.charge(call);
            if copied > 0 {
                self.machine.charge(2 * cost.mem_access(copied));
                self.stats.stack_bytes_copied += copied as u64;
                if self.tracer.is_some() {
                    self.trace_push(TraceEvent::StackCopy {
                        caller,
                        callee,
                        bytes: copied,
                    });
                }
            }
            match (gate.func)(self, comp.as_mut(), args) {
                Ok(_) if !merged && self.cubicles[callee.index()].is_quarantined() => {
                    status = Err(CubicleError::Quarantined { cubicle: callee });
                    break;
                }
                Ok(v) => ret(v),
                Err(e) => {
                    status = Err(e);
                    break;
                }
            }
        }
        self.call_stack.pop();
        self.components[gate.slot] = Some(comp);
        if merged {
            return status;
        }
        self.stack_release(callee, stack_slot);
        if self.watchdog_armed() {
            self.refresh_cycle_alarm();
        }
        if self.mode.trampolines_active() {
            self.machine.charge(cost.trampoline);
            if self.mode.mpk_active() {
                self.machine.set_pkru(Pkru::allow_all());
                let pkru = self.pkru_for(self.current_cubicle());
                self.machine.set_pkru(pkru);
            }
        }
        status
    }

    /// Runs `f` in the execution context of `cid`, as if code inside that
    /// cubicle were executing. Used by test harnesses and by drivers that
    /// model the application's own code; ordinary inter-component control
    /// transfers must use [`System::cross_call`].
    pub fn run_in_cubicle<T>(&mut self, cid: CubicleId, f: impl FnOnce(&mut System) -> T) -> T {
        if self.mode.mpk_active() {
            self.ensure_bound(cid);
        }
        let stack_slot = self.stack_acquire(cid);
        self.call_stack.push(Frame {
            cubicle: cid,
            deadline: None,
            stack_slot,
        });
        if self.mode.mpk_active() {
            let pkru = self.pkru_for(cid);
            self.machine.set_pkru_at_load(pkru);
        }
        let out = f(self);
        self.call_stack.pop();
        self.stack_release(cid, stack_slot);
        if self.mode.mpk_active() {
            let pkru = self.pkru_for(self.current_cubicle());
            self.machine.set_pkru_at_load(pkru);
        }
        out
    }

    /// The PKRU permission set a cubicle executes with: its own key plus
    /// every shared cubicle's key (shared static data "is shared among
    /// all cubicles", paper §3). The monitor gets everything.
    pub fn pkru_for(&self, cid: CubicleId) -> Pkru {
        if cid == CubicleId::MONITOR {
            return Pkru::allow_all();
        }
        let mut pkru = Pkru::deny_all().allowing(self.cubicles[cid.index()].key);
        for c in &self.cubicles {
            if c.shared {
                pkru = pkru.allowing(c.key);
            }
        }
        pkru
    }
}
