//! The isolation seam: the one module that reads the [`IsolationMode`].
//!
//! Each of the paper's configurations (Figure 6's Unikraft, w/o MPK,
//! w/o ACLs and full CubicleOS, and Figure 10's message-passing
//! baselines) is a choice of crossing, page-key and authorisation
//! mechanism. The methods below say what the current mode does at each
//! point where the monitor and its components must know. The kernel
//! holds the mode as an [`Isolation`], whose field and predicates are
//! private to this module, so nothing else in the kernel can look at
//! the mode: the compiler keeps the seam (DESIGN §6r).

use super::observe::PageOp;
use super::System;
use crate::error::Result;
use crate::ids::CubicleId;
use crate::mode::{IsolationMode, IPC_PACKET_BYTES};
use crate::trace::TraceEvent;
use crate::value::Value;
use cubicle_mpk::{CostModel, Fault, Pkru, ProtKey, VAddr};

/// The isolation mode as [`System`] holds it. Only this module can see
/// the mode inside.
#[derive(Clone, Copy)]
pub(super) struct Isolation(IsolationMode);

impl Isolation {
    pub(super) fn new(mode: IsolationMode) -> Isolation {
        Isolation(mode)
    }

    /// Does this mode switch PKRU across cubicles (and therefore fault)?
    fn mpk_active(self) -> bool {
        matches!(self.0, IsolationMode::NoAcl | IsolationMode::Full)
    }

    /// Does this mode run cross-cubicle call trampolines?
    fn trampolines_active(self) -> bool {
        matches!(
            self.0,
            IsolationMode::NoMpk | IsolationMode::NoAcl | IsolationMode::Full
        )
    }

    /// Does this mode consult (and charge for) window ACLs?
    fn acls_active(self) -> bool {
        matches!(self.0, IsolationMode::Full)
    }
}

/// What the fault handler does with a protection-key fault.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum FaultPolicy {
    /// No page carries a foreign key in this mode: the fault is a plain
    /// access violation.
    RawDeny,
    /// "CubicleOS w/o ACLs": every faulting access is granted.
    AclsOff,
    /// Full CubicleOS: the owner's window ACLs decide.
    WindowAcl,
}

impl System {
    /// Charges the crossing from `caller` into `callee` for one dispatch
    /// of `batch`: the boundary tax, then the trampoline (binding the
    /// callee a key and the PKRU round trip into its permission set under
    /// MPK), or one vectored message carrying every element under the
    /// IPC baselines. Returns the per-element call charge and the
    /// stack-argument bytes the trampoline copies per element.
    ///
    /// Always inlined, like its caller `run_elements`.
    #[inline(always)]
    pub(super) fn cross_in(
        &mut self,
        caller: CubicleId,
        callee: CubicleId,
        stack_arg_bytes: usize,
        batch: &[&[Value]],
        cost: &CostModel,
    ) -> Result<(u64, usize)> {
        self.machine.charge(self.boundary_tax);
        match self.mode.0 {
            IsolationMode::Unikraft => Ok((cost.call, 0)),
            IsolationMode::Ipc(m) => {
                // One message each way carrying every element; the call
                // itself is folded into it.
                let bytes: usize = batch
                    .iter()
                    .flat_map(|args| args.iter())
                    .map(|v| v.bytes_in() + v.bytes_out())
                    .sum();
                self.machine.charge(m.fixed + m.per_byte * bytes as u64);
                self.record(TraceEvent::IpcRoundTrip {
                    caller,
                    callee,
                    bytes,
                });
                Ok((0, 0))
            }
            IsolationMode::NoMpk | IsolationMode::NoAcl | IsolationMode::Full => {
                self.machine.charge(cost.trampoline);
                if self.mode.mpk_active() {
                    self.ensure_bound(callee)?;
                    // Guard page enters the monitor domain, trampoline
                    // then drops to the callee's permission set.
                    self.wrpkru(Pkru::allow_all());
                    let pkru = self.pkru_for(callee);
                    self.wrpkru(pkru);
                }
                Ok((cost.call, stack_arg_bytes))
            }
        }
    }

    /// Charges the way back out of a crossing, to the cubicle now on top
    /// of the call stack: the return trampoline, and under MPK the PKRU
    /// round trip into that cubicle's permission set.
    #[inline(always)]
    pub(super) fn cross_out(&mut self, cost: &CostModel) {
        if self.mode.trampolines_active() {
            self.machine.charge(cost.trampoline);
            if self.mode.mpk_active() {
                self.wrpkru(Pkru::allow_all());
                let pkru = self.pkru_for(self.current_cubicle());
                self.wrpkru(pkru);
            }
        }
    }

    /// `run_in_cubicle`'s entry into `cid`: under MPK a parked cubicle
    /// is bound a key first (panicking when no binding is evictable).
    pub(super) fn bind_domain(&mut self, cid: CubicleId) {
        if self.mode.mpk_active() {
            self.ensure_bound(cid)
                .expect("a parked cubicle finds a key to bind");
        }
    }

    /// Loads, free of charge, the PKRU of the cubicle on top of the call
    /// stack under MPK: `run_in_cubicle`'s domain load on entry and its
    /// restore on exit.
    pub(super) fn load_domain(&mut self) {
        if self.mode.mpk_active() {
            let pkru = self.pkru_for(self.current_cubicle());
            self.machine.set_pkru_at_load(pkru);
        }
    }

    /// Re-keys a page the monitor hands to another cubicle (an ownership
    /// grant, a quarantined holder's page going home): a charged retag
    /// under MPK; a free bookkeeping write otherwise, where no access
    /// ever checks the key.
    pub(super) fn rekey_page(&mut self, addr: VAddr, key: ProtKey) -> Result<(), Fault> {
        if self.mode.mpk_active() {
            self.page_op(addr, PageOp::Retag(key))
        } else {
            self.machine.set_page_key_at_load(addr, key)
        }
    }

    /// Are window operations charged calls into the monitor cubicle
    /// (trampoline, PKRU switches, the windows lock)? Only when the ACLs
    /// they edit are consulted; otherwise they are free no-ops.
    pub(super) fn window_ops_charged(&self) -> bool {
        self.mode.acls_active()
    }

    /// What the fault handler does with a protection-key fault.
    pub(super) fn fault_policy(&self) -> FaultPolicy {
        match self.mode.0 {
            IsolationMode::NoAcl => FaultPolicy::AclsOff,
            IsolationMode::Full => FaultPolicy::WindowAcl,
            IsolationMode::Unikraft | IsolationMode::NoMpk | IsolationMode::Ipc(_) => {
                FaultPolicy::RawDeny
            }
        }
    }

    /// Are cubicle stacks pooled per core? Under MPK a stack carries its
    /// cubicle's key, so entries overlapping on several cores each need
    /// their own; other modes run every entry on the primary stack.
    pub(super) fn stacks_pooled(&self) -> bool {
        self.mode.mpk_active()
    }

    /// Must a page held by a non-owner name the window that justified
    /// the handover? Only where window ACLs authorise faults; "w/o ACLs"
    /// hands pages over without one.
    pub(crate) fn holders_need_windows(&self) -> bool {
        self.mode.acls_active()
    }

    /// Does a peer's first touch of a page shared with it (a window, or
    /// [`System::share`]) trap into the monitor for a trap-and-map
    /// retag? True under MPK. Components use it to choose between a
    /// per-call share and a cheaper path.
    pub fn share_traps(&self) -> bool {
        self.mode.mpk_active()
    }

    /// Does a file port serve page reads from a read-only map of the
    /// file system's pages (DESIGN §6s)? Only on the keyed port
    /// ([`SystemConfig::pair_keys`](crate::SystemConfig::pair_keys)),
    /// and only where pages can be shared at all: under full isolation
    /// the map is a read-only pair-keyed share, under Unikraft a plain
    /// window that costs nothing. The ablations and the message-passing
    /// baselines keep `pread`, so they stay the paper's configurations.
    pub fn maps_reads(&self) -> bool {
        self.keyed_port && matches!(self.mode.0, IsolationMode::Unikraft | IsolationMode::Full)
    }

    /// The largest buffer one call to a file-system server may carry.
    /// Message-based baselines move bulk data through a packet stream
    /// (Genode file-system sessions), [`IPC_PACKET_BYTES`] per kernel
    /// round trip; CubicleOS and Unikraft pass the whole buffer in one
    /// zero-copy call.
    pub fn max_transfer(&self) -> usize {
        match self.mode.0 {
            IsolationMode::Ipc(_) => IPC_PACKET_BYTES,
            _ => usize::MAX,
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.mode.0)
            .field("cubicles", &self.cubicles.len())
            .field("entries", &self.entries.len())
            .field("cycles", &self.machine.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::IpcCostModel;

    #[test]
    fn ablation_ladder_is_monotone() {
        // Each Fig. 6 configuration enables a superset of mechanisms.
        assert!(!Isolation(IsolationMode::Unikraft).trampolines_active());
        assert!(Isolation(IsolationMode::NoMpk).trampolines_active());
        assert!(!Isolation(IsolationMode::NoMpk).mpk_active());
        assert!(Isolation(IsolationMode::NoAcl).mpk_active());
        assert!(!Isolation(IsolationMode::NoAcl).acls_active());
        assert!(Isolation(IsolationMode::Full).mpk_active());
        assert!(Isolation(IsolationMode::Full).acls_active());
    }

    #[test]
    fn ipc_mode_has_no_mpk() {
        let ipc = IsolationMode::Ipc(IpcCostModel {
            kernel: "seL4",
            fixed: 1,
            per_byte: 1,
        });
        assert!(!Isolation(ipc).mpk_active());
        assert!(!Isolation(ipc).acls_active());
        assert_eq!(ipc.label(), "seL4");
    }
}
