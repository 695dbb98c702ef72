//! Bounded kernel event trace.
//!
//! The paper's evaluation reasons about *which* mechanism cost where:
//! Figure 6 decomposes cross-call overhead into trampoline, MPK-switch
//! and window shares, Figures 5/8 annotate component graphs with call
//! counts. The trace buffer records the underlying events — cross-call
//! enter/exit, trap-and-map outcomes, retags, PKRU writes, window and
//! allocator operations — each stamped with the simulated cycle counter,
//! so any run can be replayed into those figures (or loaded into
//! Perfetto via `System::export_chrome_trace`).
//!
//! Recording is strictly an observer: it never charges simulated cycles,
//! and with tracing disabled (the default) the kernel takes a single
//! `Option::is_some` branch per potential event.

use crate::ids::{CubicleId, EntryId, WindowId};
use cubicle_mpk::{AccessKind, Pkru, ProtKey, VAddr};
use std::collections::VecDeque;

/// Which window-API operation a [`TraceEvent::WindowOp`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowOpKind {
    /// `cubicle_window_init`.
    Init,
    /// `cubicle_window_add`.
    Add,
    /// `cubicle_window_remove`.
    Remove,
    /// `cubicle_window_open`.
    Open,
    /// `System::window_share` that gave the pair a key (one that fell
    /// back to a plain open records [`WindowOpKind::Open`]).
    Share,
    /// `cubicle_window_close`.
    Close,
    /// `cubicle_window_close_all`.
    CloseAll,
    /// `cubicle_window_destroy`.
    Destroy,
}

impl WindowOpKind {
    /// Stable lower-case name (used by the exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            WindowOpKind::Init => "init",
            WindowOpKind::Add => "add",
            WindowOpKind::Remove => "remove",
            WindowOpKind::Open => "open",
            WindowOpKind::Share => "share",
            WindowOpKind::Close => "close",
            WindowOpKind::CloseAll => "close_all",
            WindowOpKind::Destroy => "destroy",
        }
    }
}

/// What decided a trap-and-map outcome (carried by
/// [`TraceEvent::FaultResolved`], rendered by the fault audit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultDecision {
    /// The accessor owns the page: implicit window 0, always readmitted
    /// (causal tag consistency, paper §5.6).
    OwnerReclaim,
    /// Ablation mode without ACLs: every window counts as open.
    AclsDisabled,
    /// The page already carried the pair key the accessor shares with
    /// its owner: the faulting core's PKRU predated the share, so the
    /// monitor rewrote the PKRU and retagged nothing.
    PkruRefresh,
    /// This window descriptor of the owner covered the page and its ACL
    /// admitted the accessor.
    Window(WindowId),
    /// No covering window admitted the accessor; the access was refused.
    Denied,
}

/// One audited trap-and-map resolution: who touched whose page, and
/// which descriptor (if any) authorised it — a view of one
/// [`TraceEvent::FaultResolved`] or [`TraceEvent::FaultDenied`] record
/// ([`TraceRecord::fault_audit`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultAudit {
    /// Simulated cycle count at resolution time.
    pub at: u64,
    /// The faulting address.
    pub addr: VAddr,
    /// Owner of the page.
    pub owner: CubicleId,
    /// The cubicle that performed the access.
    pub accessor: CubicleId,
    /// Read, write or execute.
    pub access: AccessKind,
    /// How the monitor decided.
    pub decision: FaultDecision,
}

impl FaultAudit {
    /// Did the monitor admit the access?
    pub fn resolved(&self) -> bool {
        !matches!(self.decision, FaultDecision::Denied)
    }
}

/// A kernel event, as recorded in the [`TraceBuffer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A cross-cubicle call entered its trampoline, opening a span.
    CrossCallEnter {
        /// The span this call opens (unique per call, never reused; 0
        /// is reserved for "no span").
        span: u64,
        /// The enclosing span, 0 for a depth-zero call.
        parent: u64,
        /// The calling cubicle.
        caller: CubicleId,
        /// The cubicle being entered.
        callee: CubicleId,
        /// The entry point invoked.
        entry: EntryId,
    },
    /// A cross-cubicle call returned (on every path, including errors),
    /// closing its span.
    CrossCallExit {
        /// The span being closed (matches the enter's `span`).
        span: u64,
        /// The calling cubicle.
        caller: CubicleId,
        /// The cubicle that was entered.
        callee: CubicleId,
        /// The entry point invoked.
        entry: EntryId,
        /// Simulated cycles between enter and exit, callee work included.
        cycles: u64,
    },
    /// Trap-and-map admitted an access and retagged the page (or, for
    /// [`FaultDecision::PkruRefresh`], rewrote the PKRU).
    FaultResolved {
        /// The faulting address.
        addr: VAddr,
        /// Owner of the page.
        owner: CubicleId,
        /// The accessing cubicle.
        accessor: CubicleId,
        /// Read, write or execute.
        kind: AccessKind,
        /// What admitted the access (never [`FaultDecision::Denied`]).
        decision: FaultDecision,
    },
    /// Trap-and-map refused an access (no open window).
    FaultDenied {
        /// The faulting address.
        addr: VAddr,
        /// Owner of the page.
        owner: CubicleId,
        /// The accessing cubicle.
        accessor: CubicleId,
        /// Read, write or execute.
        kind: AccessKind,
    },
    /// A page changed protection key (`pkey_mprotect`).
    Retag {
        /// Base address of the page.
        addr: VAddr,
        /// Key before.
        from: ProtKey,
        /// Key after.
        to: ProtKey,
    },
    /// The PKRU register was written (`wrpkru`).
    WrPkru {
        /// The value written.
        pkru: Pkru,
    },
    /// A window-API operation completed.
    WindowOp {
        /// Which operation.
        op: WindowOpKind,
        /// The window operated on.
        wid: WindowId,
        /// The peer granted/revoked, when the operation has one.
        peer: Option<CubicleId>,
    },
    /// A heap allocation succeeded.
    HeapAlloc {
        /// The owning cubicle.
        cubicle: CubicleId,
        /// Address handed out.
        addr: VAddr,
        /// Bytes requested.
        bytes: usize,
    },
    /// A heap allocation was released.
    HeapFree {
        /// The owning cubicle.
        cubicle: CubicleId,
        /// Address released.
        addr: VAddr,
    },
    /// A trampoline copied stack-resident arguments between stacks.
    StackCopy {
        /// The calling cubicle.
        caller: CubicleId,
        /// The called cubicle.
        callee: CubicleId,
        /// Bytes copied.
        bytes: usize,
    },
    /// The monitor quarantined a cubicle after a contained fault. Opens
    /// a quarantine span on the cubicle's trace track; the matching
    /// [`TraceEvent::Restart`] closes it.
    Quarantine {
        /// The quarantined cubicle.
        cubicle: CubicleId,
    },
    /// The monitor microrebooted a quarantined cubicle
    /// (`System::restart`), closing its quarantine span.
    Restart {
        /// The rebooted cubicle.
        cubicle: CubicleId,
        /// Its new incarnation number (1 for the first reboot).
        generation: u32,
    },
    /// The unwind path converted a containable fault into an errno at
    /// the cross-call boundary into a healthy caller.
    FaultContained {
        /// The callee whose call chain was unwound.
        callee: CubicleId,
        /// The healthy caller that received the errno.
        caller: CubicleId,
        /// The negative errno handed to the caller.
        errno: i64,
    },
    /// A page was reclaimed (unmapped) by the quarantine path.
    PageReclaim {
        /// Base address of the reclaimed page.
        addr: VAddr,
        /// The key the page carried when reclaimed.
        key: ProtKey,
    },
}

/// A recorded event: sequence number + cycle stamp + payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Monotonic sequence number (never reused, survives overwrites).
    pub seq: u64,
    /// Simulated cycle count when the event was recorded.
    pub at: u64,
    /// Simulated core the event occurred on (0 on a single-core run).
    pub core: u32,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The fault-audit view of a [`TraceEvent::FaultResolved`] or
    /// [`TraceEvent::FaultDenied`] record; `None` for any other event.
    pub fn fault_audit(&self) -> Option<FaultAudit> {
        let (addr, owner, accessor, access, decision) = match self.event {
            TraceEvent::FaultResolved {
                addr,
                owner,
                accessor,
                kind,
                decision,
            } => (addr, owner, accessor, kind, decision),
            TraceEvent::FaultDenied {
                addr,
                owner,
                accessor,
                kind,
            } => (addr, owner, accessor, kind, FaultDecision::Denied),
            _ => return None,
        };
        Some(FaultAudit {
            at: self.at,
            addr,
            owner,
            accessor,
            access,
            decision,
        })
    }
}

/// Bounded ring of [`TraceRecord`]s: when full, the oldest record is
/// overwritten and [`TraceBuffer::dropped`] grows.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends an event stamped `at` cycles on core 0, overwriting the
    /// oldest record when full.
    pub fn push(&mut self, at: u64, event: TraceEvent) {
        self.push_on(at, 0, event);
    }

    /// Appends an event stamped `at` cycles on core `core`. The sequence
    /// number totally orders records across cores (host order, which is
    /// also the serialization order of the monitor), while `at` is the
    /// per-core simulated clock.
    pub fn push_on(&mut self, at: u64, core: u32, event: TraceEvent) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            seq: self.next_seq,
            at,
            core,
            event,
        });
        self.next_seq += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // distinguishable filler events
    fn ev(n: u16) -> TraceEvent {
        TraceEvent::HeapFree {
            cubicle: CubicleId(n),
            addr: VAddr::new(0),
        }
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut buf = TraceBuffer::new(8);
        for i in 0..5 {
            buf.push(u64::from(i) * 10, ev(i));
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.dropped(), 0);
        let ats: Vec<u64> = buf.records().map(|r| r.at).collect();
        assert_eq!(ats, vec![0, 10, 20, 30, 40]);
        let seqs: Vec<u64> = buf.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut buf = TraceBuffer::new(3);
        for i in 0..7 {
            buf.push(u64::from(i), ev(i));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 4);
        assert_eq!(buf.total_recorded(), 7);
        let ats: Vec<u64> = buf.records().map(|r| r.at).collect();
        assert_eq!(ats, vec![4, 5, 6], "oldest records were evicted");
        let seqs: Vec<u64> = buf.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6], "sequence numbers survive eviction");
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let mut buf = TraceBuffer::new(0);
        buf.push(1, ev(0));
        buf.push(2, ev(1));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.dropped(), 1);
    }

    #[test]
    fn window_op_names_are_stable() {
        assert_eq!(WindowOpKind::Init.as_str(), "init");
        assert_eq!(WindowOpKind::CloseAll.as_str(), "close_all");
        assert_eq!(WindowOpKind::Destroy.as_str(), "destroy");
    }

    #[test]
    fn audit_resolved_flag() {
        let mk = |decision| FaultAudit {
            at: 0,
            addr: VAddr::new(0x1000),
            owner: CubicleId(1),
            accessor: CubicleId(2),
            access: AccessKind::Read,
            decision,
        };
        assert!(mk(FaultDecision::OwnerReclaim).resolved());
        assert!(mk(FaultDecision::Window(WindowId(0))).resolved());
        assert!(!mk(FaultDecision::Denied).resolved());
    }
}
