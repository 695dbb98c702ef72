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
//! Every event passes through the monitor's one door, which always folds
//! it into `SysStats` and appends it to the ring only while tracing is on.
//! Rare incidents also land, with the strings that explain them, in the
//! bounded [`Incident`] log. Recording is strictly an observer: it never
//! charges simulated cycles.

use crate::errno::Errno;
use crate::error::CubicleError;
use crate::ids::{CubicleId, EntryId, WindowId};
use cubicle_mpk::insn::ForbiddenInsn;
use cubicle_mpk::{AccessKind, Pkru, ProtKey, VAddr};
use std::collections::VecDeque;
use std::fmt;

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

/// How the window-grant cache took part in a trap-and-map decision
/// (carried by the fault events).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrantLookup {
    /// Not consulted: an owner reclaim, ACLs off or a PKRU refresh.
    Skipped,
    /// A remembered grant decided; no ACL search ran.
    Hit,
    /// No remembered grant; the ACL search ran.
    Miss,
    /// A grant remembered for an obsolete owner was dropped; the ACL
    /// search ran.
    Stale,
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
        /// Invocations carried by a batched dispatch; 0 for a plain
        /// cross-call.
        batch: u32,
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
        /// Window descriptors the ACL search probed.
        probes: u32,
        /// How the window-grant cache took part.
        grant: GrantLookup,
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
        /// Window descriptors the ACL search probed.
        probes: u32,
        /// How the window-grant cache took part (never a hit).
        grant: GrantLookup,
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
    /// A window-API operation was charged, whether or not it succeeded.
    WindowOp {
        /// Which operation.
        op: WindowOpKind,
        /// The window operated on.
        wid: WindowId,
        /// The peer granted/revoked, when the operation has one.
        peer: Option<CubicleId>,
        /// Did the operation succeed?
        ok: bool,
        /// Window-grant cache entries it invalidated.
        grants_dropped: u32,
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
    /// An IPC-baseline crossing marshalled its arguments into one
    /// request and one reply message.
    IpcRoundTrip {
        /// The calling cubicle.
        caller: CubicleId,
        /// The called cubicle.
        callee: CubicleId,
        /// Payload bytes marshalled.
        bytes: usize,
    },
    /// Pages changed owner (`System::grant_pages_to`) and window-grant
    /// cache entries over them were invalidated. A transfer that drops
    /// no grant changes no counter and records nothing.
    OwnershipTransfer {
        /// Start of the transferred range.
        addr: VAddr,
        /// Bytes transferred.
        len: usize,
        /// The new owner.
        to: CubicleId,
        /// Window-grant cache entries over the range it invalidated.
        grants_dropped: u32,
    },
    /// The monitor quarantined a cubicle after a contained fault. Opens
    /// a quarantine span on the cubicle's trace track; the matching
    /// [`TraceEvent::Restart`] closes it.
    Quarantine {
        /// The quarantined cubicle.
        cubicle: CubicleId,
        /// Window-grant cache entries into or out of it invalidated.
        grants_dropped: u32,
    },
    /// The monitor microrebooted a quarantined cubicle
    /// (`System::restart`), closing its quarantine span.
    Restart {
        /// The rebooted cubicle.
        cubicle: CubicleId,
        /// Its new incarnation number (1 for the first reboot).
        generation: u32,
        /// Window-grant cache entries invalidated for the fresh
        /// incarnation.
        grants_dropped: u32,
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
    /// The unwind path passed a contained fault through the frame of a
    /// quarantined caller on its way to a healthy one.
    FrameUnwound {
        /// The callee whose call chain was unwound.
        callee: CubicleId,
        /// The quarantined caller the fault keeps unwinding through.
        caller: CubicleId,
    },
    /// The cross-call watchdog caught a frame of `cubicle` running past
    /// its cycle budget.
    WatchdogTrip {
        /// The cubicle whose frame overran.
        cubicle: CubicleId,
        /// Cycles past the deadline.
        overrun: u64,
    },
    /// The loader refused an image containing forbidden instructions.
    LoadRejected {
        /// Forbidden `wrpkru`/`syscall` occurrences in the image.
        forbidden: usize,
    },
    /// A durable subsystem reported a crash-recovery milestone.
    Recovery(RecoveryEvent),
    /// A page was reclaimed (unmapped) by the quarantine path.
    PageReclaim {
        /// Base address of the reclaimed page.
        addr: VAddr,
        /// The key the page carried when reclaimed.
        key: ProtKey,
    },
}

/// A crash-recovery milestone reported to the monitor by a durable
/// subsystem (see `System::record_recovery`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryEvent {
    /// A write-ahead-log replay ran on database open: `frames` committed
    /// frames were recovered; `torn` says whether a torn / uncommitted
    /// tail was discarded.
    WalReplay { frames: u64, torn: bool },
    /// A RAMFS inode-journal replay restored `records` journal records
    /// inside a microrebooted cubicle's `on_restart` hook.
    RamfsJournalReplay { records: u64 },
}

/// A rare monitor incident, kept with the strings that explain it in the
/// bounded incident log (`System::incidents`) whether or not tracing is
/// on. `Display` renders its audit line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Incident {
    /// The loader refused an image: `forbidden` occurrences, the first
    /// one `first` at byte `offset`.
    LoadRejected {
        image: String,
        forbidden: usize,
        first: ForbiddenInsn,
        offset: usize,
    },
    /// The monitor quarantined a cubicle.
    Quarantined {
        cubicle: CubicleId,
        name: String,
        reason: String,
        pages_reclaimed: usize,
        windows_destroyed: usize,
    },
    /// The unwind path handed a contained `error` to the healthy
    /// `caller` as `errno`.
    Contained {
        callee: CubicleId,
        caller: CubicleId,
        caller_name: String,
        error: CubicleError,
        errno: Errno,
    },
    /// The restart policy wrote a cubicle off after `strikes` restarts.
    RestartRefused {
        cubicle: CubicleId,
        name: String,
        strikes: u32,
    },
    /// The monitor microrebooted a cubicle.
    Restarted {
        cubicle: CubicleId,
        name: String,
        generation: u32,
        grants_dropped: u32,
    },
    /// A crash-recovery milestone.
    Recovery(RecoveryEvent),
}

impl Incident {
    /// The trace event that carries the incident's counters, when it
    /// changes any.
    pub(crate) fn trace(&self) -> Option<TraceEvent> {
        match *self {
            Incident::LoadRejected { forbidden, .. } => {
                Some(TraceEvent::LoadRejected { forbidden })
            }
            Incident::Contained {
                callee,
                caller,
                errno,
                ..
            } => Some(TraceEvent::FaultContained {
                callee,
                caller,
                errno: errno.neg(),
            }),
            Incident::Restarted {
                cubicle,
                generation,
                grants_dropped,
                ..
            } => Some(TraceEvent::Restart {
                cubicle,
                generation,
                grants_dropped,
            }),
            Incident::Recovery(r) => Some(TraceEvent::Recovery(r)),
            Incident::Quarantined { .. } | Incident::RestartRefused { .. } => None,
        }
    }

    /// The audit block the incident renders in: 0 loader, 1
    /// containment, 2 recovery.
    pub(crate) fn block(&self) -> usize {
        match self {
            Incident::LoadRejected { .. } => 0,
            Incident::Recovery(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Incident::LoadRejected {
                image,
                forbidden,
                first,
                offset,
                ..
            } => write!(
                f,
                "loader: image `{image}` rejected: {forbidden} forbidden occurrence(s), \
                 first `{first}` at +{offset:#x}"
            ),
            Incident::Quarantined {
                cubicle,
                name,
                reason,
                pages_reclaimed,
                windows_destroyed,
            } => write!(
                f,
                "containment: quarantined {name} ({cubicle}): {reason} \
                 [{pages_reclaimed} page(s) reclaimed, {windows_destroyed} window(s) destroyed]"
            ),
            Incident::Contained {
                caller_name,
                error,
                errno,
                ..
            } => write!(
                f,
                "containment: unwound `{error}` to {caller_name} as {errno}"
            ),
            Incident::RestartRefused {
                cubicle,
                name,
                strikes,
            } => write!(
                f,
                "containment: restart of {name} ({cubicle}) refused permanently \
                 after {strikes} strikes"
            ),
            Incident::Restarted {
                cubicle,
                name,
                generation,
                ..
            } => write!(
                f,
                "containment: restarted {name} ({cubicle}), generation {generation}"
            ),
            Incident::Recovery(RecoveryEvent::WalReplay { frames, torn }) => write!(
                f,
                "recovery: wal replay applied {frames} frame(s){}",
                if *torn { ", torn tail discarded" } else { "" }
            ),
            Incident::Recovery(RecoveryEvent::RamfsJournalReplay { records }) => write!(
                f,
                "recovery: ramfs journal replay restored {records} record(s)"
            ),
        }
    }
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
                ..
            } => (addr, owner, accessor, kind, decision),
            TraceEvent::FaultDenied {
                addr,
                owner,
                accessor,
                kind,
                ..
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
