//! Kernel error type.

use crate::ids::{CubicleId, WindowId};
use cubicle_mpk::insn::ForbiddenInsn;
use cubicle_mpk::{Fault, VAddr};
use std::error::Error;
use std::fmt;

/// Errors surfaced by the CubicleOS kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CubicleError {
    /// A memory access faulted and the monitor could not authorise it:
    /// no open window covers the address for the accessing cubicle.
    WindowDenied {
        /// The cubicle whose access was refused.
        accessor: CubicleId,
        /// The cubicle owning the page.
        owner: CubicleId,
        /// The faulting address.
        addr: VAddr,
    },
    /// A raw machine fault that is not subject to window authorisation
    /// (unmapped page, page-permission violation).
    MachineFault(Fault),
    /// The referenced window does not exist in the calling cubicle.
    NoSuchWindow(WindowId),
    /// A window operation referenced memory the calling cubicle does not
    /// own ("windows are assigned to the calling cubicle, and can only be
    /// managed by it", paper §4).
    NotOwner {
        /// The offending address.
        addr: VAddr,
    },
    /// The loader refused a component image containing a forbidden
    /// instruction sequence (paper §5.4).
    ForbiddenInstruction(ForbiddenInsn),
    /// The loader refused a trampoline whose signature was not produced by
    /// the trusted builder.
    UntrustedTrampoline {
        /// Name of the offending entry.
        entry: String,
    },
    /// A cross-cubicle call named an entry that was never registered —
    /// control-flow-integrity violation.
    NoSuchEntry(String),
    /// Two components exported the same symbol name.
    DuplicateSymbol(String),
    /// A cross-cubicle call would re-enter a component that is already on
    /// the call stack (nested A→B→A); see paper §5.6 "Nested calls".
    ReentrantCall(CubicleId),
    /// All 16 MPK keys are in use (paper §8 discusses tag virtualisation
    /// as future work; this reproduction keeps the hardware limit).
    OutOfKeys,
    /// Too many cubicles for the 64-bit window ACL bitmask.
    TooManyCubicles,
    /// The cubicle's address-space budget is exhausted.
    OutOfMemory(CubicleId),
    /// The referenced cubicle has been quarantined by the monitor after a
    /// contained fault: its resources were reclaimed and cross-cubicle
    /// calls into it are rejected until [`crate::System::restart`].
    Quarantined {
        /// The quarantined cubicle.
        cubicle: CubicleId,
    },
    /// The cycle watchdog quarantined a callee that overran its
    /// configured cross-call cycle budget ([`crate::SystemConfig::cycle_budget`]).
    CycleBudgetExceeded {
        /// The cubicle that was timed out.
        cubicle: CubicleId,
    },
    /// A restart arrived before the crash-looping cubicle's exponential
    /// backoff delay elapsed ([`crate::SystemConfig::restart_policy`]).
    RestartBackoff {
        /// The cubicle still serving its backoff delay.
        cubicle: CubicleId,
        /// Earliest simulated cycle at which a restart will be accepted.
        ready_at: u64,
    },
    /// The cubicle exhausted its restart strikes and the monitor's policy
    /// declared the quarantine permanent: no further restarts accepted.
    PermanentlyQuarantined {
        /// The written-off cubicle.
        cubicle: CubicleId,
    },
    /// An ID that names no cubicle in this kernel reached a public
    /// interface.
    NoSuchCubicle(CubicleId),
    /// An invalid argument reached a kernel interface.
    InvalidArgument(&'static str),
    /// An application-level failure propagated through a cross-cubicle
    /// call (carries a printable reason).
    Component(String),
}

impl fmt::Display for CubicleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubicleError::WindowDenied { accessor, owner, addr } => write!(
                f,
                "isolation violation: {accessor} accessed {addr} owned by {owner} with no open window"
            ),
            CubicleError::MachineFault(fault) => write!(f, "machine fault: {fault}"),
            CubicleError::NoSuchWindow(wid) => write!(f, "no such window: {wid}"),
            CubicleError::NotOwner { addr } => {
                write!(f, "window operation on non-owned memory at {addr}")
            }
            CubicleError::ForbiddenInstruction(insn) => {
                write!(f, "loader rejected component: contains {insn} instruction")
            }
            CubicleError::UntrustedTrampoline { entry } => {
                write!(f, "loader rejected trampoline for `{entry}`: not signed by trusted builder")
            }
            CubicleError::NoSuchEntry(name) => {
                write!(f, "control-flow violation: `{name}` is not a public entry point")
            }
            CubicleError::DuplicateSymbol(name) => {
                write!(f, "duplicate export symbol `{name}`")
            }
            CubicleError::ReentrantCall(cid) => {
                write!(f, "nested cross-cubicle call re-enters {cid}")
            }
            CubicleError::OutOfKeys => write!(f, "all 16 MPK protection keys are in use"),
            CubicleError::TooManyCubicles => write!(f, "more than 64 cubicles requested"),
            CubicleError::OutOfMemory(cid) => write!(f, "{cid} is out of memory"),
            CubicleError::Quarantined { cubicle } => {
                write!(f, "{cubicle} is quarantined after a contained fault")
            }
            CubicleError::CycleBudgetExceeded { cubicle } => {
                write!(f, "watchdog timed out {cubicle}: cross-call cycle budget exceeded")
            }
            CubicleError::RestartBackoff { cubicle, ready_at } => write!(
                f,
                "restart of {cubicle} refused: backoff in effect until cycle {ready_at}"
            ),
            CubicleError::PermanentlyQuarantined { cubicle } => write!(
                f,
                "{cubicle} is permanently quarantined: restart strikes exhausted"
            ),
            CubicleError::NoSuchCubicle(cid) => write!(f, "no such cubicle: {cid}"),
            CubicleError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            CubicleError::Component(msg) => write!(f, "component error: {msg}"),
        }
    }
}

impl CubicleError {
    /// The POSIX errno the monitor's unwind path converts this error to
    /// at the first cross-call boundary into a healthy cubicle, or `None`
    /// when the error is not a containable fault (caller bugs like
    /// [`CubicleError::ReentrantCall`] propagate unchanged).
    pub fn contained_errno(&self) -> Option<crate::errno::Errno> {
        match self {
            CubicleError::WindowDenied { .. }
            | CubicleError::MachineFault(_)
            | CubicleError::Quarantined { .. } => Some(crate::errno::Errno::Efault),
            CubicleError::OutOfMemory(_) => Some(crate::errno::Errno::Enomem),
            CubicleError::CycleBudgetExceeded { .. } => Some(crate::errno::Errno::Etimedout),
            _ => None,
        }
    }
}

impl Error for CubicleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CubicleError::MachineFault(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<Fault> for CubicleError {
    fn from(fault: Fault) -> Self {
        CubicleError::MachineFault(fault)
    }
}

/// Convenient result alias for kernel operations.
pub type Result<T, E = CubicleError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use cubicle_mpk::{AccessKind, FaultKind};

    #[test]
    fn display_messages_are_informative() {
        let e = CubicleError::WindowDenied {
            accessor: CubicleId(2),
            owner: CubicleId(1),
            addr: VAddr::new(0x4000),
        };
        let s = e.to_string();
        assert!(s.contains("cubicle#2") && s.contains("cubicle#1") && s.contains("0x4000"));
    }

    #[test]
    fn machine_fault_has_source() {
        let fault = Fault {
            addr: VAddr::new(0x1),
            access: AccessKind::Read,
            kind: FaultKind::NotPresent,
        };
        let e = CubicleError::from(fault);
        assert!(e.source().is_some());
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CubicleError>();
    }
}
