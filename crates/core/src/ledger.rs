//! Per-cubicle resource ledger.
//!
//! One [`LedgerRow`] per cubicle, assembled on demand by
//! [`crate::System::ledger`]: how many pages the cubicle owns and how
//! many foreign pages it currently holds via trap-and-map, its live
//! windows and heap/stack usage, whether its key is resident or parked,
//! its quarantine state, and (when tracing is enabled) the self/total
//! cycles the span profiler attributes to it.
//! This is the data behind the `cubicle-top` table and the per-cubicle
//! Prometheus series.

use crate::cubicle::CubicleState;
use crate::ids::CubicleId;
use cubicle_mpk::ProtKey;

/// A snapshot of one cubicle's resource consumption.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LedgerRow {
    /// The cubicle this row describes.
    pub cubicle: CubicleId,
    /// Its human-readable name.
    pub name: String,
    /// Active or quarantined.
    pub state: CubicleState,
    /// Microreboot incarnation (0 for the original).
    pub generation: u32,
    /// The MPK key its pages are tagged with right now.
    pub key: ProtKey,
    /// Is the key the parked key (quarantined, or waiting for a key)?
    pub key_parked: bool,
    /// Pages whose recorded owner is this cubicle.
    pub pages_owned: usize,
    /// Foreign-owned pages currently tagged with this cubicle's key —
    /// i.e. pages trap-and-map moved to it through an open window and
    /// has not yet reclaimed.
    pub pages_held_foreign: usize,
    /// Live window descriptors.
    pub windows: usize,
    /// Window descriptors currently open for at least one peer.
    pub windows_open: usize,
    /// Bytes live in the heap sub-allocator.
    pub heap_used: usize,
    /// Bytes of heap capacity granted.
    pub heap_capacity: usize,
    /// Bytes of stack in use.
    pub stack_used: usize,
    /// Cross-calls into this cubicle (it as callee).
    pub calls_in: u64,
    /// Cross-calls out of this cubicle (it as caller).
    pub calls_out: u64,
    /// Trap-and-map faults by this cubicle answered from the window-grant
    /// cache (0 in modes without ACL checks, which never consult it).
    pub grant_hits: u64,
    /// Exclusive cycles the span profiler attributes to the cubicle
    /// (0 when tracing is disabled).
    pub cycles_self: u64,
    /// Inclusive cycles: self plus everything its calls caused
    /// (0 when tracing is disabled).
    pub cycles_total: u64,
    /// Simulated core that most recently executed inside the cubicle
    /// (0 on a single-core run).
    pub last_core: u32,
}

impl LedgerRow {
    /// Is the cubicle quarantined in this snapshot?
    pub fn quarantined(&self) -> bool {
        self.state == CubicleState::Quarantined
    }
}
