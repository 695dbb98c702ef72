//! Per-cubicle kernel state.

use crate::heap::SubAllocator;
use crate::ids::{CubicleId, WindowId};
use crate::window::Window;
use cubicle_mpk::{ProtKey, VAddr};

/// The kind of memory a page holds, recorded in the monitor's page
/// metadata map (paper §5.3: "owner and type (code, global data, stack or
/// heap)").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegionType {
    /// Executable component code.
    Code,
    /// Global (static) data.
    GlobalData,
    /// Per-cubicle stack.
    Stack,
    /// Heap.
    Heap,
}

/// Lifecycle state of a cubicle, maintained by the monitor's fault
/// containment machinery.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CubicleState {
    /// Serving: cross-calls in and out are dispatched normally.
    #[default]
    Active,
    /// The monitor contained a fault to this cubicle: its windows were
    /// destroyed, its pages reclaimed and its key parked. Cross-calls
    /// into it are rejected with [`crate::CubicleError::Quarantined`]
    /// until [`crate::System::restart`] reboots it.
    Quarantined,
}

/// One stack in a cubicle's re-entrancy pool. Slot 0 is the cubicle's
/// primary stack (the `stack_base`/`stack_len` region); further slots are
/// mapped on demand when several simulated cores are inside the cubicle
/// at overlapping *simulated* times. `busy_until` is the simulated cycle
/// at which the frame using the slot returned (`u64::MAX` while a frame
/// is live on it): a slot is free for a new entry at cycle `t` iff
/// `busy_until <= t`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackSlot {
    /// Base of the stack region.
    pub base: VAddr,
    /// Stack size in bytes.
    pub len: usize,
    /// Simulated cycle when the slot's last frame exited (`u64::MAX`
    /// while occupied).
    pub busy_until: u64,
}

/// Kernel-side record of one cubicle.
#[derive(Debug)]
pub struct Cubicle {
    /// This cubicle's ID.
    pub id: CubicleId,
    /// Human-readable name (e.g. `VFSCORE`).
    pub name: String,
    /// The MPK key all this cubicle's pages are tagged with.
    pub key: ProtKey,
    /// Shared cubicles (LIBC-style) execute with the caller's privileges
    /// and their static data is accessible to every cubicle.
    pub shared: bool,
    /// Byte-granularity heap sub-allocator.
    pub heap: SubAllocator,
    /// Base of the per-cubicle stack region.
    pub stack_base: VAddr,
    /// Stack size in bytes.
    pub stack_len: usize,
    /// Current bump offset into the stack (grows upward in the model).
    pub stack_used: usize,
    /// Window descriptors owned by this cubicle.
    pub windows: Vec<Window>,
    next_window: u32,
    /// Lifecycle state (quarantined after a contained fault).
    pub state: CubicleState,
    /// Incremented on every microreboot; 0 for the original incarnation.
    pub generation: u32,
    /// Why the cubicle was quarantined (`None` while active).
    pub quarantine_reason: Option<String>,
    /// Set when the cycle watchdog quarantined this cubicle, so callers
    /// see `ETIMEDOUT` rather than `EFAULT` at the containment boundary.
    /// Cleared by [`crate::System::restart`].
    pub timed_out: bool,
    /// Fault-injection knob: cap on total heap pages the monitor will
    /// grant (`None` = unlimited). Growth beyond the cap fails with
    /// `OutOfMemory`, modelling heap exhaustion mid-call.
    pub heap_limit_pages: Option<usize>,
    /// Heap pages granted so far (reset on quarantine).
    pub heap_pages_granted: usize,
    /// Simulated cycle at which this cubicle was last quarantined; feeds
    /// the restart backoff policy ([`crate::SystemConfig::restart_policy`]).
    pub quarantined_at: u64,
    /// Re-entrancy stack pool (multi-core): slot 0 mirrors the primary
    /// stack, extra slots are pooled stacks for overlapping entries.
    /// Lazily initialised on the first pooled cross-call; emptied by
    /// quarantine teardown.
    pub stack_pool: Vec<StackSlot>,
    /// Core that most recently executed inside this cubicle (host-side
    /// observability for the per-core ledger column).
    pub last_core: u32,
    /// When the cubicle was last entered, on the key pool's clock: the
    /// least recent binding is the one a parked cubicle evicts.
    pub(crate) last_entered: u64,
}

impl Cubicle {
    /// Creates an empty cubicle record.
    pub fn new(id: CubicleId, name: impl Into<String>, key: ProtKey, shared: bool) -> Cubicle {
        Cubicle {
            id,
            name: name.into(),
            key,
            shared,
            heap: SubAllocator::new(),
            stack_base: VAddr::NULL,
            stack_len: 0,
            stack_used: 0,
            windows: Vec::new(),
            next_window: 1, // window 0 is the implicit self-window
            state: CubicleState::Active,
            generation: 0,
            quarantine_reason: None,
            timed_out: false,
            heap_limit_pages: None,
            heap_pages_granted: 0,
            quarantined_at: 0,
            stack_pool: Vec::new(),
            last_core: 0,
            last_entered: 0,
        }
    }

    /// Is this cubicle currently quarantined?
    pub fn is_quarantined(&self) -> bool {
        self.state == CubicleState::Quarantined
    }

    /// Creates a new empty window and returns its ID.
    pub fn window_init(&mut self) -> WindowId {
        let id = WindowId(self.next_window);
        self.next_window += 1;
        self.windows.push(Window::new(id));
        id
    }

    /// Looks up a window by ID.
    pub fn window(&self, wid: WindowId) -> Option<&Window> {
        self.windows.iter().find(|w| w.id() == wid)
    }

    /// Looks up a window mutably.
    pub fn window_mut(&mut self, wid: WindowId) -> Option<&mut Window> {
        self.windows.iter_mut().find(|w| w.id() == wid)
    }

    /// Destroys a window; returns `true` if it existed.
    pub fn window_destroy(&mut self, wid: WindowId) -> bool {
        let before = self.windows.len();
        self.windows.retain(|w| w.id() != wid);
        self.windows.len() != before
    }

    /// Number of live windows.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> Cubicle {
        Cubicle::new(CubicleId(1), "VFS", ProtKey::new(1).unwrap(), false)
    }

    #[test]
    fn window_lifecycle() {
        let mut cu = c();
        let w1 = cu.window_init();
        let w2 = cu.window_init();
        assert_ne!(w1, w2);
        assert_eq!(cu.window_count(), 2);
        assert!(cu.window(w1).is_some());
        assert!(cu.window_destroy(w1));
        assert!(!cu.window_destroy(w1));
        assert!(cu.window(w1).is_none());
        assert_eq!(cu.window_count(), 1);
    }

    #[test]
    fn window_ids_not_reused() {
        let mut cu = c();
        let w1 = cu.window_init();
        cu.window_destroy(w1);
        let w2 = cu.window_init();
        assert_ne!(w1, w2, "destroyed IDs must not be recycled");
    }

    #[test]
    fn names_and_flags() {
        let cu = c();
        assert_eq!(cu.name, "VFS");
        assert!(!cu.shared);
        assert_eq!(cu.id, CubicleId(1));
    }
}
