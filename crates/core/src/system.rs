//! The CubicleOS kernel: loader, monitor, cross-cubicle calls, windows.
//!
//! [`System`] owns the simulated [`Machine`], the cubicle table, the page
//! metadata map, the entry-point (trampoline) registry and the component
//! registry. It implements the paper's four trusted pieces:
//!
//! * the **loader** (§5.4): [`System::load`] scans code for forbidden
//!   instructions, verifies builder signatures, maps segments W^X with a
//!   fresh MPK key, and registers trampolines;
//! * the **monitor** (§5.3): page metadata + window ACLs + the lazy
//!   trap-and-map fault handler behind every memory access;
//! * **cross-cubicle call trampolines** (§5.5): [`System::cross_call`]
//!   switches PKRU and stacks and enforces that inter-component control
//!   flow only passes through registered public entries;
//! * the **window API** (Table 1): `window_init` / `window_add` /
//!   `window_open` / ….
//!
//! This file holds the [`System`] and [`SystemConfig`] definitions,
//! construction and introspection. Each monitor concern is a submodule
//! extending `impl System`: `loader`, `dispatch`, `trap`, `windows`,
//! `memory`, `containment`, `locks`, `keys`, `observe` and `export`.

mod containment;
mod dispatch;
mod export;
mod keys;
mod loader;
mod locks;
mod memory;
mod observe;
mod trap;
mod windows;

pub use containment::{RecoveryEvent, RestartPolicy};
pub use keys::PARKED_KEY;
pub use loader::LoadedComponent;
pub use locks::{MonitorLock, MonitorLockStats};

use crate::builder::Builder;
use crate::component::Component;
use crate::cubicle::{Cubicle, RegionType};
use crate::ids::{CubicleId, EntryId, WindowId};
use crate::mode::IsolationMode;
use crate::race::RaceDetector;
use crate::stats::SysStats;
use cubicle_mpk::{CostModel, Machine, MachineStats, PageNum, Pkru, ProtKey, VAddr};
use dispatch::EntryDesc;
use keys::KeyPool;
use loader::ReloadInfo;
use locks::MonitorLocks;
use observe::Tracer;
use std::collections::HashMap;
use trap::GrantCache;

/// Per-page metadata kept by the monitor (paper §5.3: "CubicleOS keeps a
/// page metadata map that identifies the window descriptor array
/// corresponding to that page, together with its owner and type").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageMeta {
    /// The owning cubicle (fixed at allocation time, changed only by an
    /// explicit ownership grant).
    pub owner: CubicleId,
    /// What the page holds.
    pub region: RegionType,
    /// The cubicle whose MPK key the page is expected to carry right now:
    /// the owner, or the peer trap-and-map last retagged it to (causal
    /// tag consistency, §5.6). The invariant auditor cross-checks the
    /// machine's page table against this bookkeeping.
    pub holder: CubicleId,
    /// The window descriptor that justified handing the tag to a
    /// non-owner holder (`None` while the owner holds its own page).
    /// Survives a lazy `window_close`, recording why the stale tag is
    /// legitimate.
    pub via: Option<WindowId>,
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    cubicle: CubicleId,
    /// Cycle stamp by which this frame must have returned, when the
    /// cross-call watchdog armed a budget for its edge (`None`
    /// otherwise — merged calls, `run_in_cubicle`, watchdog off).
    deadline: Option<u64>,
    /// The stack-pool slot of `cubicle` this frame runs on, when the
    /// multi-core re-entrancy pool handed one out (`None` on single-core
    /// runs, merged calls and non-MPK modes — the primary stack then).
    stack_slot: Option<usize>,
}

/// Snapshot of clock + counters, used to window measurements.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Cycle counter at snapshot time.
    pub cycles: u64,
    /// Kernel counters at snapshot time.
    pub stats: SysStats,
    /// Machine counters at snapshot time.
    pub machine: MachineStats,
}

/// The CubicleOS kernel. See the module documentation.
pub struct System {
    pub(crate) machine: Machine,
    pub(crate) mode: IsolationMode,
    pub(crate) cubicles: Vec<Cubicle>,
    components: Vec<Option<Box<dyn Component>>>,
    component_names: Vec<String>,
    entries: Vec<EntryDesc>,
    entry_names: HashMap<String, EntryId>,
    pub(crate) page_meta: HashMap<PageNum, PageMeta>,
    call_stack: Vec<Frame>,
    next_page: u64,
    stats: SysStats,
    verifier: Builder,
    boot: Option<Snapshot>,
    boundary_tax: u64,
    pub(crate) keys: KeyPool,
    /// Simulated cores the machine grows to at the first
    /// [`System::switch_to_core`]; boot runs on core 0 alone.
    cores: usize,
    tracer: Option<Tracer>,
    /// Human-readable records of images the loader refused, one line per
    /// rejection (bounded; kept outside the tracer so rejections are
    /// never silently lost when tracing is off).
    loader_audit: Vec<String>,
    /// Recycled read buffers for [`System::with_read`]: value marshalling
    /// and component handlers borrow one instead of allocating a fresh
    /// `Vec` per cross-cubicle argument. Host-side only — never affects
    /// simulated cycles.
    scratch_pool: Vec<Vec<u8>>,
    /// Fault containment policy ([`SystemConfig::fault_containment`]).
    fault_containment: bool,
    /// Tombstones for pages reclaimed from quarantined cubicles: a later
    /// touch through a dangling reference yields a typed `Quarantined`
    /// error instead of a wild machine fault. Sound because the monitor
    /// never reuses virtual addresses (`next_page` only grows).
    reclaimed: HashMap<PageNum, CubicleId>,
    /// Per-slot reload images for microreboot (parallel to `components`).
    reloads: Vec<ReloadInfo>,
    /// Human-readable quarantine/unwind/restart records (bounded, kept
    /// outside the tracer like `loader_audit`).
    containment_log: Vec<String>,
    /// Human-readable crash-recovery records (WAL replays, RAMFS journal
    /// replays, group-commit batches; bounded like `containment_log`).
    recovery_log: Vec<String>,
    /// Default cross-call cycle budget enforced by the watchdog
    /// ([`SystemConfig::cycle_budget`]).
    cycle_budget: Option<u64>,
    /// Per-edge watchdog budget overrides, taking precedence over the
    /// default budget.
    edge_budgets: HashMap<(CubicleId, CubicleId), u64>,
    /// Window-grant authorisation cache: a repeat trap-and-map fault
    /// re-checks the one descriptor that granted it last time instead of
    /// linearly searching the owner's windows.
    grant_cache: GrantCache,
    /// Restart backoff policy ([`SystemConfig::restart_policy`]).
    restart_policy: Option<RestartPolicy>,
    /// Simulated-time locks serialising the monitor's shared metadata
    /// (page_meta, windows, grant cache, ledger) across cores. On a
    /// single-core run every section is uncontended and free, so cycle
    /// counts are bit-identical to the lock-free monitor.
    pub(crate) locks: MonitorLocks,
    /// Quarantines requested while the fault path held the page-metadata
    /// lock, performed by [`System::resolve_fault`] right after the
    /// release. Teardown needs the windows and ledger locks, and taking
    /// the ledger lock *under* page_meta would invert the sanctioned
    /// ledger → page_meta order (heap growth maps fresh pages while
    /// holding the ledger) — a deadlock cycle CubicleSan would flag.
    pending_quarantine: Vec<(CubicleId, String)>,
    /// CubicleSan ([`SystemConfig::race_detection`]): vector-clock
    /// happens-before race detector + Eraser locksets + lock-order graph
    /// over the monitor's shared metadata. `None` skips every hook; the
    /// detector is a pure observer either way — it never charges
    /// simulated cycles, so clocks are bit-identical on or off.
    race: Option<Box<RaceDetector>>,
}

/// Everything about a [`System`] that is fixed when it is built, like
/// the image the paper's trusted builder seals before boot: isolation
/// mode, cost model, containment and restart policy, watchdog budget,
/// platform tax, key virtualisation, CubicleSan and the core count.
///
/// `System::new(mode)` takes the defaults for everything but the mode;
/// other configurations use struct update syntax:
///
/// ```
/// use cubicle_core::{IsolationMode, System, SystemConfig};
/// let sys = System::new(SystemConfig {
///     fault_containment: true,
///     ..IsolationMode::Full.into()
/// });
/// assert!(sys.fault_containment());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SystemConfig {
    /// The isolation mode (default [`IsolationMode::Full`]).
    pub mode: IsolationMode,
    /// The machine's cost model (default [`CostModel::paper`];
    /// [`CostModel::free`] in tests that assert on event counts).
    pub cost: CostModel,
    /// Fault containment. Off (the default), a denied access propagates
    /// as a raw `Err` to the top of the call chain — detection without
    /// containment. On, the monitor quarantines the offending cubicle,
    /// unwinds the in-flight cross-call chain to the nearest healthy
    /// caller as an errno, and rejects further calls into the offender
    /// until [`System::restart`].
    pub fault_containment: bool,
    /// Restart backoff policy; `None` (the default) keeps
    /// [`System::restart`] unconditional.
    pub restart_policy: Option<RestartPolicy>,
    /// Default cross-call cycle budget: a callee whose frame runs past
    /// it is quarantined mid-call through the containment machinery and
    /// the call chain unwinds; with containment on the nearest healthy
    /// caller receives `-ETIMEDOUT`. The watchdog fires from the
    /// monitor's own entry points (checked memory accesses, allocation,
    /// nested cross-calls) and never charges simulated cycles. `None`
    /// (the default) disarms it; [`System::set_edge_cycle_budget`]
    /// overrides it per edge.
    pub cycle_budget: Option<u64>,
    /// Platform overhead charged on every (non-merged) cross-component
    /// call, in any mode. The paper's Unikraft-on-Linux baseline is 2.8×
    /// slower than native Linux (Fig. 10a) because the user-level
    /// library OS pays a shim / platform path on each OS interaction;
    /// the "Linux" baseline runs with 0 (the default), every
    /// Unikraft-derived configuration with the calibrated value.
    pub boundary_tax: u64,
    /// MPK tag virtualisation (paper §8): more than 15 isolated cubicles
    /// share the hardware's keys. Physical keys 1–14 form the binding
    /// pool and key 15 is reserved as the inaccessible [`PARKED_KEY`];
    /// entering a parked cubicle binds it, evicting the least recently
    /// used binding and retagging its pages to parked, each at full
    /// `pkey_mprotect` cost. Off by default.
    pub key_virtualisation: bool,
    /// CubicleSan, the monitor's dynamic race detector: per-core vector
    /// clocks advanced on dispatch and lock acquire/release,
    /// Eraser-style lockset tracking for every access to the four
    /// lock-protected structures, and a lock-order graph that records
    /// the first cycle. A pure observer: clocks are bit-identical on or
    /// off. Off by default.
    pub race_detection: bool,
    /// Simulated cores, each with its own PKRU, TLB and cycle counter
    /// (default 1). Boot runs on core 0; the others come up at the first
    /// [`System::switch_to_core`] with that moment's clock and PKRU.
    pub cores: usize,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            mode: IsolationMode::default(),
            cost: CostModel::paper(),
            fault_containment: false,
            restart_policy: None,
            cycle_budget: None,
            boundary_tax: 0,
            key_virtualisation: false,
            race_detection: false,
            cores: 1,
        }
    }
}

impl From<IsolationMode> for SystemConfig {
    fn from(mode: IsolationMode) -> SystemConfig {
        SystemConfig {
            mode,
            ..SystemConfig::default()
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.mode)
            .field("cubicles", &self.cubicles.len())
            .field("entries", &self.entries.len())
            .field("cycles", &self.machine.now())
            .finish()
    }
}

impl System {
    /// Creates a kernel with its configuration fixed for its lifetime:
    /// an [`IsolationMode`] alone takes the defaults (paper cost model,
    /// no containment, one core, …), a [`SystemConfig`] sets the rest.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero.
    pub fn new(config: impl Into<SystemConfig>) -> System {
        let config = config.into();
        assert!(config.cores >= 1, "a machine has at least one core");
        let mut machine = Machine::with_cost_model(config.cost);
        // Boot executes as the trusted monitor with access to everything.
        machine.set_pkru_at_load(Pkru::allow_all());
        let monitor = Cubicle::new(CubicleId::MONITOR, "MONITOR", ProtKey::MONITOR, false);
        System {
            machine,
            mode: config.mode,
            cubicles: vec![monitor],
            components: Vec::new(),
            component_names: Vec::new(),
            entries: Vec::new(),
            entry_names: HashMap::new(),
            page_meta: HashMap::new(),
            call_stack: Vec::new(),
            next_page: 16, // leave low memory (incl. page 0) unmapped
            stats: SysStats::default(),
            verifier: Builder::new(),
            boot: None,
            boundary_tax: config.boundary_tax,
            keys: KeyPool::new(config.key_virtualisation),
            cores: config.cores,
            tracer: None,
            loader_audit: Vec::new(),
            scratch_pool: Vec::new(),
            fault_containment: config.fault_containment,
            reclaimed: HashMap::new(),
            reloads: Vec::new(),
            containment_log: Vec::new(),
            recovery_log: Vec::new(),
            cycle_budget: config.cycle_budget,
            edge_budgets: HashMap::new(),
            grant_cache: GrantCache::default(),
            restart_policy: config.restart_policy,
            locks: MonitorLocks::default(),
            pending_quarantine: Vec::new(),
            race: config.race_detection.then(|| Box::new(RaceDetector::new())),
        }
    }

    /// The isolation mode this kernel runs in.
    pub fn mode(&self) -> IsolationMode {
        self.mode
    }

    /// Read-only view of the machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access for *seeded-corruption tests* of
    /// [`System::audit`]: tests reach around the kernel's bookkeeping to
    /// break an invariant, then assert the auditor reports it. Never a
    /// legitimate kernel path — `cubicle-verify` bans the name in
    /// component sources just like the privileged `Machine` API itself.
    #[doc(hidden)]
    pub fn corrupt_machine_for_test(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Overrides a cubicle's key assignment for *seeded-corruption
    /// tests* of [`System::audit`] (see
    /// [`System::corrupt_machine_for_test`]).
    #[doc(hidden)]
    pub fn corrupt_cubicle_key_for_test(&mut self, cid: CubicleId, key: ProtKey) {
        self.cubicles[cid.index()].key = key;
    }

    /// Marks a cubicle quarantined *without* running the teardown, for
    /// *seeded-corruption tests* of the [`System::audit`] quarantine pass
    /// (see [`System::corrupt_machine_for_test`]).
    #[doc(hidden)]
    pub fn corrupt_quarantine_for_test(&mut self, cid: CubicleId) {
        self.cubicles[cid.index()].state = crate::cubicle::CubicleState::Quarantined;
    }

    /// Simulated cycle counter.
    pub fn now(&self) -> u64 {
        self.machine.now()
    }

    /// Charges simulated compute cycles (component work that does not
    /// touch simulated memory).
    pub fn charge(&mut self, cycles: u64) {
        self.machine.charge(cycles);
    }

    /// Kernel counters.
    pub fn stats(&self) -> &SysStats {
        &self.stats
    }

    /// Machine counters.
    pub fn machine_stats(&self) -> MachineStats {
        self.machine.stats()
    }

    /// The cubicle currently executing (the monitor during boot).
    pub fn current_cubicle(&self) -> CubicleId {
        self.call_stack
            .last()
            .map_or(CubicleId::MONITOR, |f| f.cubicle)
    }

    /// The cubicle that called the currently executing one (useful for
    /// allocator components that grant memory to their caller).
    pub fn caller_cubicle(&self) -> CubicleId {
        if self.call_stack.len() >= 2 {
            self.call_stack[self.call_stack.len() - 2].cubicle
        } else {
            CubicleId::MONITOR
        }
    }

    /// Name of a cubicle.
    ///
    /// # Panics
    ///
    /// Panics for an ID never returned by this kernel.
    pub fn cubicle_name(&self, cid: CubicleId) -> &str {
        &self.cubicles[cid.index()].name
    }

    /// The record of a cubicle (state, generation, key, regions).
    ///
    /// # Panics
    ///
    /// Panics for an ID never returned by this kernel.
    pub fn cubicle(&self, cid: CubicleId) -> &Cubicle {
        &self.cubicles[cid.index()]
    }

    /// Finds a cubicle by name.
    pub fn find_cubicle(&self, name: &str) -> Option<CubicleId> {
        self.cubicles.iter().find(|c| c.name == name).map(|c| c.id)
    }

    /// Iterates over all cubicles.
    pub fn cubicles(&self) -> impl Iterator<Item = &Cubicle> {
        self.cubicles.iter()
    }

    /// The owner of the page containing `addr`, if mapped.
    pub fn page_owner(&self, addr: VAddr) -> Option<CubicleId> {
        self.page_meta.get(&addr.page()).map(|m| m.owner)
    }

    /// Takes a measurement snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycles: self.machine.now(),
            stats: self.stats.clone(),
            machine: self.machine.stats(),
        }
    }

    /// Marks the end of boot; [`System::since_boot`] reports counters
    /// accumulated afterwards.
    pub fn mark_boot_complete(&mut self) {
        self.boot = Some(self.snapshot());
    }

    /// Cycles and kernel counters since [`System::mark_boot_complete`]
    /// (or since creation if boot was never marked).
    pub fn since_boot(&self) -> (u64, SysStats) {
        match &self.boot {
            Some(snap) => (
                self.machine.now() - snap.cycles,
                self.stats.since(&snap.stats),
            ),
            None => (self.machine.now(), self.stats.clone()),
        }
    }
}
