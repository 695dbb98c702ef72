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

use crate::builder::Builder;
use crate::component::{Component, ComponentImage, EntryFn};
use crate::cubicle::{Cubicle, RegionType, StackSlot};
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, EntryId, WindowId};
use crate::ledger::LedgerRow;
use crate::metrics::Metrics;
use crate::mode::IsolationMode;
use crate::race::{RaceDetector, RaceObject, RaceReport};
use crate::span::{CycleAttribution, SpanFrame, SpanProfiler, SpanRecord};
use crate::stats::SysStats;
use crate::trace::{FaultAudit, FaultDecision, TraceBuffer, TraceEvent, WindowOpKind};
use crate::value::Value;
use cubicle_mpk::{
    pages_covering, AccessKind, CoreStats, CostModel, Fault, FaultKind, Machine, MachineEvent,
    MachineStats, PageFlags, PageNum, Pkru, ProtKey, VAddr, NUM_KEYS, PAGE_SIZE,
};
use std::collections::{HashMap, VecDeque};

/// The reserved "parked" protection key used by tag virtualisation: it
/// is never granted in any PKRU set, so pages of unbound cubicles are
/// inaccessible until trap-and-map faults them back in.
pub const PARKED_KEY: ProtKey = match ProtKey::new(15) {
    Some(k) => k,
    None => unreachable!(),
};

/// Maximum rejection records kept by the loader audit log (a kernel must
/// not grow unbounded state when fed a stream of hostile images).
const LOADER_AUDIT_CAP: usize = 64;

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

/// Handle returned by the loader.
#[derive(Clone, Debug)]
pub struct LoadedComponent {
    /// The cubicle the component was loaded into.
    pub cid: CubicleId,
    /// The component's registry slot.
    pub slot: usize,
    /// Public entry points by symbol name.
    pub entries: HashMap<String, EntryId>,
}

impl LoadedComponent {
    /// Looks up an entry by name.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchEntry`] when the symbol was not exported —
    /// a deployment error surfaced at boot, typed so a bad caller never
    /// aborts the monitor.
    pub fn entry(&self, name: &str) -> Result<EntryId> {
        self.entries
            .get(name)
            .copied()
            .ok_or_else(|| CubicleError::NoSuchEntry(name.into()))
    }
}

struct EntryDesc {
    name: String,
    gate: CallGate,
}

/// What the dispatch path needs to cross into an entry: copied out of
/// its [`EntryDesc`] so the callee can borrow the `System` mutably.
#[derive(Clone, Copy)]
struct CallGate {
    cubicle: CubicleId,
    slot: usize,
    func: EntryFn,
    stack_arg_bytes: usize,
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

/// Everything the loader needs to replay one [`System::install`] during a
/// microreboot: the (already verified) image segments, per registry slot.
/// Entry registrations are *not* replayed — entry IDs and trampolines
/// survive a reboot, so peers' proxies stay valid.
struct ReloadInfo {
    cid: CubicleId,
    code: cubicle_mpk::insn::CodeImage,
    data_pages: usize,
    heap_pages: usize,
    stack_pages: usize,
}

/// Maximum lines kept in the containment log (same rationale as
/// [`LOADER_AUDIT_CAP`]).
const CONTAINMENT_LOG_CAP: usize = 64;

/// Maximum lines kept in the recovery log (same rationale as
/// [`LOADER_AUDIT_CAP`]).
const RECOVERY_LOG_CAP: usize = 64;

/// A crash-recovery milestone reported to the monitor by a durable
/// subsystem (see [`System::record_recovery`]). Feeds the recovery
/// counters in [`SysStats`], the Prometheus export, and the
/// human-readable recovery block of [`System::export_fault_audit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryEvent {
    /// A write-ahead-log replay ran on database open: `frames` committed
    /// frames were recovered; `torn` says whether a torn / uncommitted
    /// tail was discarded.
    WalReplay { frames: u64, torn: bool },
    /// A RAMFS inode-journal replay restored `records` journal records
    /// inside a microrebooted cubicle's `on_restart` hook.
    RamfsJournalReplay { records: u64 },
    /// A group-commit sync made `commits` transactions durable with a
    /// single write barrier (recorded only when `commits >= 2`).
    GroupCommitBatch { commits: u64 },
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
    next_key: u8,
    stats: SysStats,
    verifier: Builder,
    boot: Option<Snapshot>,
    boundary_tax: u64,
    pub(crate) key_virt: Option<KeyVirt>,
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
    /// Fault containment policy ([`System::set_fault_containment`]):
    /// when on, a denied access quarantines the offending cubicle and
    /// the cross-call chain unwinds to the nearest healthy caller as an
    /// errno. Off (the default) preserves detect-and-propagate
    /// semantics: errors travel raw to the top of the call chain.
    fault_containment: bool,
    /// Physical MPK keys released by quarantined cubicles, reused by
    /// subsequent loads/restarts (non-virtualised mode only).
    free_keys: Vec<ProtKey>,
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
    /// ([`System::set_cycle_budget`]); `None` (the default) disarms it.
    cycle_budget: Option<u64>,
    /// Per-edge watchdog budget overrides, taking precedence over the
    /// default budget.
    edge_budgets: HashMap<(CubicleId, CubicleId), u64>,
    /// Window-grant authorisation cache: a repeat trap-and-map fault
    /// re-checks the one descriptor that granted it last time instead of
    /// linearly searching the owner's windows.
    grant_cache: GrantCache,
    /// Restart backoff policy ([`System::set_restart_policy`]); `None`
    /// (the default) keeps `restart` unconditional.
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
    /// CubicleSan ([`System::set_race_detection`]): vector-clock
    /// happens-before race detector + Eraser locksets + lock-order graph
    /// over the monitor's shared metadata. `None` (the default) skips
    /// every hook; the detector is a pure observer either way — it never
    /// charges simulated cycles, so clocks are bit-identical on or off.
    race: Option<Box<RaceDetector>>,
}

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

/// One remembered trap-and-map authorisation: the window that granted
/// `accessor` the faulting page last time. A hit re-checks that single
/// descriptor in O(1) instead of linearly searching the owner's window
/// list, so a stale entry can never authorise anything the live window
/// would not — invalidation is a performance matter, not a safety one.
#[derive(Clone, Copy, Debug)]
struct GrantEntry {
    owner: CubicleId,
    via: WindowId,
}

#[derive(Default)]
struct GrantCache {
    /// (accessor, faulting page) → the grant that authorised it last.
    map: HashMap<(CubicleId, PageNum), GrantEntry>,
    /// Per-accessor hit counts for the resource ledger (host-side).
    hits_by_accessor: HashMap<CubicleId, u64>,
}

/// Pieces of monitor metadata that concurrent cross-calls from several
/// simulated cores serialise on. The monitor executes host-sequentially,
/// so these locks never block the host — they model the *simulated time*
/// a core would spin waiting for a peer that holds the lock in an
/// overlapping simulated interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MonitorLock {
    /// The page-metadata map consulted and mutated by trap-and-map
    /// fault resolution.
    PageMeta = 0,
    /// Window descriptors (open/close/destroy mutate peers' ACLs).
    Windows = 1,
    /// The window-grant authorisation cache and its invalidation paths.
    GrantCache = 2,
    /// The heap ledger: per-cubicle allocation and accounting state.
    Ledger = 3,
}

/// Number of [`MonitorLock`] variants.
const NUM_LOCKS: usize = 4;

/// Critical sections remembered per lock for the audit's concurrency
/// pass (bounded ring; oldest evicted first).
const LOCK_SECTION_CAP: usize = 128;

impl MonitorLock {
    /// Stable lower-case name used in Prometheus labels and audit
    /// findings.
    pub fn name(self) -> &'static str {
        match self {
            MonitorLock::PageMeta => "page_meta",
            MonitorLock::Windows => "windows",
            MonitorLock::GrantCache => "grant_cache",
            MonitorLock::Ledger => "ledger",
        }
    }

    /// All lock identities, in index order.
    pub fn all() -> [MonitorLock; NUM_LOCKS] {
        [
            MonitorLock::PageMeta,
            MonitorLock::Windows,
            MonitorLock::GrantCache,
            MonitorLock::Ledger,
        ]
    }
}

/// Per-lock simulated state.
#[derive(Default, Debug)]
pub(crate) struct LockState {
    /// Simulated cycle at which the last holder released the lock. A
    /// core acquiring at cycle `t < free_at` spins for `free_at - t`.
    pub(crate) free_at: u64,
    /// Total acquisitions.
    pub(crate) acquisitions: u64,
    /// Acquisitions that found the lock held (in simulated time).
    pub(crate) contended: u64,
    /// Simulated cycles spent spin-waiting across all acquisitions.
    pub(crate) wait_cycles: u64,
    /// Recent critical sections as `(start, end)` cycle stamps, in
    /// acquisition order — the audit checks they never overlap.
    pub(crate) sections: VecDeque<(u64, u64)>,
}

/// The monitor's lock table.
#[derive(Default, Debug)]
pub(crate) struct MonitorLocks {
    pub(crate) locks: [LockState; NUM_LOCKS],
}

/// Counters for one monitor lock, exported by
/// [`System::monitor_lock_stats`] and the Prometheus endpoint.
#[derive(Clone, Copy, Debug)]
pub struct MonitorLockStats {
    /// Lock name (`page_meta`, `windows`, `grant_cache`, `ledger`).
    pub name: &'static str,
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to spin (simulated contention).
    pub contended: u64,
    /// Simulated cycles spent spinning.
    pub wait_cycles: u64,
}

/// Observability state, present only while tracing is enabled
/// ([`System::enable_tracing`]). Strictly an observer: recording never
/// charges simulated cycles.
struct Tracer {
    buf: TraceBuffer,
    metrics: Metrics,
    audit: VecDeque<FaultAudit>,
    audit_capacity: usize,
    audit_dropped: u64,
    /// Causal span profilers, one per simulated core (index = core id),
    /// grown lazily as cores first record events. Each profiler sees
    /// only its own core's events, so per-core span trees stay causally
    /// consistent under interleaving; cross-core views sum over them.
    spans: Vec<SpanProfiler>,
    /// Retained-span capacity used when a new core's profiler is grown.
    span_capacity: usize,
    /// Next span id to hand out (0 is reserved for "no span"). Shared
    /// across cores so span ids are globally unique in the merged trace.
    next_span: u64,
}

impl Tracer {
    /// Appends an event to the ring and feeds it to `core`'s span
    /// profiler — the single door every recorded event passes through,
    /// so the span trees always agree with the event stream.
    fn record(&mut self, at: u64, core: usize, event: TraceEvent) {
        while self.spans.len() <= core {
            self.spans.push(SpanProfiler::new(at, self.span_capacity));
        }
        self.spans[core].on_event(at, &event);
        self.buf.push_on(at, core as u32, event);
    }

    /// The innermost open span on `core` (0 when none).
    fn current_span(&self, core: usize) -> u64 {
        self.spans.get(core).map_or(0, |p| p.current_span())
    }

    /// Self/total cycle attribution for a cubicle summed across every
    /// core's profiler.
    fn cubicle_attribution(&self, cid: CubicleId) -> CycleAttribution {
        let mut sum = CycleAttribution::default();
        for p in &self.spans {
            let a = p.cubicle_attribution(cid);
            sum.self_cycles += a.self_cycles;
            sum.total_cycles += a.total_cycles;
            sum.calls += a.calls;
        }
        sum
    }

    /// Completed spans across all cores.
    fn spans_completed(&self) -> u64 {
        self.spans.iter().map(|p| p.spans_completed()).sum()
    }
}

/// MPK tag virtualisation state (paper §8: "if more tags were required,
/// CubicleOS could use existing tag virtualisation mechanisms [libmpk]").
///
/// Cubicles receive *virtual* keys; at most 15 of them (key 0 stays with
/// the monitor) are bound to physical keys at a time. Binding a cubicle
/// whose key table is full evicts the least-recently-used binding and
/// retags every page of the evicted cubicle to the incoming one's
/// physical key owner — each retag at full `pkey_mprotect` cost, which is
/// what makes virtualisation expensive and the paper's "one key per
/// compartment" frugality valuable.
pub(crate) struct KeyVirt {
    /// physical key (1..=15) → bound cubicle, with an LRU tick.
    bindings: Vec<(ProtKey, Option<(CubicleId, u64)>)>,
    tick: u64,
    /// Evictions performed (statistics).
    evictions: u64,
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
    /// Creates a kernel in the given isolation mode with the calibrated
    /// paper cost model.
    pub fn new(mode: IsolationMode) -> System {
        System::with_cost_model(mode, CostModel::paper())
    }

    /// Creates a kernel with a custom cost model (e.g. [`CostModel::free`]
    /// in tests that assert on event counts).
    pub fn with_cost_model(mode: IsolationMode, cost: CostModel) -> System {
        let mut machine = Machine::with_cost_model(cost);
        // Boot executes as the trusted monitor with access to everything.
        machine.set_pkru_at_load(Pkru::allow_all());
        let monitor = Cubicle::new(CubicleId::MONITOR, "MONITOR", ProtKey::MONITOR, false);
        System {
            machine,
            mode,
            cubicles: vec![monitor],
            components: Vec::new(),
            component_names: Vec::new(),
            entries: Vec::new(),
            entry_names: HashMap::new(),
            page_meta: HashMap::new(),
            call_stack: Vec::new(),
            next_page: 16, // leave low memory (incl. page 0) unmapped
            next_key: 1,   // key 0 is the monitor's
            stats: SysStats::default(),
            verifier: Builder::new(),
            boot: None,
            boundary_tax: 0,
            key_virt: None,
            tracer: None,
            loader_audit: Vec::new(),
            scratch_pool: Vec::new(),
            fault_containment: false,
            free_keys: Vec::new(),
            reclaimed: HashMap::new(),
            reloads: Vec::new(),
            containment_log: Vec::new(),
            recovery_log: Vec::new(),
            cycle_budget: None,
            edge_budgets: HashMap::new(),
            grant_cache: GrantCache::default(),
            restart_policy: None,
            locks: MonitorLocks::default(),
            pending_quarantine: Vec::new(),
            race: None,
        }
    }

    // =====================================================================
    // Observability (trace buffer, latency metrics, fault audit)
    // =====================================================================

    /// Enables event tracing with a ring buffer of `capacity` records
    /// (oldest overwritten when full). Also enables machine-level event
    /// recording so retags and PKRU writes appear in the trace.
    ///
    /// Tracing is an observer: it never charges simulated cycles, so
    /// cycle counts are bit-identical with tracing on or off. Re-enabling
    /// resets any previous trace.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        self.machine.set_event_recording(Some(capacity));
        self.tracer = Some(Tracer {
            buf: TraceBuffer::new(capacity),
            metrics: Metrics::default(),
            audit: VecDeque::new(),
            audit_capacity: capacity,
            audit_dropped: 0,
            spans: vec![SpanProfiler::new(self.machine.now(), capacity)],
            span_capacity: capacity,
            next_span: 1,
        });
    }

    /// Is tracing currently enabled?
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The event trace, when tracing is enabled. Pending machine events
    /// are pumped in first so the view is complete.
    pub fn trace(&mut self) -> Option<&TraceBuffer> {
        self.pump_machine_events();
        self.tracer.as_ref().map(|t| &t.buf)
    }

    /// Cross-call latency histograms, when tracing is enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.tracer.as_ref().map(|t| &t.metrics)
    }

    /// The trap-and-map audit log (bounded like the trace buffer),
    /// oldest first. Empty when tracing is disabled.
    pub fn fault_audit(&self) -> impl Iterator<Item = &FaultAudit> {
        self.tracer.iter().flat_map(|t| t.audit.iter())
    }

    /// Fault-audit records evicted because the bounded audit log was
    /// full (0 when tracing is disabled).
    pub fn fault_audit_dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.audit_dropped)
    }

    /// Core 0's causal span profiler, when tracing is enabled. Pending
    /// machine events are pumped in first so the span tree is complete.
    /// On a single-core run this is *the* profiler; on a multi-core run
    /// use [`System::core_span_profiler`] for the other cores.
    pub fn span_profiler(&mut self) -> Option<&SpanProfiler> {
        self.core_span_profiler(0)
    }

    /// The span profiler of one simulated core, when tracing is enabled
    /// and that core has recorded at least one event (core 0's profiler
    /// always exists).
    pub fn core_span_profiler(&mut self, core: usize) -> Option<&SpanProfiler> {
        self.pump_machine_events();
        self.tracer.as_ref().and_then(|t| t.spans.get(core))
    }

    /// Completed spans retained by the profilers, grouped by core in
    /// core order (oldest first within a core); empty when tracing is
    /// disabled.
    pub fn spans(&mut self) -> Vec<SpanRecord> {
        self.pump_machine_events();
        self.tracer
            .as_ref()
            .map(|t| t.spans.iter().flat_map(|p| p.spans().copied()).collect())
            .unwrap_or_default()
    }

    /// Per-cubicle self/total cycle attribution summed across every
    /// core's span profiler, sorted by cubicle id; empty when tracing is
    /// disabled.
    pub fn span_cubicle_attribution(&mut self) -> Vec<(CubicleId, CycleAttribution)> {
        self.pump_machine_events();
        let Some(t) = &self.tracer else {
            return Vec::new();
        };
        let mut merged: HashMap<CubicleId, CycleAttribution> = HashMap::new();
        for p in &t.spans {
            for (cid, a) in p.per_cubicle() {
                let e = merged.entry(cid).or_default();
                e.self_cycles += a.self_cycles;
                e.total_cycles += a.total_cycles;
                e.calls += a.calls;
            }
        }
        let mut rows: Vec<_> = merged.into_iter().collect();
        rows.sort_by_key(|(cid, _)| *cid);
        rows
    }

    /// Per-entry-point self/total cycle attribution summed across every
    /// core's span profiler, sorted by entry id; empty when tracing is
    /// disabled.
    pub fn span_entry_attribution(&mut self) -> Vec<(EntryId, CycleAttribution)> {
        self.pump_machine_events();
        let Some(t) = &self.tracer else {
            return Vec::new();
        };
        let mut merged: HashMap<EntryId, CycleAttribution> = HashMap::new();
        for p in &t.spans {
            for (eid, a) in p.per_entry() {
                let e = merged.entry(eid).or_default();
                e.self_cycles += a.self_cycles;
                e.total_cycles += a.total_cycles;
                e.calls += a.calls;
            }
        }
        let mut rows: Vec<_> = merged.into_iter().collect();
        rows.sort_by_key(|(eid, _)| *eid);
        rows
    }

    /// The profilers' attributed window, summed across cores: per-core
    /// cycles between the tracing epoch and the last span boundary. The
    /// per-cubicle self cycles of [`System::span_cubicle_attribution`]
    /// sum to exactly this value. `None` when tracing is disabled.
    pub fn span_attribution_window(&mut self) -> Option<u64> {
        self.pump_machine_events();
        self.tracer
            .as_ref()
            .map(|t| t.spans.iter().map(SpanProfiler::attributed_window).sum())
    }

    /// Assembles the live per-cubicle resource ledger: one
    /// [`LedgerRow`] per cubicle, in cubicle-id order. Page counts come
    /// from the monitor's page metadata (owner vs. current holder),
    /// call counts from [`SysStats::call_edges`], and cycle attribution
    /// from the span profiler (zero when tracing is disabled). This is
    /// the data behind `cubicle-top` and the per-cubicle Prometheus
    /// series.
    pub fn ledger(&mut self) -> Vec<LedgerRow> {
        self.pump_machine_events();
        let n = self.cubicles.len();
        let mut owned = vec![0usize; n];
        let mut foreign = vec![0usize; n];
        // verify: order-ok — commutative counting into per-cubicle slots
        for m in self.page_meta.values() {
            if m.owner.index() < n {
                owned[m.owner.index()] += 1;
            }
            if m.holder != m.owner && m.holder.index() < n {
                foreign[m.holder.index()] += 1;
            }
        }
        let mut calls_in = vec![0u64; n];
        let mut calls_out = vec![0u64; n];
        // verify: order-ok — commutative counting into per-cubicle slots
        for (&(from, to), &count) in &self.stats.call_edges {
            if from.index() < n {
                calls_out[from.index()] += count;
            }
            if to.index() < n {
                calls_in[to.index()] += count;
            }
        }
        let key_virt_on = self.key_virt.is_some();
        let tracer = self.tracer.as_ref();
        self.cubicles
            .iter()
            .map(|c| {
                let cycles = tracer
                    .map(|t| t.cubicle_attribution(c.id))
                    .unwrap_or_default();
                LedgerRow {
                    cubicle: c.id,
                    name: c.name.clone(),
                    state: c.state,
                    generation: c.generation,
                    key: c.key,
                    key_parked: key_virt_on && c.key == PARKED_KEY,
                    pages_owned: owned[c.id.index()],
                    pages_held_foreign: foreign[c.id.index()],
                    windows: c.windows.len(),
                    windows_open: c.windows.iter().filter(|w| w.mask() != 0).count(),
                    heap_used: c.heap.in_use(),
                    heap_capacity: c.heap.capacity(),
                    stack_used: c.stack_used,
                    calls_in: calls_in[c.id.index()],
                    calls_out: calls_out[c.id.index()],
                    grant_hits: self
                        .grant_cache
                        .hits_by_accessor
                        .get(&c.id)
                        .copied()
                        .unwrap_or(0),
                    cycles_self: cycles.self_cycles,
                    cycles_total: cycles.total_cycles,
                    last_core: c.last_core,
                }
            })
            .collect()
    }

    /// Renders the span profiler's folded call paths in collapsed-stack
    /// format — one `ROOT;CALLEE:entry;... self_cycles` line per unique
    /// path, directly consumable by `flamegraph.pl` or inferno. Empty
    /// when tracing is disabled (or no call completed yet).
    pub fn export_flamegraph(&mut self) -> String {
        self.pump_machine_events();
        let Some(tracer) = &self.tracer else {
            return String::new();
        };
        let mut out = String::new();
        for profiler in &tracer.spans {
            for (path, cycles) in profiler.folded() {
                let mut first = true;
                for frame in path {
                    if !first {
                        out.push(';');
                    }
                    first = false;
                    match *frame {
                        SpanFrame::Root(cid) => {
                            out.push_str(self.cubicle_frame_name(cid));
                        }
                        SpanFrame::Call(cid, entry) => {
                            out.push_str(self.cubicle_frame_name(cid));
                            out.push(':');
                            match self.entries.get(entry.index()) {
                                Some(d) => out.push_str(&d.name),
                                None => out.push_str(&entry.to_string()),
                            }
                        }
                    }
                }
                out.push(' ');
                out.push_str(&cycles.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// The display name of a cubicle for profile output (falls back to
    /// the raw id for out-of-range ids, e.g. a not-yet-loaded monitor).
    fn cubicle_frame_name(&self, cid: CubicleId) -> &str {
        self.cubicles
            .get(cid.index())
            .map_or("MONITOR", |c| c.name.as_str())
    }

    /// Moves machine-level events (retags, PKRU writes) that accumulated
    /// since the last pump into the trace buffer. Called automatically
    /// before every kernel-level event is appended, keeping the combined
    /// stream ordered by cycle stamp.
    fn pump_machine_events(&mut self) {
        if self.tracer.is_none() {
            return;
        }
        let core = self.machine.current_core();
        let Some(tracer) = &mut self.tracer else {
            return;
        };
        for ev in self.machine.drain_events() {
            match ev {
                MachineEvent::Retag { at, addr, from, to } => {
                    tracer.record(at, core, TraceEvent::Retag { addr, from, to });
                }
                MachineEvent::WrPkru { at, pkru } => {
                    tracer.record(at, core, TraceEvent::WrPkru { pkru });
                }
                MachineEvent::Unmap { at, addr, key } => {
                    tracer.record(at, core, TraceEvent::PageReclaim { addr, key });
                }
            }
        }
    }

    /// Appends a kernel-level event stamped with the current cycle count
    /// and core (no-op when tracing is disabled).
    fn trace_push(&mut self, event: TraceEvent) {
        if self.tracer.is_none() {
            return;
        }
        self.pump_machine_events();
        let at = self.machine.now();
        let core = self.machine.current_core();
        if let Some(tracer) = &mut self.tracer {
            tracer.record(at, core, event);
        }
    }

    /// Appends a fault-audit record (no-op when tracing is disabled).
    fn audit_push(&mut self, audit: FaultAudit) {
        if let Some(tracer) = &mut self.tracer {
            if tracer.audit.len() >= tracer.audit_capacity {
                tracer.audit.pop_front();
                tracer.audit_dropped += 1;
            }
            tracer.audit.push_back(audit);
        }
    }

    /// Enables MPK tag virtualisation (paper §8): more than 15 isolated
    /// cubicles share the hardware's keys. Physical keys 1–14 form a
    /// binding pool (key 15 is reserved as the inaccessible "parked"
    /// tag); entering a parked cubicle binds it, evicting the
    /// least-recently-used binding and retagging the evicted key's pages
    /// to parked — each at full `pkey_mprotect` cost. Call before
    /// loading components.
    pub fn enable_key_virtualisation(&mut self) {
        if self.key_virt.is_none() {
            self.key_virt = Some(KeyVirt {
                bindings: (1..PARKED_KEY.raw())
                    .map(|k| (ProtKey::new(k).expect("in range"), None))
                    .collect(),
                tick: 0,
                evictions: 0,
            });
        }
    }

    /// Number of key-binding evictions performed by the virtualisation
    /// layer (0 when virtualisation is off or never needed).
    pub fn key_evictions(&self) -> u64 {
        self.key_virt.as_ref().map_or(0, |kv| kv.evictions)
    }

    /// Binds `cid` to a physical key if it is parked. No-op without
    /// virtualisation (keys are permanent then).
    fn ensure_bound(&mut self, cid: CubicleId) {
        let Some(kv) = &mut self.key_virt else { return };
        kv.tick += 1;
        let tick = kv.tick;
        if self.cubicles[cid.index()].key != PARKED_KEY {
            // refresh the LRU stamp of the existing binding
            let key = self.cubicles[cid.index()].key;
            if let Some(slot) = kv.bindings.iter_mut().find(|(k, _)| *k == key) {
                if let Some((bound, t)) = &mut slot.1 {
                    if *bound == cid && !self.cubicles[cid.index()].shared {
                        *t = tick;
                    }
                }
            }
            return;
        }
        // find a free physical key, or evict the least recently used
        // binding that is neither pinned (shared) nor currently running
        let active: Vec<CubicleId> = self.call_stack.iter().map(|f| f.cubicle).collect();
        let slot_idx = kv
            .bindings
            .iter()
            .position(|(_, b)| b.is_none())
            .unwrap_or_else(|| {
                kv.bindings
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, b))| {
                        b.is_some_and(|(c, t)| t != u64::MAX && !active.contains(&c))
                    })
                    .min_by_key(|(_, (_, b))| b.expect("filtered").1)
                    .map(|(i, _)| i)
                    .expect("at least one evictable binding")
            });
        let (phys, prev) = kv.bindings[slot_idx];
        kv.bindings[slot_idx].1 = Some((cid, tick));
        if let Some((evicted, _)) = prev {
            kv.evictions += 1;
            self.cubicles[evicted.index()].key = PARKED_KEY;
            // all pages currently tagged with the physical key are parked;
            // trap-and-map will lazily fault them back in for whoever is
            // authorised (each retag at pkey_mprotect cost)
            for page in self.machine.pages_with_key(phys) {
                self.machine
                    .set_page_key(page.base(), PARKED_KEY)
                    .expect("page exists");
            }
        }
        self.cubicles[cid.index()].key = phys;
    }

    /// Sets a platform overhead charged on every (non-merged)
    /// cross-component call, in any mode.
    ///
    /// The paper's Unikraft-on-Linux baseline is 2.8× slower than native
    /// Linux (Fig. 10a) because the user-level library OS pays a shim /
    /// platform path on each OS interaction that the in-kernel Linux
    /// implementation does not. Harnesses model that single factor here:
    /// the "Linux" baseline runs with tax 0, all Unikraft-derived
    /// configurations (including CubicleOS) with the calibrated value.
    pub fn set_boundary_tax(&mut self, cycles: u64) {
        self.boundary_tax = cycles;
    }

    // =====================================================================
    // Cross-call cycle watchdog
    // =====================================================================

    /// Arms (or with `None` disarms) the cross-call cycle watchdog: a
    /// callee whose frame runs past `cycles` simulated cycles is
    /// quarantined mid-call through the fault-containment machinery and
    /// the call chain unwinds; with containment enabled
    /// ([`System::set_fault_containment`]) the nearest healthy caller
    /// receives `-ETIMEDOUT`.
    ///
    /// The watchdog fires from the monitor's own entry points (checked
    /// memory accesses, allocation, nested cross-calls) — the places a
    /// spinning component must pass through to observe anything. It
    /// never charges simulated cycles; disarmed (the default) it costs
    /// one branch per monitor entry.
    pub fn set_cycle_budget(&mut self, cycles: Option<u64>) {
        self.cycle_budget = cycles;
        if !self.watchdog_armed() {
            self.machine.set_cycle_alarm(None);
        }
    }

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
    fn watchdog_armed(&self) -> bool {
        self.cycle_budget.is_some() || !self.edge_budgets.is_empty()
    }

    /// The budget applying to one edge: the per-edge override, or the
    /// default.
    fn budget_for(&self, caller: CubicleId, callee: CubicleId) -> Option<u64> {
        self.edge_budgets
            .get(&(caller, callee))
            .copied()
            .or(self.cycle_budget)
    }

    /// Re-arms the machine's cycle alarm to the earliest in-flight
    /// frame deadline.
    fn refresh_cycle_alarm(&mut self) {
        let next = self.call_stack.iter().filter_map(|f| f.deadline).min();
        self.machine.set_cycle_alarm(next);
    }

    /// Watchdog poll, called on every monitor entry. The fast path is a
    /// single branch on the machine's cycle alarm.
    #[inline]
    fn watchdog_check(&mut self) -> Result<()> {
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
        let budget = self.call_stack[idx]
            .deadline
            .map_or(0, |d| now.saturating_sub(d));
        let overrun = budget;
        self.call_stack[idx].deadline = None;
        self.refresh_cycle_alarm();
        self.stats.watchdog_trips += 1;
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

    // =====================================================================
    // Introspection
    // =====================================================================

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

    /// Feeds CubicleSan a page-metadata write performed *with* the lock
    /// held — the well-behaved half of the seeded lock-elision
    /// experiment (see [`System::corrupt_machine_for_test`] for the
    /// `*_for_test` convention; `cubicle-verify` bans the name in
    /// component sources).
    #[doc(hidden)]
    pub fn san_probe_locked_for_test(&mut self) {
        let start = self.lock_acquire(MonitorLock::PageMeta);
        self.race_note(
            RaceObject::PageMeta,
            true,
            "san_probe:page_meta.locked_write",
        );
        self.lock_release(MonitorLock::PageMeta, start);
    }

    /// Feeds CubicleSan a page-metadata write with the lock acquire
    /// *elided* — the seeded mutation: issued on a different core with
    /// no intervening lock operations, this is exactly the access pair
    /// the detector must report.
    #[doc(hidden)]
    pub fn san_probe_elided_for_test(&mut self) {
        self.race_note(
            RaceObject::PageMeta,
            true,
            "san_probe:page_meta.elided_write",
        );
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

    // =====================================================================
    // Multi-core simulation
    // =====================================================================

    /// Reconfigures the machine to `n` simulated cores (each with its own
    /// PKRU, TLB and cycle counter) and switches to core 0. `n == 1`
    /// restores the plain single-core machine, whose cycle counts are
    /// bit-identical to a build that never heard of cores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or a cross-call chain is in flight —
    /// reconfiguring cores mid-call would strand frames on a core that
    /// no longer exists.
    pub fn set_num_cores(&mut self, n: usize) {
        assert!(
            self.call_stack.is_empty(),
            "cannot reconfigure cores while a cross-call chain is in flight"
        );
        self.pump_machine_events();
        self.machine.set_num_cores(n);
    }

    /// Number of simulated cores (1 unless [`System::set_num_cores`]
    /// grew the machine).
    pub fn num_cores(&self) -> usize {
        self.machine.num_cores()
    }

    /// The simulated core currently executing.
    pub fn current_core(&self) -> usize {
        self.machine.current_core()
    }

    /// Switches execution to core `i`. Only legal between top-level
    /// operations: whole cross-call chains run on one core, and the
    /// monitor's serialisation order is the order in which cores issue
    /// their operations.
    ///
    /// Pending machine events are pumped first so trace records keep the
    /// core that actually produced them.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or a cross-call chain is in flight.
    pub fn switch_to_core(&mut self, i: usize) {
        assert!(
            self.call_stack.is_empty(),
            "cannot switch cores while a cross-call chain is in flight"
        );
        self.pump_machine_events();
        self.machine.switch_to_core(i);
        if let Some(race) = &mut self.race {
            race.on_dispatch(i);
        }
    }

    /// Core `i`'s cycle counter (its private simulated clock).
    pub fn core_cycles(&self, i: usize) -> u64 {
        self.machine.core_cycles(i)
    }

    /// The furthest-ahead core clock — the simulated makespan of a
    /// multi-core run.
    pub fn max_core_cycles(&self) -> u64 {
        self.machine.max_core_cycles()
    }

    /// Core `i`'s private event counters (TLB hits/misses, cross-calls,
    /// PKRU writes).
    pub fn core_stats(&self, i: usize) -> CoreStats {
        self.machine.core_stats(i)
    }

    /// Counters for every monitor lock, in [`MonitorLock::all`] order.
    pub fn monitor_lock_stats(&self) -> Vec<MonitorLockStats> {
        MonitorLock::all()
            .into_iter()
            .map(|l| {
                let st = &self.locks.locks[l as usize];
                MonitorLockStats {
                    name: l.name(),
                    acquisitions: st.acquisitions,
                    contended: st.contended,
                    wait_cycles: st.wait_cycles,
                }
            })
            .collect()
    }

    /// Acquires a monitor lock in simulated time, charging a spin-wait
    /// if a core holds it in an overlapping simulated interval, and
    /// returns the section's start stamp for [`System::lock_release`].
    ///
    /// Host execution is sequential, so the lock models contention
    /// rather than enforcing mutual exclusion: a core whose clock sits
    /// before the last release spins until `free_at`. On a single-core
    /// run the clock is monotonic across sections, so no acquisition
    /// ever waits and cycle counts are untouched.
    fn lock_acquire(&mut self, lock: MonitorLock) -> u64 {
        let now = self.machine.now();
        let st = &mut self.locks.locks[lock as usize];
        st.acquisitions += 1;
        if st.free_at > now {
            let wait = st.free_at - now;
            st.contended += 1;
            st.wait_cycles += wait;
            self.machine.charge(wait);
        }
        if let Some(race) = &mut self.race {
            let delta = race.on_acquire(self.machine.current_core(), lock);
            self.stats.apply_race_delta(delta);
        }
        self.machine.now()
    }

    /// Releases a monitor lock acquired at `start`, recording the
    /// critical section for the audit's concurrency pass.
    fn lock_release(&mut self, lock: MonitorLock, start: u64) {
        let end = self.machine.now();
        let st = &mut self.locks.locks[lock as usize];
        st.free_at = end;
        if st.sections.len() >= LOCK_SECTION_CAP {
            st.sections.pop_front();
        }
        st.sections.push_back((start, end));
        if let Some(race) = &mut self.race {
            race.on_release(self.machine.current_core(), lock);
        }
    }

    /// Feeds CubicleSan one access to a protected monitor structure,
    /// tagged with its lexical site. A no-op (and no cycle charge) when
    /// detection is off; see [`System::set_race_detection`].
    fn race_note(&mut self, object: RaceObject, write: bool, site: &'static str) {
        if let Some(race) = &mut self.race {
            let delta = race.on_access(self.machine.current_core(), object, write, site);
            self.stats.apply_race_delta(delta);
        }
    }

    /// Enables or disables CubicleSan, the monitor's dynamic race
    /// detector: per-core vector clocks advanced on dispatch and lock
    /// acquire/release, Eraser-style lockset tracking for every access
    /// to the four lock-protected structures, and a lock-order graph
    /// that records the first cycle. Enabling resets any prior history.
    ///
    /// The detector is a pure observer — it never charges simulated
    /// cycles, so clock values are bit-identical with detection on or
    /// off; only host wall time changes.
    pub fn set_race_detection(&mut self, on: bool) {
        self.race = if on {
            Some(Box::new(RaceDetector::new()))
        } else {
            None
        };
    }

    /// Is CubicleSan currently enabled?
    pub fn race_detection_enabled(&self) -> bool {
        self.race.is_some()
    }

    /// Race reports recorded by CubicleSan (deduplicated by site pair,
    /// capped); empty when detection is off.
    pub fn race_reports(&self) -> &[RaceReport] {
        self.race.as_ref().map_or(&[], |r| r.reports())
    }

    /// Distinct lock-order edges CubicleSan has observed (0 when off).
    pub fn lockorder_edges(&self) -> u64 {
        self.race.as_ref().map_or(0, |r| r.lockorder_edges())
    }

    /// The first lock-order cycle CubicleSan found, rendered as
    /// `a -> b -> a`; `None` means acyclic so far (or detection off).
    pub fn lockorder_cycle(&self) -> Option<&str> {
        self.race.as_ref().and_then(|r| r.lockorder_cycle())
    }

    /// Eraser lockset violations recorded by CubicleSan (at most one per
    /// protected structure); empty when detection is off.
    pub fn lockset_violations(&self) -> Vec<String> {
        self.race.as_ref().map_or_else(Vec::new, |r| {
            r.violations().iter().map(|v| v.to_string()).collect()
        })
    }

    /// Hands out a stack for a cross-call entering `cid`, from the
    /// cubicle's re-entrancy pool. Returns the slot index, or `None`
    /// when pooling is inactive (single core, non-MPK mode, the monitor,
    /// or a cubicle without a stack) and the primary stack serves as
    /// always.
    ///
    /// Slot 0 mirrors the primary stack; a fresh stack is mapped (and
    /// charged at `pkey_mprotect` per page, like any mapping) only when
    /// every pooled slot is busy at the current simulated time — i.e.
    /// when entries on several cores genuinely overlap in simulated
    /// time.
    fn stack_acquire(&mut self, cid: CubicleId) -> Option<usize> {
        if self.machine.num_cores() == 1
            || !self.mode.mpk_active()
            || cid == CubicleId::MONITOR
            || self.cubicles[cid.index()].stack_len == 0
        {
            if cid != CubicleId::MONITOR && cid.index() < self.cubicles.len() {
                self.cubicles[cid.index()].last_core = self.machine.current_core() as u32;
            }
            return None;
        }
        let now = self.machine.now();
        let core = self.machine.current_core() as u32;
        let (key, len) = {
            let c = &mut self.cubicles[cid.index()];
            c.last_core = core;
            if c.stack_pool.is_empty() {
                // Lazily seed slot 0 with the primary stack.
                let slot = StackSlot {
                    base: c.stack_base,
                    len: c.stack_len,
                    busy_until: 0,
                };
                c.stack_pool.push(slot);
            }
            if let Some(i) = c.stack_pool.iter().position(|s| s.busy_until <= now) {
                c.stack_pool[i].busy_until = u64::MAX;
                return Some(i);
            }
            (c.key, c.stack_len)
        };
        // Every pooled stack is busy at `now`: map and tag a fresh one,
        // charged like any runtime mapping (`pkey_mprotect` per page).
        let pages = len.div_ceil(PAGE_SIZE);
        let retag_cost = self.machine.cost_model().pkey_mprotect * pages as u64;
        self.machine.charge(retag_cost);
        let base = self.map_fresh(pages, key, PageFlags::rw(), cid, RegionType::Stack);
        let c = &mut self.cubicles[cid.index()];
        c.stack_pool.push(StackSlot {
            base,
            len,
            busy_until: u64::MAX,
        });
        Some(c.stack_pool.len() - 1)
    }

    /// In-flight frames of `cid` currently holding a pooled stack slot
    /// (the audit cross-checks them against live pool slots).
    pub(crate) fn live_pool_frames(&self, cid: CubicleId) -> usize {
        self.call_stack
            .iter()
            .filter(|f| f.cubicle == cid && f.stack_slot.is_some())
            .count()
    }

    /// Returns a pooled stack slot at frame exit; the slot becomes free
    /// for entries whose simulated time is past the exit stamp.
    fn stack_release(&mut self, cid: CubicleId, slot: Option<usize>) {
        let Some(i) = slot else { return };
        let now = self.machine.now();
        if let Some(s) = self.cubicles[cid.index()].stack_pool.get_mut(i) {
            s.busy_until = now;
        }
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

    // =====================================================================
    // Loader (paper §5.4)
    // =====================================================================

    /// Loads a component into a fresh cubicle.
    ///
    /// Performs the loader's integrity duties: scans the code image for
    /// forbidden `wrpkru`/`syscall` sequences, verifies that every export
    /// was signed by the trusted builder, maps code execute-only and data
    /// read-write (W^X), tags all pages with the cubicle's fresh MPK key,
    /// populates the page metadata map and registers one trampoline per
    /// public entry.
    ///
    /// # Errors
    ///
    /// [`CubicleError::ForbiddenInstruction`],
    /// [`CubicleError::UntrustedTrampoline`], [`CubicleError::OutOfKeys`],
    /// [`CubicleError::TooManyCubicles`], or a duplicate-symbol error.
    pub fn load(
        &mut self,
        image: ComponentImage,
        state: Box<dyn Component>,
    ) -> Result<LoadedComponent> {
        if self.cubicles.len() >= 64 {
            return Err(CubicleError::TooManyCubicles);
        }
        let cid = CubicleId(self.cubicles.len() as u16);
        let key = match &mut self.key_virt {
            None => {
                // Keys parked by quarantined cubicles are recycled first.
                if let Some(key) = self.free_keys.pop() {
                    key
                } else if self.next_key as usize >= NUM_KEYS {
                    return Err(CubicleError::OutOfKeys);
                } else {
                    let key = ProtKey::new(self.next_key).expect("bounded above");
                    self.next_key += 1;
                    key
                }
            }
            Some(kv) => {
                // virtualised: hand out pool keys while they last; shared
                // cubicles pin theirs (they must stay reachable from
                // every PKRU set), isolated ones start parked when the
                // pool is exhausted and bind on first entry.
                match kv.bindings.iter_mut().find(|(_, b)| b.is_none()) {
                    Some(slot) => {
                        let tick = if image.shared { u64::MAX } else { 0 };
                        slot.1 = Some((cid, tick));
                        slot.0
                    }
                    None if image.shared => return Err(CubicleError::OutOfKeys),
                    None => PARKED_KEY,
                }
            }
        };
        let cubicle = Cubicle::new(cid, image.name.clone(), key, image.shared);
        self.cubicles.push(cubicle);
        self.install(image, state, cid)
    }

    /// Loads a component into an *existing* cubicle (same key, same
    /// protection domain). This builds the merged configurations of
    /// Figure 9a (e.g. `CORE+RAMFS` sharing one compartment).
    ///
    /// # Errors
    ///
    /// Same as [`System::load`].
    pub fn load_into(
        &mut self,
        image: ComponentImage,
        state: Box<dyn Component>,
        cid: CubicleId,
    ) -> Result<LoadedComponent> {
        if cid.index() >= self.cubicles.len() {
            return Err(CubicleError::InvalidArgument("load_into: no such cubicle"));
        }
        self.install(image, state, cid)
    }

    fn install(
        &mut self,
        image: ComponentImage,
        state: Box<dyn Component>,
        cid: CubicleId,
    ) -> Result<LoadedComponent> {
        // Rule: refuse code containing instructions that would undermine
        // the isolation mechanisms. The early-exit scan decides the
        // verdict; the exhaustive scan feeds the audit log so operators
        // see *every* occurrence, not just the first.
        if let Some(bad) = image.code.scan_forbidden() {
            let hits = image.code.scan_all();
            self.stats.loads_rejected += 1;
            self.stats.forbidden_insns += hits.len() as u64;
            if self.loader_audit.len() < LOADER_AUDIT_CAP {
                let (off, first) = hits.first().copied().expect("fast path found one");
                self.loader_audit.push(format!(
                    "loader: image `{}` rejected: {} forbidden occurrence(s), first `{first}` at +{off:#x}",
                    image.name,
                    hits.len(),
                ));
            }
            // roll back an empty cubicle created by `load`
            return Err(CubicleError::ForbiddenInstruction(bad));
        }
        // Rule: trampolines must come from the trusted builder.
        for (signed, _) in &image.exports {
            if !self.verifier.verify(signed) {
                return Err(CubicleError::UntrustedTrampoline {
                    entry: signed.decl.name.clone(),
                });
            }
        }
        for (signed, _) in &image.exports {
            if self.entry_names.contains_key(&signed.decl.name) {
                return Err(CubicleError::DuplicateSymbol(signed.decl.name.clone()));
            }
        }

        let reload = ReloadInfo {
            cid,
            code: image.code.clone(),
            data_pages: image.data_pages,
            heap_pages: image.heap_pages,
            stack_pages: image.stack_pages,
        };
        self.map_component_segments(&reload);

        // Register the component, its reload image and its trampolines.
        let slot = self.components.len();
        self.components.push(Some(state));
        self.reloads.push(reload);
        self.component_names.push(image.name.clone());
        let mut entries = HashMap::new();
        for (signed, func) in image.exports {
            let id = EntryId(self.entries.len() as u32);
            self.entries.push(EntryDesc {
                name: signed.decl.name.clone(),
                gate: CallGate {
                    cubicle: cid,
                    slot,
                    func,
                    stack_arg_bytes: signed.decl.stack_arg_bytes(),
                },
            });
            self.entry_names.insert(signed.decl.name.clone(), id);
            entries.insert(signed.decl.name, id);
        }
        Ok(LoadedComponent { cid, slot, entries })
    }

    /// Maps one component's code/data/heap/stack segments into its
    /// cubicle. Shared by [`System::install`] and the microreboot path
    /// ([`System::restart`]), which replays the same layout into fresh
    /// pages.
    fn map_component_segments(&mut self, info: &ReloadInfo) {
        let cid = info.cid;
        let key = self.cubicles[cid.index()].key;

        // Map code pages: write the image through a temporary RW mapping,
        // then flip to execute-only (W^X).
        let code_pages = info.code.len().div_ceil(PAGE_SIZE).max(1);
        let code_base = self.map_fresh(code_pages, key, PageFlags::rw(), cid, RegionType::Code);
        let mut off = 0;
        for chunk in info.code.bytes().chunks(PAGE_SIZE) {
            self.machine
                .write(code_base + off, chunk)
                .expect("loader writes its own fresh mapping");
            off += chunk.len();
        }
        for page in 0..code_pages {
            self.machine
                .set_page_flags(code_base + page * PAGE_SIZE, PageFlags::x())
                .expect("just mapped");
        }

        // Global data, heap and stack.
        if info.data_pages > 0 {
            self.map_fresh(
                info.data_pages,
                key,
                PageFlags::rw(),
                cid,
                RegionType::GlobalData,
            );
        }
        if info.heap_pages > 0 {
            // Heap accounting (heap_pages_granted inside map_fresh, the
            // sub-allocator region list) is ledger state: restart replays
            // race with concurrent heap_alloc calls on other cores.
            let start = self.lock_acquire(MonitorLock::Ledger);
            let heap_base =
                self.map_fresh(info.heap_pages, key, PageFlags::rw(), cid, RegionType::Heap);
            self.race_note(
                RaceObject::Ledger,
                true,
                "map_component_segments:heap.add_region",
            );
            self.cubicles[cid.index()] // verify: lock-held(ledger)
                .heap
                .add_region(heap_base, info.heap_pages * PAGE_SIZE);
            self.lock_release(MonitorLock::Ledger, start);
        }
        if info.stack_pages > 0 {
            let stack_base = self.map_fresh(
                info.stack_pages,
                key,
                PageFlags::rw(),
                cid,
                RegionType::Stack,
            );
            let c = &mut self.cubicles[cid.index()];
            c.stack_base = stack_base;
            c.stack_len = info.stack_pages * PAGE_SIZE;
        }
    }

    fn map_fresh(
        &mut self,
        pages: usize,
        key: ProtKey,
        flags: PageFlags,
        owner: CubicleId,
        region: RegionType,
    ) -> VAddr {
        let base = VAddr::new(self.next_page * PAGE_SIZE as u64);
        // +1: keep an unmapped guard page between regions so overruns
        // fault instead of silently touching a neighbour.
        self.next_page += pages as u64 + 1;
        if region == RegionType::Heap {
            // Every heap-growing caller (heap_alloc_locked, the restart
            // replay in map_component_segments) holds the ledger lock
            // around this call.
            self.race_note(RaceObject::Ledger, true, "map_fresh:heap_pages_granted");
            self.cubicles[owner.index()].heap_pages_granted += pages; // verify: lock-held(ledger)
        }
        let start = self.lock_acquire(MonitorLock::PageMeta);
        self.race_note(RaceObject::PageMeta, true, "map_fresh:page_meta.insert");
        for i in 0..pages {
            let addr = base + i * PAGE_SIZE;
            self.machine.map_page(addr, key, flags);
            self.page_meta.insert(
                addr.page(),
                PageMeta {
                    owner,
                    region,
                    holder: owner,
                    via: None,
                },
            );
        }
        self.lock_release(MonitorLock::PageMeta, start);
        base
    }

    // =====================================================================
    // Cross-cubicle calls (paper §5.5)
    // =====================================================================

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
    /// ([`System::set_fault_containment`]), containable callee faults do
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

    /// The unwind step of fault containment, applied to a failed
    /// dispatch on its way out: a containable error keeps propagating as
    /// `Err` through frames of quarantined cubicles, and converts to a
    /// well-defined `Value::I64(-errno)` at the first boundary into a
    /// healthy caller.
    fn contain_at_boundary(
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
        self.stats.unwound_frames += 1;
        if caller != CubicleId::MONITOR && self.cubicles[caller.index()].is_quarantined() {
            // Still inside the offender's call chain: keep unwinding.
            return Err(err);
        }
        self.stats.contained_faults += 1;
        let neg = errno.neg();
        self.containment_push(format!(
            "containment: unwound `{err}` to {} as {errno}",
            self.cubicles[caller.index()].name
        ));
        self.trace_push(TraceEvent::FaultContained {
            callee,
            caller,
            errno: neg,
        });
        Ok(Value::I64(neg))
    }

    /// Appends a line to the bounded containment log.
    fn containment_push(&mut self, line: String) {
        if self.containment_log.len() < CONTAINMENT_LOG_CAP {
            self.containment_log.push(line);
        }
    }

    /// Records a crash-recovery milestone: bumps the matching
    /// [`SysStats`] counters and appends a line to the bounded recovery
    /// log rendered by [`System::export_fault_audit`].
    pub fn record_recovery(&mut self, event: RecoveryEvent) {
        let line = match event {
            RecoveryEvent::WalReplay { frames, torn } => {
                self.stats.wal_replays += 1;
                self.stats.wal_frames_recovered += frames;
                if torn {
                    self.stats.wal_torn_tails_discarded += 1;
                }
                format!(
                    "recovery: wal replay applied {frames} frame(s){}",
                    if torn { ", torn tail discarded" } else { "" }
                )
            }
            RecoveryEvent::RamfsJournalReplay { records } => {
                self.stats.ramfs_journal_replays += 1;
                format!("recovery: ramfs journal replay restored {records} record(s)")
            }
            RecoveryEvent::GroupCommitBatch { commits } => {
                self.stats.group_commit_batches += 1;
                format!("recovery: group commit coalesced {commits} txn(s) into one sync")
            }
        };
        if self.recovery_log.len() < RECOVERY_LOG_CAP {
            self.recovery_log.push(line);
        }
    }

    /// Crash-recovery records (bounded), one line per replay / batch.
    pub fn recovery_log(&self) -> &[String] {
        &self.recovery_log
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

    // =====================================================================
    // Monitor: trap-and-map (paper §5.3, Fig. 4)
    // =====================================================================

    /// Trap-and-map entry: the monitor serialises fault resolution on
    /// the page-metadata lock (the map is read and its holder records
    /// mutated), then dispatches to the resolution logic.
    fn resolve_fault(&mut self, fault: Fault) -> Result<()> {
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
    fn record_holder(&mut self, addr: VAddr, holder: CubicleId, via: Option<WindowId>) {
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

    // =====================================================================
    // Fault containment: quarantine, unwind, microreboot
    // =====================================================================

    /// Enables or disables the fault containment policy. Off (the
    /// default), a denied access propagates as a raw `Err` to the top of
    /// the call chain — detection without containment. On, the monitor
    /// quarantines the offending cubicle, unwinds the in-flight
    /// cross-call chain to the nearest healthy caller as an errno, and
    /// rejects further calls into the offender until
    /// [`System::restart`].
    pub fn set_fault_containment(&mut self, enabled: bool) {
        self.fault_containment = enabled;
    }

    /// Is the fault containment policy enabled?
    pub fn fault_containment(&self) -> bool {
        self.fault_containment
    }

    /// Installs (or clears) the restart backoff policy. `None` (the
    /// default) keeps [`System::restart`] unconditional, as before.
    pub fn set_restart_policy(&mut self, policy: Option<RestartPolicy>) {
        self.restart_policy = policy;
    }

    /// The active restart backoff policy, if any.
    pub fn restart_policy(&self) -> Option<RestartPolicy> {
        self.restart_policy
    }

    /// Drops every grant-cache entry `keep` rejects, counting each as an
    /// invalidation. `site` names the caller for CubicleSan: quarantine
    /// and restart purge the cubicle's grants in both directions,
    /// ownership transfer drops its pages, and the narrowing window
    /// operations (remove, close, close-all, destroy) drop the window's.
    fn grant_cache_retain(
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

    /// The bounded containment log: one line per quarantine, unwind
    /// conversion and microreboot (kept even with tracing off, capped at
    /// 64 entries like the loader audit).
    pub fn containment_log(&self) -> &[String] {
        &self.containment_log
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
    fn quarantine_for(&mut self, cid: CubicleId, reason: String) {
        if cid == CubicleId::MONITOR
            || cid.index() >= self.cubicles.len()
            || self.cubicles[cid.index()].is_quarantined()
        {
            return;
        }
        self.quarantine_inner(cid, reason);
    }

    /// Quarantines `cid`: destroys its windows, reclaims its pages
    /// (tombstoned so dangling references yield typed errors), retags
    /// pages it held of other owners back to them, parks its MPK key
    /// into the reuse pool and rejects future cross-calls with
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
        self.stats.quarantines += 1;
        self.trace_push(TraceEvent::Quarantine { cubicle: cid });
        // Grants into or out of the offender are void: its windows are
        // destroyed below and its held pages reclaimed.
        self.grant_cache_retain("quarantine:grant_cache.retain", |&(accessor, _), e| {
            accessor != cid && e.owner != cid
        });
        self.cubicles[cid.index()].quarantined_at = self.machine.now();

        // ❶ Destroy the offender's window descriptors: nothing of its
        // (soon reclaimed) memory stays published. A fault on another
        // core may be searching this array (P → W nesting).
        let wstart = self.lock_acquire(MonitorLock::Windows);
        self.race_note(RaceObject::Windows, true, "quarantine:windows.take");
        let windows = std::mem::take(&mut self.cubicles[cid.index()].windows);
        self.lock_release(MonitorLock::Windows, wstart);

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
            if self.mode.mpk_active() {
                self.machine
                    .set_page_key(page.base(), owner_key)
                    .expect("held page is mapped");
            } else {
                self.machine
                    .set_page_key_at_load(page.base(), owner_key)
                    .expect("held page is mapped");
            }
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
            // The machine emits `MachineEvent::Unmap`, which the event
            // pump turns into `TraceEvent::PageReclaim`.
            self.machine
                .reclaim_page(page.base())
                .expect("owned page is mapped");
            self.page_meta.remove(&page);
            self.reclaimed.insert(page, cid);
        }
        self.lock_release(MonitorLock::PageMeta, pstart);

        // ❹ Park the MPK key. Without virtualisation the physical key
        // returns to the reuse pool; with it, the binding is released.
        let key = self.cubicles[cid.index()].key;
        if let Some(kv) = &mut self.key_virt {
            if let Some(slot) = kv
                .bindings
                .iter_mut()
                .find(|(_, b)| b.is_some_and(|(c, _)| c == cid))
            {
                slot.1 = None;
            }
        } else if key != PARKED_KEY {
            self.free_keys.push(key);
        }

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
        self.containment_push(format!(
            "containment: quarantined {name} ({cid}): {reason} \
             [{pages_reclaimed} page(s) reclaimed, {} window(s) destroyed]",
            windows.len(),
        ));
    }

    /// Microreboots a quarantined cubicle: re-runs the trusted loader's
    /// install path for every component slot in the cubicle (fresh code,
    /// data, heap and stack pages under a fresh key — forbidden-
    /// instruction scan included), invokes each component's
    /// [`Component::on_restart`] hook so host-side state referring to the
    /// reclaimed memory is dropped, and marks the cubicle active with a
    /// bumped generation. Entry IDs and trampolines are stable across
    /// the reboot, so peers' cached proxies stay valid.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchCubicle`] for an unknown ID,
    /// [`CubicleError::InvalidArgument`] when the cubicle is not
    /// quarantined or still has in-flight frames on the call stack,
    /// [`CubicleError::OutOfKeys`] when no key is available.
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
                self.containment_push(format!(
                    "containment: restart of {name} ({cid}) refused permanently \
                     after {} strikes",
                    policy.max_restarts
                ));
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

        // Fresh key, drawn exactly like the loader draws one.
        let shared = self.cubicles[cid.index()].shared;
        let key = match &mut self.key_virt {
            None => match self.free_keys.pop() {
                Some(key) => key,
                None if (self.next_key as usize) < NUM_KEYS => {
                    let key = ProtKey::new(self.next_key).expect("bounded above");
                    self.next_key += 1;
                    key
                }
                None => return Err(CubicleError::OutOfKeys),
            },
            Some(kv) => match kv.bindings.iter_mut().find(|(_, b)| b.is_none()) {
                Some(slot) => {
                    let tick = if shared { u64::MAX } else { 0 };
                    slot.1 = Some((cid, tick));
                    slot.0
                }
                None if shared => return Err(CubicleError::OutOfKeys),
                None => PARKED_KEY,
            },
        };
        self.cubicles[cid.index()].key = key;

        // Replay the trusted builder's install path per slot, in slot
        // order (defence in depth: the image is re-scanned even though it
        // was verified at original load time).
        for &slot in &slots {
            let info = &self.reloads[slot];
            if let Some(bad) = info.code.scan_forbidden() {
                return Err(CubicleError::ForbiddenInstruction(bad));
            }
            let info = ReloadInfo {
                cid: info.cid,
                code: info.code.clone(),
                data_pages: info.data_pages,
                heap_pages: info.heap_pages,
                stack_pages: info.stack_pages,
            };
            self.map_component_segments(&info);
        }

        // Belt and braces: quarantine already purged the offender's
        // grants, and none can have formed since; make sure the fresh
        // incarnation starts with no remembered authority either way.
        self.grant_cache_retain("restart:grant_cache.retain", |&(accessor, _), e| {
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
        self.stats.restarts += 1;
        self.trace_push(TraceEvent::Restart {
            cubicle: cid,
            generation,
        });
        self.containment_push(format!(
            "containment: restarted {name} ({cid}), generation {generation}"
        ));
        Ok(())
    }

    // =====================================================================
    // Checked memory access (components' only door to data)
    // =====================================================================

    /// Reads `buf.len()` bytes at `addr` with the current cubicle's
    /// privileges, transparently running trap-and-map on faults.
    ///
    /// # Errors
    ///
    /// [`CubicleError::WindowDenied`] when the monitor refuses the access,
    /// [`CubicleError::MachineFault`] for unmapped/invalid memory.
    pub fn read(&mut self, addr: VAddr, buf: &mut [u8]) -> Result<()> {
        self.watchdog_check()?;
        let budget = buf.len() / PAGE_SIZE + 3;
        for _ in 0..budget {
            match self.machine.read(addr, buf) {
                Ok(()) => return Ok(()),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Writes `data` at `addr` with the current cubicle's privileges.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn write(&mut self, addr: VAddr, data: &[u8]) -> Result<()> {
        self.watchdog_check()?;
        let budget = data.len() / PAGE_SIZE + 3;
        for _ in 0..budget {
            match self.machine.write(addr, data) {
                Ok(()) => return Ok(()),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// The vector is filled straight from the simulated frames into
    /// uninitialised capacity (via the machine's append path), skipping
    /// the zero-fill a `vec![0; len]` + `read` sequence would pay. The
    /// charged cycles are identical to [`System::read`].
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn read_vec(&mut self, addr: VAddr, len: usize) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(len);
        self.read_append(addr, len, &mut buf)?;
        Ok(buf)
    }

    /// Reads `len` bytes at `addr` into `out`, replacing its contents but
    /// keeping its allocation — the zero-allocation sibling of
    /// [`System::read_vec`] for callers that hold a reusable buffer.
    ///
    /// # Errors
    ///
    /// As [`System::read`]. On error `out` is left empty.
    pub fn read_into(&mut self, addr: VAddr, len: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        self.read_append(addr, len, out)
    }

    /// Reads `len` bytes at `addr` and hands them to `f` in a buffer
    /// recycled across calls, so per-argument marshalling in cross-call
    /// handlers allocates nothing in steady state. The closure may use
    /// the `System` freely (including nested `with_read` calls — each
    /// nesting level gets its own pooled buffer).
    ///
    /// # Errors
    ///
    /// As [`System::read`]; `f` is not called when the read faults.
    pub fn with_read<R>(
        &mut self,
        addr: VAddr,
        len: usize,
        f: impl FnOnce(&mut System, &[u8]) -> Result<R>,
    ) -> Result<R> {
        let mut buf = self.scratch_pool.pop().unwrap_or_default();
        buf.clear();
        let out = match self.read_append(addr, len, &mut buf) {
            Ok(()) => f(self, &buf),
            Err(e) => Err(e),
        };
        if self.scratch_pool.len() < 4 {
            self.scratch_pool.push(buf);
        }
        out
    }

    /// Trap-and-map retry loop shared by the appending read paths.
    fn read_append(&mut self, addr: VAddr, len: usize, out: &mut Vec<u8>) -> Result<()> {
        self.watchdog_check()?;
        let budget = len / PAGE_SIZE + 3;
        for _ in 0..budget {
            // A faulted append leaves `out` untouched, so retrying is safe.
            match self.machine.read_append(addr, len, out) {
                Ok(()) => return Ok(()),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn read_u64(&mut self, addr: VAddr) -> Result<u64> {
        self.watchdog_check()?;
        for _ in 0..3 {
            match self.machine.read_u64(addr) {
                Ok(v) => return Ok(v),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`System::write`].
    pub fn write_u64(&mut self, addr: VAddr, v: u64) -> Result<()> {
        self.watchdog_check()?;
        for _ in 0..3 {
            match self.machine.write_u64(addr, v) {
                Ok(()) => return Ok(()),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn read_u32(&mut self, addr: VAddr) -> Result<u32> {
        self.watchdog_check()?;
        for _ in 0..3 {
            match self.machine.read_u32(addr) {
                Ok(v) => return Ok(v),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`System::write`].
    pub fn write_u32(&mut self, addr: VAddr, v: u32) -> Result<()> {
        self.watchdog_check()?;
        for _ in 0..3 {
            match self.machine.write_u32(addr, v) {
                Ok(()) => return Ok(()),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Copies `len` bytes from `src` to `dst` (both in simulated memory),
    /// subject to the current cubicle's privileges on both sides.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn copy(&mut self, dst: VAddr, src: VAddr, len: usize) -> Result<()> {
        let mut remaining = len;
        let mut s = src;
        let mut d = dst;
        let mut tmp = [0u8; PAGE_SIZE];
        while remaining > 0 {
            let chunk = remaining.min(PAGE_SIZE);
            self.read(s, &mut tmp[..chunk])?;
            self.write(d, &tmp[..chunk])?;
            remaining -= chunk;
            s += chunk;
            d += chunk;
        }
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `byte`.
    ///
    /// # Errors
    ///
    /// As [`System::write`].
    pub fn fill(&mut self, addr: VAddr, byte: u8, len: usize) -> Result<()> {
        let tmp = [byte; PAGE_SIZE];
        let mut remaining = len;
        let mut d = addr;
        while remaining > 0 {
            let chunk = remaining.min(PAGE_SIZE);
            self.write(d, &tmp[..chunk])?;
            remaining -= chunk;
            d += chunk;
        }
        Ok(())
    }

    // =====================================================================
    // Memory management primitives (monitor services, paper §4)
    // =====================================================================

    /// Allocates `size` bytes (aligned to `align`) from the current
    /// cubicle's heap sub-allocator, growing it with fresh monitor-granted
    /// pages when needed.
    ///
    /// # Errors
    ///
    /// [`CubicleError::OutOfMemory`] if the grant fails (address space
    /// exhaustion, which the simulation never hits in practice).
    pub fn heap_alloc(&mut self, size: usize, align: usize) -> Result<VAddr> {
        let cid = self.current_cubicle();
        self.heap_alloc_for(cid, size, align)
    }

    /// [`System::heap_alloc`] on behalf of an explicit cubicle (used by
    /// boot code constructing another cubicle's initial state).
    ///
    /// # Errors
    ///
    /// As [`System::heap_alloc`], plus [`CubicleError::NoSuchCubicle`]
    /// and [`CubicleError::Quarantined`] — the monitor grants no memory
    /// to a quarantined cubicle.
    pub fn heap_alloc_for(&mut self, cid: CubicleId, size: usize, align: usize) -> Result<VAddr> {
        self.watchdog_check()?;
        if cid.index() >= self.cubicles.len() {
            return Err(CubicleError::NoSuchCubicle(cid));
        }
        if self.cubicles[cid.index()].is_quarantined() {
            return Err(CubicleError::Quarantined { cubicle: cid });
        }
        // The heap ledger (sub-allocator free lists, grant accounting)
        // is monitor metadata shared across cores.
        let start = self.lock_acquire(MonitorLock::Ledger);
        let result = self.heap_alloc_locked(cid, size, align);
        self.lock_release(MonitorLock::Ledger, start);
        result
    }

    fn heap_alloc_locked(&mut self, cid: CubicleId, size: usize, align: usize) -> Result<VAddr> {
        self.race_note(RaceObject::Ledger, true, "heap_alloc_locked:heap.alloc");
        if let Some(addr) = self.cubicles[cid.index()].heap.alloc(size, align) {
            if self.tracer.is_some() {
                self.trace_push(TraceEvent::HeapAlloc {
                    cubicle: cid,
                    addr,
                    bytes: size,
                });
            }
            return Ok(addr);
        }
        // Grow: grant enough pages for the request (plus slack), unless
        // the cubicle's heap cap (a fault-injection knob) says no.
        let pages = size.div_ceil(PAGE_SIZE).max(16);
        if let Some(limit) = self.cubicles[cid.index()].heap_limit_pages {
            if self.cubicles[cid.index()].heap_pages_granted + pages > limit {
                return Err(CubicleError::OutOfMemory(cid));
            }
        }
        let key = self.cubicles[cid.index()].key;
        let base = self.map_fresh(pages, key, PageFlags::rw(), cid, RegionType::Heap);
        self.cubicles[cid.index()]
            .heap
            .add_region(base, pages * PAGE_SIZE);
        let addr = self.cubicles[cid.index()]
            .heap
            .alloc(size, align)
            .ok_or(CubicleError::OutOfMemory(cid))?;
        if self.tracer.is_some() {
            self.trace_push(TraceEvent::HeapAlloc {
                cubicle: cid,
                addr,
                bytes: size,
            });
        }
        Ok(addr)
    }

    /// Frees a heap allocation of the current cubicle.
    ///
    /// # Errors
    ///
    /// [`CubicleError::InvalidArgument`] for a pointer that is not a live
    /// allocation of this cubicle.
    pub fn heap_free(&mut self, addr: VAddr) -> Result<()> {
        let cid = self.current_cubicle();
        let start = self.lock_acquire(MonitorLock::Ledger);
        self.race_note(RaceObject::Ledger, true, "heap_free:heap.free");
        let freed = self.cubicles[cid.index()]
            .heap
            .free(addr)
            .map(|_| ())
            .map_err(|_| CubicleError::InvalidArgument("heap_free: not a live allocation"));
        self.lock_release(MonitorLock::Ledger, start);
        freed?;
        if self.tracer.is_some() {
            self.trace_push(TraceEvent::HeapFree { cubicle: cid, addr });
        }
        Ok(())
    }

    /// Allocates `len` bytes on the current cubicle's stack (16-byte
    /// aligned), like a local variable in the original C components.
    /// Balance with [`System::stack_free`].
    ///
    /// # Errors
    ///
    /// [`CubicleError::OutOfMemory`] on stack overflow.
    pub fn stack_alloc(&mut self, len: usize) -> Result<VAddr> {
        let cid = self.current_cubicle();
        let c = &mut self.cubicles[cid.index()];
        let len = len.div_ceil(16) * 16;
        if c.stack_used + len > c.stack_len {
            return Err(CubicleError::OutOfMemory(cid));
        }
        let addr = c.stack_base + c.stack_used;
        c.stack_used += len;
        Ok(addr)
    }

    /// Releases the most recent `len` bytes of stack allocation.
    pub fn stack_free(&mut self, len: usize) {
        let cid = self.current_cubicle();
        let c = &mut self.cubicles[cid.index()];
        let len = len.div_ceil(16) * 16;
        c.stack_used = c.stack_used.saturating_sub(len);
    }

    /// Allocates `pages` fresh, page-aligned pages owned by the current
    /// cubicle (coarse allocations; what the `ALLOC` component hands out).
    pub fn alloc_pages(&mut self, pages: usize) -> VAddr {
        let cid = self.current_cubicle();
        let key = self.cubicles[cid.index()].key;
        // Heap-region mappings update `heap_pages_granted` inside
        // `map_fresh` — ledger state, racing with `heap_alloc`/`heap_free`
        // on other cores. (CubicleSan caught this exact elision: ALLOC
        // grants from a non-zero core raced the core-0 free path.)
        let start = self.lock_acquire(MonitorLock::Ledger);
        let base = self.map_fresh(pages.max(1), key, PageFlags::rw(), cid, RegionType::Heap);
        self.lock_release(MonitorLock::Ledger, start);
        base
    }

    /// Transfers ownership of the pages covering `[addr, addr+len)` from
    /// the current cubicle to `to`, retagging them. Used by the
    /// system-wide allocator component to grant coarse allocations to its
    /// callers ("pages are strictly assigned an owner ... at allocation
    /// time", §5.3).
    ///
    /// # Errors
    ///
    /// [`CubicleError::NotOwner`] when a covered page is not owned by the
    /// current cubicle, [`CubicleError::NoSuchCubicle`] /
    /// [`CubicleError::Quarantined`] for a dead grantee.
    pub fn grant_pages_to(&mut self, addr: VAddr, len: usize, to: CubicleId) -> Result<()> {
        let cid = self.current_cubicle();
        if to.index() >= self.cubicles.len() {
            return Err(CubicleError::NoSuchCubicle(to));
        }
        if self.cubicles[to.index()].is_quarantined() {
            return Err(CubicleError::Quarantined { cubicle: to });
        }
        // Check and transfer under one page-metadata section: a fault
        // resolving concurrently on another core must not observe a
        // half-transferred range.
        let pstart = self.lock_acquire(MonitorLock::PageMeta);
        self.race_note(RaceObject::PageMeta, false, "grant_pages_to:page_meta.get");
        let mut result = Ok(());
        for page in pages_covering(addr, len) {
            match self.page_meta.get(&page) {
                Some(m) if m.owner == cid => {}
                _ => {
                    result = Err(CubicleError::NotOwner { addr: page.base() });
                    break;
                }
            }
        }
        if result.is_ok() {
            let key = self.cubicles[to.index()].key;
            self.race_note(
                RaceObject::PageMeta,
                true,
                "grant_pages_to:page_meta.get_mut",
            );
            for page in pages_covering(addr, len) {
                let m = self.page_meta.get_mut(&page).expect("checked above");
                m.owner = to;
                m.holder = to;
                m.via = None;
                if self.mode.mpk_active() {
                    self.machine.set_page_key(page.base(), key).expect("mapped");
                } else {
                    self.machine
                        .set_page_key_at_load(page.base(), key)
                        .expect("mapped");
                }
            }
        }
        self.lock_release(MonitorLock::PageMeta, pstart);
        result?;
        // Ownership changed hands: any remembered grant over these pages
        // (for any accessor) is obsolete.
        if len > 0 {
            let first = addr.page();
            let last = VAddr::new(addr.raw() + (len as u64 - 1)).page();
            self.grant_cache_retain("grant_pages_to:grant_cache.retain", |&(_, page), _| {
                page.0 < first.0 || page.0 > last.0
            });
        }
        Ok(())
    }

    // =====================================================================
    // Window API (paper Table 1)
    // =====================================================================

    /// Opens a window-management critical section: counts the op,
    /// acquires the windows lock and charges the monitor-call cost.
    /// Balance with [`System::window_op_end`], which releases the lock —
    /// the section must cover the descriptor mutation itself, or a fault
    /// searching the array on another core races with it.
    fn window_op_begin(&mut self) -> Option<u64> {
        self.stats.window_ops += 1;
        if self.mode.acls_active() {
            // Window management is a call into the trusted monitor
            // cubicle: trampoline + PKRU switches + the operation itself.
            // Descriptor mutation serialises on the windows lock across
            // cores.
            let start = self.lock_acquire(MonitorLock::Windows);
            let cost = *self.machine.cost_model();
            self.machine.charge(cost.trampoline + 2 * cost.wrpkru + 25);
            Some(start)
        } else {
            None
        }
    }

    /// Closes the critical section opened by [`System::window_op_begin`].
    fn window_op_end(&mut self, start: Option<u64>) {
        if let Some(start) = start {
            self.lock_release(MonitorLock::Windows, start);
        }
    }

    /// Records a completed window operation in the trace (no-op when
    /// tracing is disabled).
    fn trace_window_op(&mut self, op: WindowOpKind, wid: WindowId, peer: Option<CubicleId>) {
        if self.tracer.is_some() {
            self.trace_push(TraceEvent::WindowOp { op, wid, peer });
        }
    }

    /// `cubicle_window_init`: creates an empty window owned by the
    /// current cubicle.
    pub fn window_init(&mut self) -> WindowId {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::Windows, true, "window_init:windows.push");
        let wid = self.cubicles[cid.index()].window_init();
        self.window_op_end(wstart);
        self.trace_window_op(WindowOpKind::Init, wid, None);
        wid
    }

    /// `cubicle_window_add`: associates `[ptr, ptr+len)` with window
    /// `wid`.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`] or [`CubicleError::NotOwner`] when
    /// the range is not owned by the calling cubicle.
    pub fn window_add(&mut self, wid: WindowId, ptr: VAddr, len: usize) -> Result<()> {
        // The ownership check reads page_meta, and fault resolution
        // searches window descriptors while holding page_meta — acquire
        // in the same page_meta → windows order so the lock graph stays
        // acyclic.
        let pstart = self.lock_acquire(MonitorLock::PageMeta);
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::PageMeta, false, "window_add:page_meta.get");
        let mut result = Ok(());
        for page in pages_covering(ptr, len) {
            match self.page_meta.get(&page) {
                Some(m) if m.owner == cid => {}
                _ => {
                    result = Err(CubicleError::NotOwner { addr: page.base() });
                    break;
                }
            }
        }
        if result.is_ok() {
            self.race_note(RaceObject::Windows, true, "window_add:window_mut.add_range");
            match self.cubicles[cid.index()].window_mut(wid) {
                Some(w) => w.add_range(ptr, len),
                None => result = Err(CubicleError::NoSuchWindow(wid)),
            }
        }
        self.window_op_end(wstart);
        self.lock_release(MonitorLock::PageMeta, pstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Add, wid, None);
        }
        result
    }

    /// `cubicle_window_remove`: removes the range previously added at
    /// `ptr`.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`] when `wid` does not exist or
    /// [`CubicleError::InvalidArgument`] when no range starts at `ptr`.
    pub fn window_remove(&mut self, wid: WindowId, ptr: VAddr) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_remove:window_mut.remove_range",
        );
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            None => Err(CubicleError::NoSuchWindow(wid)),
            Some(w) => {
                if w.remove_range(ptr) {
                    Ok(())
                } else {
                    Err(CubicleError::InvalidArgument(
                        "window_remove: no range at ptr",
                    ))
                }
            }
        };
        if result.is_ok() {
            // The window narrowed: drop every grant it authorised (pages
            // outside the removed range will simply re-resolve and
            // repopulate — correctness over cleverness).
            self.grant_cache_retain("window_remove:grant_cache.retain", |_, e| {
                !(e.owner == cid && e.via == wid)
            });
        }
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Remove, wid, None);
        }
        result
    }

    /// `cubicle_window_open`: allows `peer` to access the window.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_open(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::Windows, true, "window_open:window_mut.open_for");
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            Some(w) => {
                w.open_for(peer);
                Ok(())
            }
            None => Err(CubicleError::NoSuchWindow(wid)),
        };
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Open, wid, Some(peer));
        }
        result
    }

    /// `cubicle_window_close`: disallows `peer`.
    ///
    /// Closing is *lazy*: pages already retagged to the peer stay
    /// readable by it until another authorised cubicle touches them —
    /// the paper's causal tag consistency (§5.6).
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_close(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_close:window_mut.close_for",
        );
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            Some(w) => {
                w.close_for(peer);
                Ok(())
            }
            None => Err(CubicleError::NoSuchWindow(wid)),
        };
        if result.is_ok() {
            // Closing is lazy for already-retagged pages, but the
            // *authority* is gone: the peer's next fault must take the
            // full search and be denied, not ride a cached grant.
            self.grant_cache_retain("window_close:grant_cache.retain", |&(accessor, _), e| {
                !(e.owner == cid && e.via == wid && accessor == peer)
            });
        }
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Close, wid, Some(peer));
        }
        result
    }

    /// `cubicle_window_close_all`: closes the window for every cubicle.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_close_all(&mut self, wid: WindowId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_close_all:window_mut.close_all",
        );
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            Some(w) => {
                w.close_all();
                Ok(())
            }
            None => Err(CubicleError::NoSuchWindow(wid)),
        };
        if result.is_ok() {
            self.grant_cache_retain("window_close_all:grant_cache.retain", |_, e| {
                !(e.owner == cid && e.via == wid)
            });
        }
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::CloseAll, wid, None);
        }
        result
    }

    /// `cubicle_window_destroy`: destroys the window.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_destroy(&mut self, wid: WindowId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_destroy:windows.swap_remove",
        );
        let result = if self.cubicles[cid.index()].window_destroy(wid) {
            self.grant_cache_retain("window_destroy:grant_cache.retain", |_, e| {
                !(e.owner == cid && e.via == wid)
            });
            Ok(())
        } else {
            Err(CubicleError::NoSuchWindow(wid))
        };
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Destroy, wid, None);
        }
        result
    }

    /// Verifies the access `kind` at `[addr, addr+len)` is possible under
    /// the current cubicle without performing it (diagnostics/tests).
    ///
    /// # Errors
    ///
    /// The fault the access would raise, if any (window resolution not
    /// attempted).
    pub fn probe_access(&self, addr: VAddr, len: usize, kind: AccessKind) -> Result<()> {
        self.machine
            .check_access(addr, len, kind)
            .map_err(CubicleError::MachineFault)
    }

    // =====================================================================
    // Trace exporters
    // =====================================================================

    /// Exports the trace as Chrome `trace_event` JSON (loadable in
    /// Perfetto / `chrome://tracing`). Cross-calls become B/E duration
    /// events on the *callee's* per-cubicle "thread"; every other event
    /// is an instant event on the cubicle it concerns. Timestamps are
    /// simulated cycles, reported in the format's microsecond field.
    ///
    /// Returns `"{}"`-style empty JSON when tracing is disabled.
    pub fn export_chrome_trace(&mut self) -> String {
        self.pump_machine_events();
        let num_cores = self.machine.num_cores();
        let Some(tracer) = &self.tracer else {
            return "{\"traceEvents\":[]}".to_string();
        };
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        // One Perfetto "process" per simulated core; a single-core run
        // renders exactly the classic single-process trace.
        push(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"cubicleos\"}}"
                .to_string(),
            &mut out,
        );
        for core in 1..num_cores {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{core},\"tid\":0,\
                     \"args\":{{\"name\":\"cubicleos core {core}\"}}}}"
                ),
                &mut out,
            );
        }
        for c in &self.cubicles {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    c.id.index(),
                    json_escape(&c.name),
                ),
                &mut out,
            );
        }
        for core in 1..num_cores {
            for c in &self.cubicles {
                push(
                    format!(
                        "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{core},\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        c.id.index(),
                        json_escape(&c.name),
                    ),
                    &mut out,
                );
            }
        }
        for r in tracer.buf.records() {
            let line = match r.event {
                TraceEvent::CrossCallEnter {
                    span,
                    parent,
                    caller,
                    callee,
                    entry,
                } => {
                    let name = self
                        .entries
                        .get(entry.index())
                        .map_or_else(|| entry.to_string(), |d| d.name.clone());
                    if caller != callee {
                        // Cross-cubicle control transfer: a flow arrow
                        // from the caller's track to the callee's track,
                        // keyed by the span id.
                        push(
                            format!(
                                "{{\"ph\":\"s\",\"id\":{span},\"name\":\"cross_call\",\
                                 \"cat\":\"flow\",\"pid\":{},\"tid\":{},\"ts\":{}}}",
                                r.core,
                                caller.index(),
                                r.at,
                            ),
                            &mut out,
                        );
                        push(
                            format!(
                                "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{span},\
                                 \"name\":\"cross_call\",\"cat\":\"flow\",\"pid\":{},\
                                 \"tid\":{},\"ts\":{}}}",
                                r.core,
                                callee.index(),
                                r.at,
                            ),
                            &mut out,
                        );
                    }
                    format!(
                        "{{\"ph\":\"B\",\"name\":\"{}\",\"cat\":\"cross_call\",\"pid\":{},\
                         \"tid\":{},\"ts\":{},\"args\":{{\"caller\":\"{}\",\"seq\":{},\
                         \"span\":{span},\"parent\":{parent}}}}}",
                        json_escape(&name),
                        r.core,
                        callee.index(),
                        r.at,
                        json_escape(&self.cubicles[caller.index()].name),
                        r.seq,
                    )
                }
                TraceEvent::CrossCallExit { span, callee, .. } => format!(
                    "{{\"ph\":\"E\",\"pid\":{},\"tid\":{},\"ts\":{},\
                     \"args\":{{\"span\":{span}}}}}",
                    r.core,
                    callee.index(),
                    r.at,
                ),
                TraceEvent::FaultResolved {
                    addr,
                    owner,
                    accessor,
                    kind,
                } => instant(
                    r,
                    "fault_resolved",
                    "fault",
                    accessor.index(),
                    &format!(
                        "\"addr\":\"{addr}\",\"owner\":\"{}\",\"access\":\"{}\"",
                        json_escape(&self.cubicles[owner.index()].name),
                        kind,
                    ),
                ),
                TraceEvent::FaultDenied {
                    addr,
                    owner,
                    accessor,
                    kind,
                } => instant(
                    r,
                    "fault_denied",
                    "fault",
                    accessor.index(),
                    &format!(
                        "\"addr\":\"{addr}\",\"owner\":\"{}\",\"access\":\"{}\"",
                        json_escape(&self.cubicles[owner.index()].name),
                        kind,
                    ),
                ),
                TraceEvent::Retag { addr, from, to } => instant(
                    r,
                    "retag",
                    "mpk",
                    self.page_meta
                        .get(&addr.page())
                        .map_or(0, |m| m.owner.index()),
                    &format!("\"addr\":\"{addr}\",\"from\":\"{from}\",\"to\":\"{to}\""),
                ),
                TraceEvent::WrPkru { pkru } => instant(
                    r,
                    "wrpkru",
                    "mpk",
                    0,
                    &format!("\"pkru\":\"{:#010x}\"", pkru.raw()),
                ),
                TraceEvent::WindowOp { op, wid, peer } => instant(
                    r,
                    &format!("window_{}", op.as_str()),
                    "window",
                    0,
                    &match peer {
                        Some(p) => format!(
                            "\"wid\":{},\"peer\":\"{}\"",
                            wid.0,
                            json_escape(&self.cubicles[p.index()].name)
                        ),
                        None => format!("\"wid\":{}", wid.0),
                    },
                ),
                TraceEvent::HeapAlloc {
                    cubicle,
                    addr,
                    bytes,
                } => instant(
                    r,
                    "heap_alloc",
                    "mem",
                    cubicle.index(),
                    &format!("\"addr\":\"{addr}\",\"bytes\":{bytes}"),
                ),
                TraceEvent::HeapFree { cubicle, addr } => instant(
                    r,
                    "heap_free",
                    "mem",
                    cubicle.index(),
                    &format!("\"addr\":\"{addr}\""),
                ),
                TraceEvent::StackCopy {
                    caller,
                    callee,
                    bytes,
                } => instant(
                    r,
                    "stack_copy",
                    "mem",
                    callee.index(),
                    &format!(
                        "\"caller\":\"{}\",\"bytes\":{bytes}",
                        json_escape(&self.cubicles[caller.index()].name)
                    ),
                ),
                // Quarantine opens a span on the cubicle's track; the
                // matching Restart closes it, so the quarantined period
                // shows as one solid block in Perfetto.
                TraceEvent::Quarantine { cubicle } => format!(
                    "{{\"ph\":\"B\",\"name\":\"quarantined\",\"cat\":\"containment\",\
                     \"pid\":{},\"tid\":{},\"ts\":{}}}",
                    r.core,
                    cubicle.index(),
                    r.at,
                ),
                TraceEvent::Restart {
                    cubicle,
                    generation,
                } => format!(
                    "{{\"ph\":\"E\",\"pid\":{},\"tid\":{},\"ts\":{},\
                     \"args\":{{\"generation\":{generation}}}}}",
                    r.core,
                    cubicle.index(),
                    r.at,
                ),
                TraceEvent::FaultContained {
                    callee,
                    caller,
                    errno,
                } => instant(
                    r,
                    "fault_contained",
                    "containment",
                    caller.index(),
                    &format!(
                        "\"callee\":\"{}\",\"errno\":{errno}",
                        json_escape(&self.cubicles[callee.index()].name)
                    ),
                ),
                TraceEvent::PageReclaim { addr, key } => instant(
                    r,
                    "page_reclaim",
                    "containment",
                    0,
                    &format!("\"addr\":\"{addr}\",\"key\":\"{key}\""),
                ),
            };
            push(line, &mut out);
        }
        out.push_str("\n]}");
        out
    }

    /// Exports all counters and histograms in the Prometheus text
    /// exposition format. Works with tracing disabled too (counters
    /// only; histograms need the tracer).
    pub fn export_prometheus(&mut self) -> String {
        self.pump_machine_events();
        let rows = self.ledger();
        let mut out = String::new();
        let counter = |name: &str, help: &str, v: u64, out: &mut String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        let per_cubicle = |name: &str,
                           help: &str,
                           kind: &str,
                           f: &dyn Fn(&LedgerRow) -> u64,
                           out: &mut String| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for r in &rows {
                out.push_str(&format!(
                    "{name}{{cubicle=\"{}\"}} {}\n",
                    prom_escape(&r.name),
                    f(r),
                ));
            }
        };
        let s = &self.stats;
        counter(
            "cubicle_cross_calls_total",
            "Cross-cubicle calls dispatched.",
            s.cross_calls,
            &mut out,
        );
        counter(
            "cubicle_faults_resolved_total",
            "Trap-and-map faults resolved.",
            s.faults_resolved,
            &mut out,
        );
        counter(
            "cubicle_faults_denied_total",
            "Trap-and-map faults denied.",
            s.faults_denied,
            &mut out,
        );
        counter(
            "cubicle_acl_probes_total",
            "Window descriptors probed.",
            s.acl_probes,
            &mut out,
        );
        counter(
            "cubicle_window_ops_total",
            "Window API operations.",
            s.window_ops,
            &mut out,
        );
        counter(
            "cubicle_stack_bytes_copied_total",
            "Stack argument bytes copied by trampolines.",
            s.stack_bytes_copied,
            &mut out,
        );
        counter(
            "cubicle_ipc_msgs_total",
            "IPC baseline messages.",
            s.ipc_msgs,
            &mut out,
        );
        counter(
            "cubicle_ipc_bytes_total",
            "IPC baseline payload bytes.",
            s.ipc_bytes,
            &mut out,
        );
        counter(
            "cubicle_quarantines_total",
            "Cubicles quarantined after a contained fault.",
            s.quarantines,
            &mut out,
        );
        counter(
            "cubicle_restarts_total",
            "Microreboots of quarantined cubicles.",
            s.restarts,
            &mut out,
        );
        counter(
            "cubicle_unwound_frames_total",
            "Cross-call frames unwound while containing a fault.",
            s.unwound_frames,
            &mut out,
        );
        counter(
            "cubicle_contained_faults_total",
            "Faults converted to an errno at a healthy caller.",
            s.contained_faults,
            &mut out,
        );
        counter(
            "cubicle_watchdog_trips_total",
            "Callees quarantined for exceeding their cycle budget.",
            s.watchdog_trips,
            &mut out,
        );
        counter(
            "cubicle_batch_dispatches_total",
            "Batched cross-call dispatches (one crossing per batch).",
            s.batch_dispatches,
            &mut out,
        );
        counter(
            "cubicle_batched_calls_total",
            "Entry invocations carried inside batched dispatches.",
            s.batched_calls,
            &mut out,
        );
        counter(
            "cubicle_grant_cache_hits_total",
            "Trap-and-map faults answered by the window-grant cache.",
            s.grant_cache_hits,
            &mut out,
        );
        counter(
            "cubicle_grant_cache_misses_total",
            "Grant-cache misses that took the linear window search.",
            s.grant_cache_misses,
            &mut out,
        );
        counter(
            "cubicle_grant_cache_invalidations_total",
            "Grant-cache entries dropped by precise invalidation.",
            s.grant_cache_invalidations,
            &mut out,
        );
        counter(
            "cubicle_wal_replays_total",
            "Write-ahead-log replays performed on database open.",
            s.wal_replays,
            &mut out,
        );
        counter(
            "cubicle_wal_frames_recovered_total",
            "Committed WAL frames applied during replays.",
            s.wal_frames_recovered,
            &mut out,
        );
        counter(
            "cubicle_wal_torn_tails_discarded_total",
            "Torn or uncommitted WAL tails discarded during replays.",
            s.wal_torn_tails_discarded,
            &mut out,
        );
        counter(
            "cubicle_ramfs_journal_replays_total",
            "RAMFS inode-journal replays after microreboots.",
            s.ramfs_journal_replays,
            &mut out,
        );
        counter(
            "cubicle_group_commit_batches_total",
            "Group-commit syncs covering two or more transactions.",
            s.group_commit_batches,
            &mut out,
        );
        let m = self.machine.stats();
        counter(
            "cubicle_wrpkru_total",
            "PKRU register writes.",
            m.wrpkru,
            &mut out,
        );
        counter(
            "cubicle_retags_total",
            "Page key re-assignments (pkey_mprotect).",
            m.retags,
            &mut out,
        );
        counter(
            "cubicle_machine_faults_total",
            "Protection faults raised.",
            m.faults,
            &mut out,
        );
        counter("cubicle_mem_reads_total", "Data loads.", m.reads, &mut out);
        counter(
            "cubicle_mem_writes_total",
            "Data stores.",
            m.writes,
            &mut out,
        );
        counter(
            "cubicle_sim_tlb_hits_total",
            "Simulator software-TLB hits (host-side; no cycle effect).",
            m.tlb_hits,
            &mut out,
        );
        counter(
            "cubicle_sim_tlb_misses_total",
            "Simulator software-TLB misses, i.e. full page-table walks.",
            m.tlb_misses,
            &mut out,
        );
        counter(
            "cubicle_page_reclaims_total",
            "Pages reclaimed (unmapped) by the quarantine path.",
            m.unmaps,
            &mut out,
        );
        counter(
            "cubicle_cycles_total",
            "Simulated cycle counter.",
            self.machine.now(),
            &mut out,
        );

        // Per-core counters (one series per simulated core).
        let cores = self.machine.num_cores();
        out.push_str(
            "# HELP cubicle_core_cycles Per-core simulated cycle counter.\n\
             # TYPE cubicle_core_cycles counter\n",
        );
        for i in 0..cores {
            out.push_str(&format!(
                "cubicle_core_cycles{{core=\"{i}\"}} {}\n",
                self.machine.core_cycles(i)
            ));
        }
        type Series<S> = (&'static str, &'static str, fn(&S) -> u64);
        let core_series: [Series<CoreStats>; 4] = [
            (
                "cubicle_core_tlb_hits_total",
                "Software-TLB hits on this core.",
                |s| s.tlb_hits,
            ),
            (
                "cubicle_core_tlb_misses_total",
                "Software-TLB misses on this core.",
                |s| s.tlb_misses,
            ),
            (
                "cubicle_core_cross_calls_total",
                "Cross-calls dispatched from this core.",
                |s| s.cross_calls,
            ),
            (
                "cubicle_core_wrpkru_total",
                "PKRU writes performed on this core.",
                |s| s.wrpkru,
            ),
        ];
        for (name, help, get) in core_series {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for i in 0..cores {
                let s = self.machine.core_stats(i);
                out.push_str(&format!("{name}{{core=\"{i}\"}} {}\n", get(&s)));
            }
        }

        // Monitor lock counters (one series per lock).
        let lock_series: [Series<MonitorLockStats>; 3] = [
            (
                "cubicle_lock_acquisitions_total",
                "Monitor lock acquisitions.",
                |s| s.acquisitions,
            ),
            (
                "cubicle_lock_contended_total",
                "Monitor lock acquisitions that spun (simulated contention).",
                |s| s.contended,
            ),
            (
                "cubicle_lock_wait_cycles_total",
                "Simulated cycles spent spinning on monitor locks.",
                |s| s.wait_cycles,
            ),
        ];
        let lock_stats = self.monitor_lock_stats();
        for (name, help, get) in lock_series {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for st in &lock_stats {
                out.push_str(&format!("{name}{{lock=\"{}\"}} {}\n", st.name, get(st)));
            }
        }

        // CubicleSan sanitizer counters, only while detection is on —
        // feature-off exports are byte-identical to the pre-sanitizer
        // kernel.
        if self.race.is_some() {
            out.push_str(&format!(
                "# HELP cubicle_san_races_total Data races reported by CubicleSan.\n\
                 # TYPE cubicle_san_races_total counter\n\
                 cubicle_san_races_total {}\n\
                 # HELP cubicle_san_lockorder_edges Distinct monitor lock-order edges observed.\n\
                 # TYPE cubicle_san_lockorder_edges gauge\n\
                 cubicle_san_lockorder_edges {}\n\
                 # HELP cubicle_san_lockset_violations_total Eraser lockset violations.\n\
                 # TYPE cubicle_san_lockset_violations_total counter\n\
                 cubicle_san_lockset_violations_total {}\n\
                 # HELP cubicle_san_lockorder_cyclic 1 when the lock-order graph has a cycle.\n\
                 # TYPE cubicle_san_lockorder_cyclic gauge\n\
                 cubicle_san_lockorder_cyclic {}\n",
                self.stats.race_reports,
                self.stats.lockorder_edges,
                self.stats.lockset_violations,
                u64::from(self.lockorder_cycle().is_some()),
            ));
        }

        // Per-edge call counters (available without tracing).
        out.push_str(
            "# HELP cubicle_call_edge_total Cross-calls per caller/callee edge.\n\
             # TYPE cubicle_call_edge_total counter\n",
        );
        let mut edges: Vec<_> = self.stats.call_edges.iter().collect();
        edges.sort();
        for (&(from, to), &n) in edges {
            out.push_str(&format!(
                "cubicle_call_edge_total{{caller=\"{}\",callee=\"{}\"}} {}\n",
                prom_escape(&self.cubicles[from.index()].name),
                prom_escape(&self.cubicles[to.index()].name),
                n,
            ));
        }

        // Per-cubicle resource ledger (available without tracing).
        per_cubicle(
            "cubicle_pages_owned",
            "Pages owned by the cubicle.",
            "gauge",
            &|r| r.pages_owned as u64,
            &mut out,
        );
        per_cubicle(
            "cubicle_pages_held_foreign",
            "Foreign pages currently retagged to the cubicle via trap-and-map.",
            "gauge",
            &|r| r.pages_held_foreign as u64,
            &mut out,
        );
        per_cubicle(
            "cubicle_windows_live",
            "Live window descriptors.",
            "gauge",
            &|r| r.windows as u64,
            &mut out,
        );
        per_cubicle(
            "cubicle_windows_open",
            "Window descriptors open for at least one peer.",
            "gauge",
            &|r| r.windows_open as u64,
            &mut out,
        );
        per_cubicle(
            "cubicle_heap_bytes_used",
            "Live bytes in the cubicle's heap sub-allocator.",
            "gauge",
            &|r| r.heap_used as u64,
            &mut out,
        );
        per_cubicle(
            "cubicle_stack_bytes_used",
            "Bytes of the per-cubicle stack in use.",
            "gauge",
            &|r| r.stack_used as u64,
            &mut out,
        );
        per_cubicle(
            "cubicle_key_parked",
            "1 when key virtualisation has parked the cubicle's key.",
            "gauge",
            &|r| u64::from(r.key_parked),
            &mut out,
        );
        per_cubicle(
            "cubicle_quarantined",
            "1 while the cubicle is quarantined.",
            "gauge",
            &|r| u64::from(r.quarantined()),
            &mut out,
        );
        per_cubicle(
            "cubicle_generation",
            "Microreboot incarnation of the cubicle.",
            "gauge",
            &|r| u64::from(r.generation),
            &mut out,
        );
        per_cubicle(
            "cubicle_calls_in_total",
            "Cross-calls into the cubicle.",
            "counter",
            &|r| r.calls_in,
            &mut out,
        );
        per_cubicle(
            "cubicle_calls_out_total",
            "Cross-calls out of the cubicle.",
            "counter",
            &|r| r.calls_out,
            &mut out,
        );
        per_cubicle(
            "cubicle_grant_cache_hits",
            "Trap-and-map faults by the cubicle answered from the grant cache.",
            "counter",
            &|r| r.grant_hits,
            &mut out,
        );

        let Some(tracer) = &self.tracer else {
            return out;
        };
        counter(
            "cubicle_trace_events_dropped_total",
            "Trace records overwritten (ring full).",
            tracer.buf.dropped(),
            &mut out,
        );
        counter(
            "cubicle_trace_events_recorded_total",
            "Trace records ever pushed.",
            tracer.buf.total_recorded(),
            &mut out,
        );
        counter(
            "cubicle_fault_audit_dropped_total",
            "Fault-audit records evicted (ring full).",
            tracer.audit_dropped,
            &mut out,
        );
        counter(
            "cubicle_spans_completed_total",
            "Cross-call spans closed by the profiler.",
            tracer.spans_completed(),
            &mut out,
        );

        // Per-cubicle causal cycle attribution (span profiler).
        per_cubicle(
            "cubicle_cycles_self",
            "Exclusive cycles the span profiler attributes to the cubicle.",
            "counter",
            &|r| r.cycles_self,
            &mut out,
        );
        per_cubicle(
            "cubicle_cycles_inclusive",
            "Inclusive cycles: self plus everything the cubicle's calls caused.",
            "counter",
            &|r| r.cycles_total,
            &mut out,
        );

        // Per-edge latency histograms.
        out.push_str(
            "# HELP cubicle_cross_call_cycles Cross-call latency in simulated cycles.\n\
             # TYPE cubicle_cross_call_cycles histogram\n",
        );
        for (&(from, to), h) in tracer.metrics.edges() {
            let labels = format!(
                "caller=\"{}\",callee=\"{}\"",
                prom_escape(&self.cubicles[from.index()].name),
                prom_escape(&self.cubicles[to.index()].name),
            );
            prom_histogram("cubicle_cross_call_cycles", &labels, h, &mut out);
        }
        out.push_str(
            "# HELP cubicle_entry_cycles Per-entry-point call latency in simulated cycles.\n\
             # TYPE cubicle_entry_cycles histogram\n",
        );
        for (&entry, h) in tracer.metrics.entries() {
            let name = self
                .entries
                .get(entry.index())
                .map_or_else(|| entry.to_string(), |d| d.name.clone());
            let labels = format!("entry=\"{}\"", prom_escape(&name));
            prom_histogram("cubicle_entry_cycles", &labels, h, &mut out);
        }
        out
    }

    /// Rejection records from the loader: one line per refused image,
    /// with the total occurrence count and first offset from the
    /// exhaustive [`cubicle_mpk::insn::CodeImage::scan_all`] scan.
    /// Recorded even when tracing is off (capped at 64 entries).
    pub fn loader_audit(&self) -> &[String] {
        &self.loader_audit
    }

    /// Renders the loader + trap-and-map audit logs as human-readable
    /// text: one line per refused image, then one line per fault, saying
    /// who touched whose page and which window descriptor (or rule)
    /// decided. Fault lines are present only while tracing is enabled;
    /// loader rejections are always kept.
    pub fn export_fault_audit(&self) -> String {
        let mut out = String::new();
        for line in &self.loader_audit {
            out.push_str(line);
            out.push('\n');
        }
        for line in &self.containment_log {
            out.push_str(line);
            out.push('\n');
        }
        for line in &self.recovery_log {
            out.push_str(line);
            out.push('\n');
        }
        for a in self.fault_audit() {
            let accessor = &self.cubicles[a.accessor.index()].name;
            let owner = &self.cubicles[a.owner.index()].name;
            let access = a.access;
            let verdict = match a.decision {
                FaultDecision::OwnerReclaim => "RESOLVED (owner reclaim)".to_string(),
                FaultDecision::AclsDisabled => "RESOLVED (ACLs disabled)".to_string(),
                FaultDecision::Window(wid) => format!("RESOLVED (via {wid})"),
                FaultDecision::Denied => "DENIED (no open window)".to_string(),
            };
            out.push_str(&format!(
                "[cycle {:>12}] {accessor} {access} {} owned by {owner}: {verdict}\n",
                a.at, a.addr,
            ));
        }
        // A saturated ring must be visible: otherwise a clean-looking
        // audit could silently be missing its oldest records.
        if let Some(tracer) = &self.tracer {
            if tracer.buf.dropped() > 0 || tracer.audit_dropped > 0 {
                out.push_str(&format!(
                    "dropped: {} trace event(s) overwritten, {} fault-audit record(s) \
                     evicted (ring full)\n",
                    tracer.buf.dropped(),
                    tracer.audit_dropped,
                ));
            }
        }
        // CubicleSan verdict, only while detection is on — harnesses and
        // CI grep `races: 0` / `lockorder: acyclic` from this block, and
        // feature-off exports stay byte-identical to the pre-sanitizer
        // kernel.
        if let Some(race) = &self.race {
            for r in race.reports() {
                out.push_str(&format!("sanitizer: {r}\n"));
            }
            for v in race.violations() {
                out.push_str(&format!("sanitizer: {v}\n"));
            }
            out.push_str(&format!("races: {}\n", self.stats.race_reports));
            match race.lockorder_cycle() {
                None => out.push_str("lockorder: acyclic\n"),
                Some(cycle) => out.push_str(&format!("lockorder: cycle {cycle}\n")),
            }
            out.push_str(&format!(
                "lockset-violations: {}\n",
                self.stats.lockset_violations
            ));
        }
        out
    }
}

/// Formats one instant event ("ph":"i") for the Chrome trace, on the
/// process of the core that recorded it.
fn instant(r: &crate::trace::TraceRecord, name: &str, cat: &str, tid: usize, args: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"name\":\"{name}\",\"cat\":\"{cat}\",\"pid\":{},\"tid\":{tid},\
         \"ts\":{},\"s\":\"t\",\"args\":{{{args}}}}}",
        r.core, r.at,
    )
}

/// Appends one histogram series in Prometheus text exposition format.
///
/// The internal log2 bins are folded onto a *fixed* cumulative `le`
/// layout (0, then 2^4-1 … 2^32-1, then `+Inf`): Prometheus'
/// `histogram_quantile` and scrape-time aggregation require every
/// series of a family to expose the same bucket boundaries on every
/// scrape, which the occupied-bins-only export could not guarantee.
fn prom_histogram(name: &str, labels: &str, h: &crate::metrics::CycleHisto, out: &mut String) {
    const LE_BITS: [usize; 9] = [0, 4, 8, 12, 16, 20, 24, 28, 32];
    let buckets = h.buckets();
    for &bits in &LE_BITS {
        let cum: u64 = buckets[..=bits].iter().sum();
        let le = if bits == 0 { 0 } else { (1u64 << bits) - 1 };
        out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels},le=\"+Inf\"}} {}\n",
        h.count()
    ));
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", h.count()));
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus label-value escaping (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}
