//! The simulated machine: paged memory, PKRU, faults, cycle counter.
//!
//! # Host performance vs simulated cost
//!
//! The machine separates two notions of "fast" that must never mix:
//!
//! * **Simulated cost** — the cycles charged per operation, fixed by the
//!   [`CostModel`]. These numbers produce the paper's figures.
//! * **Host cost** — the wall-clock time the simulator itself spends.
//!
//! The memory system is organised for host speed without perturbing the
//! simulated side by a single cycle, counter or fault:
//!
//! * a **flat, region-based page table** ([`PageTable`]): pages live in
//!   512-page chunks found by binary search; each chunk backs its pages
//!   with one contiguous 2 MiB frame slab, so a translation is an index
//!   computation instead of a hash-map probe, and a copy spanning many
//!   pages of one chunk collapses into a single `memcpy`;
//! * a **software TLB**: a small direct-mapped cache of recent
//!   (page → chunk/slot, key, flags) translations. Access rights are
//!   evaluated against the *live* PKRU at hit time (two bit tests), so
//!   `wrpkru` — which CubicleOS executes four times per cross-call —
//!   needs no invalidation at all; the TLB is invalidated per page on
//!   retag/flag changes and wholesale when chunk indices shift.
//!   Hit/miss counts are exposed through [`MachineStats`] as *host*
//!   observability; they never influence charged cycles;
//! * **fused check+copy**: an access that fits one page translates,
//!   checks and copies in a single pass. Multi-page accesses pre-scan
//!   all covered pages first (into a reusable scratch vector) so the
//!   all-or-nothing fault atomicity of the original two-pass design is
//!   preserved exactly, then copy chunk-contiguous runs at once.

use crate::addr::{pages_covering, PageNum, VAddr, PAGE_SIZE};
use crate::cost::CostModel;
use crate::fault::{AccessKind, Fault, FaultKind};
use crate::page::{PageEntry, PageFlags};
use crate::pkru::{Pkru, ProtKey};

/// Event counters maintained by the machine.
///
/// The first seven counters describe the *simulated* machine and are part
/// of the golden regression surface. The TLB counters describe the
/// *simulator* (host-side translation caching) — they are deterministic
/// for a deterministic workload but intentionally excluded from golden
/// snapshots, since toggling [`Machine::set_tlb_enabled`] changes them
/// without changing any simulated behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MachineStats {
    /// Data loads performed.
    pub reads: u64,
    /// Data stores performed.
    pub writes: u64,
    /// Bytes loaded.
    pub bytes_read: u64,
    /// Bytes stored.
    pub bytes_written: u64,
    /// PKRU register writes (`wrpkru`).
    pub wrpkru: u64,
    /// Page key re-assignments (`pkey_mprotect`).
    pub retags: u64,
    /// Pages reclaimed through the charged [`Machine::reclaim_page`]
    /// primitive (quarantine teardown; loader-side `unmap_page` is free
    /// and uncounted).
    pub unmaps: u64,
    /// Protection faults raised (all kinds).
    pub faults: u64,
    /// Software-TLB hits (host-side; no simulated-cycle effect).
    pub tlb_hits: u64,
    /// Software-TLB misses, i.e. full page-table walks (host-side).
    pub tlb_misses: u64,
}

/// Per-core event counters (host-side observability; no simulated-cycle
/// effect). The machine keeps one of these per simulated core so that
/// multi-core runs can attribute TLB behaviour, PKRU churn and cross-call
/// pressure to the core that caused it. The matching [`MachineStats`]
/// fields are these counters summed over the cores.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreStats {
    /// Software-TLB hits on this core.
    pub tlb_hits: u64,
    /// Software-TLB misses (full walks) on this core.
    pub tlb_misses: u64,
    /// Cross-cubicle calls dispatched while this core was current
    /// (reported by the kernel via [`Machine::note_cross_call`]).
    pub cross_calls: u64,
    /// PKRU writes executed on this core.
    pub wrpkru: u64,
}

/// The architectural state of one simulated core while it is *parked*
/// (not the current core): its private PKRU register, cycle counter,
/// software TLB, cycle alarm and per-core counters. The current core's
/// state lives directly in the [`Machine`] fields — the hot paths never
/// indirect through this struct — and is swapped in and out by
/// [`Machine::switch_to_core`].
#[derive(Debug)]
struct CoreState {
    pkru: Pkru,
    cycles: u64,
    tlb: Box<[TlbEntry]>,
    tlb_gen: u64,
    alarm: Option<u64>,
    stats: CoreStats,
}

/// Pages per chunk of the flat page table (power of two). 512 pages cover
/// a 2 MiB span — large enough that a whole component region usually sits
/// in one or two chunks, small enough that sparse mappings stay cheap.
const CHUNK_PAGES: u64 = 512;

/// Bytes of backing store per chunk.
const CHUNK_BYTES: usize = CHUNK_PAGES as usize * PAGE_SIZE;

/// Entries in the direct-mapped software TLB (power of two). 256 entries
/// index by the low page-number bits, so any run of up to 256 consecutive
/// pages (1 MiB) is conflict-free.
const TLB_ENTRIES: usize = 256;

/// Upper bound on parked chunk slabs kept for reuse; beyond this they are
/// simply dropped.
const SPARE_SLABS: usize = 8;

/// A 512-page span of the address space. `base` is the first page number
/// (a multiple of [`CHUNK_PAGES`]); `entries[i]` describes page
/// `base + i`, whose frame is `frames[i * PAGE_SIZE ..][.. PAGE_SIZE]`.
#[derive(Debug)]
struct Chunk {
    base: u64,
    /// Number of `Some` entries; lets full-table scans skip nothing and
    /// drives chunk recycling when the last page unmaps.
    mapped: usize,
    entries: Vec<Option<PageEntry>>,
    /// One contiguous slab backing all 512 frames. Regions are zeroed on
    /// `map_page`, so recycled slabs never leak stale bytes.
    frames: Box<[u8]>,
}

/// A parked chunk's allocations (entry vector + frame slab), kept for
/// reuse once its last page unmaps.
type SpareSlab = (Vec<Option<PageEntry>>, Box<[u8]>);

/// The flat page table: chunks sorted by base page number.
///
/// A chunk whose last page unmaps is removed and its slab parked on a
/// small free list for the next insertion — the kernel above allocates
/// page numbers monotonically, so without recycling the table would grow
/// with the *lifetime* address space instead of the *live* one. Removal
/// (like insertion) shifts chunk indices, which the machine answers with
/// a TLB flush.
#[derive(Debug, Default)]
struct PageTable {
    chunks: Vec<Chunk>,
    /// Drained chunk slabs (entries all `None`), reused to avoid fresh
    /// 2 MiB allocations on every chunk creation.
    spare: Vec<SpareSlab>,
}

impl PageTable {
    /// Locates a mapped page as `(chunk index, slot index)`.
    #[inline]
    fn locate(&self, page: PageNum) -> Option<(usize, usize)> {
        let base = page.0 & !(CHUNK_PAGES - 1);
        let ci = self.chunks.binary_search_by_key(&base, |c| c.base).ok()?;
        let si = (page.0 & (CHUNK_PAGES - 1)) as usize;
        self.chunks[ci].entries[si].map(|_| (ci, si))
    }

    #[inline]
    fn entry(&self, page: PageNum) -> Option<PageEntry> {
        let (ci, si) = self.locate(page)?;
        self.chunks[ci].entries[si]
    }

    fn entry_mut(&mut self, page: PageNum) -> Option<&mut PageEntry> {
        let (ci, si) = self.locate(page)?;
        self.chunks[ci].entries[si].as_mut()
    }

    /// Inserts an entry for `page`, creating its chunk if needed and
    /// zeroing the page's frame region. Returns `false` if the page was
    /// already mapped (the old entry is replaced).
    fn insert(&mut self, page: PageNum, entry: PageEntry) -> bool {
        let base = page.0 & !(CHUNK_PAGES - 1);
        let ci = match self.chunks.binary_search_by_key(&base, |c| c.base) {
            Ok(i) => i,
            Err(i) => {
                let (entries, frames) = self.spare.pop().unwrap_or_else(|| {
                    (
                        vec![None; CHUNK_PAGES as usize],
                        vec![0u8; CHUNK_BYTES].into_boxed_slice(),
                    )
                });
                self.chunks.insert(
                    i,
                    Chunk {
                        base,
                        mapped: 0,
                        entries,
                        frames,
                    },
                );
                i
            }
        };
        let si = (page.0 & (CHUNK_PAGES - 1)) as usize;
        let chunk = &mut self.chunks[ci];
        let fresh = chunk.entries[si].is_none();
        if fresh {
            chunk.mapped += 1;
        }
        chunk.entries[si] = Some(entry);
        chunk.frames[si * PAGE_SIZE..(si + 1) * PAGE_SIZE].fill(0);
        fresh
    }

    /// Clears the entry for `page`; a drained chunk is removed and its
    /// slab parked for reuse. Returns `(page was mapped, chunk indices
    /// shifted)` — the latter tells the caller to flush its TLB.
    fn remove(&mut self, page: PageNum) -> (bool, bool) {
        match self.locate(page) {
            Some((ci, si)) => {
                self.chunks[ci].entries[si] = None;
                self.chunks[ci].mapped -= 1;
                if self.chunks[ci].mapped == 0 {
                    let chunk = self.chunks.remove(ci);
                    if self.spare.len() < SPARE_SLABS {
                        self.spare.push((chunk.entries, chunk.frames));
                    }
                    (true, true)
                } else {
                    (true, false)
                }
            }
            None => (false, false),
        }
    }
}

/// One direct-mapped TLB entry: a page's table location plus its key and
/// permission flags. Rights are *not* resolved here — they are evaluated
/// against the live PKRU on every hit, so PKRU writes need no
/// invalidation. Valid iff `gen` equals the machine's current TLB
/// generation (0 never matches, as the generation starts at 1).
#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    page: u64,
    gen: u64,
    chunk: u32,
    slot: u32,
    key: ProtKey,
    flags: PageFlags,
}

impl TlbEntry {
    const INVALID: TlbEntry = TlbEntry {
        page: 0,
        gen: 0,
        chunk: 0,
        slot: 0,
        key: ProtKey::MONITOR,
        flags: PageFlags::r(),
    };
}

/// The simulated MPK machine.
///
/// Owns the page table, page frames, the current thread's PKRU register and
/// the cycle counter. See the crate-level documentation for an example.
///
/// The machine enforces *mechanism* only: every access is checked against
/// the page flags and the PKRU value, and violations surface as [`Fault`]s.
/// It has no notion of cubicles or windows — that policy lives in
/// `cubicle-core`, which reacts to faults by consulting its window ACLs and
/// retagging pages ([`Machine::set_page_key`]).
#[derive(Debug)]
pub struct Machine {
    table: PageTable,
    pkru: Pkru,
    cycles: u64,
    cost: CostModel,
    /// Machine-wide counters. The TLB and `wrpkru` fields stay zero here:
    /// those events count once, in the per-core counters.
    stats: MachineStats,
    /// Models the paper's proposed hardware modification (§5.5): "whenever
    /// read and write access is disabled \[for a key\], execution is too".
    /// Enabled by default, as CubicleOS assumes it for CFI.
    exec_obeys_pkru: bool,
    /// Direct-mapped software TLB (host-side acceleration only).
    tlb: Box<[TlbEntry]>,
    /// Current TLB generation; bumping it invalidates every entry at once.
    tlb_gen: u64,
    tlb_enabled: bool,
    /// Reusable per-page location buffer for multi-page pre-scans, so bulk
    /// accesses allocate nothing in steady state.
    scan_scratch: Vec<(u32, u32)>,
    /// Cycle alarm: the kernel's watchdog arms this with the earliest
    /// in-flight call deadline and polls [`Machine::cycle_alarm_expired`]
    /// on its entry paths. Pure bookkeeping — never charges cycles.
    alarm: Option<u64>,
    /// Parked per-core state under multi-core simulation. Empty on a
    /// single-core machine (the default), in which case every loop over
    /// it degenerates to nothing and behaviour is bit-identical to the
    /// pre-multi-core machine. When non-empty, `cores.len()` is the core
    /// count and the slot at `cur` holds a stale placeholder (its live
    /// state is in the `Machine` fields).
    cores: Vec<CoreState>,
    /// Index of the current core (0 on a single-core machine).
    cur: usize,
    /// Per-core counters of the *current* core; swapped with the parked
    /// state on [`Machine::switch_to_core`].
    cur_stats: CoreStats,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// Creates a machine with the calibrated [`CostModel::paper`] costs.
    pub fn new() -> Machine {
        Machine::with_cost_model(CostModel::paper())
    }

    /// Creates a machine with a custom cost model.
    pub fn with_cost_model(cost: CostModel) -> Machine {
        Machine {
            table: PageTable::default(),
            pkru: Pkru::deny_all(),
            cycles: 0,
            cost,
            stats: MachineStats::default(),
            exec_obeys_pkru: true,
            tlb: vec![TlbEntry::INVALID; TLB_ENTRIES].into_boxed_slice(),
            tlb_gen: 1,
            tlb_enabled: true,
            scan_scratch: Vec::new(),
            alarm: None,
            cores: Vec::new(),
            cur: 0,
            cur_stats: CoreStats::default(),
        }
    }

    // ---------------------------------------------------------------------
    // Cores
    // ---------------------------------------------------------------------

    /// Number of simulated cores (1 unless [`Machine::set_num_cores`]
    /// grew the machine).
    pub fn num_cores(&self) -> usize {
        self.cores.len().max(1)
    }

    /// Index of the core currently executing.
    pub fn current_core(&self) -> usize {
        self.cur
    }

    /// Grows the machine to `n` cores (grow-only; shrinking a machine
    /// with live per-core state would discard clocks and is a harness
    /// bug). Every new core starts at the *current* core's cycle count
    /// with the current PKRU, a cold TLB and zeroed counters — as if it
    /// had just been released from a spin-at-boot barrier.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or smaller than the current core count.
    pub fn set_num_cores(&mut self, n: usize) {
        assert!(n >= 1, "a machine has at least one core");
        assert!(
            n >= self.num_cores(),
            "core count is grow-only ({} -> {n})",
            self.num_cores()
        );
        if n == 1 {
            return;
        }
        if self.cores.is_empty() {
            // Placeholder for the current core; its live state stays in
            // the Machine fields. The empty TLB box allocates nothing.
            self.cores.push(CoreState {
                pkru: self.pkru,
                cycles: self.cycles,
                tlb: Box::default(),
                tlb_gen: self.tlb_gen,
                alarm: self.alarm,
                stats: self.cur_stats,
            });
        }
        while self.cores.len() < n {
            self.cores.push(CoreState {
                pkru: self.pkru,
                cycles: self.cycles,
                tlb: vec![TlbEntry::INVALID; TLB_ENTRIES].into_boxed_slice(),
                tlb_gen: 1,
                alarm: None,
                stats: CoreStats::default(),
            });
        }
    }

    /// Switches execution to core `i`: parks the current core's PKRU,
    /// cycle counter, TLB, alarm and counters, and restores core `i`'s.
    /// Host-side bookkeeping only — switching charges no simulated
    /// cycles (the simulated cores run concurrently; the simulator just
    /// serialises them).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn switch_to_core(&mut self, i: usize) {
        assert!(i < self.num_cores(), "core {i} out of range");
        if i == self.cur {
            return;
        }
        let parked = &mut self.cores[self.cur];
        parked.pkru = self.pkru;
        parked.cycles = self.cycles;
        parked.tlb_gen = self.tlb_gen;
        parked.alarm = self.alarm;
        parked.stats = self.cur_stats;
        parked.tlb = std::mem::take(&mut self.tlb);
        let next = &mut self.cores[i];
        self.pkru = next.pkru;
        self.cycles = next.cycles;
        self.tlb_gen = next.tlb_gen;
        self.alarm = next.alarm;
        self.cur_stats = next.stats;
        self.tlb = std::mem::take(&mut next.tlb);
        self.cur = i;
    }

    /// Cycle counter of core `i` (the current core reads its live value).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_cycles(&self, i: usize) -> u64 {
        assert!(i < self.num_cores(), "core {i} out of range");
        if i == self.cur {
            self.cycles
        } else {
            self.cores[i].cycles
        }
    }

    /// The maximum cycle counter over all cores — the *makespan* of a
    /// multi-core run, used as the denominator of aggregate throughput.
    pub fn max_core_cycles(&self) -> u64 {
        let mut max = self.cycles;
        for (i, core) in self.cores.iter().enumerate() {
            if i != self.cur {
                max = max.max(core.cycles);
            }
        }
        max
    }

    /// Per-core counters for core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_stats(&self, i: usize) -> CoreStats {
        assert!(i < self.num_cores(), "core {i} out of range");
        if i == self.cur {
            self.cur_stats
        } else {
            self.cores[i].stats
        }
    }

    /// Tells the machine a cross-cubicle call was dispatched on the
    /// current core (kernel-side observability; free of cycles).
    pub fn note_cross_call(&mut self) {
        self.cur_stats.cross_calls += 1;
    }

    /// Arms (or with `None` disarms) the cycle alarm at an absolute
    /// cycle count. Costs nothing in simulated cycles.
    pub fn set_cycle_alarm(&mut self, at: Option<u64>) {
        self.alarm = at;
    }

    /// The armed cycle alarm, if any.
    pub fn cycle_alarm(&self) -> Option<u64> {
        self.alarm
    }

    /// Has the cycle counter reached the armed alarm? Always `false`
    /// while disarmed — a single branch on the fast path.
    #[inline]
    pub fn cycle_alarm_expired(&self) -> bool {
        self.alarm.is_some_and(|at| self.cycles >= at)
    }

    /// Returns the active cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Enables or disables the paper's MPK hardware modification that makes
    /// execution rights follow the PKRU access-disable bit (§5.5).
    /// (No TLB impact: exec rights are evaluated live on every hit.)
    pub fn set_exec_obeys_pkru(&mut self, enabled: bool) {
        self.exec_obeys_pkru = enabled;
    }

    /// Enables or disables the simulator's software TLB.
    ///
    /// This is a *host-side* knob: simulated behaviour — charged cycles,
    /// counters, faults — is identical either way (a property test holds
    /// the two modes against each other). Disabling it only slows the
    /// simulator down; with the TLB off, neither TLB counter moves.
    pub fn set_tlb_enabled(&mut self, enabled: bool) {
        self.tlb_enabled = enabled;
        self.tlb_flush();
    }

    /// Returns whether the software TLB is enabled.
    pub fn tlb_enabled(&self) -> bool {
        self.tlb_enabled
    }

    // ---------------------------------------------------------------------
    // Cycle accounting
    // ---------------------------------------------------------------------

    /// Current simulated cycle count.
    pub fn now(&self) -> u64 {
        self.cycles
    }

    /// Charges `cycles` of simulated work (used by components to model
    /// compute that does not touch simulated memory).
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Event counters. The TLB and `wrpkru` counts are kept once, per
    /// core, and summed here over the current core and the parked ones.
    pub fn stats(&self) -> MachineStats {
        let mut stats = self.stats;
        let parked = self
            .cores
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.cur)
            .map(|(_, core)| &core.stats);
        for core in std::iter::once(&self.cur_stats).chain(parked) {
            stats.tlb_hits += core.tlb_hits;
            stats.tlb_misses += core.tlb_misses;
            stats.wrpkru += core.wrpkru;
        }
        stats
    }

    // ---------------------------------------------------------------------
    // Translation (host fast path)
    // ---------------------------------------------------------------------

    /// Invalidates every TLB entry — on *every* core. A mapping change is
    /// a global TLB shootdown: parked cores' generations are bumped too,
    /// so a stale translation can never survive a core switch.
    #[inline]
    fn tlb_flush(&mut self) {
        self.tlb_gen += 1;
        for (i, core) in self.cores.iter_mut().enumerate() {
            if i != self.cur {
                core.tlb_gen += 1;
            }
        }
    }

    /// Invalidates the TLB entry for one page, if cached — on every core
    /// (the per-page analogue of the shootdown in [`Self::tlb_flush`]).
    #[inline]
    fn tlb_evict(&mut self, page: PageNum) {
        let idx = (page.0 as usize) & (TLB_ENTRIES - 1);
        let e = &mut self.tlb[idx];
        if e.page == page.0 {
            e.gen = 0;
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            if i != self.cur {
                let e = &mut core.tlb[idx];
                if e.page == page.0 {
                    e.gen = 0;
                }
            }
        }
    }

    /// Translates `page` for `access`, returning its table location.
    ///
    /// This is the host fast path behind every checked access: a TLB hit
    /// grants in a few loads plus a PKRU bit test; a miss takes the full
    /// walk ([`Self::walk`]) which performs exactly the checks
    /// [`Machine::check_access`] would, producing byte-identical faults.
    /// `fault_addr` is the address any fault is reported at (the
    /// reference walk's `page.base().max(addr)`).
    #[inline]
    fn translate(
        &mut self,
        page: PageNum,
        access: AccessKind,
        fault_addr: VAddr,
    ) -> Result<(usize, usize), Fault> {
        if self.tlb_enabled {
            let e = self.tlb[(page.0 as usize) & (TLB_ENTRIES - 1)];
            if e.gen == self.tlb_gen && e.page == page.0 {
                // Rights are evaluated against the *current* PKRU, so a
                // stale-rights hazard cannot exist by construction.
                let rights = self.pkru.rights(e.key);
                let granted = match access {
                    AccessKind::Read => e.flags.can_read() && rights.can_read(),
                    AccessKind::Write => e.flags.can_write() && rights.can_write(),
                    AccessKind::Execute => {
                        e.flags.can_execute() && (!self.exec_obeys_pkru || rights.can_read())
                    }
                };
                if granted {
                    self.cur_stats.tlb_hits += 1;
                    return Ok((e.chunk as usize, e.slot as usize));
                }
                // Cached but denied: fall through to the walk so the
                // fault carries the precise kind (Permission vs key).
            }
            self.cur_stats.tlb_misses += 1;
        }
        self.walk(page, access, fault_addr)
    }

    /// Full page-table walk with permission checks; fills the TLB on a
    /// grant. The check order (present, then flags, then PKRU) and the
    /// fault contents mirror [`Machine::check_access`] exactly.
    fn walk(
        &mut self,
        page: PageNum,
        access: AccessKind,
        fault_addr: VAddr,
    ) -> Result<(usize, usize), Fault> {
        let Some((ci, si)) = self.table.locate(page) else {
            return Err(Fault {
                addr: fault_addr,
                access,
                kind: FaultKind::NotPresent,
            });
        };
        let entry = self.table.chunks[ci].entries[si].expect("located slot is mapped");
        let flags_ok = match access {
            AccessKind::Read => entry.flags.can_read(),
            AccessKind::Write => entry.flags.can_write(),
            AccessKind::Execute => entry.flags.can_execute(),
        };
        if !flags_ok {
            return Err(Fault {
                addr: fault_addr,
                access,
                kind: FaultKind::Permission,
            });
        }
        let rights = self.pkru.rights(entry.key);
        let key_ok = match access {
            AccessKind::Read => rights.can_read(),
            AccessKind::Write => rights.can_write(),
            // The paper's proposed hardware change: AD=1 also disables
            // execution. Without the change, MPK never blocks fetches.
            AccessKind::Execute => !self.exec_obeys_pkru || rights.can_read(),
        };
        if !key_ok {
            return Err(Fault {
                addr: fault_addr,
                access,
                kind: FaultKind::ProtectionKey(entry.key),
            });
        }
        if self.tlb_enabled {
            self.tlb[(page.0 as usize) & (TLB_ENTRIES - 1)] = TlbEntry {
                page: page.0,
                gen: self.tlb_gen,
                chunk: ci as u32,
                slot: si as u32,
                key: entry.key,
                flags: entry.flags,
            };
        }
        Ok((ci, si))
    }

    /// Pre-scans every page covered by `[addr, addr + len)` for `access`,
    /// collecting table locations into `locs`. Nothing is copied, so a
    /// fault part-way leaves memory untouched (all-or-nothing atomicity).
    fn prescan(
        &mut self,
        addr: VAddr,
        len: usize,
        access: AccessKind,
        locs: &mut Vec<(u32, u32)>,
    ) -> Result<(), Fault> {
        for page in pages_covering(addr, len) {
            let (ci, si) = self.translate(page, access, page.base().max(addr))?;
            locs.push((ci as u32, si as u32));
        }
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Page table management
    // ---------------------------------------------------------------------

    /// Maps the page containing `addr` with the given key and flags,
    /// backed by a zeroed frame.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped — the caller (the CubicleOS
    /// monitor) owns the address-space layout, so a double map is a kernel
    /// bug, not a recoverable condition.
    pub fn map_page(&mut self, addr: VAddr, key: ProtKey, flags: PageFlags) {
        let page = addr.page();
        let fresh = self.table.insert(page, PageEntry::new(key, flags));
        assert!(fresh, "page {page:?} double-mapped");
        // Inserting may have created a chunk and shifted the indices
        // cached in TLB entries; mapping is rare, so flush wholesale.
        self.tlb_flush();
    }

    /// Unmaps the page containing `addr`, discarding its contents.
    ///
    /// Returns `true` if a page was actually unmapped.
    pub fn unmap_page(&mut self, addr: VAddr) -> bool {
        let page = addr.page();
        self.tlb_evict(page);
        let (unmapped, indices_shifted) = self.table.remove(page);
        if indices_shifted {
            self.tlb_flush();
        }
        unmapped
    }

    /// Reclaims (unmaps) a mapped page at full `pkey_mprotect` cost,
    /// counting it in [`MachineStats::unmaps`], and returns the key it
    /// carried. The monitor's quarantine path uses this
    /// to tear down a faulting cubicle's address space; unlike the free
    /// loader-side [`Machine::unmap_page`], reclamation is part of the
    /// simulated machine's observable behaviour.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] with [`FaultKind::NotPresent`] if the page is
    /// not mapped.
    pub fn reclaim_page(&mut self, addr: VAddr) -> Result<ProtKey, Fault> {
        let page = addr.page();
        let Some(entry) = self.table.entry(page) else {
            return Err(Fault {
                addr,
                access: AccessKind::Write,
                kind: FaultKind::NotPresent,
            });
        };
        let key = entry.key;
        self.tlb_evict(page);
        let (_, indices_shifted) = self.table.remove(page);
        if indices_shifted {
            self.tlb_flush();
        }
        self.cycles += self.cost.pkey_mprotect;
        self.stats.unmaps += 1;
        Ok(key)
    }

    /// Returns the page-table entry for the page containing `addr`.
    pub fn page_entry(&self, addr: VAddr) -> Option<PageEntry> {
        self.table.entry(addr.page())
    }

    /// All pages currently tagged with `key` (used by tag-virtualisation
    /// layers that must park an evicted key's pages). Ascending order —
    /// chunks are sorted by base and slots are scanned in index order.
    pub fn pages_with_key(&self, key: ProtKey) -> Vec<PageNum> {
        let mut pages = Vec::new();
        for chunk in &self.table.chunks {
            for (si, entry) in chunk.entries.iter().enumerate() {
                if entry.is_some_and(|e| e.key == key) {
                    pages.push(PageNum(chunk.base + si as u64));
                }
            }
        }
        pages
    }

    /// Every mapped page with its page-table entry, in ascending page
    /// order. State exposure for verification layers (the kernel
    /// invariant auditor walks this to check W^X and tag consistency);
    /// host-side only, charges no simulated cycles.
    pub fn mapped_pages(&self) -> Vec<(PageNum, PageEntry)> {
        let mut pages = Vec::new();
        for chunk in &self.table.chunks {
            for (si, entry) in chunk.entries.iter().enumerate() {
                if let Some(e) = entry {
                    pages.push((PageNum(chunk.base + si as u64), *e));
                }
            }
        }
        pages
    }

    /// Re-assigns the protection key of a mapped page, charging the
    /// `pkey_mprotect` cost, and returns the key it carried before. This
    /// is the retag operation at the heart of trap-and-map: the frame
    /// contents are untouched (zero-copy).
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] with [`FaultKind::NotPresent`] if the page is
    /// not mapped.
    pub fn set_page_key(&mut self, addr: VAddr, key: ProtKey) -> Result<ProtKey, Fault> {
        self.retag(addr, key, self.cost.pkey_mprotect)
    }

    /// Re-assigns the protection key of a mapped page *without* charging
    /// the `pkey_mprotect` kernel round trip, and returns the key it
    /// carried before. This is the grant-cache hit path of trap-and-map:
    /// the monitor has already validated this (accessor, page) pair, so
    /// the retag goes through a pre-armed kernel descriptor whose
    /// permission walk is skipped — only the trap and the metadata lookup
    /// (charged by the caller) remain. The retag is still architecturally
    /// real: it counts in [`MachineStats::retags`] and shoots down the
    /// page's TLB entries on every core.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] with [`FaultKind::NotPresent`] if the page is
    /// not mapped.
    pub fn set_page_key_cached(&mut self, addr: VAddr, key: ProtKey) -> Result<ProtKey, Fault> {
        self.retag(addr, key, 0)
    }

    /// The counted retag behind [`Machine::set_page_key`] and
    /// [`Machine::set_page_key_cached`], charging `cycles`.
    fn retag(&mut self, addr: VAddr, key: ProtKey, cycles: u64) -> Result<ProtKey, Fault> {
        let page = addr.page();
        match self.table.entry_mut(page) {
            Some(entry) => {
                let from = std::mem::replace(&mut entry.key, key);
                self.tlb_evict(page);
                self.cycles += cycles;
                self.stats.retags += 1;
                Ok(from)
            }
            None => Err(Fault {
                addr,
                access: AccessKind::Write,
                kind: FaultKind::NotPresent,
            }),
        }
    }

    /// Like [`Machine::set_page_key`] but free of charge: used at load /
    /// deployment time, which the paper's measurements exclude.
    pub fn set_page_key_at_load(&mut self, addr: VAddr, key: ProtKey) -> Result<(), Fault> {
        let page = addr.page();
        match self.table.entry_mut(page) {
            Some(entry) => {
                entry.key = key;
                self.tlb_evict(page);
                Ok(())
            }
            None => Err(Fault {
                addr,
                access: AccessKind::Write,
                kind: FaultKind::NotPresent,
            }),
        }
    }

    /// Changes the R/W/X flags of a mapped page (loader only; free).
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the page is not mapped.
    pub fn set_page_flags(&mut self, addr: VAddr, flags: PageFlags) -> Result<(), Fault> {
        let page = addr.page();
        match self.table.entry_mut(page) {
            Some(entry) => {
                entry.flags = flags;
                self.tlb_evict(page);
                Ok(())
            }
            None => Err(Fault {
                addr,
                access: AccessKind::Read,
                kind: FaultKind::NotPresent,
            }),
        }
    }

    // ---------------------------------------------------------------------
    // PKRU
    // ---------------------------------------------------------------------

    /// Current PKRU value of the (single) hardware thread.
    pub fn pkru(&self) -> Pkru {
        self.pkru
    }

    /// Writes the PKRU register (`wrpkru`), charging ~20 cycles.
    ///
    /// No TLB traffic: cached translations carry the page *key*, and
    /// rights are re-derived from the live PKRU on every hit.
    pub fn set_pkru(&mut self, pkru: Pkru) {
        self.pkru = pkru;
        self.cycles += self.cost.wrpkru;
        self.cur_stats.wrpkru += 1;
    }

    /// Writes the PKRU register without charging cycles (boot-time setup).
    pub fn set_pkru_at_load(&mut self, pkru: Pkru) {
        self.pkru = pkru;
    }

    // ---------------------------------------------------------------------
    // Checked access
    // ---------------------------------------------------------------------

    /// Checks whether an access of `len` bytes at `addr` would be allowed
    /// under the current PKRU, without performing it or charging cycles.
    ///
    /// This is the reference walk: side-effect free (`&self`, no TLB, no
    /// counters), used by diagnostic probes. The hot paths go through the
    /// TLB but must agree with it bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the first [`Fault`] the access would raise.
    pub fn check_access(&self, addr: VAddr, len: usize, access: AccessKind) -> Result<(), Fault> {
        for page in pages_covering(addr, len) {
            let entry = match self.table.entry(page) {
                Some(entry) => entry,
                None => {
                    return Err(Fault {
                        addr: page.base().max(addr),
                        access,
                        kind: FaultKind::NotPresent,
                    })
                }
            };
            let flags_ok = match access {
                AccessKind::Read => entry.flags.can_read(),
                AccessKind::Write => entry.flags.can_write(),
                AccessKind::Execute => entry.flags.can_execute(),
            };
            if !flags_ok {
                return Err(Fault {
                    addr: page.base().max(addr),
                    access,
                    kind: FaultKind::Permission,
                });
            }
            let rights = self.pkru.rights(entry.key);
            let key_ok = match access {
                AccessKind::Read => rights.can_read(),
                AccessKind::Write => rights.can_write(),
                // The paper's proposed hardware change: AD=1 also disables
                // execution. Without the change, MPK never blocks fetches.
                AccessKind::Execute => !self.exec_obeys_pkru || rights.can_read(),
            };
            if !key_ok {
                return Err(Fault {
                    addr: page.base().max(addr),
                    access,
                    kind: FaultKind::ProtectionKey(entry.key),
                });
            }
        }
        Ok(())
    }

    /// Loads `buf.len()` bytes starting at `addr`.
    ///
    /// The access is atomic: either every covered page passes the
    /// protection checks and the full range is copied, or nothing is.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] and counts it in [`MachineStats::faults`] when
    /// any covered page refuses the access.
    pub fn read(&mut self, addr: VAddr, buf: &mut [u8]) -> Result<(), Fault> {
        let len = buf.len();
        let off = addr.page_offset();
        if len > 0 && len <= PAGE_SIZE - off {
            // Single page: translate, check, charge and copy in one pass.
            let (ci, si) = match self.translate(addr.page(), AccessKind::Read, addr) {
                Ok(loc) => loc,
                Err(fault) => {
                    self.stats.faults += 1;
                    return Err(fault);
                }
            };
            self.cycles += self.cost.mem_access(len);
            self.stats.reads += 1;
            self.stats.bytes_read += len as u64;
            let base = si * PAGE_SIZE + off;
            buf.copy_from_slice(&self.table.chunks[ci].frames[base..base + len]);
            return Ok(());
        }
        self.read_slow(addr, buf)
    }

    /// Multi-page (or empty) read: pre-scan for atomicity, then copy
    /// chunk-contiguous runs of pages with single `memcpy`s.
    fn read_slow(&mut self, addr: VAddr, buf: &mut [u8]) -> Result<(), Fault> {
        let len = buf.len();
        let mut locs = std::mem::take(&mut self.scan_scratch);
        locs.clear();
        let scan = self.prescan(addr, len, AccessKind::Read, &mut locs);
        if let Err(fault) = scan {
            self.scan_scratch = locs;
            self.stats.faults += 1;
            return Err(fault);
        }
        self.cycles += self.cost.mem_access(len);
        self.stats.reads += 1;
        self.stats.bytes_read += len as u64;
        let mut done = 0;
        let mut i = 0;
        while done < len {
            let off = (addr + done).page_offset();
            let (ci, si) = locs[i];
            let mut run = 1;
            while i + run < locs.len()
                && locs[i + run].0 == ci
                && locs[i + run].1 == si + run as u32
            {
                run += 1;
            }
            let bytes = (run * PAGE_SIZE - off).min(len - done);
            let base = si as usize * PAGE_SIZE + off;
            buf[done..done + bytes]
                .copy_from_slice(&self.table.chunks[ci as usize].frames[base..base + bytes]);
            done += bytes;
            i += run;
        }
        self.scan_scratch = locs;
        Ok(())
    }

    /// Stores `data` starting at `addr`. Atomic like [`Machine::read`].
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] when any covered page refuses the access.
    pub fn write(&mut self, addr: VAddr, data: &[u8]) -> Result<(), Fault> {
        let len = data.len();
        let off = addr.page_offset();
        if len > 0 && len <= PAGE_SIZE - off {
            let (ci, si) = match self.translate(addr.page(), AccessKind::Write, addr) {
                Ok(loc) => loc,
                Err(fault) => {
                    self.stats.faults += 1;
                    return Err(fault);
                }
            };
            self.cycles += self.cost.mem_access(len);
            self.stats.writes += 1;
            self.stats.bytes_written += len as u64;
            let base = si * PAGE_SIZE + off;
            self.table.chunks[ci].frames[base..base + len].copy_from_slice(data);
            return Ok(());
        }
        self.write_slow(addr, data)
    }

    /// Multi-page (or empty) write; see [`Machine::read_slow`].
    fn write_slow(&mut self, addr: VAddr, data: &[u8]) -> Result<(), Fault> {
        let len = data.len();
        let mut locs = std::mem::take(&mut self.scan_scratch);
        locs.clear();
        let scan = self.prescan(addr, len, AccessKind::Write, &mut locs);
        if let Err(fault) = scan {
            self.scan_scratch = locs;
            self.stats.faults += 1;
            return Err(fault);
        }
        self.cycles += self.cost.mem_access(len);
        self.stats.writes += 1;
        self.stats.bytes_written += len as u64;
        let mut done = 0;
        let mut i = 0;
        while done < len {
            let off = (addr + done).page_offset();
            let (ci, si) = locs[i];
            let mut run = 1;
            while i + run < locs.len()
                && locs[i + run].0 == ci
                && locs[i + run].1 == si + run as u32
            {
                run += 1;
            }
            let bytes = (run * PAGE_SIZE - off).min(len - done);
            let base = si as usize * PAGE_SIZE + off;
            self.table.chunks[ci as usize].frames[base..base + bytes]
                .copy_from_slice(&data[done..done + bytes]);
            done += bytes;
            i += run;
        }
        self.scan_scratch = locs;
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`, appending them to `out`.
    ///
    /// Charge- and fault-identical to a [`Machine::read`] of `len` bytes,
    /// but writes straight from the frames into the vector's spare
    /// capacity — the zero-initialisation pass a `vec![0; len]` +
    /// `read` sequence would pay is skipped entirely. On a fault, `out`
    /// is left exactly as passed in.
    ///
    /// # Errors
    ///
    /// As [`Machine::read`].
    pub fn read_append(&mut self, addr: VAddr, len: usize, out: &mut Vec<u8>) -> Result<(), Fault> {
        let off = addr.page_offset();
        if len > 0 && len <= PAGE_SIZE - off {
            let (ci, si) = match self.translate(addr.page(), AccessKind::Read, addr) {
                Ok(loc) => loc,
                Err(fault) => {
                    self.stats.faults += 1;
                    return Err(fault);
                }
            };
            self.cycles += self.cost.mem_access(len);
            self.stats.reads += 1;
            self.stats.bytes_read += len as u64;
            let base = si * PAGE_SIZE + off;
            out.extend_from_slice(&self.table.chunks[ci].frames[base..base + len]);
            return Ok(());
        }
        let mut locs = std::mem::take(&mut self.scan_scratch);
        locs.clear();
        let scan = self.prescan(addr, len, AccessKind::Read, &mut locs);
        if let Err(fault) = scan {
            self.scan_scratch = locs;
            self.stats.faults += 1;
            return Err(fault);
        }
        self.cycles += self.cost.mem_access(len);
        self.stats.reads += 1;
        self.stats.bytes_read += len as u64;
        out.reserve(len);
        let mut done = 0;
        let mut i = 0;
        while done < len {
            let off = (addr + done).page_offset();
            let (ci, si) = locs[i];
            let mut run = 1;
            while i + run < locs.len()
                && locs[i + run].0 == ci
                && locs[i + run].1 == si + run as u32
            {
                run += 1;
            }
            let bytes = (run * PAGE_SIZE - off).min(len - done);
            let base = si as usize * PAGE_SIZE + off;
            out.extend_from_slice(&self.table.chunks[ci as usize].frames[base..base + bytes]);
            done += bytes;
            i += run;
        }
        self.scan_scratch = locs;
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`. Unaligned and page-straddling
    /// addresses are fine; the cost is that of an 8-byte read either way.
    ///
    /// # Errors
    ///
    /// Propagates faults from [`Machine::read`].
    pub fn read_u64(&mut self, addr: VAddr) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates faults from [`Machine::write`].
    pub fn write_u64(&mut self, addr: VAddr, value: u64) -> Result<(), Fault> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u32` at `addr` (cost of a 4-byte read).
    ///
    /// # Errors
    ///
    /// Propagates faults from [`Machine::read`].
    pub fn read_u32(&mut self, addr: VAddr) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates faults from [`Machine::write`].
    pub fn write_u32(&mut self, addr: VAddr, value: u32) -> Result<(), Fault> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Checks an instruction fetch at `addr` (one simulated instruction).
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] when the page is unmapped, not executable, or —
    /// with the paper's hardware modification — its key is
    /// access-disabled in the current PKRU.
    pub fn fetch_check(&mut self, addr: VAddr) -> Result<(), Fault> {
        match self.translate(addr.page(), AccessKind::Execute, addr) {
            Ok(_) => Ok(()),
            Err(fault) => {
                self.stats.faults += 1;
                Err(fault)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw_page(m: &mut Machine, raw: u64, key: u8) -> VAddr {
        let addr = VAddr::new(raw);
        m.map_page(addr, ProtKey::new(key).unwrap(), PageFlags::rw());
        addr
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.write(a + 100, b"cubicle").unwrap();
        let mut buf = [0u8; 7];
        m.read(a + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"cubicle");
    }

    #[test]
    fn cross_page_access() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        rw_page(&mut m, 0x2000, 1);
        m.set_pkru(Pkru::allow_all());
        let data: Vec<u8> = (0..=255).collect();
        m.write(a + (PAGE_SIZE - 100), &data).unwrap();
        let mut buf = vec![0u8; 256];
        m.read(a + (PAGE_SIZE - 100), &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn cross_chunk_access() {
        // Pages 511 and 512 sit in different 512-page chunks: the copy
        // must stitch two runs together.
        let mut m = Machine::new();
        let a = rw_page(&mut m, 511 * PAGE_SIZE as u64, 1);
        rw_page(&mut m, 512 * PAGE_SIZE as u64, 1);
        m.set_pkru(Pkru::allow_all());
        let data: Vec<u8> = (0..200).collect();
        m.write(a + (PAGE_SIZE - 100), &data).unwrap();
        let mut buf = vec![0u8; 200];
        m.read(a + (PAGE_SIZE - 100), &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn pkru_blocks_and_faults_are_counted() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 3);
        m.set_pkru(Pkru::deny_all());
        let err = m.write(a, b"x").unwrap_err();
        assert_eq!(err.kind, FaultKind::ProtectionKey(ProtKey::new(3).unwrap()));
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    fn read_only_key_blocks_writes_only() {
        let mut m = Machine::new();
        let k = ProtKey::new(2).unwrap();
        let a = rw_page(&mut m, 0x1000, 2);
        m.set_pkru(Pkru::deny_all().allowing_read(k));
        let mut buf = [0u8; 4];
        assert!(m.read(a, &mut buf).is_ok());
        assert!(m.write(a, b"nope").is_err());
    }

    #[test]
    fn page_flags_override_pkru() {
        let mut m = Machine::new();
        let a = VAddr::new(0x1000);
        m.map_page(a, ProtKey::new(1).unwrap(), PageFlags::r());
        m.set_pkru(Pkru::allow_all());
        assert!(m.read(a, &mut [0u8; 1]).is_ok());
        let err = m.write(a, b"x").unwrap_err();
        assert_eq!(err.kind, FaultKind::Permission);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = Machine::new();
        m.set_pkru(Pkru::allow_all());
        let err = m.read(VAddr::new(0x5000), &mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind, FaultKind::NotPresent);
    }

    #[test]
    fn atomicity_on_partial_failure() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        // second page unmapped: nothing must be written to the first
        m.set_pkru(Pkru::allow_all());
        let data = vec![0xAA; PAGE_SIZE + 10];
        assert!(m.write(a, &data).is_err());
        let mut probe = [0u8; 1];
        m.read(a, &mut probe).unwrap();
        assert_eq!(probe[0], 0, "failed cross-page write must not be partial");
    }

    #[test]
    fn retag_preserves_contents_zero_copy() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.write(a, b"payload").unwrap();
        let before = m.stats().retags;
        m.set_page_key(a, ProtKey::new(9).unwrap()).unwrap();
        assert_eq!(m.stats().retags, before + 1);
        assert_eq!(m.page_entry(a).unwrap().key, ProtKey::new(9).unwrap());
        let mut buf = [0u8; 7];
        m.read(a, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn retag_charges_pkey_mprotect() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        let t0 = m.now();
        m.set_page_key(a, ProtKey::new(2).unwrap()).unwrap();
        assert_eq!(m.now() - t0, CostModel::paper().pkey_mprotect);
    }

    #[test]
    fn load_time_retag_is_free() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        let t0 = m.now();
        m.set_page_key_at_load(a, ProtKey::new(2).unwrap()).unwrap();
        assert_eq!(m.now(), t0);
        assert_eq!(m.stats().retags, 0);
    }

    #[test]
    fn wrpkru_charges_20_cycles() {
        let mut m = Machine::new();
        let t0 = m.now();
        m.set_pkru(Pkru::allow_all());
        assert_eq!(m.now() - t0, 20);
        assert_eq!(m.stats().wrpkru, 1);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.write_u64(a + 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(a + 8).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn u64_round_trip_straddling_page_boundary() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        rw_page(&mut m, 0x2000, 1);
        m.set_pkru(Pkru::allow_all());
        // 3 bytes on the first page, 5 on the second.
        let addr = a + (PAGE_SIZE - 3);
        m.write_u64(addr, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x0123_4567_89ab_cdef);
        // The straddling access is still one 8-byte access, cost-wise.
        let t0 = m.now();
        m.read_u64(addr).unwrap();
        assert_eq!(m.now() - t0, CostModel::paper().mem_access(8));
    }

    #[test]
    fn u32_round_trip_straddling_page_boundary() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        rw_page(&mut m, 0x2000, 1);
        m.set_pkru(Pkru::allow_all());
        let addr = a + (PAGE_SIZE - 1);
        m.write_u32(addr, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(addr).unwrap(), 0xdead_beef);
        let t0 = m.now();
        m.read_u32(addr).unwrap();
        assert_eq!(m.now() - t0, CostModel::paper().mem_access(4));
    }

    #[test]
    fn straddling_u64_is_atomic_when_second_page_faults() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        // next page unmapped
        m.set_pkru(Pkru::allow_all());
        let addr = a + (PAGE_SIZE - 4);
        let err = m.write_u64(addr, u64::MAX).unwrap_err();
        assert_eq!(err.kind, FaultKind::NotPresent);
        assert_eq!(err.addr, VAddr::new(0x2000), "fault at the failing page");
        let mut probe = [0u8; 4];
        m.read(addr, &mut probe).unwrap();
        assert_eq!(probe, [0; 4], "no partial store on the first page");
    }

    #[test]
    fn read_append_matches_read() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        rw_page(&mut m, 0x2000, 1);
        m.set_pkru(Pkru::allow_all());
        let data: Vec<u8> = (0u8..=255).cycle().take(PAGE_SIZE + 77).collect();
        m.write(a + 9, &data).unwrap();
        let cycles0 = m.now();
        let stats0 = m.stats();
        let mut via_read = vec![0u8; data.len()];
        m.read(a + 9, &mut via_read).unwrap();
        let read_cost = m.now() - cycles0;
        let mut via_append = vec![0xEE]; // pre-existing contents survive
        m.read_append(a + 9, data.len(), &mut via_append).unwrap();
        assert_eq!(&via_append[1..], &via_read[..]);
        assert_eq!(via_append[0], 0xEE);
        assert_eq!(m.now() - cycles0 - read_cost, read_cost, "same charge");
        assert_eq!(m.stats().reads, stats0.reads + 2);
    }

    #[test]
    fn read_append_leaves_out_untouched_on_fault() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        let mut out = vec![1, 2, 3];
        assert!(m.read_append(a, 2 * PAGE_SIZE, &mut out).is_err());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn exec_only_page_is_unreadable() {
        let mut m = Machine::new();
        let a = VAddr::new(0x1000);
        m.map_page(a, ProtKey::new(1).unwrap(), PageFlags::x());
        m.set_pkru(Pkru::allow_all());
        assert!(m.read(a, &mut [0u8; 1]).is_err());
        assert!(m.fetch_check(a).is_ok());
    }

    #[test]
    fn exec_obeys_pkru_hardware_modification() {
        let mut m = Machine::new();
        let k = ProtKey::new(4).unwrap();
        let a = VAddr::new(0x1000);
        m.map_page(a, k, PageFlags::x());
        m.set_pkru(Pkru::deny_all());
        // With the paper's hardware change (default): fetch faults.
        let err = m.fetch_check(a).unwrap_err();
        assert_eq!(err.kind, FaultKind::ProtectionKey(k));
        // Vanilla MPK: fetch is not subject to keys. The switch takes
        // effect immediately even though the page was just cached.
        m.set_exec_obeys_pkru(false);
        assert!(m.fetch_check(a).is_ok());
    }

    #[test]
    fn unmap_discards() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        assert!(m.unmap_page(a));
        assert!(!m.unmap_page(a));
        m.set_pkru(Pkru::allow_all());
        assert!(m.read(a, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn remap_after_unmap_yields_a_zeroed_frame() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.write(a, b"dirty").unwrap();
        assert!(m.unmap_page(a));
        m.map_page(a, ProtKey::new(1).unwrap(), PageFlags::rw());
        let mut buf = [0xffu8; 5];
        m.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0; 5]);
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut m = Machine::new();
        rw_page(&mut m, 0x1000, 1);
        rw_page(&mut m, 0x1000, 2);
    }

    #[test]
    fn sparse_mappings_far_apart() {
        let mut m = Machine::new();
        let lo = rw_page(&mut m, 0x1000, 1);
        let hi = rw_page(&mut m, 1 << 40, 1);
        m.set_pkru(Pkru::allow_all());
        m.write(lo, b"lo").unwrap();
        m.write(hi, b"hi").unwrap();
        let mut buf = [0u8; 2];
        m.read(lo, &mut buf).unwrap();
        assert_eq!(&buf, b"lo");
        m.read(hi, &mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        assert_eq!(
            m.pages_with_key(ProtKey::new(1).unwrap()),
            vec![VAddr::new(0x1000).page(), VAddr::new(1 << 40).page()],
            "ascending across chunks"
        );
    }

    #[test]
    fn stats_track_bytes() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.write(a, &[1, 2, 3]).unwrap();
        m.read(a, &mut [0u8; 2]).unwrap();
        let s = m.stats();
        assert_eq!(s.bytes_written, 3);
        assert_eq!(s.bytes_read, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn charge_advances_clock() {
        let mut m = Machine::with_cost_model(CostModel::free());
        m.charge(123);
        assert_eq!(m.now(), 123);
    }

    // -- software TLB (host-side) -----------------------------------------

    #[test]
    fn tlb_hits_after_first_access() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        let mut buf = [0u8; 1];
        m.read(a, &mut buf).unwrap(); // cold: walk
        let s0 = m.stats();
        assert_eq!((s0.tlb_hits, s0.tlb_misses), (0, 1));
        m.read(a, &mut buf).unwrap(); // warm: hit
        m.write(a, b"x").unwrap(); // same entry serves all access kinds
        let s1 = m.stats();
        assert_eq!((s1.tlb_hits, s1.tlb_misses), (2, 1));
    }

    #[test]
    fn wrpkru_needs_no_tlb_invalidation() {
        let mut m = Machine::new();
        let k = ProtKey::new(1).unwrap();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        let mut buf = [0u8; 1];
        m.read(a, &mut buf).unwrap(); // fills the TLB
                                      // Revoking the key is visible instantly: rights are evaluated
                                      // against the live PKRU on every hit, never cached.
        m.set_pkru(Pkru::deny_all());
        let err = m.read(a, &mut buf).unwrap_err();
        assert_eq!(err.kind, FaultKind::ProtectionKey(k));
        // And granting again serves from the still-valid entry.
        m.set_pkru(Pkru::allow_all());
        let hits0 = m.stats().tlb_hits;
        m.read(a, &mut buf).unwrap();
        assert_eq!(m.stats().tlb_hits, hits0 + 1);
    }

    #[test]
    fn tlb_invalidated_by_retag() {
        let mut m = Machine::new();
        let k1 = ProtKey::new(1).unwrap();
        let k2 = ProtKey::new(2).unwrap();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::deny_all().allowing(k1));
        let mut buf = [0u8; 1];
        m.read(a, &mut buf).unwrap();
        m.set_page_key(a, k2).unwrap();
        let err = m.read(a, &mut buf).unwrap_err();
        assert_eq!(err.kind, FaultKind::ProtectionKey(k2));
    }

    #[test]
    fn tlb_invalidated_by_flag_change_and_unmap() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.write(a, b"x").unwrap();
        m.set_page_flags(a, PageFlags::r()).unwrap();
        assert_eq!(m.write(a, b"x").unwrap_err().kind, FaultKind::Permission);
        assert!(m.read(a, &mut [0u8; 1]).is_ok());
        m.unmap_page(a);
        assert_eq!(
            m.read(a, &mut [0u8; 1]).unwrap_err().kind,
            FaultKind::NotPresent
        );
    }

    #[test]
    fn tlb_disabled_same_outcomes_no_counters() {
        let mut m = Machine::new();
        m.set_tlb_enabled(false);
        assert!(!m.tlb_enabled());
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.write(a, b"data").unwrap();
        let mut buf = [0u8; 4];
        m.read(a, &mut buf).unwrap();
        assert_eq!(&buf, b"data");
        let s = m.stats();
        assert_eq!((s.tlb_hits, s.tlb_misses), (0, 0));
    }

    #[test]
    fn tlb_is_simulated_cycle_neutral() {
        // Same workload with and without the TLB: identical cycles and
        // simulated counters (the property test in tests/ goes further).
        let run = |tlb: bool| {
            let mut m = Machine::new();
            m.set_tlb_enabled(tlb);
            let a = rw_page(&mut m, 0x1000, 1);
            rw_page(&mut m, 0x2000, 1);
            m.set_pkru(Pkru::allow_all());
            let data = vec![7u8; PAGE_SIZE + 64];
            m.write(a, &data).unwrap();
            let mut buf = vec![0u8; PAGE_SIZE + 64];
            m.read(a, &mut buf).unwrap();
            m.set_page_key(a, ProtKey::new(3).unwrap()).unwrap();
            let _ = m.read(a, &mut buf);
            (m.now(), m.stats().faults, m.stats().bytes_read)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn mapped_pages_walks_everything_in_order() {
        let mut m = Machine::new();
        assert!(m.mapped_pages().is_empty());
        // two chunks apart, mapped out of order
        let hi = VAddr::new(600 * PAGE_SIZE as u64);
        let lo = VAddr::new(3 * PAGE_SIZE as u64);
        m.map_page(hi, ProtKey::new(2).unwrap(), PageFlags::x());
        m.map_page(lo, ProtKey::new(1).unwrap(), PageFlags::rw());
        let pages = m.mapped_pages();
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].0, lo.page());
        assert_eq!(pages[0].1.key, ProtKey::new(1).unwrap());
        assert!(pages[0].1.flags.can_write());
        assert_eq!(pages[1].0, hi.page());
        assert!(pages[1].1.flags.can_execute());
        m.unmap_page(lo);
        assert_eq!(m.mapped_pages().len(), 1);
    }

    #[test]
    fn cores_have_private_clocks_and_pkru() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.set_num_cores(2);
        m.charge(100);
        assert_eq!(m.core_cycles(0), m.now());

        m.switch_to_core(1);
        m.set_pkru(Pkru::deny_all());
        assert!(m.write(a, b"x").is_err(), "core 1's PKRU denies");
        m.charge(7);
        let c1_parked = m.core_cycles(1);

        m.switch_to_core(0);
        assert!(m.write(a, b"x").is_ok(), "core 0's PKRU still allows");
        assert_eq!(
            m.core_cycles(1),
            c1_parked,
            "a parked core's clock must not advance while another core runs"
        );
        assert_eq!(m.max_core_cycles(), m.core_cycles(0).max(m.core_cycles(1)));
    }

    #[test]
    fn single_core_machine_is_unchanged_by_core_api() {
        let mut m = Machine::new();
        assert_eq!(m.num_cores(), 1);
        assert_eq!(m.current_core(), 0);
        m.charge(42);
        assert_eq!(m.core_cycles(0), 42);
        assert_eq!(m.max_core_cycles(), 42);
        m.set_num_cores(1); // no-op
        assert_eq!(m.num_cores(), 1);
    }

    #[test]
    fn per_core_stats_are_private() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.set_num_cores(2);
        m.note_cross_call();
        m.write(a, b"hi").unwrap();
        assert_eq!(m.core_stats(0).cross_calls, 1);
        assert_eq!(m.core_stats(1).cross_calls, 0);
        m.switch_to_core(1);
        m.note_cross_call();
        m.note_cross_call();
        assert_eq!(m.core_stats(1).cross_calls, 2);
        assert_eq!(m.core_stats(0).cross_calls, 1);
        // Core 1's TLB is cold: its first touch of the page misses.
        let misses_before = m.core_stats(1).tlb_misses;
        m.write(a, b"yo").unwrap();
        assert!(m.core_stats(1).tlb_misses > misses_before);
    }

    #[test]
    fn machine_stats_sum_the_cores() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.read(a, &mut [0; 8]).unwrap();
        m.set_num_cores(3);
        m.switch_to_core(2);
        m.set_pkru(Pkru::allow_all());
        m.write(a, b"c2").unwrap();
        m.read(a, &mut [0; 2]).unwrap();
        m.switch_to_core(1);
        let s = m.stats();
        let cores: Vec<CoreStats> = (0..3).map(|i| m.core_stats(i)).collect();
        let sum = |f: fn(&CoreStats) -> u64| cores.iter().map(f).sum::<u64>();
        assert_eq!(s.tlb_hits, sum(|c| c.tlb_hits));
        assert_eq!(s.tlb_misses, sum(|c| c.tlb_misses));
        assert_eq!(s.wrpkru, sum(|c| c.wrpkru));
        assert_eq!((s.wrpkru, s.tlb_misses, s.tlb_hits), (2, 2, 1));
    }

    #[test]
    fn retag_shoots_down_parked_core_tlbs() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        m.set_num_cores(2);
        // Warm core 1's TLB on the page, then park it.
        m.switch_to_core(1);
        m.set_pkru(Pkru::allow_all());
        m.write(a, b"warm").unwrap();
        m.switch_to_core(0);
        // Core 0 retags the page to a key core 1's PKRU denies.
        m.set_page_key(a, ProtKey::new(3).unwrap()).unwrap();
        m.switch_to_core(1);
        m.set_pkru(Pkru::deny_all().allowing(ProtKey::new(1).unwrap()));
        assert!(
            m.write(a, b"stale").is_err(),
            "a stale TLB entry must not survive a cross-core retag"
        );
    }

    #[test]
    fn set_page_key_cached_is_free_but_counted() {
        let mut m = Machine::new();
        let a = rw_page(&mut m, 0x1000, 1);
        m.set_pkru(Pkru::allow_all());
        let before = m.now();
        let retags = m.stats().retags;
        m.set_page_key_cached(a, ProtKey::new(2).unwrap()).unwrap();
        assert_eq!(m.now(), before, "cached retag charges no cycles");
        assert_eq!(m.stats().retags, retags + 1);
        // And the tag really changed.
        m.set_pkru(Pkru::deny_all().allowing(ProtKey::new(1).unwrap()));
        assert!(m.write(a, b"x").is_err());
    }

    #[test]
    #[should_panic(expected = "grow-only")]
    fn shrinking_cores_panics() {
        let mut m = Machine::new();
        m.set_num_cores(4);
        m.set_num_cores(2);
    }
}
