//! Observability: the monitor's one event door ([`System::record`]),
//! the event tracer, span profiler, resource ledger and flamegraph, plus
//! the two helpers through which the monitor issues retags, reclaims and
//! PKRU writes so each is recorded as it happens. Strictly an observer —
//! recording never charges simulated cycles.

use super::keys::PARKED_KEY;
use super::System;
use crate::ids::{CubicleId, EntryId};
use crate::ledger::LedgerRow;
use crate::metrics::Metrics;
use crate::span::{CycleAttribution, SpanFrame, SpanProfiler, SpanRecord};
use crate::trace::{FaultAudit, Incident, TraceBuffer, TraceEvent, TraceRecord};
use cubicle_mpk::{Fault, Pkru, ProtKey, VAddr};
use std::collections::HashMap;

/// Incidents the log keeps per audit block (loader, containment,
/// recovery): a kernel must not grow unbounded state when fed a stream
/// of hostile images or faults.
const INCIDENT_CAP: usize = 64;

/// What [`System::record`] takes: a trace event, or an incident for the
/// incident log, which brings the trace event of its counters along.
pub(super) enum Event {
    Trace(TraceEvent),
    Incident(Incident),
}

impl From<TraceEvent> for Event {
    fn from(e: TraceEvent) -> Event {
        Event::Trace(e)
    }
}

impl From<Incident> for Event {
    fn from(i: Incident) -> Event {
        Event::Incident(i)
    }
}

/// How [`System::page_op`] changes a mapped page.
#[derive(Clone, Copy)]
pub(super) enum PageOp {
    /// Retag to a key at `pkey_mprotect` cost.
    Retag(ProtKey),
    /// Retag through the grant cache's pre-armed descriptor, free of the
    /// `pkey_mprotect` charge.
    RetagCached(ProtKey),
    /// Unmap at `pkey_mprotect` cost (quarantine teardown).
    Reclaim,
}

/// Observability state, present only while tracing is enabled
/// ([`System::enable_tracing`]). Strictly an observer: recording never
/// charges simulated cycles.
pub(super) struct Tracer {
    pub(super) buf: TraceBuffer,
    pub(super) metrics: Metrics,
    /// Causal span profilers, one per simulated core (index = core id),
    /// grown lazily as cores first record events. Each profiler sees
    /// only its own core's events, so per-core span trees stay causally
    /// consistent under interleaving; cross-core views sum over them.
    pub(super) spans: Vec<SpanProfiler>,
    /// Retained-span capacity used when a new core's profiler is grown.
    pub(super) span_capacity: usize,
    /// Next span id to hand out (0 is reserved for "no span"). Shared
    /// across cores so span ids are globally unique in the merged trace.
    pub(super) next_span: u64,
}

impl Tracer {
    /// Appends an event to the ring, feeds it to `core`'s span profiler
    /// and, for a cross-call exit, to the latency histograms — the single
    /// door every recorded event passes through, so the span trees and
    /// histograms always agree with the event stream.
    pub(super) fn record(&mut self, at: u64, core: usize, event: TraceEvent) {
        while self.spans.len() <= core {
            self.spans.push(SpanProfiler::new(at, self.span_capacity));
        }
        self.spans[core].on_event(at, &event);
        if let TraceEvent::CrossCallExit {
            caller,
            callee,
            entry,
            cycles,
            ..
        } = event
        {
            self.metrics.record_call(caller, callee, entry, cycles);
        }
        self.buf.push_on(at, core as u32, event);
    }

    /// The innermost open span on `core` (0 when none).
    pub(super) fn current_span(&self, core: usize) -> u64 {
        self.spans.get(core).map_or(0, |p| p.current_span())
    }

    /// Self/total cycle attribution for a cubicle summed across every
    /// core's profiler.
    pub(super) fn cubicle_attribution(&self, cid: CubicleId) -> CycleAttribution {
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
    pub(super) fn spans_completed(&self) -> u64 {
        self.spans.iter().map(|p| p.spans_completed()).sum()
    }
}

impl System {
    /// Enables event tracing with a ring buffer of `capacity` records
    /// (oldest overwritten when full, and counted in
    /// [`TraceBuffer::dropped`]).
    ///
    /// Tracing is an observer: it never charges simulated cycles, so
    /// cycle counts are bit-identical with tracing on or off. Re-enabling
    /// resets any previous trace.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        self.tracer = Some(Tracer {
            buf: TraceBuffer::new(capacity),
            metrics: Metrics::default(),
            spans: vec![SpanProfiler::new(self.machine.now(), capacity)],
            span_capacity: capacity,
            next_span: 1,
        });
    }

    /// Is tracing currently enabled?
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The event trace, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.tracer.as_ref().map(|t| &t.buf)
    }

    /// Cross-call latency histograms, when tracing is enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.tracer.as_ref().map(|t| &t.metrics)
    }

    /// The trap-and-map audit log, oldest first: the fault records the
    /// trace ring still holds. Empty when tracing is disabled.
    pub fn fault_audit(&self) -> impl Iterator<Item = FaultAudit> + '_ {
        self.trace()
            .into_iter()
            .flat_map(TraceBuffer::records)
            .filter_map(TraceRecord::fault_audit)
    }

    /// Core 0's causal span profiler, when tracing is enabled.
    /// On a single-core run this is *the* profiler; on a multi-core run
    /// use [`System::core_span_profiler`] for the other cores.
    pub fn span_profiler(&self) -> Option<&SpanProfiler> {
        self.core_span_profiler(0)
    }

    /// The span profiler of one simulated core, when tracing is enabled
    /// and that core has recorded at least one event (core 0's profiler
    /// always exists).
    pub fn core_span_profiler(&self, core: usize) -> Option<&SpanProfiler> {
        self.tracer.as_ref().and_then(|t| t.spans.get(core))
    }

    /// Completed spans retained by the profilers, grouped by core in
    /// core order (oldest first within a core); empty when tracing is
    /// disabled.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer
            .as_ref()
            .map(|t| t.spans.iter().flat_map(|p| p.spans().copied()).collect())
            .unwrap_or_default()
    }

    /// Per-cubicle self/total cycle attribution summed across every
    /// core's span profiler, sorted by cubicle id; empty when tracing is
    /// disabled.
    pub fn span_cubicle_attribution(&self) -> Vec<(CubicleId, CycleAttribution)> {
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
    pub fn span_entry_attribution(&self) -> Vec<(EntryId, CycleAttribution)> {
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
    pub fn span_attribution_window(&self) -> Option<u64> {
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
    pub fn ledger(&self) -> Vec<LedgerRow> {
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
                    key_parked: c.key == PARKED_KEY,
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
                        .stats
                        .grant_hits_by_accessor
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
    pub fn export_flamegraph(&self) -> String {
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

    /// The monitor's one event door. Folds the event into the counters
    /// ([`SysStats::apply`](crate::SysStats::apply), their only writer
    /// but CubicleSan's) and, while tracing, hands it to the tracer
    /// stamped with the current cycle count and core; an incident also
    /// lands in the bounded incident log. Always inlined, like
    /// [`SysStats::apply`](crate::SysStats::apply): the dispatch path
    /// records six or more events per crossing.
    #[inline(always)]
    pub(super) fn record(&mut self, event: impl Into<Event>) {
        let (trace, incident) = match event.into() {
            Event::Trace(e) => (Some(e), None),
            Event::Incident(i) => (i.trace(), Some(i)),
        };
        if let Some(e) = trace {
            self.stats.apply(&e);
            if let Some(tracer) = &mut self.tracer {
                tracer.record(self.machine.now(), self.machine.current_core(), e);
            }
        }
        if let Some(i) = incident {
            let block = i.block();
            let kept = self.incidents.iter().filter(|k| k.block() == block);
            if kept.count() < INCIDENT_CAP {
                self.incidents.push(i);
            } else {
                self.incidents_dropped[block] += 1;
            }
        }
    }

    /// The incident log, oldest first: rejected images, quarantines,
    /// unwinds, restarts and crash recoveries, each rendered by its
    /// `Display`. Kept with tracing off, up to 64 per audit block; the
    /// fault audit counts the rest.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// A fresh span id and the innermost open span on the current core,
    /// for a cross-call about to enter; `(0, 0)` while tracing is off.
    #[inline]
    pub(super) fn open_span(&mut self) -> (u64, u64) {
        let core = self.machine.current_core();
        match &mut self.tracer {
            Some(tracer) => {
                tracer.next_span += 1;
                (tracer.next_span - 1, tracer.current_span(core))
            }
            None => (0, 0),
        }
    }

    /// Issues `op` on the page containing `addr` and records it as a
    /// [`TraceEvent::Retag`] or [`TraceEvent::PageReclaim`], stamped after
    /// the charge. Every retag and reclaim the machine counts in
    /// `MachineStats` goes through here, so a ring that dropped nothing
    /// holds one record per counted operation.
    #[inline]
    pub(super) fn page_op(&mut self, addr: VAddr, op: PageOp) -> Result<(), Fault> {
        let page = addr.page().base();
        let event = match op {
            PageOp::Retag(to) => TraceEvent::Retag {
                addr: page,
                from: self.machine.set_page_key(addr, to)?,
                to,
            },
            PageOp::RetagCached(to) => TraceEvent::Retag {
                addr: page,
                from: self.machine.set_page_key_cached(addr, to)?,
                to,
            },
            PageOp::Reclaim => TraceEvent::PageReclaim {
                addr: page,
                key: self.machine.reclaim_page(addr)?,
            },
        };
        self.record(event);
        Ok(())
    }

    /// Writes the PKRU register (`wrpkru`) and records it as a
    /// [`TraceEvent::WrPkru`], stamped after the charge. Every counted
    /// `wrpkru` goes through here.
    #[inline]
    pub(super) fn wrpkru(&mut self, pkru: Pkru) {
        self.machine.set_pkru(pkru);
        self.record(TraceEvent::WrPkru { pkru });
    }
}
