//! Observability: the event tracer, span profiler, resource ledger and
//! flamegraph. Strictly an observer — recording never charges simulated
//! cycles.

use super::keys::PARKED_KEY;
use super::System;
use crate::ids::{CubicleId, EntryId};
use crate::ledger::LedgerRow;
use crate::metrics::Metrics;
use crate::span::{CycleAttribution, SpanFrame, SpanProfiler, SpanRecord};
use crate::trace::{FaultAudit, TraceBuffer, TraceEvent};
use cubicle_mpk::MachineEvent;
use std::collections::{HashMap, VecDeque};

/// Observability state, present only while tracing is enabled
/// ([`System::enable_tracing`]). Strictly an observer: recording never
/// charges simulated cycles.
pub(super) struct Tracer {
    pub(super) buf: TraceBuffer,
    pub(super) metrics: Metrics,
    pub(super) audit: VecDeque<FaultAudit>,
    pub(super) audit_capacity: usize,
    pub(super) audit_dropped: u64,
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
    /// Appends an event to the ring and feeds it to `core`'s span
    /// profiler — the single door every recorded event passes through,
    /// so the span trees always agree with the event stream.
    pub(super) fn record(&mut self, at: u64, core: usize, event: TraceEvent) {
        while self.spans.len() <= core {
            self.spans.push(SpanProfiler::new(at, self.span_capacity));
        }
        self.spans[core].on_event(at, &event);
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
        let key_virt_on = self.keys.virtualised;
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
    #[inline]
    pub(super) fn pump_machine_events(&mut self) {
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
    #[inline]
    pub(super) fn trace_push(&mut self, event: TraceEvent) {
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
    #[inline]
    pub(super) fn audit_push(&mut self, audit: FaultAudit) {
        if let Some(tracer) = &mut self.tracer {
            if tracer.audit.len() >= tracer.audit_capacity {
                tracer.audit.pop_front();
                tracer.audit_dropped += 1;
            }
            tracer.audit.push_back(audit);
        }
    }
}
