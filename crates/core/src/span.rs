//! Causal span profiling over the kernel event stream.
//!
//! Every cross-cubicle call opens a **span** (id, parent id, caller,
//! callee, entry, start/end cycle); the in-flight call chain is an
//! explicit span tree. From that tree the profiler derives the paper's
//! missing attribution axis: not just *what* happened (PR 1's counters
//! and histograms) but *who caused it and what it cost* — exclusive
//! (self) versus inclusive (total) cycles per cubicle and per entry
//! point, plus windows opened, stack bytes copied, PKRU writes, faults
//! and heap bytes charged to the span active when they occurred.
//!
//! Attribution is delta-based: the profiler keeps a `last_stamp` cursor
//! and, on every span open/close, assigns the elapsed gap to the span on
//! top of the open stack (or to the root caller when the stack is
//! empty). This makes two invariants hold exactly, both enforced by
//! tests:
//!
//! * per span: `self + Σ(child totals) == total`;
//! * globally: `Σ(per-cubicle self) == attributed window`
//!   ([`SpanProfiler::attributed_window`]).
//!
//! Like the rest of the tracer, the profiler is strictly an observer:
//! it never charges simulated cycles.

use crate::ids::{CubicleId, EntryId};
use crate::trace::TraceEvent;
use std::collections::{HashMap, VecDeque};

/// One frame of a collapsed flamegraph stack: the root context (a
/// cubicle executing outside any cross-call) or one cross-call hop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SpanFrame {
    /// The cubicle driving calls at stack depth zero.
    Root(CubicleId),
    /// A cross-call into `0` through entry point `1`.
    Call(CubicleId, EntryId),
}

/// Exclusive/inclusive cycle attribution for one cubicle or entry point.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CycleAttribution {
    /// Cycles spent with this subject itself on top of the span stack
    /// (exclusive time: children's cycles excluded).
    pub self_cycles: u64,
    /// Cycles of whole spans attributed to this subject (inclusive
    /// time). Per cubicle, nested re-appearances under an ancestor of
    /// the same cubicle are not double-counted.
    pub total_cycles: u64,
    /// Completed spans attributed to this subject (calls into it).
    pub calls: u64,
}

/// A completed span: one cross-cubicle call with cycle and resource
/// attribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Unique span id (allocated per cross-call, never reused; 0 is
    /// reserved for "no span").
    pub id: u64,
    /// The id of the enclosing span, 0 for a depth-zero call.
    pub parent: u64,
    /// The calling cubicle.
    pub caller: CubicleId,
    /// The cubicle entered.
    pub callee: CubicleId,
    /// The entry point invoked.
    pub entry: EntryId,
    /// Cycle stamp at span open.
    pub start: u64,
    /// Cycle stamp at span close.
    pub end: u64,
    /// Exclusive cycles: time with this span on top of the stack.
    pub self_cycles: u64,
    /// Summed totals of direct children.
    pub child_cycles: u64,
    /// Nesting depth (0 = opened with an empty stack).
    pub depth: usize,
    /// `window_open` operations performed under this span (exclusive).
    pub windows_opened: u64,
    /// Trampoline stack-argument bytes copied under this span.
    pub bytes_copied: u64,
    /// PKRU writes under this span.
    pub pkru_writes: u64,
    /// Page retags under this span.
    pub retags: u64,
    /// Trap-and-map faults (resolved + denied) under this span.
    pub faults: u64,
    /// Heap bytes allocated under this span.
    pub heap_bytes: u64,
}

impl SpanRecord {
    /// Inclusive cycles: close stamp minus open stamp. Equals
    /// [`SpanRecord::self_cycles`] + [`SpanRecord::child_cycles`].
    pub fn total_cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// An open (in-flight) span on the profiler's stack.
#[derive(Clone, Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    caller: CubicleId,
    callee: CubicleId,
    entry: EntryId,
    start: u64,
    self_cycles: u64,
    child_cycles: u64,
    windows_opened: u64,
    bytes_copied: u64,
    pkru_writes: u64,
    retags: u64,
    faults: u64,
    heap_bytes: u64,
    /// Collapsed-stack path from the root to this span.
    path: Vec<SpanFrame>,
}

/// The causal span profiler. Fed every trace event by the tracer (see
/// `System::enable_tracing`); derives the span tree, per-cubicle and
/// per-entry cycle attribution, and the collapsed-stack flamegraph.
#[derive(Clone, Debug)]
pub struct SpanProfiler {
    open: Vec<OpenSpan>,
    /// Completed spans, newest last (bounded ring like the trace
    /// buffer).
    recent: VecDeque<SpanRecord>,
    recent_capacity: usize,
    /// Completed spans evicted from `recent`.
    dropped: u64,
    /// Cycle stamp when profiling started.
    epoch: u64,
    /// Everything in `[epoch, last_stamp)` has been attributed.
    last_stamp: u64,
    per_cubicle: HashMap<CubicleId, CycleAttribution>,
    per_entry: HashMap<EntryId, CycleAttribution>,
    /// Collapsed-stack self-cycle counts, keyed by root-to-leaf path.
    folded: HashMap<Vec<SpanFrame>, u64>,
    spans_completed: u64,
}

impl SpanProfiler {
    /// Creates a profiler whose attribution window starts at `epoch`
    /// and which retains at most `capacity` completed spans.
    pub fn new(epoch: u64, capacity: usize) -> SpanProfiler {
        SpanProfiler {
            open: Vec::new(),
            recent: VecDeque::new(),
            recent_capacity: capacity.max(1),
            dropped: 0,
            epoch,
            last_stamp: epoch,
            per_cubicle: HashMap::new(),
            per_entry: HashMap::new(),
            folded: HashMap::new(),
            spans_completed: 0,
        }
    }

    /// The span id currently on top of the stack, 0 when no cross-call
    /// is in flight.
    pub fn current_span(&self) -> u64 {
        self.open.last().map_or(0, |o| o.id)
    }

    /// Current nesting depth of in-flight spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Cycles attributed so far: the span between the profiling epoch
    /// and the last span open/close. Equals the sum of all per-cubicle
    /// self cycles — the profiler's conservation invariant.
    pub fn attributed_window(&self) -> u64 {
        self.last_stamp - self.epoch
    }

    /// Completed spans retained (oldest first).
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.recent.iter()
    }

    /// Completed spans ever recorded (retained + dropped).
    pub fn spans_completed(&self) -> u64 {
        self.spans_completed
    }

    /// Completed spans evicted from the bounded retention ring.
    pub fn spans_dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-cubicle cycle attribution, sorted by cubicle id.
    pub fn per_cubicle(&self) -> Vec<(CubicleId, CycleAttribution)> {
        let mut v: Vec<_> = self.per_cubicle.iter().map(|(&c, &a)| (c, a)).collect();
        v.sort_by_key(|(c, _)| *c);
        v
    }

    /// Attribution for one cubicle (zero when it never appeared).
    pub fn cubicle_attribution(&self, cid: CubicleId) -> CycleAttribution {
        self.per_cubicle.get(&cid).copied().unwrap_or_default()
    }

    /// Per-entry-point cycle attribution, sorted by entry id.
    pub fn per_entry(&self) -> Vec<(EntryId, CycleAttribution)> {
        let mut v: Vec<_> = self.per_entry.iter().map(|(&e, &a)| (e, a)).collect();
        v.sort_by_key(|(e, _)| *e);
        v
    }

    /// Collapsed-stack (flamegraph) lines as `(path, self_cycles)`,
    /// sorted by path for deterministic output. Zero-count paths are
    /// omitted.
    pub fn folded(&self) -> Vec<(&[SpanFrame], u64)> {
        let mut v: Vec<_> = self
            .folded
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(p, &n)| (p.as_slice(), n))
            .collect();
        v.sort();
        v
    }

    /// Feeds one trace event to the profiler. Called by the tracer for
    /// every recorded event, in stream order.
    pub fn on_event(&mut self, at: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::CrossCallEnter {
                span,
                caller,
                callee,
                entry,
                ..
            } => self.on_enter(at, span, caller, callee, entry),
            TraceEvent::CrossCallExit { span, .. } => self.on_exit(at, span),
            TraceEvent::WindowOp {
                op: crate::trace::WindowOpKind::Open,
                ok: true,
                ..
            } => {
                if let Some(top) = self.open.last_mut() {
                    top.windows_opened += 1;
                }
            }
            TraceEvent::StackCopy { bytes, .. } => {
                if let Some(top) = self.open.last_mut() {
                    top.bytes_copied += bytes as u64;
                }
            }
            TraceEvent::WrPkru { .. } => {
                if let Some(top) = self.open.last_mut() {
                    top.pkru_writes += 1;
                }
            }
            TraceEvent::Retag { .. } => {
                if let Some(top) = self.open.last_mut() {
                    top.retags += 1;
                }
            }
            TraceEvent::FaultResolved { .. } | TraceEvent::FaultDenied { .. } => {
                if let Some(top) = self.open.last_mut() {
                    top.faults += 1;
                }
            }
            TraceEvent::HeapAlloc { bytes, .. } => {
                if let Some(top) = self.open.last_mut() {
                    top.heap_bytes += bytes as u64;
                }
            }
            _ => {}
        }
    }

    /// Attributes the gap since `last_stamp` to the top-of-stack span,
    /// or to `root` (the cubicle driving calls) when the stack is empty.
    fn attribute_gap(&mut self, at: u64, root: CubicleId) {
        let gap = at.saturating_sub(self.last_stamp);
        self.last_stamp = self.last_stamp.max(at);
        if gap == 0 {
            return;
        }
        match self.open.last_mut() {
            Some(top) => {
                top.self_cycles += gap;
                let cubicle = top.callee;
                let entry = top.entry;
                *self.folded.entry(top.path.clone()).or_insert(0) += gap;
                self.per_cubicle.entry(cubicle).or_default().self_cycles += gap;
                self.per_entry.entry(entry).or_default().self_cycles += gap;
            }
            None => {
                *self.folded.entry(vec![SpanFrame::Root(root)]).or_insert(0) += gap;
                let a = self.per_cubicle.entry(root).or_default();
                a.self_cycles += gap;
                a.total_cycles += gap;
            }
        }
    }

    fn on_enter(&mut self, at: u64, id: u64, caller: CubicleId, callee: CubicleId, entry: EntryId) {
        self.attribute_gap(at, caller);
        let parent = self.current_span();
        let mut path = match self.open.last() {
            Some(top) => top.path.clone(),
            None => vec![SpanFrame::Root(caller)],
        };
        path.push(SpanFrame::Call(callee, entry));
        self.open.push(OpenSpan {
            id,
            parent,
            caller,
            callee,
            entry,
            start: at,
            self_cycles: 0,
            child_cycles: 0,
            windows_opened: 0,
            bytes_copied: 0,
            pkru_writes: 0,
            retags: 0,
            faults: 0,
            heap_bytes: 0,
            path,
        });
    }

    fn on_exit(&mut self, at: u64, id: u64) {
        // An exit without a matching open span (tracing was enabled
        // mid-call-chain): nothing to close, but the elapsed gap still
        // belongs to whatever is on the stack.
        if self.open.last().is_none_or(|o| o.id != id) {
            let root = self.open.first().map_or(CubicleId::MONITOR, |o| o.caller);
            self.attribute_gap(at, root);
            return;
        }
        // Close the top span: the gap since the last stamp is its self
        // time, its total flows into the parent's child sum.
        let root = self.open.first().map(|o| o.caller).expect("stack nonempty");
        self.attribute_gap(at, root);
        let top = self.open.pop().expect("checked above");
        let total = at - top.start;
        if let Some(parent) = self.open.last_mut() {
            parent.child_cycles += total;
        }
        // Inclusive attribution. Per cubicle, a span nested under an
        // ancestor span of the *same* cubicle (or under its own root
        // context) is already covered by that ancestor's total — adding
        // it again would double-count.
        let root_caller = self.open.first().map_or(top.caller, |o| o.caller);
        let covered = top.callee == root_caller || self.open.iter().any(|o| o.callee == top.callee);
        if !covered {
            self.per_cubicle.entry(top.callee).or_default().total_cycles += total;
        }
        if self.open.is_empty() && top.callee != top.caller {
            // A depth-zero span is part of the root caller's inclusive
            // time as well: the root was blocked in the call.
            self.per_cubicle.entry(top.caller).or_default().total_cycles += total;
        }
        {
            let a = self.per_cubicle.entry(top.callee).or_default();
            a.calls += 1;
        }
        let e = self.per_entry.entry(top.entry).or_default();
        e.total_cycles += total;
        e.calls += 1;
        self.spans_completed += 1;
        if self.recent.len() >= self.recent_capacity {
            self.recent.pop_front();
            self.dropped += 1;
        }
        self.recent.push_back(SpanRecord {
            id: top.id,
            parent: top.parent,
            caller: top.caller,
            callee: top.callee,
            entry: top.entry,
            start: top.start,
            end: at,
            self_cycles: top.self_cycles,
            child_cycles: top.child_cycles,
            depth: self.open.len(),
            windows_opened: top.windows_opened,
            bytes_copied: top.bytes_copied,
            pkru_writes: top.pkru_writes,
            retags: top.retags,
            faults: top.faults,
            heap_bytes: top.heap_bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: CubicleId = CubicleId(1);
    const B: CubicleId = CubicleId(2);
    const C: CubicleId = CubicleId(3);
    const E1: EntryId = EntryId(10);
    const E2: EntryId = EntryId(11);

    fn enter(p: &mut SpanProfiler, at: u64, id: u64, caller: CubicleId, callee: CubicleId) {
        let entry = if id % 2 == 1 { E1 } else { E2 };
        p.on_event(
            at,
            &TraceEvent::CrossCallEnter {
                span: id,
                parent: p.current_span(),
                caller,
                callee,
                entry,
                batch: 0,
            },
        );
    }

    fn exit(p: &mut SpanProfiler, at: u64, id: u64, caller: CubicleId, callee: CubicleId) {
        let entry = if id % 2 == 1 { E1 } else { E2 };
        p.on_event(
            at,
            &TraceEvent::CrossCallExit {
                span: id,
                caller,
                callee,
                entry,
                cycles: 0,
            },
        );
    }

    #[test]
    fn nested_self_and_total_attribution() {
        // A→B at 0, B→C at 10, C exits at 30, B exits at 50.
        let mut p = SpanProfiler::new(0, 64);
        enter(&mut p, 0, 1, A, B);
        enter(&mut p, 10, 2, B, C);
        exit(&mut p, 30, 2, B, C);
        exit(&mut p, 50, 1, A, B);

        let spans: Vec<_> = p.spans().copied().collect();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.id, 2);
        assert_eq!(inner.parent, 1);
        assert_eq!(inner.self_cycles, 20);
        assert_eq!(inner.total_cycles(), 20);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.self_cycles, 30);
        assert_eq!(outer.child_cycles, 20);
        assert_eq!(outer.total_cycles(), 50);
        assert_eq!(outer.self_cycles + outer.child_cycles, outer.total_cycles());

        assert_eq!(p.cubicle_attribution(B).self_cycles, 30);
        assert_eq!(p.cubicle_attribution(C).self_cycles, 20);
        assert_eq!(p.cubicle_attribution(B).total_cycles, 50);
        assert_eq!(p.cubicle_attribution(C).total_cycles, 20);
        assert_eq!(p.cubicle_attribution(A).total_cycles, 50, "root blocked");
        let self_sum: u64 = p.per_cubicle().iter().map(|(_, a)| a.self_cycles).sum();
        assert_eq!(self_sum, p.attributed_window());
        assert_eq!(p.attributed_window(), 50);
    }

    #[test]
    fn root_gaps_go_to_the_driving_cubicle() {
        let mut p = SpanProfiler::new(100, 64);
        enter(&mut p, 140, 1, A, B); // 40 root cycles for A
        exit(&mut p, 150, 1, A, B);
        enter(&mut p, 170, 2, A, C); // 20 more root cycles
        exit(&mut p, 180, 2, A, C);
        assert_eq!(p.cubicle_attribution(A).self_cycles, 60);
        assert_eq!(p.attributed_window(), 80);
        let self_sum: u64 = p.per_cubicle().iter().map(|(_, a)| a.self_cycles).sum();
        assert_eq!(self_sum, 80);
    }

    #[test]
    fn recursive_cubicle_totals_not_double_counted() {
        // A→B→C→B: the inner B span is covered by the outer B span.
        let mut p = SpanProfiler::new(0, 64);
        enter(&mut p, 0, 1, A, B);
        enter(&mut p, 10, 2, B, C);
        enter(&mut p, 20, 3, C, B);
        exit(&mut p, 30, 3, C, B);
        exit(&mut p, 40, 2, B, C);
        exit(&mut p, 50, 1, A, B);
        assert_eq!(p.cubicle_attribution(B).total_cycles, 50, "outer only");
        assert_eq!(p.cubicle_attribution(C).total_cycles, 30);
        let self_sum: u64 = p.per_cubicle().iter().map(|(_, a)| a.self_cycles).sum();
        assert_eq!(self_sum, 50);
    }

    #[test]
    fn folded_paths_accumulate_self_cycles() {
        let mut p = SpanProfiler::new(0, 64);
        enter(&mut p, 5, 1, A, B);
        enter(&mut p, 10, 2, B, C);
        exit(&mut p, 30, 2, B, C);
        exit(&mut p, 50, 1, A, B);
        let folded = p.folded();
        let total: u64 = folded.iter().map(|(_, n)| n).sum();
        assert_eq!(total, p.attributed_window());
        assert!(folded.iter().any(|(path, n)| *n == 20
            && path.len() == 3
            && path[0] == SpanFrame::Root(A)
            && matches!(path[2], SpanFrame::Call(c, _) if c == C)));
    }

    #[test]
    fn resources_attach_to_the_active_span() {
        let mut p = SpanProfiler::new(0, 64);
        enter(&mut p, 0, 1, A, B);
        p.on_event(
            1,
            &TraceEvent::StackCopy {
                caller: A,
                callee: B,
                bytes: 96,
            },
        );
        p.on_event(
            2,
            &TraceEvent::HeapAlloc {
                cubicle: B,
                addr: cubicle_mpk::VAddr::new(0x1000),
                bytes: 256,
            },
        );
        p.on_event(
            3,
            &TraceEvent::WrPkru {
                pkru: cubicle_mpk::Pkru::allow_all(),
            },
        );
        exit(&mut p, 10, 1, A, B);
        let span = p.spans().next().unwrap();
        assert_eq!(span.bytes_copied, 96);
        assert_eq!(span.heap_bytes, 256);
        assert_eq!(span.pkru_writes, 1);
    }

    #[test]
    fn unmatched_exit_is_tolerated() {
        let mut p = SpanProfiler::new(0, 64);
        exit(&mut p, 25, 9, A, B); // no matching enter
        assert_eq!(p.spans().count(), 0);
        assert_eq!(p.attributed_window(), 25);
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn retention_ring_is_bounded() {
        let mut p = SpanProfiler::new(0, 2);
        for i in 0..5u64 {
            enter(&mut p, i * 10, i + 1, A, B);
            exit(&mut p, i * 10 + 5, i + 1, A, B);
        }
        assert_eq!(p.spans().count(), 2);
        assert_eq!(p.spans_completed(), 5);
        assert_eq!(p.spans_dropped(), 3);
    }
}
