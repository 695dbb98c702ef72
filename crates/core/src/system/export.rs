//! Trace exporters: Chrome `trace_event` JSON, Prometheus text and the
//! human-readable fault audit.

use super::locks::MonitorLockStats;
use super::observe::Tracer;
use super::System;
use crate::ids::CubicleId;
use crate::ledger::LedgerRow;
use crate::stats::{Series, SysStats};
use crate::trace::{FaultDecision, TraceEvent};
use cubicle_mpk::{CoreStats, Machine};

// The Prometheus tables beside `SysStats::SERIES`, one row per series,
// in export order.

#[rustfmt::skip]
const MACHINE_SERIES: [Series<Machine>; 9] = [
    Series::counter("cubicle_wrpkru_total", "PKRU register writes.", |m| m.stats().wrpkru),
    Series::counter("cubicle_retags_total", "Page key re-assignments (pkey_mprotect).", |m| m.stats().retags),
    Series::counter("cubicle_machine_faults_total", "Protection faults raised.", |m| m.stats().faults),
    Series::counter("cubicle_mem_reads_total", "Data loads.", |m| m.stats().reads),
    Series::counter("cubicle_mem_writes_total", "Data stores.", |m| m.stats().writes),
    Series::counter("cubicle_sim_tlb_hits_total", "Simulator software-TLB hits (host-side; no cycle effect).", |m| m.stats().tlb_hits),
    Series::counter("cubicle_sim_tlb_misses_total", "Simulator software-TLB misses, i.e. full page-table walks.", |m| m.stats().tlb_misses),
    Series::counter("cubicle_page_reclaims_total", "Pages reclaimed (unmapped) by the quarantine path.", |m| m.stats().unmaps),
    Series::counter("cubicle_cycles_total", "Simulated cycle counter.", |m| m.now()),
];

/// Per core: its cycle counter and its `CoreStats`.
#[rustfmt::skip]
const CORE_SERIES: [Series<(u64, CoreStats)>; 5] = [
    Series::counter("cubicle_core_cycles", "Per-core simulated cycle counter.", |(cycles, _)| *cycles),
    Series::counter("cubicle_core_tlb_hits_total", "Software-TLB hits on this core.", |(_, s)| s.tlb_hits),
    Series::counter("cubicle_core_tlb_misses_total", "Software-TLB misses on this core.", |(_, s)| s.tlb_misses),
    Series::counter("cubicle_core_cross_calls_total", "Cross-calls dispatched from this core.", |(_, s)| s.cross_calls),
    Series::counter("cubicle_core_wrpkru_total", "PKRU writes performed on this core.", |(_, s)| s.wrpkru),
];

#[rustfmt::skip]
const LOCK_SERIES: [Series<MonitorLockStats>; 3] = [
    Series::counter("cubicle_lock_acquisitions_total", "Monitor lock acquisitions.", |s| s.acquisitions),
    Series::counter("cubicle_lock_contended_total", "Monitor lock acquisitions that spun (simulated contention).", |s| s.contended),
    Series::counter("cubicle_lock_wait_cycles_total", "Simulated cycles spent spinning on monitor locks.", |s| s.wait_cycles),
];

const LOCKORDER_CYCLIC: Series<System> = Series::gauge(
    "cubicle_san_lockorder_cyclic",
    "1 when the lock-order graph has a cycle.",
    |s| u64::from(s.lockorder_cycle().is_some()),
);

const CALL_EDGES: Series<u64> = Series::counter(
    "cubicle_call_edge_total",
    "Cross-calls per caller/callee edge.",
    |n| *n,
);

#[rustfmt::skip]
const LEDGER_SERIES: [Series<LedgerRow>; 12] = [
    Series::gauge("cubicle_pages_owned", "Pages owned by the cubicle.", |r| r.pages_owned as u64),
    Series::gauge("cubicle_pages_held_foreign", "Foreign pages currently retagged to the cubicle via trap-and-map.", |r| r.pages_held_foreign as u64),
    Series::gauge("cubicle_windows_live", "Live window descriptors.", |r| r.windows as u64),
    Series::gauge("cubicle_windows_open", "Window descriptors open for at least one peer.", |r| r.windows_open as u64),
    Series::gauge("cubicle_heap_bytes_used", "Live bytes in the cubicle's heap sub-allocator.", |r| r.heap_used as u64),
    Series::gauge("cubicle_stack_bytes_used", "Bytes of the per-cubicle stack in use.", |r| r.stack_used as u64),
    Series::gauge("cubicle_key_parked", "1 when the cubicle's key is the parked key.", |r| u64::from(r.key_parked)),
    Series::gauge("cubicle_quarantined", "1 while the cubicle is quarantined.", |r| u64::from(r.quarantined())),
    Series::gauge("cubicle_generation", "Microreboot incarnation of the cubicle.", |r| u64::from(r.generation)),
    Series::counter("cubicle_calls_in_total", "Cross-calls into the cubicle.", |r| r.calls_in),
    Series::counter("cubicle_calls_out_total", "Cross-calls out of the cubicle.", |r| r.calls_out),
    Series::counter("cubicle_grant_cache_hits", "Trap-and-map faults by the cubicle answered from the grant cache.", |r| r.grant_hits),
];

#[rustfmt::skip]
const TRACER_SERIES: [Series<Tracer>; 3] = [
    Series::counter("cubicle_trace_events_dropped_total", "Trace records overwritten (ring full).", |t| t.buf.dropped()),
    Series::counter("cubicle_trace_events_recorded_total", "Trace records ever pushed.", |t| t.buf.total_recorded()),
    Series::counter("cubicle_spans_completed_total", "Cross-call spans closed by the profiler.", |t| t.spans_completed()),
];

/// Per cubicle, from the span profiler's causal cycle attribution.
#[rustfmt::skip]
const SPAN_SERIES: [Series<LedgerRow>; 2] = [
    Series::counter("cubicle_cycles_self", "Exclusive cycles the span profiler attributes to the cubicle.", |r| r.cycles_self),
    Series::counter("cubicle_cycles_inclusive", "Inclusive cycles: self plus everything the cubicle's calls caused.", |r| r.cycles_total),
];

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

/// One Prometheus label, `key="value"`, with the value escaped.
fn label(key: &str, value: &str) -> String {
    format!("{key}=\"{}\"", prom_escape(value))
}

/// Appends each family of `table` in the Prometheus text exposition
/// format: its `# HELP` and `# TYPE` lines, then one value per sample,
/// under the sample's labels (bare when they are empty).
fn prom_series<'a, S: 'a>(
    table: impl IntoIterator<Item = &'a Series<S>>,
    samples: &[(String, &S)],
    out: &mut String,
) {
    for s in table {
        let (name, kind, help) = (s.name, s.kind, s.help);
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, sample) in samples {
            let v = (s.get)(sample);
            if labels.is_empty() {
                out.push_str(&format!("{name} {v}\n"));
            } else {
                out.push_str(&format!("{name}{{{labels}}} {v}\n"));
            }
        }
    }
}

impl System {
    /// Exports the trace as Chrome `trace_event` JSON (loadable in
    /// Perfetto / `chrome://tracing`). Cross-calls become B/E duration
    /// events on the *callee's* per-cubicle "thread"; every other event
    /// is an instant event on the cubicle it concerns. Timestamps are
    /// simulated cycles, reported in the format's microsecond field.
    ///
    /// Returns `"{}"`-style empty JSON when tracing is disabled.
    pub fn export_chrome_trace(&self) -> String {
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
                    ..
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
                    ..
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
                    ..
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
                TraceEvent::WindowOp {
                    op, wid, peer, ok, ..
                } => instant(
                    r,
                    &format!("window_{}{}", op.as_str(), if ok { "" } else { "_failed" }),
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
                TraceEvent::Quarantine { cubicle, .. } => format!(
                    "{{\"ph\":\"B\",\"name\":\"quarantined\",\"cat\":\"containment\",\
                     \"pid\":{},\"tid\":{},\"ts\":{}}}",
                    r.core,
                    cubicle.index(),
                    r.at,
                ),
                TraceEvent::Restart {
                    cubicle,
                    generation,
                    ..
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
                // The rare monitor incidents and the IPC baseline's
                // messages: an instant named after the variant, carrying
                // its fields as text.
                other => {
                    let text = format!("{other:?}");
                    let name = text.split([' ', '(']).next().unwrap_or_default();
                    let args = format!("\"event\":\"{}\"", json_escape(&text));
                    instant(r, name, "monitor", 0, &args)
                }
            };
            push(line, &mut out);
        }
        out.push_str("\n]}");
        out
    }

    /// Exports all counters and histograms in the Prometheus text
    /// exposition format. Works with tracing disabled too (counters
    /// only; histograms need the tracer).
    pub fn export_prometheus(&self) -> String {
        let mut out = String::new();
        let (sanitizer, kernel): (Vec<_>, Vec<_>) = SysStats::SERIES
            .iter()
            .partition(|s| s.name.starts_with("cubicle_san_"));
        prom_series(kernel, &[(String::new(), &self.stats)], &mut out);
        prom_series(&MACHINE_SERIES, &[(String::new(), &self.machine)], &mut out);

        // Per-core counters (one series per simulated core).
        let cores: Vec<_> = (0..self.machine.num_cores())
            .map(|i| (self.machine.core_cycles(i), self.machine.core_stats(i)))
            .collect();
        let samples: Vec<_> = cores
            .iter()
            .enumerate()
            .map(|(i, c)| (label("core", &i.to_string()), c))
            .collect();
        prom_series(&CORE_SERIES, &samples, &mut out);

        // Monitor lock counters (one series per lock).
        let locks = self.monitor_lock_stats();
        let samples: Vec<_> = locks.iter().map(|l| (label("lock", l.name), l)).collect();
        prom_series(&LOCK_SERIES, &samples, &mut out);

        // CubicleSan sanitizer counters, only while detection is on —
        // feature-off exports are byte-identical to the pre-sanitizer
        // kernel.
        if self.race.is_some() {
            prom_series(sanitizer, &[(String::new(), &self.stats)], &mut out);
            prom_series(&[LOCKORDER_CYCLIC], &[(String::new(), self)], &mut out);
        }

        // Per-edge call counters (available without tracing).
        let name = |c: CubicleId| &self.cubicles[c.index()].name;
        let edge = |(from, to)| {
            format!(
                "{},{}",
                label("caller", name(from)),
                label("callee", name(to))
            )
        };
        let mut edges: Vec<_> = self.stats.call_edges.iter().collect();
        edges.sort();
        let samples: Vec<_> = edges.into_iter().map(|(&e, n)| (edge(e), n)).collect();
        prom_series(&[CALL_EDGES], &samples, &mut out);

        // Per-cubicle resource ledger (available without tracing), and
        // with the tracer, the span profiler's causal cycle attribution.
        let rows = self.ledger();
        let samples: Vec<_> = rows
            .iter()
            .map(|r| (label("cubicle", &r.name), r))
            .collect();
        prom_series(&LEDGER_SERIES, &samples, &mut out);
        let Some(tracer) = &self.tracer else {
            return out;
        };
        prom_series(&TRACER_SERIES, &[(String::new(), tracer)], &mut out);
        prom_series(&SPAN_SERIES, &samples, &mut out);

        // Per-edge latency histograms.
        out.push_str(
            "# HELP cubicle_cross_call_cycles Cross-call latency in simulated cycles.\n\
             # TYPE cubicle_cross_call_cycles histogram\n",
        );
        for (&e, h) in tracer.metrics.edges() {
            prom_histogram("cubicle_cross_call_cycles", &edge(e), h, &mut out);
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
            prom_histogram("cubicle_entry_cycles", &label("entry", &name), h, &mut out);
        }
        out
    }

    /// Renders the incident log and the trap-and-map audit as
    /// human-readable text: one line per refused image, then per
    /// quarantine, unwind and restart, then per crash recovery, then one
    /// line per fault, saying who touched whose page and which window
    /// descriptor (or rule) decided. Fault lines are rendered from the
    /// fault records the trace ring holds, so they exist only while
    /// tracing is enabled; incidents are always kept.
    pub fn export_fault_audit(&self) -> String {
        let mut out = String::new();
        for (block, &dropped) in self.incidents_dropped.iter().enumerate() {
            for incident in self.incidents.iter().filter(|i| i.block() == block) {
                out.push_str(&format!("{incident}\n"));
            }
            if dropped > 0 {
                out.push_str(&format!(
                    "dropped: {dropped} incident(s) not logged (block full)\n"
                ));
            }
        }
        for a in self.fault_audit() {
            let accessor = &self.cubicles[a.accessor.index()].name;
            let owner = &self.cubicles[a.owner.index()].name;
            let access = a.access;
            let verdict = match a.decision {
                FaultDecision::OwnerReclaim => "RESOLVED (owner reclaim)".to_string(),
                FaultDecision::AclsDisabled => "RESOLVED (ACLs disabled)".to_string(),
                FaultDecision::PkruRefresh => "RESOLVED (pair key, PKRU refreshed)".to_string(),
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
            if tracer.buf.dropped() > 0 {
                out.push_str(&format!(
                    "dropped: {} trace event(s) overwritten (ring full)\n",
                    tracer.buf.dropped(),
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
