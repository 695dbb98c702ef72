//! Trace exporters: Chrome `trace_event` JSON, Prometheus text and the
//! human-readable fault audit.

use super::locks::MonitorLockStats;
use super::System;
use crate::ledger::LedgerRow;
use crate::trace::{FaultDecision, TraceEvent};
use cubicle_mpk::CoreStats;

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

impl System {
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
