//! End-to-end tests of the observability layer: trace buffer contents,
//! exporter output, metric/counter agreement and the zero-cost-when-
//! disabled guarantee.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, FaultDecision, IsolationMode,
    SysStats, System, SystemConfig, TraceEvent, Value,
};
use cubicle_mpk::insn::{CodeImage, Insn};

struct Dummy;
impl_component!(Dummy);

/// Builds the canonical two-component deployment: `A` calls `b_read` in
/// `B`, passing a windowed buffer that `B` reads via trap-and-map.
fn setup(mode: IsolationMode) -> (System, CubicleId, CubicleId) {
    let builder = Builder::new();
    let mut sys = System::new(mode);
    let a = sys
        .load(
            ComponentImage::new("A", CodeImage::plain(4096)).heap_pages(32),
            Box::new(Dummy),
        )
        .unwrap();
    let b = sys
        .load(
            ComponentImage::new("B", CodeImage::plain(4096))
                .heap_pages(32)
                .export(
                    builder
                        .export("long b_read(const void *buf, size_t n)")
                        .unwrap(),
                    |sys, _this, args| {
                        let (addr, len) = args[0].as_buf();
                        let v = sys.read_vec(addr, len)?;
                        Ok(Value::I64(i64::from(v[0])))
                    },
                ),
            Box::new(Dummy),
        )
        .unwrap();
    (sys, a.cid, b.cid)
}

/// Runs `calls` windowed cross-calls from `a` into `b`.
fn run_scenario(sys: &mut System, a: CubicleId, b: CubicleId, calls: usize) {
    let entry = sys.entry("b_read").unwrap();
    sys.run_in_cubicle(a, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, &[7]).unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        sys.window_open(wid, b).unwrap();
        for _ in 0..calls {
            let r = sys.cross_call(entry, &[Value::buf_in(buf, 64)]).unwrap();
            assert_eq!(r.as_i64(), 7);
        }
        sys.window_destroy(wid).unwrap();
        sys.heap_free(buf).unwrap();
    });
}

#[path = "support/json.rs"]
mod json;
use json::{Json, Parser};

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn tracing_is_cycle_exact_zero_cost() {
    let (mut plain, a1, b1) = setup(IsolationMode::Full);
    let (mut traced, a2, b2) = setup(IsolationMode::Full);
    traced.enable_tracing(4096);
    run_scenario(&mut plain, a1, b1, 25);
    run_scenario(&mut traced, a2, b2, 25);
    assert_eq!(
        plain.now(),
        traced.now(),
        "tracing must not change simulated cycle accounting"
    );
    assert_eq!(plain.stats(), traced.stats());
    assert_eq!(plain.machine_stats().retags, traced.machine_stats().retags);
    assert_eq!(plain.machine_stats().wrpkru, traced.machine_stats().wrpkru);
}

#[test]
fn every_enter_has_a_matching_exit() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(1 << 16);
    run_scenario(&mut sys, a, b, 40);
    let trace = sys.trace().unwrap();
    let mut open: Vec<(CubicleId, CubicleId)> = Vec::new();
    let mut enters = 0u64;
    let mut exits = 0u64;
    for r in trace.records() {
        match r.event {
            TraceEvent::CrossCallEnter { caller, callee, .. } => {
                enters += 1;
                open.push((caller, callee));
            }
            TraceEvent::CrossCallExit { caller, callee, .. } => {
                exits += 1;
                let top = open.pop().expect("exit without matching enter");
                assert_eq!(top, (caller, callee), "exits must nest");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "every enter must have an exit");
    assert_eq!(enters, 40);
    assert_eq!(exits, 40);
    assert_eq!(trace.dropped(), 0);
}

#[test]
fn timestamps_are_monotonic() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(1 << 16);
    run_scenario(&mut sys, a, b, 10);
    let trace = sys.trace().unwrap();
    let mut last = 0u64;
    for r in trace.records() {
        assert!(
            r.at >= last,
            "timestamps must not go backwards (seq {})",
            r.seq
        );
        last = r.at;
    }
    assert!(!trace.is_empty());
}

#[test]
fn histogram_counts_equal_cross_calls() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(64); // deliberately tiny: metrics must not depend on ring retention
    run_scenario(&mut sys, a, b, 123);
    let cross_calls = sys.stats().cross_calls;
    let metrics = sys.metrics().unwrap();
    assert_eq!(metrics.total_calls(), cross_calls);
    let edge = metrics.edge(a, b).unwrap();
    assert_eq!(edge.count(), sys.stats().edge(a, b));
    assert_eq!(edge.buckets().iter().sum::<u64>(), edge.count());
    assert!(edge.p50() > 0);
    assert!(edge.p50() <= edge.p95());
    assert!(edge.p95() <= edge.p99());
    assert!(edge.p99() <= edge.max());
    let entry = sys.entry("b_read").unwrap();
    assert_eq!(metrics.entry(entry).unwrap().count(), cross_calls);
}

#[test]
fn denied_access_is_audited_exactly_once() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(4096);
    // `A` allocates a buffer but never opens a window: `B`'s read under
    // the cross-call must be denied.
    let entry = sys.entry("b_read").unwrap();
    let err = sys.run_in_cubicle(a, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, &[1]).unwrap();
        sys.cross_call(entry, &[Value::buf_in(buf, 64)])
            .unwrap_err()
    });
    assert!(matches!(err, CubicleError::WindowDenied { .. }));
    assert_eq!(sys.stats().faults_denied, 1);

    let denied: Vec<_> = sys
        .fault_audit()
        .filter(|rec| rec.decision == FaultDecision::Denied)
        .collect();
    assert_eq!(denied.len(), 1, "exactly one denied audit record");
    assert_eq!(denied[0].accessor, b);
    assert_eq!(denied[0].owner, a);
    let audit_text = sys.export_fault_audit();
    assert!(audit_text.contains("DENIED"), "audit text: {audit_text}");
    assert!(
        audit_text.contains("owned by A"),
        "audit text: {audit_text}"
    );

    let denied_events = sys
        .trace()
        .unwrap()
        .records()
        .filter(|r| matches!(r.event, TraceEvent::FaultDenied { .. }))
        .count();
    assert_eq!(denied_events, 1);
}

#[test]
fn resolved_faults_name_the_deciding_window() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(4096);
    run_scenario(&mut sys, a, b, 1);
    assert!(sys.stats().faults_resolved > 0);
    assert!(
        sys.fault_audit()
            .any(|rec| matches!(rec.decision, FaultDecision::Window(_)) && rec.accessor == b),
        "a window-authorised resolution must appear in the audit log"
    );
    let audit_text = sys.export_fault_audit();
    assert!(
        audit_text.contains("via window#"),
        "audit text: {audit_text}"
    );
}

#[test]
fn chrome_trace_exports_valid_json_with_balanced_spans() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(1 << 16);
    run_scenario(&mut sys, a, b, 15);
    let json = sys.export_chrome_trace();
    let doc = Parser::parse(&json).expect("exporter must emit valid JSON");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("missing traceEvents array: {other:?}"),
    };
    let mut begins = 0;
    let mut ends = 0;
    let mut flow_starts = 0;
    let mut flow_finishes = 0;
    let mut names = Vec::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has ph");
        match ph {
            "B" => {
                begins += 1;
                names.push(ev.get("name").and_then(Json::as_str).unwrap().to_string());
                assert!(ev.get("ts").and_then(Json::as_num).is_some());
                // span ids thread the B/E pairs into the span tree
                assert!(ev
                    .get("args")
                    .and_then(|a| a.get("span"))
                    .and_then(Json::as_num)
                    .is_some_and(|s| s >= 1.0));
            }
            "E" => ends += 1,
            "s" => {
                flow_starts += 1;
                assert!(ev.get("id").and_then(Json::as_num).is_some());
            }
            "f" => {
                flow_finishes += 1;
                assert_eq!(ev.get("bp").and_then(Json::as_str), Some("e"));
            }
            "M" | "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(begins, 15);
    assert_eq!(ends, 15);
    assert_eq!(flow_starts, 15, "one flow arrow per cross-cubicle call");
    assert_eq!(flow_finishes, 15);
    assert!(names.iter().all(|n| n == "b_read"));
    // per-cubicle thread metadata present
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    assert!(thread_names.contains(&"A"));
    assert!(thread_names.contains(&"B"));
    assert!(thread_names.contains(&"MONITOR"));
}

#[test]
fn chrome_trace_includes_instant_events() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(1 << 16);
    run_scenario(&mut sys, a, b, 3);
    let json = sys.export_chrome_trace();
    let doc = Parser::parse(&json).unwrap();
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!()
    };
    let instants: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for expected in [
        "window_init",
        "window_open",
        "window_destroy",
        "heap_alloc",
        "heap_free",
        "retag",
        "wrpkru",
        "fault_resolved",
    ] {
        assert!(
            instants.contains(&expected),
            "missing instant event {expected}"
        );
    }
}

#[test]
fn prometheus_counts_match_sysstats() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(1 << 16);
    run_scenario(&mut sys, a, b, 17);
    let text = sys.export_prometheus();
    let stats = sys.stats().clone();

    let metric = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
    };
    assert_eq!(metric("cubicle_cross_calls_total "), stats.cross_calls);
    assert_eq!(
        metric("cubicle_faults_resolved_total "),
        stats.faults_resolved
    );
    assert_eq!(metric("cubicle_faults_denied_total "), stats.faults_denied);
    assert_eq!(metric("cubicle_window_ops_total "), stats.window_ops);
    assert_eq!(metric("cubicle_retags_total "), sys.machine_stats().retags);
    assert_eq!(metric("cubicle_wrpkru_total "), sys.machine_stats().wrpkru);
    assert_eq!(metric("cubicle_cycles_total "), sys.now());

    // per-edge counter and histogram agree with the kernel counters
    let edge_line = format!(
        "cubicle_call_edge_total{{caller=\"A\",callee=\"B\"}} {}",
        stats.edge(a, b)
    );
    assert!(
        text.contains(&edge_line),
        "missing `{edge_line}` in:\n{text}"
    );
    let histo_count = format!(
        "cubicle_cross_call_cycles_count{{caller=\"A\",callee=\"B\"}} {}",
        stats.edge(a, b)
    );
    assert!(
        text.contains(&histo_count),
        "missing `{histo_count}` in:\n{text}"
    );
    let inf_line = format!(
        "cubicle_cross_call_cycles_bucket{{caller=\"A\",callee=\"B\",le=\"+Inf\"}} {}",
        stats.edge(a, b)
    );
    assert!(text.contains(&inf_line), "missing `{inf_line}` in:\n{text}");
    assert!(text.contains("cubicle_entry_cycles_count{entry=\"b_read\"}"));
}

#[test]
fn trace_ring_overwrites_but_keeps_counting() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(8);
    run_scenario(&mut sys, a, b, 50);
    let cross_calls = sys.stats().cross_calls;
    let trace = sys.trace().unwrap();
    assert_eq!(trace.len(), 8);
    assert!(trace.dropped() > 0);
    assert_eq!(trace.total_recorded(), trace.dropped() + 8);
    // metrics see every call even though the ring forgot most events
    assert_eq!(sys.metrics().unwrap().total_calls(), cross_calls);
}

#[test]
fn disabled_tracing_reports_nothing() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    run_scenario(&mut sys, a, b, 5);
    assert!(!sys.tracing_enabled());
    assert!(sys.trace().is_none());
    assert!(sys.metrics().is_none());
    assert_eq!(sys.fault_audit().count(), 0);
    assert_eq!(sys.export_chrome_trace(), "{\"traceEvents\":[]}");
    assert_eq!(sys.export_fault_audit(), "");
    // counters still work without the tracer
    let text = sys.export_prometheus();
    assert!(text.contains("cubicle_cross_calls_total 5"));
    assert!(!text.contains("cubicle_cross_call_cycles_bucket"));
}

#[test]
fn ipc_and_unikraft_modes_trace_too() {
    for mode in [
        IsolationMode::Unikraft,
        IsolationMode::NoMpk,
        IsolationMode::NoAcl,
    ] {
        let (mut sys, a, b) = setup(mode);
        sys.enable_tracing(4096);
        run_scenario(&mut sys, a, b, 4);
        assert_eq!(
            sys.metrics().unwrap().total_calls(),
            sys.stats().cross_calls,
            "{mode:?}"
        );
        let json = sys.export_chrome_trace();
        Parser::parse(&json).unwrap_or_else(|e| panic!("{mode:?}: invalid JSON: {e}"));
    }
}

#[test]
fn saturated_ring_reports_drops() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(4); // tiny ring: most events are overwritten
    run_scenario(&mut sys, a, b, 30);
    let text = sys.export_prometheus();
    let dropped = sys.trace().unwrap().dropped();
    assert!(dropped > 0, "the tiny ring must have overflowed");
    let line = format!("cubicle_trace_events_dropped_total {dropped}");
    assert!(text.contains(&line), "missing `{line}` in:\n{text}");
    let audit = sys.export_fault_audit();
    assert!(
        audit.lines().any(|l| l.starts_with("dropped:")),
        "fault-audit log must surface the saturated ring:\n{audit}"
    );
    assert!(
        audit.contains(&format!("dropped: {dropped} trace event(s)")),
        "audit drop line must carry the count:\n{audit}"
    );
}

#[test]
fn every_counter_is_exported() {
    let config = SystemConfig {
        race_detection: true,
        ..SystemConfig::from(IsolationMode::Full)
    };
    let mut sys = System::new(config);
    let img = ComponentImage::new(
        "EVIL",
        CodeImage::from_insns(&[Insn::Wrpkru, Insn::Syscall]),
    );
    assert!(sys.load(img, Box::new(Dummy)).is_err());
    let text = sys.export_prometheus();
    for s in SysStats::SERIES {
        let (name, kind) = (s.name, s.kind);
        let value = (s.get)(sys.stats());
        for line in [
            format!("# TYPE {name} {kind}\n"),
            format!("\n{name} {value}\n"),
        ] {
            assert!(text.contains(&line), "missing `{line}` in:\n{text}");
        }
    }
    assert!(text.contains("\ncubicle_loads_rejected_total 1\n"));
    assert!(text.contains("\ncubicle_forbidden_insns_total 2\n"));
}

#[test]
fn full_incident_log_counts_what_it_drops() {
    let mut sys = System::new(IsolationMode::Full);
    let b = sys
        .load(
            ComponentImage::new("B", CodeImage::plain(4096)),
            Box::new(Dummy),
        )
        .unwrap();
    for _ in 0..65 {
        sys.quarantine(b.cid, "test").unwrap();
        sys.restart(b.cid).unwrap();
    }
    // One incident per quarantine and per restart, all in the
    // containment block, which keeps 64.
    assert_eq!(sys.incidents().len(), 64);
    let audit = sys.export_fault_audit();
    let line = "dropped: 66 incident(s) not logged (block full)\n";
    assert!(audit.contains(line), "missing `{line}` in:\n{audit}");
    assert_eq!(audit.lines().count(), 65);
}

/// Round-trips the Prometheus text output through a scrape-style parser:
/// every series needs `# HELP`/`# TYPE`, histogram buckets must be
/// cumulative and end in `+Inf == _count`, and every series of a
/// histogram family must expose the identical `le` layout (a scrape
/// requirement the old occupied-bins-only export violated).
#[test]
fn prometheus_histograms_round_trip() {
    use std::collections::{BTreeSet, HashMap};

    let (mut sys, a, b) = setup(IsolationMode::Full);
    sys.enable_tracing(1 << 16);
    run_scenario(&mut sys, a, b, 23);
    let text = sys.export_prometheus();

    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    // histogram family -> (label set minus le) -> [(le, cumulative)]
    let mut buckets: HashMap<(String, String), Vec<(f64, u64)>> = HashMap::new();
    let mut counts: HashMap<(String, String), u64> = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helps.insert(rest.split_whitespace().next().unwrap().to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap().to_string();
            let kind = it.next().unwrap().to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown metric type in: {line}"
            );
            types.insert(name, kind);
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad series line: {line}"));
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-integer sample in: {line}"));
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => (n.to_string(), l.trim_end_matches('}').to_string()),
            None => (series.to_string(), String::new()),
        };
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.get(*f).is_some_and(|t| t == "histogram"))
            .unwrap_or(&name)
            .to_string();
        assert!(
            types.contains_key(&family),
            "series `{name}` has no # TYPE line"
        );
        assert!(
            helps.contains(&family),
            "series `{name}` has no # HELP line"
        );
        if types[&family] == "histogram" {
            let mut le = None;
            let mut rest: Vec<&str> = Vec::new();
            for kv in labels.split(',') {
                match kv.strip_prefix("le=\"") {
                    Some(v) => le = Some(v.trim_end_matches('"').to_string()),
                    None => rest.push(kv),
                }
            }
            let key = (family.clone(), rest.join(","));
            if name.ends_with("_bucket") {
                let le = le.unwrap_or_else(|| panic!("bucket without le: {line}"));
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or_else(|_| panic!("bad le in: {line}"))
                };
                buckets.entry(key).or_default().push((le, value));
            } else if name.ends_with("_count") {
                counts.insert(key, value);
            }
        }
    }

    assert!(
        buckets
            .keys()
            .any(|(f, _)| f == "cubicle_cross_call_cycles"),
        "expected at least the per-edge latency histogram"
    );
    let mut layouts: HashMap<&str, Vec<u64>> = HashMap::new();
    for ((family, labels), series) in &buckets {
        let mut last = 0u64;
        for &(le, cum) in series {
            assert!(
                cum >= last,
                "{family}{{{labels}}}: buckets must be cumulative (le={le}: {cum} < {last})"
            );
            last = cum;
        }
        let (last_le, last_cum) = *series.last().unwrap();
        assert!(
            last_le.is_infinite(),
            "{family}{{{labels}}}: final bucket must be +Inf"
        );
        assert_eq!(
            Some(&last_cum),
            counts.get(&(family.clone(), labels.clone())),
            "{family}{{{labels}}}: +Inf bucket must equal _count"
        );
        // identical finite bucket layout across every series of a family
        let layout: Vec<u64> = series
            .iter()
            .filter(|(le, _)| le.is_finite())
            .map(|(le, _)| *le as u64)
            .collect();
        match layouts.get(family.as_str()) {
            Some(seen) => assert_eq!(
                seen, &layout,
                "{family}: all series must share one bucket layout"
            ),
            None => {
                layouts.insert(family, layout);
            }
        }
    }
}

/// Quarantines a `B` that owns 64 heap pages under a ring of `capacity`
/// records: the teardown reclaims every page in one monitor operation.
fn quarantine_with_ring(capacity: usize) -> System {
    let mut sys = System::new(IsolationMode::Full);
    let b = sys
        .load(
            ComponentImage::new("B", CodeImage::plain(4096)).heap_pages(64),
            Box::new(Dummy),
        )
        .unwrap();
    sys.enable_tracing(capacity);
    sys.quarantine(b.cid, "test").unwrap();
    sys
}

#[test]
fn saturated_ring_counts_every_reclaim() {
    let full = quarantine_with_ring(1 << 16);
    let recorded = full.trace().unwrap().total_recorded();
    assert_eq!(full.trace().unwrap().dropped(), 0);
    assert!(recorded > 64, "one PageReclaim per heap page: {recorded}");

    let sys = quarantine_with_ring(8);
    // The audit export is the first view taken: it must already see
    // every event the teardown issued.
    let audit = sys.export_fault_audit();
    let trace = sys.trace().unwrap();
    assert_eq!(trace.total_recorded(), recorded);
    assert_eq!(trace.dropped(), recorded - 8);
    let line = format!("dropped: {} trace event(s)", recorded - 8);
    assert!(audit.contains(&line), "missing `{line}` in:\n{audit}");
}

#[test]
fn ring_holds_one_record_per_counted_retag_and_wrpkru() {
    let (mut sys, a, b) = setup(IsolationMode::Full);
    let before = sys.machine_stats();
    sys.enable_tracing(1 << 16);
    run_scenario(&mut sys, a, b, 10);
    let after = sys.machine_stats();
    let trace = sys.trace().unwrap();
    assert_eq!(trace.dropped(), 0);
    let count =
        |pick: fn(&TraceEvent) -> bool| trace.records().filter(|r| pick(&r.event)).count() as u64;
    let retags = count(|e| matches!(e, TraceEvent::Retag { .. }));
    let wrpkru = count(|e| matches!(e, TraceEvent::WrPkru { .. }));
    assert!(retags > 0 && wrpkru > 0);
    assert_eq!(retags, after.retags - before.retags);
    assert_eq!(wrpkru, after.wrpkru - before.wrpkru);
}
