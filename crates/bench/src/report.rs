//! Text reporting helpers shared by the figure harnesses, plus the
//! observability dump: any traced run can drop its Chrome trace JSON,
//! Prometheus snapshot and fault audit log next to the figure output.

use cubicle_core::System;
use cubicle_ukbase::time::cycles_to_ms;
use std::io::Write;
use std::path::{Path, PathBuf};

pub mod results;

/// Prints a figure/table banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref})");
    println!("================================================================");
}

/// A simple ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

/// Formats cycles as milliseconds on the paper's 2.2 GHz testbed.
pub fn ms(cycles: u64) -> String {
    format!("{:.3} ms", cycles_to_ms(cycles))
}

/// Formats a slowdown factor.
pub fn factor(value: f64) -> String {
    format!("{value:.2}x")
}

/// Scenario-end gate: runs the kernel invariant auditor
/// ([`System::audit`]) and panics with the findings if the run left the
/// kernel in an inconsistent state. Prints the one-line summary so every
/// figure's output shows the check actually happened.
///
/// # Panics
///
/// When any isolation invariant (W^X, tag consistency, window ranges,
/// stack guards, key uniqueness) is violated.
pub fn audit_gate(sys: &System, label: &str) {
    let report = sys.audit();
    report.assert_clean(label);
    println!(
        "kernel audit ({label}): clean — {} pages, {} windows, {} cubicles",
        report.pages_checked, report.windows_checked, report.cubicles_checked
    );
}

/// Renders the per-edge and per-entry latency histograms as a
/// human-readable table (empty string when tracing is disabled).
pub fn metrics_summary(sys: &System) -> String {
    let Some(metrics) = sys.metrics() else {
        return String::new();
    };
    let mut out = String::new();
    out.push_str(
        "edge                           calls        p50        p95        p99        max\n",
    );
    for (&(from, to), h) in metrics.edges() {
        let edge = format!("{} -> {}", sys.cubicle_name(from), sys.cubicle_name(to));
        out.push_str(&format!(
            "{edge:<28} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            h.count(),
            h.p50(),
            h.p95(),
            h.p99(),
            h.max(),
        ));
    }
    out.push_str(
        "entry                          calls        p50        p95        p99        max\n",
    );
    for (&entry, h) in metrics.entries() {
        let name = sys.entry_name(entry).unwrap_or("?").to_string();
        out.push_str(&format!(
            "{name:<28} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            h.count(),
            h.p50(),
            h.p95(),
            h.p99(),
            h.max(),
        ));
    }
    out
}

/// Writes the observability artifacts for a traced run into `dir`:
/// `<stem>.trace.json` (Chrome `trace_event` format, loadable in
/// Perfetto / `chrome://tracing`), `<stem>.prom` (Prometheus text
/// exposition), `<stem>.audit.txt` (the trap-and-map audit log) and —
/// when the span profiler recorded anything — `<stem>.folded`
/// (collapsed stacks for `inferno` / `flamegraph.pl`).
/// Returns the paths written.
///
/// # Errors
///
/// I/O errors creating `dir` or writing the files.
pub fn dump_observability(sys: &System, dir: &Path, stem: &str) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let dump = |suffix: &str, body: String| -> std::io::Result<PathBuf> {
        let path = dir.join(format!("{stem}{suffix}"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(body.as_bytes())?;
        Ok(path)
    };
    written.push(dump(".trace.json", sys.export_chrome_trace())?);
    written.push(dump(".prom", sys.export_prometheus())?);
    written.push(dump(".audit.txt", sys.export_fault_audit())?);
    let folded = sys.export_flamegraph();
    if !folded.is_empty() {
        written.push(dump(".folded", folded)?);
    }
    Ok(written)
}

/// The directory named by `CUBICLE_OBS_DIR`, if set: figure harnesses
/// use it as an opt-in switch — when present they enable tracing and
/// drop their observability artifacts (trace, flamegraph, Prometheus,
/// audit log) there.
pub fn obs_dir() -> Option<PathBuf> {
    std::env::var_os("CUBICLE_OBS_DIR").map(PathBuf::from)
}

/// Asserts the span profiler's core attribution invariant — per-cubicle
/// exclusive (self) cycles partition the attribution window exactly —
/// and returns that window. Harnesses call this before dumping so a
/// mis-attributed profile fails the run instead of producing a
/// plausible-looking flamegraph.
///
/// # Panics
///
/// When tracing is disabled or the self-cycle sum disagrees with the
/// window.
pub fn assert_spans_partition(sys: &System, label: &str) -> u64 {
    let window = sys
        .span_attribution_window()
        .unwrap_or_else(|| panic!("{label}: span check needs tracing enabled"));
    let self_sum: u64 = sys
        .span_cubicle_attribution()
        .iter()
        .map(|(_, a)| a.self_cycles)
        .sum();
    assert_eq!(
        self_sum, window,
        "{label}: per-cubicle self cycles must sum to the attribution window"
    );
    window
}

/// Renders the live per-cubicle resource ledger as a `top`-style table,
/// sorted by exclusive cycles (hottest first). Cycle columns are zero
/// when tracing is off; the resource columns are always live.
pub fn top_table(sys: &System) -> String {
    let window = sys.span_attribution_window().unwrap_or(0);
    let mut rows = sys.ledger();
    rows.sort_by(|a, b| {
        b.cycles_self
            .cmp(&a.cycles_self)
            .then(a.cubicle.cmp(&b.cubicle))
    });
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>5} {:>3} {:>5} {:>4} {:>6} {:>7} {:>7} {:>15} {:>9} {:>11} {:>11} {:>6}\n",
        "CUBICLE",
        "STATE",
        "GEN",
        "KEY",
        "CORE",
        "PAGES",
        "FOREIGN",
        "WIN",
        "HEAP_USED",
        "CALLS_IN",
        "CYC_SELF",
        "CYC_TOTAL",
        "%SELF"
    ));
    for r in &rows {
        let state = if r.quarantined() { "QUAR" } else { "run" };
        let key = if r.key_parked {
            format!("{}*", r.key)
        } else {
            r.key.to_string()
        };
        let pct = if window > 0 {
            format!("{:.1}", 100.0 * r.cycles_self as f64 / window as f64)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<12} {state:>5} {:>3} {key:>5} {:>4} {:>6} {:>7} {:>7} {:>15} {:>9} {:>11} {:>11} {pct:>6}\n",
            r.name,
            r.generation,
            r.last_core,
            r.pages_owned,
            r.pages_held_foreign,
            format!("{}/{}", r.windows_open, r.windows),
            format!("{}/{}", r.heap_used, r.heap_capacity),
            r.calls_in,
            r.cycles_self,
            r.cycles_total,
        ));
    }
    if window > 0 {
        out.push_str(&format!(
            "attributed window: {window} cycles ('*' marks a parked MPK key)\n"
        ));
    }
    // Monitor-lock counters (the re-entrant monitor's four spin-modelled
    // locks); silent only when the monitor took no lock at all.
    let locks = sys.monitor_lock_stats();
    if locks.iter().any(|l| l.acquisitions > 0) {
        out.push_str(&format!(
            "\n{:<12} {:>11} {:>11} {:>13}\n",
            "LOCK", "ACQ", "CONTENDED", "WAIT_CYC"
        ));
        for l in &locks {
            out.push_str(&format!(
                "{:<12} {:>11} {:>11} {:>13}\n",
                l.name, l.acquisitions, l.contended, l.wait_cycles
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped at width");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn formatting() {
        assert_eq!(factor(1.5), "1.50x");
        assert!(ms(2_200_000).starts_with("1.000"));
    }
}
