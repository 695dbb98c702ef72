//! Structured findings produced by the source-level lint.

use std::fmt;
use std::path::PathBuf;

/// The lint rule a finding belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rule {
    /// `unsafe`, `transmute` or `static mut` outside the TCB
    /// (`crates/mpk`, `crates/core`).
    TcbConfinement,
    /// Ambient authority: `std::fs` / `std::net` / `std::process` /
    /// `std::thread` in a component — all I/O must route through the
    /// simulated kernel.
    AmbientAuthority,
    /// Naming a privileged machine/kernel API (`Machine`, `Pkru`,
    /// `set_page_key`, …) in a component — the source-level analog of the
    /// loader's `wrpkru` binary scan.
    PrivilegedApi,
    /// A `Cargo.toml` dependency edge outside the allow-listed component
    /// graph (e.g. a lateral `vfs → net` edge).
    DependencyGraph,
    /// Ambient concurrency: `std::thread` / `std::sync` /
    /// `core::sync::atomic` in a component — cubicles are scheduled by
    /// the monitor's core scheduler, never by host threads.
    AmbientConcurrency,
    /// A mutation of one of the monitor's four lock-protected structures
    /// (page metadata, windows, grant cache, ledger) outside a lexical
    /// lock-acquire scope in `crates/core/src/system.rs`.
    LockDiscipline,
    /// A monitor counter written (`stats.<field> +=` / `-=`) or an
    /// incident pushed outside the monitor's one event door, so the
    /// counters, trace ring and incident log could disagree.
    EventDoor,
    /// The isolation mode read outside the kernel's one isolation seam
    /// (`crates/core/src/system/isolation.rs`): a `self.mode` read or a
    /// mode predicate elsewhere in the kernel, or a component asking
    /// `System` for its mode.
    ModeSeam,
    /// Unsorted iteration over a `HashMap`/`HashSet` in the TCB — replay
    /// determinism requires every observable order to be defined.
    Nondeterminism,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::TcbConfinement => "tcb-confinement",
            Rule::AmbientAuthority => "ambient-authority",
            Rule::PrivilegedApi => "privileged-api",
            Rule::DependencyGraph => "dependency-graph",
            Rule::AmbientConcurrency => "ambient-concurrency",
            Rule::LockDiscipline => "lock-discipline",
            Rule::EventDoor => "event-door",
            Rule::ModeSeam => "mode-seam",
            Rule::Nondeterminism => "nondeterminism",
        })
    }
}

/// One lint violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file/manifest findings).
    pub line: usize,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Result of linting a whole workspace.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Report {
    /// All violations found.
    pub findings: Vec<Finding>,
    /// Rust source files scanned.
    pub files_scanned: usize,
    /// Crate manifests checked against the dependency allow-list.
    pub crates_checked: usize,
}

impl Report {
    /// `true` when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint: {} finding(s) over {} files, {} crates",
            self.findings.len(),
            self.files_scanned,
            self.crates_checked
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let finding = Finding {
            rule: Rule::AmbientAuthority,
            file: PathBuf::from("crates/vfs/src/lib.rs"),
            line: 12,
            message: "`std::fs` is ambient authority".into(),
        };
        assert_eq!(
            finding.to_string(),
            "crates/vfs/src/lib.rs:12: [ambient-authority] `std::fs` is ambient authority"
        );
        assert_eq!(Rule::TcbConfinement.to_string(), "tcb-confinement");
        assert_eq!(Rule::PrivilegedApi.to_string(), "privileged-api");
        assert_eq!(Rule::DependencyGraph.to_string(), "dependency-graph");
        assert_eq!(Rule::AmbientConcurrency.to_string(), "ambient-concurrency");
        assert_eq!(Rule::LockDiscipline.to_string(), "lock-discipline");
        assert_eq!(Rule::EventDoor.to_string(), "event-door");
        assert_eq!(Rule::ModeSeam.to_string(), "mode-seam");
        assert_eq!(Rule::Nondeterminism.to_string(), "nondeterminism");
    }

    #[test]
    fn report_counts() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.findings.push(Finding {
            rule: Rule::TcbConfinement,
            file: PathBuf::from("x.rs"),
            line: 1,
            message: "m".into(),
        });
        r.files_scanned = 3;
        r.crates_checked = 2;
        assert!(!r.is_clean());
        assert!(r
            .to_string()
            .contains("1 finding(s) over 3 files, 2 crates"));
    }
}
