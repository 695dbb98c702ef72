//! # cubicle-verify — trusted-builder static analysis
//!
//! The paper's trusted builder/loader verifies every component *before*
//! it may run: scanning binaries for forbidden `wrpkru`/`syscall`
//! sequences and mapping segments W^X (§5.4). This crate is the
//! reproduction's source-level counterpart, plus the driver for the
//! runtime counterpart:
//!
//! * **Pass 1 — source-level isolation lint** ([`lint`], [`deps`]): a
//!   hand-rolled, comment/string-aware Rust lexer walks every component
//!   crate and enforces TCB confinement (`unsafe`/`transmute`/`static
//!   mut` only inside `crates/mpk` + `crates/core`), an
//!   ambient-authority ban (`std::fs`, `std::net`, `std::process`,
//!   `std::thread`) and a privileged-API ban (`Machine`, `Pkru`,
//!   `set_page_key`, …). It also reconstructs the `Cargo.toml`
//!   dependency DAG and rejects edges outside the allow-listed component
//!   graph.
//! * **Pass 2 — kernel invariant audit**: [`cubicle_core::System::audit`]
//!   walks machine + kernel state and checks W^X, causal tag
//!   consistency, window-range ownership, stack guards and key
//!   uniqueness. The `cubicle-verify` binary exercises it as a
//!   smoke test; harnesses and the kernel test suite run it at scenario
//!   end.
//! * **Pass 3 — lock discipline** ([`discipline`]): every mutation of
//!   the multi-core monitor's four lock-protected structures in the
//!   monitor module (`crates/core/src/system.rs` and every file under
//!   `crates/core/src/system/`) must sit lexically inside a matching
//!   lock-acquire scope — the static complement of the CubicleSan
//!   dynamic race detector ([`cubicle_core::SystemConfig::race_detection`]).
//! * **Pass 4 — the isolation seam** ([`seam`]): outside
//!   `crates/core/src/system/isolation.rs` (and `mode.rs`) no kernel file
//!   reads `self.mode` or calls a mode predicate, and no component asks
//!   `System` for its mode.
//! * **Pass 5 — replay determinism** ([`determinism`]): no unsorted
//!   `HashMap`/`HashSet` iteration in the TCB crates (`crates/core`,
//!   `crates/mpk`) without a commutative terminal, a sort, or an
//!   explicit `// verify: order-ok` marker.
//!
//! Zero external dependencies, by the same policy it enforces.

pub mod deps;
pub mod determinism;
pub mod discipline;
pub mod lexer;
pub mod lint;
pub mod report;
pub mod seam;

pub use report::{Finding, Report, Rule};

use std::path::{Path, PathBuf};

/// Runs the full source-level pass over a workspace: lints every
/// component crate's `src/` tree and checks every crate manifest against
/// the dependency allow-list.
///
/// # Errors
///
/// Propagates I/O errors (missing crate directories, unreadable files) —
/// the caller decides whether a partially-scanned tree is acceptable.
pub fn run_all(workspace_root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let crates = workspace_root.join("crates");

    for name in lint::COMPONENT_CRATES {
        let (findings, scanned) = lint::lint_crate_sources(&crates.join(name))?;
        report.findings.extend(findings);
        report.files_scanned += scanned;
    }

    // Pass 3: the monitor's lock discipline (static half of CubicleSan).
    let (findings, scanned) = discipline::check_monitor(&crates.join("core").join("src"))?;
    report.findings.extend(findings);
    report.files_scanned += scanned;

    // Pass 4: the isolation seam, in the kernel and in every component.
    let (findings, scanned) = seam::check_core(&crates.join("core").join("src"))?;
    report.findings.extend(findings);
    report.files_scanned += scanned;
    for name in lint::COMPONENT_CRATES {
        for (path, text) in rust_sources(&crates.join(name).join("src"))? {
            report
                .findings
                .extend(seam::check_source(&path, &text, false));
        }
    }

    // Pass 5: replay determinism over the TCB crates.
    for name in ["core", "mpk"] {
        let (findings, scanned) = determinism::check_crate_sources(&crates.join(name))?;
        report.findings.extend(findings);
        report.files_scanned += scanned;
    }

    let mut dirs: Vec<_> = std::fs::read_dir(&crates)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        if !manifest.exists() {
            continue;
        }
        let text = std::fs::read_to_string(&manifest)?;
        let (name, _) = deps::parse_manifest(&text);
        if name.is_some_and(|n| deps::checked_crates().any(|c| c == n)) {
            report.crates_checked += 1;
        }
        report
            .findings
            .extend(deps::check_manifest(&manifest, &text));
    }
    Ok(report)
}

/// Every `.rs` file under `dir`, recursively, with its text, in a
/// deterministic (sorted per directory) order.
///
/// # Errors
///
/// Propagates I/O errors from directory walking / file reading.
pub fn rust_sources(dir: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path)?;
                files.push((path, text));
            }
        }
    }
    Ok(files)
}

/// The workspace root, resolved from this crate's own manifest directory
/// (`crates/verify` → two levels up). Usable from the CLI and from
/// integration tests, both of which cargo runs with the package as cwd
/// or elsewhere entirely.
pub fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_has_top_level_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
        assert!(workspace_root().join("crates").join("verify").exists());
    }
}
