//! Negative-case tests: every fixture under `tests/fixtures/` must make
//! the expected rule(s) fire, and the deliberately tricky clean fixture
//! must not.

use cubicle_verify::lint::lint_source;
use cubicle_verify::{deps, determinism, discipline, seam, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    (path, text)
}

fn rules_in(name: &str) -> Vec<Rule> {
    let (path, text) = fixture(name);
    lint_source(&path, &text)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn unsafe_fixture_fires_tcb_confinement() {
    let rules = rules_in("bad_unsafe.rs");
    assert_eq!(rules, vec![Rule::TcbConfinement, Rule::TcbConfinement]);
}

#[test]
fn static_mut_fixture_fires_tcb_confinement() {
    assert_eq!(rules_in("bad_static_mut.rs"), vec![Rule::TcbConfinement]);
}

#[test]
fn ambient_fixture_fires_for_every_escape_route() {
    let (path, text) = fixture("bad_ambient.rs");
    let findings = lint_source(&path, &text);
    assert_eq!(findings.len(), 4, "net, fs, thread, process: {findings:#?}");
    // `std::thread` is concurrency; the host-I/O escapes are authority.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == Rule::AmbientAuthority)
            .count(),
        3
    );
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == Rule::AmbientConcurrency)
            .count(),
        1
    );
    let all = findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for escape in ["std::net", "std::fs", "std::thread", "std::process"] {
        assert!(all.contains(escape), "missing {escape} in: {all}");
    }
    // `io::Read` inside the use-group must NOT be flagged
    assert!(!all.contains("std::io"));
}

#[test]
fn privileged_fixture_fires_per_mention() {
    let (path, text) = fixture("bad_privileged.rs");
    let findings = lint_source(&path, &text);
    assert_eq!(findings.len(), 6, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::PrivilegedApi));
    assert!(findings.iter().any(|f| f.message.contains("`Machine`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`set_page_key`")));
}

#[test]
fn clean_fixture_is_clean() {
    let (path, text) = fixture("clean.rs");
    let findings = lint_source(&path, &text);
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

#[test]
fn findings_carry_real_line_numbers() {
    let (path, text) = fixture("bad_static_mut.rs");
    let findings = lint_source(&path, &text);
    let wanted = text
        .lines()
        .position(|l| l.starts_with("static mut"))
        .expect("fixture declares one")
        + 1;
    assert_eq!(findings[0].line, wanted);
}

#[test]
fn ambient_concurrency_fixture_fires_for_every_route() {
    let (path, text) = fixture("bad_ambient_concurrency.rs");
    let findings = lint_source(&path, &text);
    assert!(
        findings.len() >= 3,
        "std::sync, core::sync, std::thread: {findings:#?}"
    );
    assert!(findings.iter().all(|f| f.rule == Rule::AmbientConcurrency));
    let all = findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for escape in ["std::sync", "core::sync", "std::thread"] {
        assert!(all.contains(escape), "missing {escape} in: {all}");
    }
}

#[test]
fn lock_discipline_fixture_fires_per_elision() {
    let (path, text) = fixture("bad_mutation_outside_lock.rs");
    let findings = discipline::check_source(&path, &text);
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::LockDiscipline));
    let all = findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    // Each seeded elision is attributed to its function and structure.
    for (func, obj) in [
        ("resolve_fault", "page_meta"),
        ("grant_pages", "page_meta"),
        ("window_add", "windows"),
        ("heap_grow", "ledger"),
    ] {
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains(func) && f.message.contains(obj)),
            "missing {func}/{obj} in: {all}"
        );
    }
}

#[test]
fn lock_discipline_walks_every_monitor_file() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("monitor");
    let (findings, scanned) = discipline::check_monitor(&src).expect("fixture readable");
    assert_eq!(scanned, 2, "root file plus one submodule file");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, Rule::LockDiscipline);
    assert!(f.file.ends_with("system/trap.rs"), "{f}");
    assert!(
        f.message.contains("record_owner") && f.message.contains("page_meta"),
        "{f}"
    );
}

#[test]
fn unsorted_iter_fixture_fires_and_marker_fixture_is_clean() {
    let (bad_path, bad_text) = fixture("bad_unsorted_iter.rs");
    let mut maps = BTreeSet::new();
    determinism::collect_map_idents(&bad_text, &mut maps);
    let findings = determinism::check_source(&bad_path, &bad_text, &maps);
    assert_eq!(findings.len(), 2, "for-loop + .keys(): {findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::Nondeterminism));

    let (ok_path, ok_text) = fixture("ok_order_marker.rs");
    let mut maps = BTreeSet::new();
    determinism::collect_map_idents(&ok_text, &mut maps);
    let findings = determinism::check_source(&ok_path, &ok_text, &maps);
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

#[test]
fn dep_fixture_fires_for_lateral_and_external_edges() {
    let (path, text) = {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("fixtures")
            .join("bad_deps.toml");
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        (path, text)
    };
    let findings = deps::check_manifest(&path, &text);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::DependencyGraph));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("may not depend on `cubicle-net`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("may not depend on `serde`")));
}

#[test]
fn mode_seam_fires_outside_the_seam_only() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("core_src");
    let (findings, scanned) = seam::check_core(&src).expect("fixture readable");
    assert_eq!(scanned, 1, "mode.rs and system/isolation.rs are the seam");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, Rule::ModeSeam);
    assert!(f.file.ends_with("system/trap.rs"), "{f}");
    assert!(f.message.contains("`self.mode.mpk_active`"), "{f}");
}

#[test]
fn mode_seam_fires_on_a_component_reading_the_mode() {
    let (path, text) = fixture("bad_mode_read.rs");
    let findings = seam::check_source(&path, &text, false);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::ModeSeam));
    assert!(findings[0].message.contains("`sys.mode()`"));
    assert!(findings[1].message.contains("`mpk_active`"));

    let (path, text) = fixture("ok_mode_seam.rs");
    let findings = seam::check_source(&path, &text, false);
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}
