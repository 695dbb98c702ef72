//! The manifest pass: dependency-DAG reconstruction and allow-list
//! check, and the workspace lint that forbids `unsafe` code.
//!
//! Reads each crate's `Cargo.toml` with a tiny hand-rolled TOML-subset
//! parser (section headers + `key = value` / `key.workspace = true`
//! lines — exactly the shapes this workspace uses) and checks the
//! `cubicle-*` edges in `[dependencies]` against the allow-listed
//! component graph. `[dev-dependencies]` are exempt: test harnesses run
//! on the host, outside any cubicle. [`check_lints`] checks that the
//! workspace forbids `unsafe` code and that every member inherits it.

use crate::report::{Finding, Rule};
use std::path::Path;

/// The allow-listed *runtime* dependency graph, matching the paper's
/// component diagram (Fig. 5/8): components may use shared kernel/machine
/// types and their declared lower layers — never lateral peers.
/// `crates/bench` and the workspace root are deliberately absent: they
/// are the trusted measurement harness and may depend on everything.
const ALLOWED: &[(&str, &[&str])] = &[
    ("cubicle-mpk", &[]),
    ("cubicle-core", &["cubicle-mpk"]),
    ("cubicle-verify", &["cubicle-mpk", "cubicle-core"]),
    ("cubicle-ukbase", &["cubicle-mpk", "cubicle-core"]),
    ("cubicle-ipc", &["cubicle-mpk", "cubicle-core"]),
    ("cubicle-vfs", &["cubicle-mpk", "cubicle-core"]),
    (
        "cubicle-net",
        &["cubicle-mpk", "cubicle-core", "cubicle-ukbase"],
    ),
    (
        "cubicle-ramfs",
        &[
            "cubicle-mpk",
            "cubicle-core",
            "cubicle-ukbase",
            "cubicle-vfs",
        ],
    ),
    (
        "cubicle-sqldb",
        &["cubicle-mpk", "cubicle-core", "cubicle-vfs"],
    ),
    (
        "cubicle-httpd",
        &[
            "cubicle-mpk",
            "cubicle-core",
            "cubicle-ukbase",
            "cubicle-vfs",
            "cubicle-ramfs",
            "cubicle-net",
        ],
    ),
];

/// Every `key = value` line of a `Cargo.toml` with the section it sits
/// in, both trimmed: `("dependencies", "cubicle-mpk.workspace", "true")`.
fn entries(text: &str) -> impl Iterator<Item = (&str, &str, &str)> {
    let mut section = "";
    text.lines().filter_map(move |raw| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim();
            return None;
        }
        let (key, value) = line.split_once('=')?;
        Some((section, key.trim(), value.trim()))
    })
}

/// Parses the `[dependencies]` section of a `Cargo.toml`, returning
/// `(package_name, runtime_dep_names)`.
pub fn parse_manifest(text: &str) -> (Option<String>, Vec<String>) {
    let mut name = None;
    let mut deps = Vec::new();
    for (section, key, value) in entries(text) {
        if section == "package" && key == "name" {
            name = Some(value.trim_matches('"').to_string());
        }
        if section == "dependencies" {
            // `cubicle-mpk.workspace = true` or `cubicle-mpk = { .. }`
            let dep = key.split('.').next().unwrap_or(key).trim();
            deps.push(dep.to_string());
        }
    }
    (name, deps)
}

/// Checks that a manifest keeps `unsafe` code out of the workspace. A
/// `[workspace]` must set `unsafe_code = "forbid"` in
/// `[workspace.lints.rust]`, and a `[package]` must inherit it with
/// `[lints] workspace = true`. rustc then rejects `unsafe` in every
/// member, and with it every `transmute` and `static mut` access.
pub fn check_lints(manifest_path: &Path, text: &str) -> Vec<Finding> {
    let has_section = |s: &str| entries(text).any(|(section, _, _)| section == s);
    let has = |entry| entries(text).any(|e| e == entry);
    let mut missing = Vec::new();
    if has_section("workspace") && !has(("workspace.lints.rust", "unsafe_code", "\"forbid\"")) {
        missing.push("the workspace does not set `unsafe_code = \"forbid\"`");
    }
    if has_section("package") && !has(("lints", "workspace", "true")) {
        missing.push("the package does not inherit the workspace lints");
    }
    missing
        .into_iter()
        .map(|what| Finding {
            rule: Rule::TcbConfinement,
            file: manifest_path.to_path_buf(),
            line: 0,
            message: format!("{what}, so `unsafe` code would compile"),
        })
        .collect()
}

/// Checks one crate's manifest against the allow-listed graph.
///
/// Unknown crates (not in the allow list) are skipped — the harness and
/// the workspace root are trusted. Non-`cubicle-*` dependencies are
/// reported too: the reproduction is dependency-free by policy.
pub fn check_manifest(manifest_path: &Path, text: &str) -> Vec<Finding> {
    let (name, deps) = parse_manifest(text);
    let Some(name) = name else {
        return vec![Finding {
            rule: Rule::DependencyGraph,
            file: manifest_path.to_path_buf(),
            line: 0,
            message: "manifest has no [package] name".into(),
        }];
    };
    let Some((_, allowed)) = ALLOWED.iter().find(|(n, _)| *n == name) else {
        return Vec::new(); // trusted harness crate
    };
    let mut findings = Vec::new();
    for dep in deps {
        if !allowed.contains(&dep.as_str()) {
            findings.push(Finding {
                rule: Rule::DependencyGraph,
                file: manifest_path.to_path_buf(),
                line: 0,
                message: format!(
                    "`{name}` may not depend on `{dep}` (allowed: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                ),
            });
        }
    }
    findings
}

/// Names of every crate covered by the allow list, in check order.
pub fn checked_crates() -> impl Iterator<Item = &'static str> {
    ALLOWED.iter().map(|(n, _)| *n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const VFS_OK: &str = "\
[package]
name = \"cubicle-vfs\"

[dependencies]
cubicle-mpk.workspace = true
cubicle-core.workspace = true

[dev-dependencies]
cubicle-ramfs.workspace = true
";

    #[test]
    fn parses_name_and_runtime_deps_only() {
        let (name, deps) = parse_manifest(VFS_OK);
        assert_eq!(name.as_deref(), Some("cubicle-vfs"));
        assert_eq!(deps, vec!["cubicle-mpk", "cubicle-core"]);
    }

    #[test]
    fn clean_manifest_passes() {
        assert!(check_manifest(&PathBuf::from("Cargo.toml"), VFS_OK).is_empty());
    }

    #[test]
    fn lateral_edge_fires() {
        let bad = VFS_OK.replace(
            "cubicle-core.workspace = true",
            "cubicle-core.workspace = true\ncubicle-net.workspace = true",
        );
        let findings = check_manifest(&PathBuf::from("Cargo.toml"), &bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::DependencyGraph);
        assert!(findings[0]
            .message
            .contains("`cubicle-vfs` may not depend on `cubicle-net`"));
    }

    #[test]
    fn external_dep_fires() {
        let bad = VFS_OK.replace(
            "cubicle-core.workspace = true",
            "cubicle-core.workspace = true\nserde = \"1\"",
        );
        let findings = check_manifest(&PathBuf::from("Cargo.toml"), &bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`serde`"));
    }

    #[test]
    fn inline_table_dep_shape_parses() {
        let toml = "[package]\nname = \"cubicle-ipc\"\n[dependencies]\ncubicle-mpk = { path = \"../mpk\" }\n";
        let (_, deps) = parse_manifest(toml);
        assert_eq!(deps, vec!["cubicle-mpk"]);
    }

    #[test]
    fn harness_crates_are_exempt() {
        let toml =
            "[package]\nname = \"cubicle-bench\"\n[dependencies]\ncubicle-httpd.workspace = true\n";
        assert!(check_manifest(&PathBuf::from("Cargo.toml"), toml).is_empty());
    }

    #[test]
    fn allow_list_covers_all_component_crates() {
        for c in crate::lint::COMPONENT_CRATES {
            let name = format!("cubicle-{c}");
            assert!(
                checked_crates().any(|n| n == name),
                "{name} missing from dependency allow list"
            );
        }
    }
}
