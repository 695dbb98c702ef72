//! Pass: the monitor's lock discipline, checked lexically.
//!
//! The multi-core monitor serialises four shared structures on the
//! [`MonitorLock`]s: page metadata, window descriptors, the window-grant
//! cache and the heap ledger. CubicleSan checks the discipline
//! *dynamically* (vector clocks + locksets over an actual run); this pass
//! is the static half: every **mutation site** of one of the four
//! structures in the monitor module — `crates/core/src/system.rs` and
//! every file under `crates/core/src/system/` — must appear lexically
//! inside a matching lock-acquire scope, within the same function.
//!
//! The scope model is deliberately simple — a per-function counter per
//! lock, incremented on `lock_acquire(MonitorLock::X)` (or
//! `window_op_begin()`, which acquires the windows lock) and decremented
//! on the matching release. Helpers whose *caller* holds the lock are
//! exempted two ways, both of which the dynamic detector still covers at
//! runtime:
//!
//! * a `_locked` (or `_for_test`) suffix on the function name, the
//!   kernel's naming convention for lock-held helpers and seeded
//!   corruption hooks;
//! * a `// verify: lock-held(<structure>)` marker within two lines of
//!   the mutation.
//!
//! `#[cfg(test)] mod tests` blocks are skipped: unit tests poke kernels
//! from the host side, outside the monitor's concurrency model.
//!
//! [`MonitorLock`]: ../cubicle_core/enum.MonitorLock.html

use crate::lexer::{lex, Spanned, Tok};
use crate::report::{Finding, Rule};
use std::path::Path;

/// Lock variant idents, index-aligned with [`STRUCTURES`].
const LOCKS: [&str; 4] = ["PageMeta", "Windows", "GrantCache", "Ledger"];

/// Protected-structure names as used in `lock-held(...)` markers and
/// findings, index-aligned with [`LOCKS`].
const STRUCTURES: [&str; 4] = ["page_meta", "windows", "grant_cache", "ledger"];

/// Mutating methods on the `page_meta` map.
const PAGE_META_MUT: &[&str] = &[
    "insert", "remove", "get_mut", "retain", "clear", "entry", "drain",
];

/// Accessors through which every window mutation flows.
const WINDOW_MUT: &[&str] = &["window_mut", "window_init", "window_destroy"];

/// Mutating methods on the grant cache's `map` / `hits_by_accessor`.
const CACHE_MUT: &[&str] = &["insert", "remove", "retain", "clear", "entry", "drain"];

/// Mutating methods on a cubicle's `heap` sub-allocator.
const HEAP_MUT: &[&str] = &["alloc", "free", "reset", "add_region"];

/// How many lines a `lock-held` marker may sit from the mutation it
/// annotates.
const MARKER_RANGE: usize = 2;

/// Checks the whole monitor module under `core_src` (a crate's `src/`
/// directory): `system.rs` and every file of its `system/` submodule
/// directory. Returns the findings and the number of files checked.
///
/// # Errors
///
/// Propagates I/O errors from directory walking / file reading.
pub fn check_monitor(core_src: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let root = core_src.join("system.rs");
    let mut files = vec![(root.clone(), std::fs::read_to_string(&root)?)];
    files.extend(crate::rust_sources(&core_src.join("system"))?);
    let findings = files.iter().flat_map(|(p, t)| check_source(p, t)).collect();
    Ok((findings, files.len()))
}

/// Checks one monitor source file. `file` labels findings.
pub fn check_source(file: &Path, src: &str) -> Vec<Finding> {
    let all = lex(src);
    // Markers live in a side table; the scanning stream must not have
    // them interleaved (a marker between `heap` and `.add_region` would
    // break adjacency matching).
    let markers: Vec<(usize, String)> = all
        .iter()
        .filter_map(|s| match &s.tok {
            Tok::Marker(m) => Some((s.line, m.clone())),
            _ => None,
        })
        .collect();
    let toks: Vec<&Spanned> = all
        .iter()
        .filter(|s| !matches!(s.tok, Tok::Marker(_)))
        .collect();

    let ident = |i: usize| -> Option<&str> {
        toks.get(i).and_then(|s| match &s.tok {
            Tok::Ident(name) => Some(name.as_str()),
            _ => None,
        })
    };
    let other = |i: usize, c: char| toks.get(i).is_some_and(|s| s.tok == Tok::Other(c));
    let marker_near = |line: usize, structure: &str| {
        let want = format!("lock-held({structure})");
        markers
            .iter()
            .any(|(ml, m)| m.starts_with(&want) && ml.abs_diff(line) <= MARKER_RANGE)
    };

    let mut findings = Vec::new();
    let mut depth: i32 = 0;
    // (name, brace depth of the body) of the enclosing function.
    let mut cur_fn: Option<(String, i32)> = None;
    let mut pending_fn: Option<String> = None;
    // Depth at which a `mod tests` block opened (skip everything in it).
    let mut test_mod_until: Option<i32> = None;
    let mut pending_test_mod = false;
    let mut lock_depth = [0i32; 4];

    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::OpenBrace => {
                depth += 1;
                if pending_test_mod {
                    pending_test_mod = false;
                    test_mod_until = Some(depth);
                } else if let Some(name) = pending_fn.take() {
                    cur_fn = Some((name, depth));
                    lock_depth = [0; 4];
                }
                continue;
            }
            Tok::CloseBrace => {
                if test_mod_until == Some(depth) {
                    test_mod_until = None;
                }
                if cur_fn.as_ref().is_some_and(|(_, d)| *d == depth) {
                    cur_fn = None;
                }
                depth -= 1;
                continue;
            }
            _ => {}
        }
        if test_mod_until.is_some() {
            continue;
        }

        let Some(name) = ident(i) else { continue };
        match name {
            "fn" => {
                if let Some(next) = ident(i + 1) {
                    pending_fn = Some(next.to_string());
                }
                continue;
            }
            "mod" if ident(i + 1) == Some("tests") => {
                pending_test_mod = true;
                continue;
            }
            // ── lock scopes ──────────────────────────────────────────
            "lock_acquire" | "lock_release"
                if other(i + 1, '(') && ident(i + 2) == Some("MonitorLock") =>
            {
                if toks.get(i + 3).is_some_and(|s| s.tok == Tok::PathSep) {
                    if let Some(l) = ident(i + 4).and_then(|v| LOCKS.iter().position(|x| *x == v)) {
                        if name == "lock_acquire" {
                            lock_depth[l] += 1;
                        } else {
                            lock_depth[l] = (lock_depth[l] - 1).max(0);
                        }
                    }
                }
                continue;
            }
            // `window_op_begin()` / `window_op_end(start)` open and close
            // a windows-lock scope; the `(&mut self, …` shape of their
            // *definitions* does not match these call patterns.
            "window_op_begin" if other(i + 1, '(') && other(i + 2, ')') => {
                lock_depth[1] += 1;
                continue;
            }
            "window_op_end" if other(i + 1, '(') && ident(i + 2).is_some() => {
                lock_depth[1] = (lock_depth[1] - 1).max(0);
                continue;
            }
            _ => {}
        }

        // ── mutation sites ───────────────────────────────────────────
        let prev_dot = i >= 1 && other(i - 1, '.');
        let prev_sep = prev_dot || (i >= 1 && toks[i - 1].tok == Tok::PathSep);
        let recv = if i >= 2 { ident(i - 2) } else { None };
        let call = other(i + 1, '(');
        let mut hit: Option<usize> = None;
        if prev_sep && call {
            if recv == Some("page_meta") && PAGE_META_MUT.contains(&name) {
                hit = Some(0);
            } else if WINDOW_MUT.contains(&name) {
                hit = Some(1);
            } else if (recv == Some("map") || recv == Some("hits_by_accessor"))
                && CACHE_MUT.contains(&name)
            {
                hit = Some(2);
            } else if recv == Some("heap") && HEAP_MUT.contains(&name) {
                hit = Some(3);
            } else if name == "take" {
                // `mem::take(&mut …)` — whichever protected structure
                // the argument chain names is being replaced wholesale.
                let mut j = i + 2;
                let mut pdepth = 1;
                while j < toks.len() && pdepth > 0 {
                    match &toks[j].tok {
                        Tok::Other('(') => pdepth += 1,
                        Tok::Other(')') => pdepth -= 1,
                        Tok::Ident(arg) => {
                            let target = if arg == "heap" { "ledger" } else { arg };
                            if let Some(s) = STRUCTURES.iter().position(|x| *x == target) {
                                hit = Some(s);
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        // Plain assignments the method patterns cannot see: grant
        // accounting and allocator replacement.
        if hit.is_none() && (name == "heap_pages_granted" || (name == "heap" && prev_dot)) {
            let compound = (other(i + 1, '+') || other(i + 1, '-')) && other(i + 2, '=');
            let assign = other(i + 1, '=') && !other(i + 2, '=');
            if compound || assign {
                hit = Some(3);
            }
        }

        let Some(obj) = hit else { continue };
        let Some((fname, _)) = &cur_fn else { continue };
        if fname.ends_with("_locked") || fname.ends_with("_for_test") {
            continue;
        }
        if lock_depth[obj] > 0 {
            continue;
        }
        let line = toks[i].line;
        if marker_near(line, STRUCTURES[obj]) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::LockDiscipline,
            file: file.to_path_buf(),
            line,
            message: format!(
                "mutation of {} (`{name}`) in fn `{fname}` outside a `MonitorLock::{}` \
                 section",
                STRUCTURES[obj], LOCKS[obj]
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        check_source(&PathBuf::from("system.rs"), src)
    }

    #[test]
    fn mutation_inside_lock_scope_is_clean() {
        let src = r#"
            fn map_fresh(&mut self) {
                let start = self.lock_acquire(MonitorLock::PageMeta);
                self.page_meta.insert(page, meta);
                self.lock_release(MonitorLock::PageMeta, start);
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn mutation_outside_lock_scope_fires() {
        let src = r#"
            fn sloppy(&mut self) {
                self.page_meta.insert(page, meta);
            }
        "#;
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::LockDiscipline);
        assert!(f[0].message.contains("page_meta"), "{}", f[0].message);
        assert!(f[0].message.contains("sloppy"), "{}", f[0].message);
    }

    #[test]
    fn release_closes_the_scope() {
        let src = r#"
            fn sloppy(&mut self) {
                let start = self.lock_acquire(MonitorLock::PageMeta);
                self.lock_release(MonitorLock::PageMeta, start);
                self.page_meta.remove(&page);
            }
        "#;
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn wrong_lock_does_not_cover() {
        let src = r#"
            fn sloppy(&mut self) {
                let start = self.lock_acquire(MonitorLock::Ledger);
                self.page_meta.insert(page, meta);
                self.lock_release(MonitorLock::Ledger, start);
            }
        "#;
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn window_op_scope_covers_window_mutations() {
        let src = r#"
            fn window_add(&mut self) {
                let wstart = self.window_op_begin();
                self.cubicles[0].window_mut(wid);
                self.window_op_end(wstart);
            }
            fn sloppy(&mut self) {
                self.cubicles[0].window_mut(wid);
            }
        "#;
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("sloppy"));
    }

    #[test]
    fn locked_suffix_and_marker_exempt() {
        let src = r#"
            fn resolve_fault_locked(&mut self) {
                self.page_meta.get_mut(&page);
            }
            fn record_holder(&mut self) {
                self.page_meta.get_mut(&page);
                // verify: lock-held(page_meta)
            }
            fn corrupt_quarantine_for_test(&mut self) {
                self.page_meta.remove(&page);
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn marker_for_wrong_structure_does_not_exempt() {
        let src = r#"
            fn sloppy(&mut self) {
                self.page_meta.get_mut(&page); // verify: lock-held(ledger)
            }
        "#;
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn ledger_assignments_and_take_are_seen() {
        let src = r#"
            fn quarantine_inner(&mut self) {
                let w = std::mem::take(&mut self.cubicles[0].windows);
                c.heap_pages_granted = 0;
            }
        "#;
        let f = run(src);
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("windows"), "{}", f[0].message);
        assert!(f[1].message.contains("ledger"), "{}", f[1].message);
    }

    #[test]
    fn comparisons_and_reads_do_not_fire() {
        let src = r#"
            fn fine(&mut self) {
                if c.heap_pages_granted + pages > limit { return; }
                if c.heap_pages_granted == 0 { return; }
                let m = self.page_meta.get(&page);
                let n = self.grant_cache.as_ref().map(|c| c.map.len());
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = r#"
            mod tests {
                fn poke() {
                    sys.page_meta.insert(page, meta);
                }
            }
        "#;
        assert!(run(src).is_empty());
    }
}
