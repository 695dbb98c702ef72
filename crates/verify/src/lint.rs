//! Pass 1 rules: ambient authority, ambient concurrency, privileged APIs.
//!
//! Runs over the token stream of every *component* crate's `src/` tree.
//! Test directories are exempt by design: integration tests are host-side
//! harness code (they boot kernels, seed corruption, measure), not code
//! that runs inside a cubicle.

use crate::lexer::{lex, Spanned, Tok};
use crate::report::{Finding, Rule};
use std::path::Path;

/// Crates whose sources model *untrusted components* — everything the
/// paper loads into a cubicle. `crates/mpk` and `crates/core` are the
/// TCB (machine model + kernel) and are exempt from the source lint the
/// same way the loader itself is exempt from its own binary scan.
pub const COMPONENT_CRATES: &[&str] = &["vfs", "ramfs", "net", "sqldb", "httpd", "ukbase", "ipc"];

/// First path segments under `std::` that grant ambient authority. A
/// component reaching for any of these bypasses the simulated kernel the
/// way a real component calling `open(2)` directly would bypass
/// CubicleOS' VFS.
const AMBIENT_STD: &[&str] = &["fs", "net", "process"];

/// First path segments under `std::` (or `core::`) that grant *ambient
/// concurrency*: host threads and host synchronisation. Cubicles run
/// only when the monitor's core scheduler dispatches them; a component
/// spawning a `std::thread` or hiding state behind a `Mutex`/atomic
/// would race the monitor outside its lock discipline — exactly what
/// CubicleSan exists to rule out.
const AMBIENT_SYNC: &[&str] = &["thread", "sync"];

/// Identifiers naming privileged machine/kernel facilities. Mentioning
/// one in a component is the source-level analog of a `wrpkru` byte
/// sequence in a binary: grounds for rejection regardless of context.
const PRIVILEGED: &[&str] = &[
    // the machine model and its raw knobs
    "Machine",
    "Pkru",
    "ProtKey",
    "wrpkru",
    "set_pkru",
    "set_pkru_at_load",
    "set_page_key",
    "set_page_key_at_load",
    "set_page_flags",
    "map_page",
    "unmap_page",
    "mapped_pages",
    "pages_with_key",
    // kernel internals a component must never steer
    "retag",
    "pkru_for",
    "PARKED_KEY",
    // seeded-corruption hooks (test-only by contract)
    "corrupt_machine_for_test",
    "corrupt_cubicle_key_for_test",
];

/// Lints one source file (already read to a string). `file` is only used
/// to label findings.
pub fn lint_source(file: &Path, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let mut findings = Vec::new();
    let push = |findings: &mut Vec<Finding>, rule, line, message: String| {
        findings.push(Finding {
            rule,
            file: file.to_path_buf(),
            line,
            message,
        });
    };

    for (i, s) in toks.iter().enumerate() {
        let Tok::Ident(name) = &s.tok else { continue };
        match name.as_str() {
            "std" | "core" if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::PathSep) => {
                check_std_path(name == "std", &toks, i + 2, &mut findings, file);
            }
            banned if PRIVILEGED.contains(&banned) => push(
                &mut findings,
                Rule::PrivilegedApi,
                s.line,
                format!("`{banned}` is a privileged machine/kernel API"),
            ),
            _ => {}
        }
    }
    findings
}

/// Checks what follows `std::` (or `core::`, with `is_std` false) at
/// token index `i`: either a single segment (`std::fs::File`) or a
/// use-group (`std::{fs, io}`), whose *leading* segments are what grant
/// authority.
fn check_std_path(
    is_std: bool,
    toks: &[Spanned],
    i: usize,
    findings: &mut Vec<Finding>,
    file: &Path,
) {
    let root = if is_std { "std" } else { "core" };
    let mut ambient = |seg: &str, line: usize| {
        if is_std && AMBIENT_STD.contains(&seg) {
            findings.push(Finding {
                rule: Rule::AmbientAuthority,
                file: file.to_path_buf(),
                line,
                message: format!(
                    "`std::{seg}` is ambient authority — route through the simulated kernel"
                ),
            });
        }
        if AMBIENT_SYNC.contains(&seg) {
            findings.push(Finding {
                rule: Rule::AmbientConcurrency,
                file: file.to_path_buf(),
                line,
                message: format!(
                    "`{root}::{seg}` is ambient concurrency — cubicles are scheduled by \
                     the monitor, never by host threads"
                ),
            });
        }
    };
    match toks.get(i).map(|t| (&t.tok, t.line)) {
        Some((Tok::Ident(seg), line)) => ambient(seg, line),
        Some((Tok::OpenBrace, _)) => {
            // `use std::{fs, io::Read, thread};` — check each segment
            // that directly follows the opening brace or a depth-1 comma.
            let mut depth = 1;
            let mut expect_segment = true;
            let mut j = i + 1;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::OpenBrace => depth += 1,
                    Tok::CloseBrace => depth -= 1,
                    Tok::Comma if depth == 1 => expect_segment = true,
                    Tok::Ident(seg) => {
                        if expect_segment {
                            ambient(seg, toks[j].line);
                        }
                        expect_segment = false;
                    }
                    _ => expect_segment = false,
                }
                j += 1;
            }
        }
        _ => {}
    }
}

/// Lints every `.rs` file under `crate_dir/src`, recursively.
///
/// Returns the findings plus the number of files scanned.
///
/// # Errors
///
/// Propagates I/O errors from directory walking / file reading.
pub fn lint_crate_sources(crate_dir: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = crate::rust_sources(&crate_dir.join("src"))?;
    let findings = files.iter().flat_map(|(p, t)| lint_source(p, t)).collect();
    Ok((findings, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn rules(src: &str) -> Vec<Rule> {
        lint_source(&PathBuf::from("t.rs"), src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn ambient_paths_fire() {
        assert_eq!(rules("use std::fs::File;"), vec![Rule::AmbientAuthority]);
        assert_eq!(
            rules("std::process::exit(1);"),
            vec![Rule::AmbientAuthority]
        );
        assert_eq!(
            rules("use std::{io, fs, thread};"),
            vec![Rule::AmbientAuthority, Rule::AmbientConcurrency]
        );
        // `fs` deeper in a group names someone else's module, not std's
        assert!(rules("use std::{io::Read};").is_empty());
        assert!(rules("use std::collections::HashMap;").is_empty());
    }

    #[test]
    fn ambient_concurrency_fires() {
        assert_eq!(
            rules("std::thread::spawn(|| {});"),
            vec![Rule::AmbientConcurrency]
        );
        assert_eq!(
            rules("use std::sync::Mutex;"),
            vec![Rule::AmbientConcurrency]
        );
        assert_eq!(
            rules("use core::sync::atomic::AtomicUsize;"),
            vec![Rule::AmbientConcurrency]
        );
        // `core::` is only concurrency-checked, never ambient authority
        assert!(rules("use core::fmt;").is_empty());
        assert!(rules("core::mem::swap(&mut a, &mut b);").is_empty());
    }

    #[test]
    fn privileged_names_fire() {
        assert_eq!(
            rules("use cubicle_mpk::Machine;"),
            vec![Rule::PrivilegedApi]
        );
        assert_eq!(rules("m.set_page_key(a, k);"), vec![Rule::PrivilegedApi]);
    }

    #[test]
    fn banned_names_in_comments_and_strings_do_not_fire() {
        assert!(rules("// Machine std::fs").is_empty());
        assert!(rules(r#"let doc = "set_pkru is forbidden";"#).is_empty());
        assert!(rules(r###"let doc = r#"wrpkru std::net"#;"###).is_empty());
    }

    #[test]
    fn line_numbers_reported() {
        let f = lint_source(
            &PathBuf::from("t.rs"),
            "fn a() {}\nfn b() { std::fs::read(p); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }
}
