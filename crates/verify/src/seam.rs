//! Pass: the isolation seam.
//!
//! The kernel reads its [`IsolationMode`] in one module,
//! `crates/core/src/system/isolation.rs`, whose `System` methods say
//! what the mode does at each point that must know (the crossing, page
//! re-keying, window-op charging, the fault policy, stack pooling, the
//! audit's window rule, the transfer size). This pass keeps it that way:
//!
//! * in `crates/core/src`, outside `system/isolation.rs` and `mode.rs`,
//!   a `self.mode` read or a call of one of the mode predicates
//!   (`mpk_active`, `acls_active`, `trampolines_active`) is a finding;
//! * in a component crate, so is a predicate, or a `.mode()` call on
//!   `sys` / `system` — the names components give their `&mut System`.
//!
//! `System::new` reads `config.mode`, which is not `self.mode`, so the
//! constructor needs no exemption.
//!
//! [`IsolationMode`]: ../cubicle_core/enum.IsolationMode.html

use crate::lexer::{lex, Tok};
use crate::report::{Finding, Rule};
use std::path::Path;

/// The `IsolationMode` predicates only the seam may call.
const PREDICATES: [&str; 3] = ["mpk_active", "acls_active", "trampolines_active"];

/// Files of `crates/core/src` that may read the mode: the seam and the
/// mode's own definition.
const SEAM_FILES: [&str; 2] = ["system/isolation.rs", "mode.rs"];

/// Checks every file of the kernel crate's `src/` directory except the
/// seam's own. Returns the findings and the number of files checked.
///
/// # Errors
///
/// Propagates I/O errors from directory walking / file reading.
pub fn check_core(core_src: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files: Vec<_> = crate::rust_sources(core_src)?
        .into_iter()
        .filter(|(p, _)| {
            let rel = p.strip_prefix(core_src).unwrap_or(p);
            !SEAM_FILES.iter().any(|s| rel == Path::new(s))
        })
        .collect();
    let findings = files
        .iter()
        .flat_map(|(p, t)| check_source(p, t, true))
        .collect();
    Ok((findings, files.len()))
}

/// Checks one source file: a kernel file outside the seam when `in_core`,
/// a component file otherwise. `file` labels findings.
pub fn check_source(file: &Path, src: &str, in_core: bool) -> Vec<Finding> {
    let toks = lex(src);
    let ident = |i: usize| {
        toks.get(i).and_then(|s| match &s.tok {
            Tok::Ident(name) => Some(name.as_str()),
            _ => None,
        })
    };
    let other = |i: usize, c: char| toks.get(i).is_some_and(|s| s.tok == Tok::Other(c));
    let mut findings = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        let recv = if i >= 2 && other(i - 1, '.') {
            ident(i - 2)
        } else {
            None
        };
        let what = match ident(i) {
            Some(p) if PREDICATES.contains(&p) => Some(format!("`{p}`")),
            Some("mode") if in_core && recv == Some("self") => {
                match ident(i + 2).filter(|p| other(i + 1, '.') && PREDICATES.contains(p)) {
                    // `self.mode.mpk_active()` is one read, reported once.
                    Some(p) => {
                        i += 2;
                        Some(format!("`self.mode.{p}`"))
                    }
                    None => Some("`self.mode`".to_string()),
                }
            }
            Some("mode")
                if !in_core
                    && matches!(recv, Some("sys" | "system"))
                    && other(i + 1, '(')
                    && other(i + 2, ')') =>
            {
                Some(format!("`{}.mode()`", recv.unwrap_or_default()))
            }
            _ => None,
        };
        if let Some(what) = what {
            findings.push(Finding {
                rule: Rule::ModeSeam,
                file: file.to_path_buf(),
                line,
                message: format!(
                    "{what} reads the isolation mode outside `system/isolation.rs`: \
                     ask the seam what the mode does instead"
                ),
            });
        }
        i += 1;
    }
    findings
}
