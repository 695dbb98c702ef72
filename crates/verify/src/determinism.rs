//! Pass: replay determinism — no observable `HashMap`/`HashSet` order.
//!
//! The kernel's replay story (and the golden Figure-6 surface) depends
//! on every run of a seeded scenario producing byte-identical output.
//! `std::collections` hash maps iterate in randomized order per process,
//! so any iteration whose order can reach an observable surface (a trace
//! line, an export, a finding list, a cycle charge) is a latent
//! determinism bug. This pass flags every iteration over an identifier
//! that is declared anywhere in the crate as a `HashMap`/`HashSet`,
//! unless the site is provably order-insensitive:
//!
//! * the iterator chain hits a commutative terminal within a few tokens
//!   (`sum`, `count`, `min`, `max`, `all`, `any`, `len`, `is_empty`,
//!   `fold`);
//! * a `sort*` call appears shortly after (collect-then-sort);
//! * a `// verify: order-ok` marker within two lines vouches for it
//!   (e.g. the result feeds another hash map, so order is unobservable).
//!
//! The ident-based analysis is deliberately name-coarse: a `Vec` that
//! shares its name with a `HashMap` field elsewhere in the crate is
//! over-approximated as a map. That bias is the right one for a
//! determinism lint — a false `order-ok` marker costs a comment; a
//! missed randomized iteration costs a flaky golden test.

use crate::lexer::{lex, Spanned, Tok};
use crate::report::{Finding, Rule};
use std::collections::BTreeSet;
use std::path::Path;

/// Iterator-producing methods whose order is the map's (randomized)
/// internal order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminals that are order-insensitive.
const COMMUTATIVE: &[&str] = &[
    "sum", "count", "min", "max", "all", "any", "len", "is_empty", "fold",
];

/// Tokens of forward lookahead for a `.sort*()` call or a commutative
/// terminal (long enough for a filter+map+collect chain before the
/// sort).
const LOOKAHEAD: usize = 60;

/// Tokens of *backward* lookahead for a `.sort*()` call — covers the
/// `v.sort(); for x in v { … }` idiom where the name-coarse ident set
/// mistakes the sorted `Vec` for the map it was collected from.
const LOOKBEHIND: usize = 24;

/// Lines a `// verify: order-ok` marker may sit from the site.
const MARKER_RANGE: usize = 2;

/// Collects every identifier declared as a `HashMap`/`HashSet` in `src`
/// (field `name: HashMap<…>` or binding `name = HashMap::new()`).
pub fn collect_map_idents(src: &str, into: &mut BTreeSet<String>) {
    let toks: Vec<Spanned> = lex(src)
        .into_iter()
        .filter(|s| !matches!(s.tok, Tok::Marker(_)))
        .collect();
    for i in 0..toks.len() {
        let Tok::Ident(ty) = &toks[i].tok else {
            continue;
        };
        if ty != "HashMap" && ty != "HashSet" {
            continue;
        }
        // `name : HashMap` (declaration) or `name = HashMap` (binding).
        if i >= 2 && matches!(toks[i - 1].tok, Tok::Other(':' | '=')) {
            if let Tok::Ident(name) = &toks[i - 2].tok {
                into.insert(name.clone());
            }
        }
    }
}

/// Flags iteration sites over collected map idents in one file.
pub fn check_source(file: &Path, src: &str, maps: &BTreeSet<String>) -> Vec<Finding> {
    let all = lex(src);
    let markers: Vec<usize> = all
        .iter()
        .filter_map(|s| match &s.tok {
            Tok::Marker(m) if m.starts_with("order-ok") => Some(s.line),
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
    // Only *method calls* count as evidence: a loop variable named
    // `count` or `min` must not vouch for its own loop's order.
    let method_call = |j: usize, pred: &dyn Fn(&str) -> bool| {
        j >= 1 && other(j - 1, '.') && other(j + 1, '(') && ident(j).is_some_and(pred)
    };
    let allowed = |site: usize, line: usize| {
        if markers.iter().any(|ml| ml.abs_diff(line) <= MARKER_RANGE) {
            return true;
        }
        if (site..toks.len().min(site + LOOKAHEAD))
            .any(|j| method_call(j, &|n| n.starts_with("sort") || COMMUTATIVE.contains(&n)))
        {
            return true;
        }
        (site.saturating_sub(LOOKBEHIND)..site).any(|j| method_call(j, &|n| n.starts_with("sort")))
    };

    let mut findings = Vec::new();
    let push = |findings: &mut Vec<Finding>, line: usize, name: &str, how: &str| {
        findings.push(Finding {
            rule: Rule::Nondeterminism,
            file: file.to_path_buf(),
            line,
            message: format!(
                "iteration over hash-ordered `{name}` ({how}) — sort, use a \
                 commutative fold, or annotate `// verify: order-ok`"
            ),
        });
    };

    for i in 0..toks.len() {
        let Some(name) = ident(i) else { continue };

        // `map.iter()` / `map.keys()` / … method-chain iteration.
        if maps.contains(name)
            && other(i + 1, '.')
            && ident(i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
            && other(i + 3, '(')
        {
            let line = toks[i + 2].line;
            if !allowed(i + 3, line) {
                push(
                    &mut findings,
                    line,
                    name,
                    &format!(".{}()", ident(i + 2).unwrap()),
                );
            }
            continue;
        }

        // `for … in &map {` / `for … in &mut self.map {` direct
        // iteration (an implicit `.iter()`).
        if name == "in" {
            let mut j = i + 1;
            if other(j, '&') {
                j += 1;
            }
            if ident(j) == Some("mut") {
                j += 1;
            }
            // walk a field chain: `self . grant_cache . map`
            while ident(j).is_some() && other(j + 1, '.') && ident(j + 2).is_some() {
                j += 2;
            }
            if let Some(last) = ident(j) {
                if maps.contains(last) && toks.get(j + 1).is_some_and(|s| s.tok == Tok::OpenBrace) {
                    let line = toks[j].line;
                    if !allowed(j, line) {
                        push(&mut findings, line, last, "for-loop");
                    }
                }
            }
        }
    }
    findings
}

/// Runs the determinism pass over every `.rs` file under
/// `crate_dir/src`, two-phase: collect map idents crate-wide, then flag
/// iteration sites.
///
/// # Errors
///
/// Propagates I/O errors from directory walking / file reading.
pub fn check_crate_sources(crate_dir: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = crate::rust_sources(&crate_dir.join("src"))?;
    let mut maps = BTreeSet::new();
    for (_, text) in &files {
        collect_map_idents(text, &mut maps);
    }
    let mut findings = Vec::new();
    for (path, text) in &files {
        findings.extend(check_source(path, text, &maps));
    }
    Ok((findings, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let mut maps = BTreeSet::new();
        collect_map_idents(src, &mut maps);
        check_source(&PathBuf::from("t.rs"), src, &maps)
    }

    #[test]
    fn collects_fields_and_bindings() {
        let mut maps = BTreeSet::new();
        collect_map_idents(
            "struct S { edges: HashMap<K, V>, names: Vec<String> }\n\
             fn f() { let mut seen = HashSet::new(); }",
            &mut maps,
        );
        assert!(maps.contains("edges"));
        assert!(maps.contains("seen"));
        assert!(!maps.contains("names"));
    }

    #[test]
    fn unsorted_iteration_fires() {
        let src = "struct S { m: HashMap<K, V> }\n\
                   fn f(s: &S) { for (k, v) in &s.m { emit(k, v); } }";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Nondeterminism);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn method_chain_iteration_fires() {
        let src = "struct S { m: HashMap<K, V> }\n\
                   fn f(s: &S) { s.m.keys().for_each(|k| emit(k)); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn collect_then_sort_is_allowed() {
        let src = "struct S { m: HashMap<K, V> }\n\
                   fn f(s: &S) { let mut v: Vec<_> = s.m.iter().collect(); v.sort(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn commutative_terminals_are_allowed() {
        let src = "struct S { m: HashMap<K, u64> }\n\
                   fn f(s: &S) -> u64 { s.m.values().sum() }\n\
                   fn g(s: &S) -> usize { s.m.values().filter(|v| **v > 0).count() }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn order_ok_marker_is_allowed() {
        let src = "struct S { m: HashMap<K, V> }\n\
                   fn f(s: &S) {\n\
                       // verify: order-ok — feeds another hash map\n\
                       for (k, v) in &s.m { sink.insert(k, v); }\n\
                   }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn vec_iteration_is_not_flagged() {
        let src = "struct S { names: Vec<String> }\n\
                   fn f(s: &S) { for n in &s.names { emit(n); } }\n\
                   fn g(s: &S) { s.names.iter().for_each(emit); }";
        assert!(run(src).is_empty());
    }
}
