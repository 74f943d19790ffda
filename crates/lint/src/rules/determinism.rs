//! `hash-iter` + `nan-cmp`: determinism of fit and kernel paths.
//!
//! GOGGLES' value proposition is *reproducible* hands-off labeling: the
//! same seed must yield the same affinity matrix, the same EM trajectory,
//! the same snapshot bytes. Two things silently break that while passing
//! every happy-path test: iterating a `HashMap`/`HashSet` (iteration order
//! is randomized per process) into any order- or accumulation-sensitive
//! computation, and `partial_cmp().unwrap()`-style comparators that panic
//! the moment a degenerate input produces a NaN. Lookups and inserts into
//! hash containers are fine — only *iteration* is flagged.

use crate::engine::{Diagnostic, SourceFile};
use crate::lexer::Token;
use std::collections::BTreeSet;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Iteration methods whose visit order is the container's (nondeterministic
/// for hash containers). `get`/`insert`/`contains*`/`remove`/`entry` are
/// order-free and deliberately not listed.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain"];

/// Flag iteration over identifiers bound to `HashMap`/`HashSet` in
/// fit/kernel crates. Binding detection is lexical (`name: HashMap<…>`,
/// `name = HashMap::new()` and friends) — an over-approximation that errs
/// toward reporting, with the `allow` hatch for intentional order-free
/// iteration (e.g. feeding a commutative reduction into a sort).
pub(crate) fn check_hash_iteration(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    let bound = hash_bound_idents(tokens);
    if bound.is_empty() {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        // `name.iter()` / `name.keys()` …
        if bound.contains(name)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens.get(i + 2).and_then(Token::ident).is_some_and(|m| ITER_METHODS.contains(&m))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            report_iter(file, out, t.line, name);
        }
        // `for … in name` / `for … in &name` (direct IntoIterator use)
        if name == "in" {
            let mut j = i + 1;
            while tokens.get(j).is_some_and(|n| n.is_punct('&') || n.ident() == Some("mut")) {
                j += 1;
            }
            if let Some(target) = tokens.get(j).and_then(Token::ident) {
                // A following `.` means a method chain decides the order —
                // covered by the method pattern above if it's an iter call.
                let chained = tokens.get(j + 1).is_some_and(|n| n.is_punct('.'));
                if bound.contains(target) && !chained {
                    report_iter(file, out, t.line, target);
                }
            }
        }
    }
}

fn report_iter(file: &SourceFile, out: &mut Vec<Diagnostic>, line: usize, name: &str) {
    file.report(
        out,
        "hash-iter",
        line,
        format!(
            "iterating hash container `{name}` in a fit/kernel path: iteration order is \
             nondeterministic and can change numeric results across runs; collect+sort, \
             use a BTree container, or annotate why order cannot matter"
        ),
    );
}

/// Identifiers bound to a hash container anywhere in the file: covers
/// `name: [std::collections::]HashMap<…>` (lets, params, struct fields) and
/// `name = [path::]HashMap::new/with_capacity/from(…)`.
fn hash_bound_idents(tokens: &[Token]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !HASH_TYPES.contains(&name) {
            continue;
        }
        // Walk back over a `std :: collections ::` path prefix.
        let mut j = i;
        while j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
            if j >= 3 && tokens[j - 3].ident().is_some() {
                j -= 3;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        match (tokens.get(j.wrapping_sub(2)), &tokens[j - 1]) {
            // `name : HashMap`
            (Some(prev), colon)
                if colon.is_punct(':')
                    && !matches!(tokens.get(j.wrapping_sub(2)), Some(t2) if t2.is_punct(':')) =>
            {
                if let Some(n) = prev.ident() {
                    bound.insert(n.to_string());
                }
            }
            // `name = HashMap`
            (Some(prev), eq) if eq.is_punct('=') => {
                if let Some(n) = prev.ident() {
                    bound.insert(n.to_string());
                }
            }
            _ => {}
        }
    }
    bound
}

/// Flag `partial_cmp(…).unwrap()` / `.expect(…)` — a comparator that panics
/// on NaN. `f32::total_cmp`/`f64::total_cmp` is the drop-in fix: total
/// order, no panic, deterministic on every input. Workspace-wide, the
/// reference corpus (tests, examples, benches) included.
pub(crate) fn check_nan_comparators(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.ident() != Some("partial_cmp") {
            continue;
        }
        let Some(open) = tokens.get(i + 1) else { continue };
        if !open.is_punct('(') {
            continue;
        }
        // Find the matching close paren, then look for `.unwrap` / `.expect`.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if tokens.get(j + 1).is_some_and(|n| n.is_punct('.'))
            && tokens
                .get(j + 2)
                .and_then(Token::ident)
                .is_some_and(|m| m == "unwrap" || m == "expect")
        {
            file.report(
                out,
                "nan-cmp",
                t.line,
                "partial_cmp().unwrap() panics on NaN; use f32::total_cmp / f64::total_cmp \
                 for a panic-free total order"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str, check: fn(&SourceFile, &mut Vec<Diagnostic>)) -> Vec<Diagnostic> {
        let f = SourceFile::new(rel.into(), src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_hash_iteration_not_lookup() {
        let src = "\
fn f() {
    let mut m: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    m.insert(1, 2.0);
    let x = m.get(&1);
    let s: f64 = m.values().sum();
    for (k, v) in &m { acc += v; }
}
";
        let out = run("crates/core/src/x.rs", src, check_hash_iteration);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "hash-iter"));
    }

    #[test]
    fn flags_assignment_bound_sets() {
        let src = "fn f() { let seen = HashSet::with_capacity(4); for x in seen.drain() {} }";
        assert_eq!(run("crates/core/src/x.rs", src, check_hash_iteration).len(), 1);
    }

    #[test]
    fn nan_cmp_flagged_workspace_wide() {
        let src = "fn f() { xs.sort_by(|a, b| a.partial_cmp(b).expect(\"NaN\")); }";
        assert_eq!(run("crates/vision/src/x.rs", src, check_nan_comparators).len(), 1);
        let fixed = "fn f() { xs.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(run("crates/vision/src/x.rs", fixed, check_nan_comparators).is_empty());
        let handled = "fn f() { let o = a.partial_cmp(b).unwrap_or(Ordering::Equal); }";
        assert!(run("crates/vision/src/x.rs", handled, check_nan_comparators).is_empty());
    }
}
