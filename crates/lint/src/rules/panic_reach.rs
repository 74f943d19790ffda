//! `panic-reach`: transitive panic reachability for the hot paths.
//!
//! Clippy bans panics *textually inside* the panic-free modules (their
//! headers deny `clippy::unwrap_used`, `clippy::panic` and friends); this
//! rule closes the loophole of calling into a function elsewhere in the
//! workspace that unwraps. Every call site in a hot-path file whose callee
//! can (transitively) reach an unannotated `unwrap`/`expect`/`panic!` is
//! flagged, with the full chain down to the panic site.
//!
//! What does **not** count as a reachable panic:
//! - sites in a module whose header denies clippy's panic lints (clippy
//!   has already made each of them carry a reasoned `#[expect]`), sites
//!   annotated `allow(panic-reach)`, and sites inside `#[cfg(test)]` code;
//! - `assert!`-family macros (checked preconditions, which clippy's panic
//!   lints leave alone too);
//! - anything called inside a `catch_unwind(...)` span — the caller opted
//!   into containment (that is PR 3's batch-salvage pattern).

use crate::engine::{Diagnostic, SourceFile, Workspace};
use crate::lexer::Token;
use crate::model::SemanticModel;
use crate::rules::is_hot_path;
use std::collections::VecDeque;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// The clippy lints that, all denied, cover every panic shape above.
const CLIPPY_PANIC_LINTS: &[&str] =
    &["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"];

pub(crate) fn check(ws: &Workspace, model: &SemanticModel, out: &mut Vec<Diagnostic>) {
    let fns = &model.fns;
    let n = fns.len();
    let rel = |i: usize| ws.files[fns[i].file].rel.as_str();
    let clippy_guarded: Vec<bool> = ws.files.iter().map(denies_clippy_panics).collect();

    // Chains from each fn down to a concrete panic site, seeded at fns that
    // panic directly and grown breadth-first over reverse call edges (so
    // every witness chain is a shortest one).
    let mut reach: Vec<Option<Vec<String>>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_test || clippy_guarded[f.file] {
            continue;
        }
        if let Some(desc) = direct_panic(ws, model, i) {
            reach[i] = Some(vec![format!("{} [{}]", f.display, desc)]);
            queue.push_back(i);
        }
    }
    // Reverse adjacency: callee → (caller, call line).
    let mut callers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (i, sites) in model.graph.sites.iter().enumerate() {
        if fns[i].is_test {
            continue;
        }
        for site in sites {
            for &t in &site.targets {
                callers[t].push((i, site.line));
            }
        }
    }
    while let Some(g) = queue.pop_front() {
        let tail = reach[g].clone().unwrap_or_default();
        for &(f, line) in &callers[g] {
            if reach[f].is_some() {
                continue;
            }
            let mut chain = vec![format!("{} [calls @ {}:{}]", fns[f].display, rel(f), line)];
            chain.extend(tail.iter().cloned());
            reach[f] = Some(chain);
            queue.push_back(f);
        }
    }

    // Report: hot-file call sites whose callee can panic, skipping spans
    // the caller wrapped in catch_unwind.
    for (i, f) in fns.iter().enumerate() {
        let file = &ws.files[f.file];
        if f.is_test || !is_hot_path(file) {
            continue;
        }
        let contained = catch_unwind_spans(file);
        let mut last_reported_line = 0;
        for site in &model.graph.sites[i] {
            if site.line == last_reported_line
                || contained.iter().any(|&(lo, hi)| (lo..=hi).contains(&site.tok))
            {
                continue;
            }
            let Some(&t) = site.targets.iter().find(|&&t| reach[t].is_some()) else { continue };
            let chain = reach[t].clone().unwrap_or_default();
            last_reported_line = site.line;
            file.report_chain(
                out,
                "panic-reach",
                site.line,
                format!(
                    "`{}` can transitively panic: {} — hot-path callees must be infallible \
                     (fix or annotate the panic site)",
                    site.name,
                    chain.join(" → ")
                ),
                chain,
            );
        }
    }
}

/// A description of the first unannotated panic site directly inside fn
/// `i`'s body, if any.
fn direct_panic(ws: &Workspace, model: &SemanticModel, i: usize) -> Option<String> {
    let f = &model.fns[i];
    let file = &ws.files[f.file];
    let toks = &file.tokens;
    for j in f.body.0 + 1..f.body.1 {
        let Some(name) = toks[j].ident() else { continue };
        let line = toks[j].line;
        let site = if PANIC_METHODS.contains(&name)
            && toks[j - 1].is_punct('.')
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
        {
            format!(".{name}() @ {}:{}", file.rel, line)
        } else if PANIC_MACROS.contains(&name)
            && toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
            && !toks[j - 1].is_punct('.')
        {
            format!("{name}! @ {}:{}", file.rel, line)
        } else {
            continue;
        };
        if !file.in_test_code(line) && !file.is_allowed("panic-reach", line) {
            return Some(site);
        }
    }
    None
}

/// Whether the file's header (its leading inner attributes) denies every
/// lint in [`CLIPPY_PANIC_LINTS`], as in `#![deny(clippy::unwrap_used, …)]`.
fn denies_clippy_panics(file: &SourceFile) -> bool {
    let toks = &file.tokens;
    let mut denied = Vec::new();
    let mut j = 0;
    while toks.get(j).is_some_and(|t| t.is_punct('#'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
    {
        let Some(close) = toks[j..].iter().position(|t| t.is_punct(']')) else { break };
        let attr = &toks[j + 2..j + close];
        if attr.get(1).and_then(Token::ident) == Some("deny") {
            // `clippy :: <lint>` triples inside the list.
            for w in attr.windows(4) {
                if w[0].ident() == Some("clippy") && w[1].is_punct(':') && w[2].is_punct(':') {
                    denied.extend(w[3].ident());
                }
            }
        }
        j += close + 1;
    }
    CLIPPY_PANIC_LINTS.iter().all(|lint| denied.contains(lint))
}

/// Token index spans of `catch_unwind(...)` argument lists in a file.
fn catch_unwind_spans(file: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &file.tokens;
    let mut spans = Vec::new();
    for j in 0..toks.len() {
        if toks[j].ident() == Some("catch_unwind")
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
        {
            if let Some(close) = match_paren(toks, j + 1) {
                spans.push((j + 1, close));
            }
        }
    }
    spans
}

fn match_paren(toks: &[crate::lexer::Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
