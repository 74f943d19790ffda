//! Integration tests for the semantic model the flow rules share: the
//! lexer, the allow/test scoping in the engine, the item parser, the
//! name-based call graph, and the guard-liveness pass. These exercise the
//! crate's public analysis API directly, against the same fixture trees
//! the rule tests use.

use goggles_lint::engine::{Allow, SourceFile, Workspace};
use goggles_lint::lexer::{lex, Comment, Lexed, Token, TokenKind};
use goggles_lint::model::callgraph::{CallGraph, CallSite};
use goggles_lint::model::guards::{analyze, BlockOp, GuardSummary, Held};
use goggles_lint::model::items::{
    crate_of, match_brace, module_path, parse_workspace, FileItems, FnItem, PubItem,
};
use goggles_lint::model::SemanticModel;
use goggles_lint::rules::RULE_NAMES;
use goggles_lint::Diagnostic;
use std::path::Path;

fn load(fixture: &str) -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    Workspace::load(&root).expect("fixture tree loads")
}

#[test]
fn lexer_separates_tokens_and_comments() {
    let Lexed { tokens, comments } = lex("let x = 1; // note\nf(\"s\");\n");
    let idents: Vec<&str> = tokens.iter().filter_map(Token::ident).collect();
    assert_eq!(idents, vec!["let", "x", "f"]);
    assert!(tokens.iter().any(|t| t.kind == TokenKind::Num && t.line == 1));
    assert!(tokens.iter().any(|t| t.kind == TokenKind::Str && t.line == 2));
    assert!(tokens.iter().any(|t| t.is_punct(';')));
    let note: &Comment = &comments[0];
    assert_eq!((note.text.as_str(), note.line, note.end_line), ("// note", 1, 1));
}

#[test]
fn source_file_scopes_allows_and_test_code() {
    let src = "\
// goggles-lint: allow(panic-reach): reason covering the next line
fn f() { x.unwrap(); }
fn g() { y.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { z.unwrap(); }
}
";
    let file = SourceFile::new("crates/serve/src/service.rs".to_string(), src);
    assert!(file.is_allowed("panic-reach", 2));
    assert!(!file.is_allowed("panic-reach", 3));
    assert!(!file.in_test_code(3));
    assert!(file.in_test_code(6));

    let mut out: Vec<Diagnostic> = Vec::new();
    file.report_chain(&mut out, "panic-reach", 2, "allowed".into(), Vec::new());
    file.report_chain(&mut out, "panic-reach", 6, "test code".into(), Vec::new());
    file.report_chain(&mut out, "panic-reach", 3, "real".into(), vec!["hop".into()]);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!((out[0].line, out[0].chain.as_slice()), (3, &["hop".to_string()][..]));
}

#[test]
fn allow_records_scope_flags() {
    let a = Allow { rule: "alloc-hot".to_string(), line: 4, file_scope: false, standalone: true };
    assert!(a.standalone && !a.file_scope);
    assert_eq!((a.rule.as_str(), a.line), ("alloc-hot", 4));
}

#[test]
fn item_parser_recovers_fns_pubs_and_paths() {
    assert_eq!(module_path("crates/serve/src/service.rs"), "serve::service");
    assert_eq!(module_path("crates/core/src/lib.rs"), "core");
    assert_eq!(crate_of("crates/serve/src/service.rs"), "serve");

    let ws = load("clean");
    let per_file: Vec<FileItems> = parse_workspace(&ws);
    let all_fns: Vec<&FnItem> = per_file.iter().flat_map(|f| f.fns.iter()).collect();
    let handle =
        all_fns.iter().find(|f| f.name == "handle").expect("clean fixture declares handle");
    assert!(handle.is_pub && !handle.is_test && handle.self_ty.is_none());
    assert_eq!(handle.display, "serve::service::handle");
    let pubs: Vec<&PubItem> = per_file.iter().flat_map(|f| f.pubs.iter()).collect();
    assert!(pubs.iter().any(|p| p.kind == "fn" && p.name == "sort_scores"));

    // The body range is brace-matched: reparse it directly.
    let toks = &ws.files[handle.file].tokens;
    assert_eq!(match_brace(toks, handle.body.0), Some(handle.body.1));
}

#[test]
fn call_graph_resolves_cross_file_calls() {
    let ws = load("panic_reach");
    let model = SemanticModel::build(&ws);
    let handle = model.fn_by_display("serve::service::handle").expect("handle in model");
    let load_header =
        model.fn_by_display("serve::snapshot::load_header").expect("load_header in model");
    let graph: &CallGraph = &model.graph;
    let site: &CallSite = graph.sites[handle]
        .iter()
        .find(|s| s.name == "load_header")
        .expect("handle calls load_header");
    assert_eq!(site.targets, vec![load_header]);
    assert!(site.line >= 1 && site.tok > 0);
}

#[test]
fn guard_liveness_tracks_acquires_and_blocking() {
    let ws = load("lock_order");
    let model = SemanticModel::build(&ws);

    // enqueue takes `queue` then `stats`: the second acquire sees the first.
    let enqueue = model.fn_by_display("serve::service::enqueue").expect("enqueue in model");
    let g: &GuardSummary = &model.guards[enqueue];
    assert_eq!(g.acquires.len(), 2, "{:?}", g.acquires);
    let held: &Held = &g.acquires[1].live[0];
    assert!(held.lock.ends_with("::queue"), "{held:?}");

    // drain_to blocks on write_all while `queue` is live — visible through
    // a direct `analyze` call too (no call sites in its body).
    let drain = model.fn_by_display("serve::service::drain_to").expect("drain_to in model");
    let f = &model.fns[drain];
    let summary = analyze(&ws.files[f.file], f.body, &[], &[]);
    let b: &BlockOp = summary.blocking.first().expect("write_all is blocking");
    assert_eq!(b.op, "write_all");
    assert!(b.live.iter().any(|h| h.lock.ends_with("::queue")), "{:?}", b.live);
}

#[test]
fn rule_names_cover_the_flow_rules() {
    assert_eq!(RULE_NAMES.len(), 8);
    for rule in ["lock-order", "panic-reach", "alloc-hot", "dead-pub"] {
        assert!(RULE_NAMES.contains(&rule), "{rule} missing from RULE_NAMES");
    }
}
