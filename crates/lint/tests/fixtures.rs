//! Fixture-tree tests: each rule is exercised against a miniature workspace
//! under `tests/fixtures/<name>/` whose paths mimic the real layout (rules
//! scope by workspace-relative path), plus the meta-test that the *actual*
//! workspace lints clean and exit-code tests for the CLI binary.

use goggles_lint::{Diagnostic, Workspace};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    Workspace::load(&fixture_root(name)).expect("fixture tree loads").lint()
}

/// `(rule, line)` pairs, in the engine's sorted order.
fn shape(diags: &[Diagnostic]) -> Vec<(&str, usize)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn hash_iter_fixture_flags_hashmap_iteration() {
    let out = lint_fixture("hash_iter");
    assert_eq!(shape(&out), vec![("hash-iter", 9)], "{out:?}");
}

#[test]
fn nan_cmp_fixture_flags_partial_cmp_unwrap() {
    let out = lint_fixture("nan_cmp");
    assert_eq!(shape(&out), vec![("nan-cmp", 4)], "{out:?}");
}

#[test]
fn atomics_fixture_flags_seqcst_everywhere_acquire_on_hot_paths() {
    let out = lint_fixture("atomics");
    assert_eq!(shape(&out), vec![("atomics", 6), ("atomics", 6)], "{out:?}");
    let files: Vec<&str> = out.iter().map(|d| d.file.as_str()).collect();
    assert_eq!(files, vec!["crates/obs/src/http.rs", "crates/serve/src/server.rs"]);
}

#[test]
fn wire_fixture_flags_missing_decoder_and_dispatch() {
    let out = lint_fixture("wire");
    // Opcode::Stats decodes nowhere and the server never references it; the
    // client speaks both, so exactly two findings, anchored at the enum.
    assert_eq!(shape(&out), vec![("wire", 5), ("wire", 5)], "{out:?}");
    assert!(out.iter().all(|d| d.message.contains("Stats")), "{out:?}");
    assert!(out.iter().any(|d| d.message.contains("from_u8")), "{out:?}");
    assert!(out.iter().any(|d| d.message.contains("server.rs")), "{out:?}");
}

#[test]
fn bad_allow_fixture_flags_malformed_annotations() {
    let out = lint_fixture("bad_allow");
    assert_eq!(shape(&out), vec![("bad-allow", 3), ("bad-allow", 6)], "{out:?}");
}

#[test]
fn unused_allow_fixture_flags_an_allow_that_suppresses_nothing() {
    // `Acquire` is audited only on hot paths, and `http.rs` is not one.
    let out = lint_fixture("unused_allow");
    assert_eq!(shape(&out), vec![("bad-allow", 6)], "{out:?}");
    assert!(out[0].message.contains("allow(atomics) suppresses nothing"), "{out:?}");
}

#[test]
fn lock_order_fixture_flags_inversion_reentry_and_blocking() {
    let out = lint_fixture("lock_order");
    assert_eq!(
        shape(&out),
        vec![("lock-order", 14), ("lock-order", 27), ("lock-order", 36)],
        "{out:?}"
    );
    // The inversion carries both witness chains, joined by a marker.
    assert!(out[0].message.contains("inversion between `queue` and `stats`"), "{out:?}");
    assert!(out[0].chain.iter().any(|hop| hop == "— reverse order —"), "{out:?}");
    assert!(out[1].message.contains("re-acquires `stats`"), "{out:?}");
    assert!(out[2].message.contains("blocking `write_all`"), "{out:?}");
}

#[test]
fn panic_reach_fixture_reports_two_hop_chain() {
    let out = lint_fixture("panic_reach");
    assert_eq!(shape(&out), vec![("panic-reach", 7)], "{out:?}");
    let d = &out[0];
    assert!(d.message.contains("`load_header` can transitively panic"), "{}", d.message);
    // Full witness: the intermediate hop and the concrete panic site.
    assert_eq!(d.chain.len(), 2, "{:?}", d.chain);
    assert!(d.chain[0].contains("load_header [calls @ crates/serve/src/snapshot.rs:5]"));
    assert!(d.chain[1].contains("parse_magic [.unwrap() @ crates/serve/src/snapshot.rs:9]"));
    // Text output renders the same chain inline.
    assert!(d.message.contains(" → "), "{}", d.message);
}

#[test]
fn alloc_hot_fixture_flags_per_iteration_allocations() {
    let out = lint_fixture("alloc_hot");
    assert_eq!(shape(&out), vec![("alloc-hot", 6), ("alloc-hot", 8)], "{out:?}");
    assert!(out[0].message.contains("format!"), "{out:?}");
    assert!(out[1].message.contains(".to_vec()"), "{out:?}");
}

#[test]
fn dead_pub_fixture_flags_only_the_unreferenced_item() {
    // `used` is kept alive by the serve crate's reference; `orphan` is not.
    let out = lint_fixture("dead_pub");
    assert_eq!(shape(&out), vec![("dead-pub", 7)], "{out:?}");
    assert!(out[0].message.contains("`orphan`"), "{out:?}");
}

#[test]
fn clean_fixture_lints_clean() {
    // Correct code, allow-annotated escape hatches (each one used), and
    // #[cfg(test)] code covering every rule: zero findings.
    let out = lint_fixture("clean");
    assert!(out.is_empty(), "{out:?}");
}

/// The meta-test: the real workspace must satisfy its own invariants.
#[test]
fn real_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let out = Workspace::load(&root).expect("workspace loads").lint();
    assert!(out.is_empty(), "workspace must lint clean:\n{}", render(&out));
}

fn render(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| format!("{d}\n")).collect()
}

mod cli {
    use super::fixture_root;
    use std::process::Command;

    fn run(args: &[&str]) -> (Option<i32>, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_goggles-lint"))
            .args(args)
            .output()
            .expect("binary runs");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    }

    #[test]
    fn exit_1_and_diagnostics_on_stdout_for_violations() {
        let root = fixture_root("nan_cmp");
        let (code, stdout) = run(&["--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(1));
        assert!(stdout.contains("crates/vision/src/rank.rs:4: nan-cmp:"), "{stdout}");
    }

    #[test]
    fn exit_0_on_clean_tree() {
        let root = fixture_root("clean");
        let (code, stdout) = run(&["--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(stdout.is_empty(), "clean run prints nothing to stdout: {stdout}");
    }

    #[test]
    fn exit_2_on_bad_usage() {
        let (code, _) = run(&["--frobnicate"]);
        assert_eq!(code, Some(2));
    }

    #[test]
    fn json_format_emits_stable_fields_and_chain() {
        let root = fixture_root("panic_reach");
        let (code, stdout) =
            run(&["--root", root.to_str().expect("utf-8 path"), "--format", "json"]);
        assert_eq!(code, Some(1));
        assert!(stdout.contains("\"violations\": 1"), "{stdout}");
        assert!(stdout.contains("\"rule\": \"panic-reach\""), "{stdout}");
        assert!(stdout.contains("\"path\": \"crates/serve/src/service.rs\""), "{stdout}");
        assert!(stdout.contains("\"line\": 7"), "{stdout}");
        assert!(stdout.contains("\"chain\": [\""), "{stdout}");
    }

    #[test]
    fn json_format_prints_report_even_when_clean() {
        let root = fixture_root("clean");
        let (code, stdout) =
            run(&["--root", root.to_str().expect("utf-8 path"), "--format", "json"]);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(stdout.contains("\"violations\": 0"), "{stdout}");
        assert!(stdout.contains("\"findings\": []"), "{stdout}");
    }
}
