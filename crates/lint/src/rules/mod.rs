//! The rule set. Each rule is a function over the loaded [`Workspace`]
//! appending [`Diagnostic`]s; scoping (which files a rule applies to) lives
//! here so the whole policy is readable in one place.
//!
//! | rule        | scope                        | protects                      |
//! |-------------|------------------------------|-------------------------------|
//! | `hash-iter` | fit/kernel crates            | bit-deterministic fits        |
//! | `nan-cmp`   | workspace + tests/examples   | NaN-safe comparators          |
//! | `atomics`   | whole workspace              | audited memory orderings      |
//! | `wire`      | serve wire/server/client     | opcode codec exhaustiveness   |
//! | `lock-order`| whole workspace (flow)       | deadlock-free lock discipline |
//! | `panic-reach`| hot-path call sites (flow)  | transitive panic-freedom      |
//! | `alloc-hot` | hot-path loops               | steady-state allocation-free  |
//! | `dead-pub`  | `crates/*/src` pub items     | honest inter-crate API surface|
//!
//! Clippy and Cargo own the rest: the panic-free modules deny clippy's
//! panic and indexing lints in their headers, `undocumented_unsafe_blocks`
//! is denied workspace-wide, and CI refuses a lockfile with a non-path
//! `source`.
//!
//! The last four are flow-aware rules: they run over the semantic
//! [`model`](crate::model) (symbol table, approximate call graph, guard
//! liveness) built once per run, instead of per-file token shapes.

mod alloc_hot;
mod atomics;
mod dead_pub;
mod determinism;
mod lock_order;
mod panic_reach;
mod wire;

use crate::engine::{Diagnostic, SourceFile, Workspace};
use crate::model::SemanticModel;

/// Every rule name `allow(<rule>)` accepts.
pub const RULE_NAMES: &[&str] = &[
    "hash-iter",
    "nan-cmp",
    "atomics",
    "wire",
    "lock-order",
    "panic-reach",
    "alloc-hot",
    "dead-pub",
];

/// The serving/observability hot paths: modules on the per-request path
/// where a panic poisons co-batched requests (see the PR 3 salvage logic)
/// and where PR 6 claims "relaxed atomics only". Paths are
/// workspace-relative.
pub(crate) const HOT_PATHS: &[&str] = &[
    "crates/serve/src/service.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/client.rs",
    "crates/serve/src/wire.rs",
    "crates/serve/src/codec.rs",
    "crates/tensor/src/linalg.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/span.rs",
];

/// Crates whose outputs must be bit-deterministic given a seed (fits,
/// kernels, dataset synthesis): HashMap/HashSet *iteration* here can feed
/// numeric accumulation in arbitrary order.
pub(crate) const DETERMINISM_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/models/src/",
    "crates/tensor/src/",
    "crates/cnn/src/",
    "crates/endmodel/src/",
    "crates/labelmodels/src/",
    "crates/datasets/src/",
];

pub(crate) fn is_hot_path(file: &SourceFile) -> bool {
    HOT_PATHS.contains(&file.rel.as_str())
}

pub(crate) fn is_determinism_scoped(file: &SourceFile) -> bool {
    DETERMINISM_PREFIXES.iter().any(|p| file.rel.starts_with(p))
}

/// Run every rule over the workspace.
pub(crate) fn run_all(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if is_determinism_scoped(file) {
            determinism::check_hash_iteration(file, out);
        }
        atomics::check_orderings(file, is_hot_path(file), out);
    }
    for file in ws.files.iter().chain(&ws.ref_files) {
        determinism::check_nan_comparators(file, out);
    }
    wire::check_opcode_exhaustiveness(ws, out);

    // Flow-aware rules share one semantic model (and, through `Workspace`,
    // one lexing pass per file).
    let model = SemanticModel::build(ws);
    lock_order::check(ws, &model, out);
    panic_reach::check(ws, &model, out);
    alloc_hot::check(ws, out);
    dead_pub::check(ws, &model, out);
}
