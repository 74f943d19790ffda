//! The rule set. Each rule is a function over the loaded [`Workspace`]
//! appending [`Diagnostic`]s; scoping (which files a rule applies to) lives
//! here so the whole policy is readable in one place.
//!
//! | rule        | scope                        | protects                      |
//! |-------------|------------------------------|-------------------------------|
//! | `panic`     | hot-path + resilience modules| panic-freedom of serving      |
//! | `index`     | hot-path + resilience modules| panic-freedom (slice indexing)|
//! | `hash-iter` | fit/kernel crates            | bit-deterministic fits        |
//! | `nan-cmp`   | whole workspace              | NaN-safe comparators          |
//! | `atomics`   | whole workspace              | audited memory orderings      |
//! | `unsafe`    | whole workspace              | the unsafe-free invariant     |
//! | `wire`      | serve wire/server/client     | opcode codec exhaustiveness   |
//! | `deps`      | every `Cargo.toml`           | the offline no-registry rule  |
//! | `lock-order`| whole workspace (flow)       | deadlock-free lock discipline |
//! | `panic-reach`| hot-path call sites (flow)  | transitive panic-freedom      |
//! | `alloc-hot` | hot-path loops               | steady-state allocation-free  |
//! | `dead-pub`  | `crates/*/src` pub items     | honest inter-crate API surface|
//!
//! The last four are v2's flow-aware rules: they run over the semantic
//! [`model`](crate::model) (symbol table, approximate call graph, guard
//! liveness) built once per run, instead of per-file token shapes.

mod alloc_hot;
mod atomics;
mod dead_pub;
mod deps;
mod determinism;
mod lock_order;
mod panic_free;
mod panic_reach;
mod unsafety;
mod wire;

use crate::engine::{Diagnostic, SourceFile, Workspace};
use crate::model::SemanticModel;

/// Every rule name `allow(<rule>)` accepts.
pub const RULE_NAMES: &[&str] = &[
    "panic",
    "index",
    "hash-iter",
    "nan-cmp",
    "atomics",
    "unsafe",
    "wire",
    "deps",
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

/// Modules added to the *panic* rules' scope only: the fault injector sits
/// inline on every failpoint probe, the health endpoint answers
/// load-balancer traffic and the fan-out pool runs every served batch, so
/// none of them may panic — but all hold locks by design, so subjecting
/// them to the full hot-path ruleset (atomics, alloc-hot) would only breed
/// allows.
pub(crate) const PANIC_SCOPE_EXTRA: &[&str] =
    &["crates/serve/src/fault.rs", "crates/obs/src/http.rs", "crates/tensor/src/pool.rs"];

pub(crate) fn is_hot_path(file: &SourceFile) -> bool {
    HOT_PATHS.contains(&file.rel.as_str())
}

/// Library modules (not binaries) whose every file is panic-scoped. The
/// continuous-learning trainer runs unattended in a background thread; a
/// panic there silently kills the refit loop while the server keeps
/// answering from a stale snapshot, so it must degrade through
/// `RefitOutcome::Failed` instead.
pub(crate) const PANIC_SCOPE_PREFIXES: &[&str] = &["crates/trainer/src/"];

pub(crate) fn is_panic_scoped(file: &SourceFile) -> bool {
    is_hot_path(file)
        || PANIC_SCOPE_EXTRA.contains(&file.rel.as_str())
        || (!file.rel.contains("/bin/")
            && PANIC_SCOPE_PREFIXES.iter().any(|p| file.rel.starts_with(p)))
}

pub(crate) fn is_determinism_scoped(file: &SourceFile) -> bool {
    DETERMINISM_PREFIXES.iter().any(|p| file.rel.starts_with(p))
}

/// Run every rule over the workspace.
pub(crate) fn run_all(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if is_panic_scoped(file) {
            panic_free::check_panics(file, out);
            panic_free::check_indexing(file, out);
        }
        if is_determinism_scoped(file) {
            determinism::check_hash_iteration(file, out);
        }
        determinism::check_nan_comparators(file, out);
        atomics::check_orderings(file, is_hot_path(file), out);
        unsafety::check_unsafe(file, out);
    }
    wire::check_opcode_exhaustiveness(ws, out);
    deps::check_manifests(ws, out);
    panic_free::check_chaos_panic_confinement(ws, out);

    // Flow-aware rules share one semantic model (and, through `Workspace`,
    // one lexing pass per file).
    let model = SemanticModel::build(ws);
    lock_order::check(ws, &model, out);
    panic_reach::check(ws, &model, out);
    alloc_hot::check(ws, out);
    dead_pub::check(ws, &model, out);
}
