//! goggles-lint — a workspace invariant checker.
//!
//! The GOGGLES workspace carries invariants that `rustc`, clippy and Cargo
//! cannot see because they are *policy*, not language rules: fits are
//! bit-deterministic given a seed, the metrics fast path uses relaxed
//! atomics only, the wire protocol's opcode set stays closed across
//! encoder/decoder/dispatch, locks are taken in one order, the serving hot
//! path cannot reach a panic through a call into another module, its loops
//! do not allocate, and every `pub` item has an outside user. This crate
//! makes them hold by machine. What the standard tools can express they
//! own: clippy denies panics and indexing in the panic-free modules and
//! undocumented `unsafe` everywhere, and the lockfile shows every non-path
//! dependency.
//!
//! Design constraints mirror the workspace's: std-only, no `syn`, no
//! registry deps. The analysis is a hand-rolled lexer ([`lexer`]) feeding
//! token-shape rules ([`rules`]) through a path-scoped engine ([`engine`])
//! — deliberately *not* an AST, because every invariant above is expressible
//! over token shapes, and a lexer is auditable in one sitting.
//!
//! Findings print as `file:line: rule: message`. Intentional exceptions are
//! annotated in source:
//!
//! ```text
//! // goggles-lint: allow(atomics): Release publishes the drained queue to the reader
//! // goggles-lint: allow-file(alloc-hot): startup-only module, nothing runs per request
//! ```
//!
//! The reason is mandatory, the rule name must be real, and the allow must
//! suppress a finding: malformed or unused annotations are themselves
//! violations — a typo must not silently disable a rule, and a stale allow
//! must not silently cover the next finding on its line.

pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;

pub use engine::{Diagnostic, SourceFile, Workspace};
