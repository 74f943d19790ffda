//! Fixture: a panic in a module whose header denies clippy's panic lints
//! carries a reasoned `#[expect]`, so `panic-reach` accepts it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub(crate) fn maybe_panic(site: &str) {
    if site.is_empty() {
        #[expect(clippy::panic, reason = "fixture — the failpoint's intentional panic")]
        panic!("injected panic");
    }
}
