//! Fixture: an allow whose rule never fires on its line is a violation.

use std::sync::atomic::{AtomicBool, Ordering};

pub(crate) fn is_ready(flag: &AtomicBool) -> bool {
    // goggles-lint: allow(atomics): Acquire is audited only on hot paths, so this covers nothing
    flag.load(Ordering::Acquire)
}
