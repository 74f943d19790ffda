//! Fixture: hot-path code with clean/annotated examples of the flow rules
//! (`lock-order`, `panic-reach`, `alloc-hot`), plus test-only code.

use crate::fault::maybe_panic;
use crate::snapshot::decode_header;
use std::sync::{Mutex, PoisonError};

pub fn checked(xs: &[u8]) -> Option<u8> {
    xs.first().copied()
}

/// `panic-reach`: one helper's panic site is annotated, the other sits in a
/// module whose header denies clippy's panic lints, so this hot-path code
/// inherits nothing.
pub fn handle(xs: &[u8]) -> u8 {
    maybe_panic("handle");
    decode_header(xs)
}

/// `lock-order`: a statement-temporary guard that dies before anything
/// blocks is clean.
pub fn queue_len(q: &Mutex<Vec<u8>>) -> usize {
    q.lock().unwrap_or_else(PoisonError::into_inner).len()
}

/// `lock-order`: copy out under the lock, block after it is released.
pub fn write_drained(w: &Mutex<Vec<u8>>, out: &mut impl std::io::Write) {
    let frame = {
        let buf = w.lock().unwrap_or_else(PoisonError::into_inner);
        buf.clone()
    };
    let _ = out.write_all(&frame);
}

/// `lock-order`: blocking while the guard is live, annotated as intended.
pub fn flush_frames(w: &Mutex<std::io::Sink>, payload: &[u8]) {
    use std::io::Write as _;
    let mut sink = w.lock().unwrap_or_else(PoisonError::into_inner);
    // goggles-lint: allow(lock-order): fixture — the lock exists to serialize whole-frame writes onto the shared sink
    let _ = sink.write_all(payload);
}

/// `alloc-hot`: the buffer is hoisted and cleared per iteration (clean);
/// the one per-item allocation that remains is annotated.
pub fn render_all(xs: &[u8]) -> String {
    let mut out = String::new();
    let mut line = String::new();
    for &x in xs {
        line.clear();
        // goggles-lint: allow(alloc-hot): fixture — demonstrates the per-iteration escape hatch
        line.push_str(&format!("item {x}"));
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        let xs = [1u8];
        assert_eq!(xs[0], xs.first().copied().unwrap());
    }
}
