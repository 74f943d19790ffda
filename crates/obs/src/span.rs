//! RAII stage timing and a bounded ring buffer of recent trace events.
//!
//! A [`Span`] measures wall-clock time from `enter` to drop and records the
//! elapsed microseconds into a [`Histogram`]; callers push [`TraceEvent`]s
//! into a [`TraceRing`] so operators can inspect the most recent requests
//! stage-by-stage. Spans never touch the data plane: they only read the
//! clock and bump atomics, so enabling them cannot change label output.

// No panic outside a reasoned `#[expect]` in this module; clippy.toml exempts test code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::metrics::Histogram;

/// One timed stage of one unit of work (batch or request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stage name, e.g. `"embed"`.
    pub stage: &'static str,
    /// Microseconds since the owning [`TraceRing`] was created, at the
    /// moment the span closed.
    pub at_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Caller-defined tag (the serving stack uses batch size or request id).
    pub tag: u64,
}

/// Bounded ring of the most recent [`TraceEvent`]s. Capacity 0 disables
/// recording entirely (pushes become no-ops after one atomic-free check).
pub struct TraceRing {
    capacity: usize,
    epoch: Instant,
    inner: Mutex<VecDeque<TraceEvent>>,
}

impl TraceRing {
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            epoch: Instant::now(),
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Record a finished stage. Oldest events are evicted first.
    pub fn push(&self, stage: &'static str, dur_us: u64, tag: u64) {
        if self.capacity == 0 {
            return;
        }
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let mut ring = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(TraceEvent { stage, at_us, dur_us, tag });
    }

    /// Copy of the buffered events, oldest first.
    pub fn recent(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).is_empty()
    }
}

/// RAII timer: started by [`Span::enter`], records into its histogram when
/// dropped or explicitly closed.
pub struct Span<'a> {
    histogram: &'a Histogram,
    start: Instant,
    done: bool,
}

impl<'a> Span<'a> {
    /// Start timing a stage into `histogram`.
    pub fn enter(histogram: &'a Histogram) -> Span<'a> {
        Span { histogram, start: Instant::now(), done: false }
    }

    /// Close the span now, returning the recorded duration in microseconds.
    pub fn exit(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        if self.done {
            return 0;
        }
        self.done = true;
        let us = self.start.elapsed().as_micros() as u64;
        self.histogram.observe(us);
        us
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_histogram_once() {
        let h = Histogram::detached();
        {
            let _span = Span::enter(&h);
        }
        let explicit = Span::enter(&h).exit();
        let snap = h.snapshot();
        assert_eq!(snap.total(), 2);
        assert!(snap.sum >= explicit);
    }

    #[test]
    fn ring_evicts_oldest_and_disables_at_zero_capacity() {
        let ring = TraceRing::new(2);
        ring.push("a", 1, 0);
        ring.push("b", 2, 0);
        ring.push("c", 3, 0);
        let stages: Vec<_> = ring.recent().iter().map(|e| e.stage).collect();
        assert_eq!(stages, vec!["b", "c"]);

        let off = TraceRing::new(0);
        off.push("x", 1, 0);
        assert!(off.is_empty());
        assert!(!off.is_enabled());
    }
}
