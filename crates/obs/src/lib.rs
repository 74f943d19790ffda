//! `goggles-obs`: std-only observability for the GOGGLES stack.
//!
//! Four pieces, all dependency-free:
//!
//! - [`metrics`]: a lock-free registry of counters, gauges, and
//!   power-of-two histograms, rendered in the Prometheus text exposition
//!   format. Registration takes a mutex once; the recording hot path is
//!   relaxed atomics only.
//! - [`span`]: RAII stage timers ([`Span`]) feeding those histograms,
//!   plus a bounded [`TraceRing`] of recent per-stage events.
//! - [`log`]: a leveled structured logger (text or JSONL to stderr).
//! - [`http`]: a minimal HTTP/1.0 `GET /metrics` listener so standard
//!   scrapers work against any registry.
//!
//! Instrumentation built from these primitives only reads clocks and bumps
//! atomics — it can never alter model numerics, which is what lets the
//! serving stack guarantee bit-identical labels with tracing enabled.

pub mod http;
pub mod log;
pub mod metrics;
pub mod span;

pub use http::MetricsServer;
pub use log::{Level, Value};
pub use metrics::{
    bucket_index, global, Counter, FloatGauge, Gauge, Histogram, HistogramSnapshot, Registry,
};
pub use span::{Span, TraceEvent, TraceRing};
