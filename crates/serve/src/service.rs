//! The service front: a bounded-queue micro-batching scheduler over a
//! [`SnapshotRegistry`] of [`FittedLabeler`] versions.
//!
//! Requests from any number of client threads land in one bounded queue.
//! Worker threads pop a request, then linger up to
//! [`ServeConfig::batch_timeout`] for more to arrive (capped at
//! [`ServeConfig::max_batch`]) so concurrent traffic is labeled in one
//! embedding/fold-in pass — the classic latency/throughput trade of
//! inference serving. Every outcome, queue depth and latency is recorded
//! once, into the service's [`goggles_obs::Registry`]: that registry is
//! the only bookkeeping. [`LabelService::render_metrics`] exports it as
//! Prometheus text, and [`LabelService::stats`] reads the same handles,
//! so the two views cannot disagree.
//!
//! The service's one labeling surface is the transport-agnostic
//! [`Labeler`] trait. Submission is **ticket-based** ([`Labeler::submit`]
//! → [`Ticket`]): the caller gets a handle it can `poll`, `wait`, or
//! `wait_timeout`; dropping the ticket cancels a still-queued request, and
//! a per-request deadline ([`Labeler::submit_with_deadline`]) is enforced
//! by the batcher — expired requests are answered with
//! [`ServeError::Deadline`] instead of occupying a batch slot. The
//! blocking [`Labeler::label`]/[`Labeler::label_all`] calls are the
//! trait's thin wrappers over tickets.
//!
//! Workers resolve the current labeler **per batch** through the registry:
//! no lock is held across labeling, an in-flight batch finishes on the
//! version it started with, and a [`LabelService::reload_from`] /
//! [`SnapshotRegistry::publish`] swap is picked up by the very next batch —
//! hot-reload without dropping or blocking a single request.

use crate::api::{Labeler, Ticket};
use crate::registry::{PublishedSnapshot, SnapshotRegistry};
use crate::snapshot::FittedLabeler;
use crate::{ServeError, ServeResult};
use goggles_core::{EmbedScratch, ProbabilisticLabels};
use goggles_obs::HistogramSnapshot;
use goggles_vision::Image;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Retired versions [`LabelService::reload_from`] keeps around after a
/// successful publish (beyond the current one): one, so a bad reload can
/// still be [`SnapshotRegistry::rollback`]ed. Older unleased retired
/// versions are pruned ([`SnapshotRegistry::prune_retired`]) so a
/// long-running service that reloads periodically holds O(1) snapshots
/// instead of growing without bound.
const RELOAD_KEEP_RETIRED: usize = 1;

/// Tuning knobs of the micro-batching scheduler.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads pulling batches off the queue.
    pub workers: usize,
    /// Largest batch a worker will assemble.
    pub max_batch: usize,
    /// How long a worker waits for a batch to fill before running it
    /// anyway. `Duration::ZERO` disables lingering (pure latency mode).
    pub batch_timeout: Duration,
    /// Bound on queued (not yet running) requests; producers block when the
    /// queue is full (backpressure, not unbounded memory).
    pub queue_capacity: usize,
    /// Most participants in one batch's labeling pass: the worker itself
    /// plus up to `embed_threads − 1` helpers of the process-wide
    /// [`goggles_tensor::pool`], which claim the batch's images one at a
    /// time and embed each and compute its affinity row in one go. A cap
    /// only: no thread is spawned per batch, and a batch that finds the
    /// pool busy (another worker's batch holds it) or holds a single image
    /// runs on the worker's own thread. Results are bit-identical for every
    /// value. The default is the cores left per worker
    /// (`⌈available_parallelism / workers⌉`, at least 1) **for the default
    /// two-worker pool** — when overriding `workers`, use
    /// [`ServeConfig::with_workers`] (or set this field too) so the budget
    /// is recomputed instead of inherited from the 2-worker default.
    pub embed_threads: usize,
    /// Capacity of the per-service ring buffer of recent stage trace
    /// events ([`LabelService::recent_traces`]). `0` disables trace
    /// recording entirely; stage histograms are always kept either way.
    /// Tracing only reads clocks — labels are bit-identical at any value.
    pub trace_capacity: usize,
    /// Queue-depth watermark at which new submissions are **shed** with
    /// [`ServeError::Overloaded`] instead of blocking the producer. `0`
    /// (the default) keeps the legacy behavior: producers block at
    /// `queue_capacity`. A non-zero watermark should be ≤ `queue_capacity`;
    /// with one set, the queue never reaches capacity and producers never
    /// block — overload becomes a typed, retryable error the caller (or a
    /// remote client's [`crate::RetryPolicy`]) handles, instead of
    /// unbounded latency.
    pub shed_watermark: usize,
    /// Fault plan installed (process-wide) at [`LabelService::spawn`] time.
    /// `None` (the default) leaves the failpoint framework untouched —
    /// every site stays a no-op. See [`crate::fault`].
    pub fault_plan: Option<crate::fault::FaultPlan>,
}

impl ServeConfig {
    /// A config for a `workers`-sized pool with the per-request embed
    /// budget recomputed to match (`⌈cores / workers⌉`). Prefer this over
    /// struct-update syntax when changing `workers`: `ServeConfig { workers:
    /// 8, ..Default::default() }` would keep the budget computed for 2
    /// workers and oversubscribe the machine.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, embed_threads: default_embed_threads(workers), ..Self::default() }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = 2;
        Self {
            workers,
            max_batch: 8,
            batch_timeout: Duration::from_millis(2),
            queue_capacity: 1024,
            embed_threads: default_embed_threads(workers),
            trace_capacity: 256,
            shed_watermark: 0,
            fault_plan: None,
        }
    }
}

/// Cores left for one in-flight batch after the worker fan-out: with `w`
/// workers on `p` cores each batch gets `⌈p / w⌉` threads (at least 1).
fn default_embed_threads(workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    cores.div_ceil(workers.max(1)).max(1)
}

/// One labeled answer.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelResponse {
    /// Argmax class.
    pub label: usize,
    /// Full class-probability row (mapping applied).
    pub probs: Vec<f64>,
    /// Size of the micro-batch this request was served in.
    pub batch_size: usize,
    /// Registry version of the snapshot that answered (see
    /// [`SnapshotRegistry::versions`]).
    pub version: u64,
}

/// The service's counters, read from its observability registry by
/// [`LabelService::stats`]: each field is the value of one exported series,
/// named in its doc.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
// goggles-lint: allow(dead-pub): return type of pub LabelService::stats; external callers reach it through inference
pub struct ServiceStats {
    /// Requests answered (`goggles_requests_total{result="ok"}`).
    pub requests: u64,
    /// Micro-batches executed, salvage retries included
    /// (`goggles_batches_total`).
    pub batches: u64,
    /// Batches on which the labeler panicked
    /// (`goggles_batches_failed_total`). The batch's requests are then
    /// retried individually (salvage), so a failed batch no longer implies
    /// failed requests — see [`ServiceStats::failed_requests`].
    pub failed_batches: u64,
    /// Requests dropped because the labeler panicked on them *individually*
    /// (the true poison of a failed batch, or a poisoned singleton). Their
    /// clients received [`crate::ServeError::Closed`]
    /// (`goggles_requests_total{result="failed"}`). Disjoint from
    /// `requests`: a request is counted in exactly one of the two.
    pub failed_requests: u64,
    /// Requests answered with [`crate::ServeError::Deadline`] because their
    /// deadline expired before (or at) submission, or while queued
    /// (`goggles_requests_total{result="deadline"}`). Never labeled, never
    /// counted in `requests`.
    pub deadline_expired: u64,
    /// Requests skipped because their [`Ticket`] was dropped while they
    /// were still queued (drop-to-cancel;
    /// `goggles_requests_total{result="cancelled"}`). Never labeled, never
    /// counted in `requests`.
    pub cancelled: u64,
    /// Requests shed with [`crate::ServeError::Overloaded`] because the
    /// queue was at [`ServeConfig::shed_watermark`] (or the connection hit
    /// its inflight cap, for wire traffic;
    /// `goggles_requests_total{result="shed"}`). Never queued, never
    /// labeled.
    pub shed: u64,
    /// Requests refused with [`crate::ServeError::InvalidImage`] by
    /// `submit` or the wire decoder
    /// (`goggles_requests_total{result="invalid"}`). Never queued, never
    /// labeled.
    pub invalid: u64,
    /// Service workers respawned by the watchdog after a panic escaped a
    /// batch (`goggles_worker_restarts_total`). The panicked batch's
    /// clients are answered [`crate::ServeError::Closed`]; the respawned
    /// worker continues with fresh scratch.
    pub worker_restarts: u64,
    /// Requests sitting in the queue at snapshot time
    /// (`goggles_queue_depth`; a live gauge, not a monotonic counter: the
    /// one non-cumulative field here).
    pub queue_depth: u64,
    /// Enqueue-to-answer latency of answered requests, microseconds
    /// (`goggles_request_latency_us`); its `sum` is the total latency.
    pub latency: HistogramSnapshot,
    /// Executed micro-batch sizes (`goggles_batch_size`).
    pub batch_size: HistogramSnapshot,
}

impl ServiceStats {
    /// Mean images per executed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Mean request latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        match self.latency.total() {
            0 => 0.0,
            n => self.latency.sum as f64 / n as f64,
        }
    }

    /// Median request latency in microseconds (bucket upper bound).
    pub fn p50_latency_us(&self) -> u64 {
        self.latency.quantile_upper(0.50)
    }

    /// 99th-percentile request latency in microseconds (bucket upper bound).
    pub fn p99_latency_us(&self) -> u64 {
        self.latency.quantile_upper(0.99)
    }
}

struct Request {
    /// Shared, not cloned: `submit` takes `Arc<Image>`, so queueing an
    /// image never copies pixel data (the wire server decodes straight
    /// into the `Arc`).
    image: Arc<Image>,
    enqueued: Instant,
    /// Absolute deadline; an expired request is answered with
    /// [`ServeError::Deadline`] instead of occupying a batch slot.
    deadline: Option<Instant>,
    /// Set when the request's [`Ticket`] is dropped (drop-to-cancel).
    cancel: Arc<AtomicBool>,
    respond: mpsc::Sender<ServeResult<LabelResponse>>,
}

/// Cached handles into this service's observability registry, resolved once
/// at spawn so every hot-path recording is a relaxed atomic add — no lock,
/// no lookup, no allocation. These handles are the service's only
/// bookkeeping: [`LabelService::stats`] reads them back.
pub(crate) struct ServeMetrics {
    registry: Arc<goggles_obs::Registry>,
    stage_queue_wait: goggles_obs::Histogram,
    stage_batch_assembly: goggles_obs::Histogram,
    stage_embed: goggles_obs::Histogram,
    stage_affinity: goggles_obs::Histogram,
    stage_endmodel: goggles_obs::Histogram,
    request_latency: goggles_obs::Histogram,
    pub(crate) stage_wire_decode: goggles_obs::Histogram,
    pub(crate) stage_wire_encode: goggles_obs::Histogram,
    requests_ok: goggles_obs::Counter,
    requests_failed: goggles_obs::Counter,
    requests_deadline: goggles_obs::Counter,
    requests_cancelled: goggles_obs::Counter,
    requests_shed: goggles_obs::Counter,
    requests_invalid: goggles_obs::Counter,
    worker_restarts: goggles_obs::Counter,
    batches_total: goggles_obs::Counter,
    batches_failed: goggles_obs::Counter,
    queue_depth: goggles_obs::Gauge,
    batch_size: goggles_obs::Histogram,
    trace: goggles_obs::TraceRing,
}

impl ServeMetrics {
    fn new(snapshots: &Arc<SnapshotRegistry>, trace_capacity: usize) -> Self {
        let registry = Arc::new(goggles_obs::Registry::new());
        let stage_help = "Wall time of serving-path stages in microseconds \
                          (batch-level for embed/affinity/endmodel, per-request for queue_wait)";
        let stage = |name: &str| {
            registry.histogram("goggles_stage_latency_us", stage_help, &[("stage", name)])
        };
        let requests_help = "Requests by terminal outcome";
        let result = |name: &str| {
            registry.counter("goggles_requests_total", requests_help, &[("result", name)])
        };
        let metrics = ServeMetrics {
            stage_queue_wait: stage("queue_wait"),
            stage_batch_assembly: stage("batch_assembly"),
            stage_embed: stage("embed"),
            stage_affinity: stage("affinity"),
            stage_endmodel: stage("endmodel"),
            request_latency: registry.histogram(
                "goggles_request_latency_us",
                "Enqueue-to-answer latency of answered requests in microseconds",
                &[],
            ),
            stage_wire_decode: stage("wire_decode"),
            stage_wire_encode: stage("wire_encode"),
            requests_ok: result("ok"),
            requests_failed: result("failed"),
            requests_deadline: result("deadline"),
            requests_cancelled: result("cancelled"),
            requests_shed: result("shed"),
            requests_invalid: result("invalid"),
            worker_restarts: registry.counter(
                "goggles_worker_restarts_total",
                "Service workers respawned by the watchdog after a panic",
                &[],
            ),
            batches_total: registry.counter("goggles_batches_total", "Micro-batches executed", &[]),
            batches_failed: registry.counter(
                "goggles_batches_failed_total",
                "Micro-batches on which the labeler panicked (then salvaged)",
                &[],
            ),
            queue_depth: registry.gauge(
                "goggles_queue_depth",
                "Requests currently queued (not yet drained into a batch)",
                &[],
            ),
            batch_size: registry.histogram("goggles_batch_size", "Executed micro-batch sizes", &[]),
            trace: goggles_obs::TraceRing::new(trace_capacity),
            registry: Arc::clone(&registry),
        };
        // Per-version snapshot gauges are sampled from the live registry at
        // scrape time rather than double-booked on the serving path.
        let snaps = Arc::clone(snapshots);
        registry.register_collector(move |out| {
            out.push_str(
                "# HELP goggles_snapshot_version Registry version new batches resolve\n\
                 # TYPE goggles_snapshot_version gauge\n",
            );
            use std::fmt::Write as _;
            let versions = snaps.versions();
            let current = versions.iter().find(|v| v.current).map_or(0, |v| v.version);
            let _ = writeln!(out, "goggles_snapshot_version {current}");
            out.push_str(
                "# HELP goggles_snapshot_served_total Images served per snapshot version\n\
                 # TYPE goggles_snapshot_served_total counter\n",
            );
            for v in &versions {
                let _ = writeln!(
                    out,
                    "goggles_snapshot_served_total{{version=\"{}\"}} {}",
                    v.version, v.served
                );
            }
            out.push_str(
                "# HELP goggles_snapshot_leases Outstanding leases per snapshot version \
                 (in-flight batches pinning it)\n\
                 # TYPE goggles_snapshot_leases gauge\n",
            );
            for v in &versions {
                let _ = writeln!(
                    out,
                    "goggles_snapshot_leases{{version=\"{}\"}} {}",
                    v.version, v.leases
                );
            }
        });
        // GEMM kernel counters are process-global (the tensor crate has no
        // registry dependency); surface them here as a sampled collector.
        registry.register_collector(|out| {
            out.push_str(
                "# HELP goggles_gemm_calls_total GEMM kernel invocations (process-wide)\n\
                 # TYPE goggles_gemm_calls_total counter\n",
            );
            out.push_str(&format!(
                "goggles_gemm_calls_total {}\n",
                goggles_tensor::gemm_call_count()
            ));
            out.push_str(
                "# HELP goggles_gemm_flops_total Flops through the GEMM kernel (process-wide)\n\
                 # TYPE goggles_gemm_flops_total counter\n",
            );
            out.push_str(&format!(
                "goggles_gemm_flops_total {}\n",
                goggles_tensor::gemm_flop_count()
            ));
        });
        registry
            .gauge(
                "goggles_backbone_flops_per_image",
                "Estimated backbone flops per labeled image (current snapshot)",
                &[],
            )
            .set(snapshots.get().labeler().backbone_flops_per_image() as i64);
        metrics
    }
}

struct QueueState {
    queue: VecDeque<Request>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signaled when the queue gains an item or shutdown begins.
    not_empty: Condvar,
    /// Signaled when the queue loses an item.
    not_full: Condvar,
    /// Versioned labelers; workers resolve the current one per batch.
    registry: Arc<SnapshotRegistry>,
    config: ServeConfig,
    /// Cached observability handles (shared with the wire server's
    /// encode/decode spans).
    metrics: Arc<ServeMetrics>,
}

/// A running labeling service: spawn with [`LabelService::spawn`], label
/// through its [`Labeler`] impl from any thread, stop with
/// [`LabelService::shutdown`] (or drop).
pub struct LabelService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl LabelService {
    /// Start the worker pool over a fitted labeler (published as version 1
    /// of a fresh [`SnapshotRegistry`]).
    ///
    /// # Panics
    /// Panics if `labeler` fails [`FittedLabeler::validate`] — labelers
    /// from [`FittedLabeler::fit`]/[`FittedLabeler::load`] always pass; use
    /// `LabelService::spawn_with_registry` to handle validation errors.
    pub fn spawn(labeler: FittedLabeler, config: ServeConfig) -> Self {
        // goggles-lint: allow(panic): documented panic (see `# Panics`); spawn_with_registry is the fallible path
        let registry = SnapshotRegistry::new(labeler).expect("initial labeler failed validation");
        Self::spawn_with_registry(Arc::new(registry), config)
    }

    /// Start the worker pool over an existing registry (e.g. one shared
    /// with a control plane that publishes retrained snapshots, such as
    /// the continuous-learning trainer).
    pub fn spawn_with_registry(registry: Arc<SnapshotRegistry>, config: ServeConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.max_batch >= 1, "max_batch must be ≥ 1");
        assert!(config.queue_capacity >= 1, "queue_capacity must be ≥ 1");
        if let Some(plan) = &config.fault_plan {
            crate::fault::install(plan);
        }
        let metrics = Arc::new(ServeMetrics::new(&registry, config.trace_capacity));
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), shutting_down: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            registry,
            config: config.clone(),
            metrics,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("goggles-serve-{i}"))
                    .spawn(move || worker_main(&shared, i))
                    // goggles-lint: allow(panic): spawn only fails on OS thread exhaustion at startup; this constructor is infallible by API
                    .expect("spawn worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Snapshot of the service counters, read from the same registry
    /// handles [`LabelService::render_metrics`] exports.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.shared.metrics;
        ServiceStats {
            requests: m.requests_ok.get(),
            batches: m.batches_total.get(),
            failed_batches: m.batches_failed.get(),
            failed_requests: m.requests_failed.get(),
            deadline_expired: m.requests_deadline.get(),
            cancelled: m.requests_cancelled.get(),
            shed: m.requests_shed.get(),
            invalid: m.requests_invalid.get(),
            worker_restarts: m.worker_restarts.get(),
            // Never negative: a request's `add` happens under the queue lock
            // before the drain that `sub`s it.
            queue_depth: u64::try_from(m.queue_depth.get()).unwrap_or(0),
            latency: m.request_latency.snapshot(),
            batch_size: m.batch_size.snapshot(),
        }
    }

    /// Render this service's metrics — plus the process-global registry —
    /// as one Prometheus text page. This is the payload of both export
    /// fronts (`Opcode::Metrics` on the wire, `GET /metrics` over HTTP).
    pub fn render_metrics(&self) -> String {
        let mut out = self.shared.metrics.registry.render();
        goggles_obs::global().render_into(&mut out);
        out
    }

    /// The most recent per-stage trace events (oldest first; empty when
    /// [`ServeConfig::trace_capacity`] is 0). Event tags carry the batch
    /// size the stage ran over.
    // goggles-lint: allow(dead-pub): trace-ring drain pairing with the exported render_metrics; exercised only by unit tests
    pub fn recent_traces(&self) -> Vec<goggles_obs::TraceEvent> {
        self.shared.metrics.trace.recent()
    }

    pub(crate) fn serve_metrics(&self) -> &Arc<ServeMetrics> {
        &self.shared.metrics
    }

    /// Record one shed request that never reached `submit` (the wire
    /// server's per-connection inflight cap), so [`ServiceStats::shed`] and
    /// the `result="shed"` metric count every shed regardless of which
    /// layer refused it.
    pub(crate) fn record_shed(&self) {
        self.shared.metrics.requests_shed.inc();
    }

    /// Record one request refused as [`ServeError::InvalidImage`] — by
    /// `submit` or, before it, by the wire decoder — under
    /// [`ServiceStats::invalid`] and the `result="invalid"` metric.
    pub(crate) fn record_invalid(&self) {
        self.shared.metrics.requests_invalid.inc();
    }

    /// The registry behind the service: publish/rollback/inspect versions
    /// while traffic keeps flowing.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.shared.registry
    }

    /// Lease the snapshot version new batches currently resolve.
    pub fn current(&self) -> PublishedSnapshot {
        self.shared.registry.get()
    }

    /// Hot-reload: load a snapshot file ([`FittedLabeler::load`]) —
    /// or, given a directory, sweep it and load the newest valid snapshot
    /// ([`SnapshotRegistry::reload_from`]) — validate it, and publish it
    /// behind the running service. In-flight batches finish on their old
    /// version; the next batch serves the new one. Returns the published
    /// version number; on any error the previously current version keeps
    /// serving.
    ///
    /// After a successful publish, retired versions older than the most
    /// recent one are pruned (if unleased) so a service that reloads
    /// periodically holds O(1) snapshots — rollback to the immediately
    /// previous version always stays possible.
    pub fn reload_from(&self, path: &std::path::Path) -> ServeResult<u64> {
        let version = self.shared.registry.reload_from(path)?;
        self.shared.registry.prune_retired(RELOAD_KEEP_RETIRED);
        Ok(version)
    }

    /// Stop accepting new requests, drain the queue, and join the workers.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.shutting_down = true;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for LabelService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Labeler for LabelService {
    /// Enqueue one image and return its [`Ticket`]. The image travels as
    /// `Arc<Image>`, so the hot path is copy-free. Applies backpressure:
    /// blocks while the queue is at capacity, or — with
    /// [`ServeConfig::shed_watermark`] set — sheds immediately with
    /// [`ServeError::Overloaded`] once the queue reaches the watermark. An
    /// image with a pixel outside `[0, 1]` is refused up front with
    /// [`ServeError::InvalidImage`]. A deadline that is already expired
    /// resolves to [`ServeError::Deadline`] immediately — the request never
    /// takes a queue slot; one that expires while queued is answered with
    /// the same error by the micro-batcher instead of occupying a batch
    /// slot.
    fn submit_with_deadline(
        &self,
        image: Arc<Image>,
        deadline: Option<Instant>,
    ) -> ServeResult<Ticket> {
        if let Err(e) = crate::check_pixels(&image) {
            self.record_invalid();
            return Err(e);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.shared.metrics.requests_deadline.inc();
            return Ok(Ticket::ready(Err(ServeError::Deadline)));
        }
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Watermark shedding: with a watermark configured, overload is a
        // typed, immediately-returned error rather than producer blocking —
        // the caller (or a remote RetryPolicy) decides whether to back off
        // and retry, and queue latency stays bounded.
        let watermark = self.shared.config.shed_watermark;
        if watermark > 0 && state.queue.len() >= watermark {
            drop(state);
            self.shared.metrics.requests_shed.inc();
            return Err(ServeError::Overloaded);
        }
        while state.queue.len() >= self.shared.config.queue_capacity {
            if state.shutting_down {
                return Err(ServeError::Closed);
            }
            state = self.shared.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.shutting_down {
            return Err(ServeError::Closed);
        }
        state.queue.push_back(Request {
            image,
            enqueued: Instant::now(),
            deadline,
            cancel: Arc::clone(&cancel),
            respond: tx,
        });
        self.shared.metrics.queue_depth.add(1);
        self.shared.not_empty.notify_one();
        Ok(Ticket::pending(rx, Some(cancel)))
    }
}

/// Worker thread entry: runs [`worker_loop`] under a **watchdog**. A panic
/// that escapes the loop (the labeler's own panics are already caught and
/// salvaged inside [`run_batch`]; this catches everything else — scheduler
/// bugs, injected `worker.batch` faults) does not silently shrink the pool:
/// the worker is respawned in place with fresh scratch, the restart is
/// counted (`goggles_worker_restarts_total`), and any batch held at panic
/// time resolves its tickets with [`ServeError::Closed`] when the request
/// senders unwind — typed errors, never hangs.
fn worker_main(shared: &Shared, worker: usize) {
    loop {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(shared)));
        match outcome {
            // Clean return: shutdown drained the queue; the pool winds down.
            Ok(()) => return,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    // goggles-lint: allow(alloc-hot): respawn path, reached once per worker panic — never per request
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                shared.metrics.worker_restarts.inc();
                goggles_obs::log::warn(
                    "serve",
                    "worker panicked; watchdog respawning it",
                    &[
                        ("worker", goggles_obs::Value::from(worker)),
                        ("panic", goggles_obs::Value::from(msg)),
                    ],
                );
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    // One embedding scratch arena per worker, held across requests: the
    // backbone's conv tile and activation buffers grow once and every
    // subsequent batch embeds allocation-free (outputs aside).
    let mut scratch = EmbedScratch::new();
    loop {
        let batch = match next_batch(shared) {
            Some(batch) => batch,
            None => return,
        };
        // Failpoint *outside* run_batch's own catch_unwind: an injected
        // panic here escapes to the watchdog, exercising the respawn path
        // (the held batch unwinds → its tickets resolve Closed).
        crate::fault::maybe_panic("worker.batch");
        run_batch(shared, &mut scratch, batch);
    }
}

/// Pop the next micro-batch: wait for a first request, then linger up to
/// `batch_timeout` for the batch to fill. Cancelled requests (dropped
/// tickets) are skipped and expired ones answered with
/// [`ServeError::Deadline`] at drain time — neither occupies a batch slot.
/// Returns `None` when the service is shutting down *and* the queue is
/// fully drained.
fn next_batch(shared: &Shared) -> Option<Vec<Request>> {
    let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        while state.queue.is_empty() {
            if state.shutting_down {
                return None;
            }
            state = shared.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        let max_batch = shared.config.max_batch;
        let assembly_start = Instant::now();
        let deadline = assembly_start + shared.config.batch_timeout;
        // Linger: give concurrent producers a short window to fill the batch.
        while state.queue.len() < max_batch && !state.shutting_down {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = shared
                .not_empty
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        let take = state.queue.len().min(max_batch);
        // Another worker may have drained the queue while this one lingered
        // without the lock — go back to waiting rather than reporting an
        // empty batch (which would skew the batch counters).
        if take == 0 {
            continue;
        }
        // Drain, then triage: doomed requests (cancelled / past deadline)
        // must not occupy batch slots that live requests could use.
        let now = Instant::now();
        // goggles-lint: allow(alloc-hot): one allocation per *batch* (amortized over up to max_batch requests); the Vec is moved into run_batch, so it cannot be reused across iterations
        let mut batch = Vec::with_capacity(take);
        // goggles-lint: allow(alloc-hot): empty Vec::new never allocates; it only grows on the rare expired-request path
        let mut expired = Vec::new();
        let mut cancelled = 0u64;
        for request in state.queue.drain(..take) {
            if request.cancel.load(Ordering::Relaxed) {
                cancelled += 1;
            } else if request.deadline.is_some_and(|d| now >= d) {
                expired.push(request);
            } else {
                batch.push(request);
            }
        }
        shared.not_full.notify_all();
        // Other workers may still have work to do.
        if !state.queue.is_empty() {
            shared.not_empty.notify_one();
        }
        drop(state);
        let m = &shared.metrics;
        m.queue_depth.sub(take as i64);
        // Queue wait of every request that made it into the batch, plus the
        // assembly (linger + drain) cost of the batch itself.
        for request in &batch {
            m.stage_queue_wait.observe(now.duration_since(request.enqueued).as_micros() as u64);
        }
        if !batch.is_empty() {
            let assembly_us = now.duration_since(assembly_start).as_micros() as u64;
            m.stage_batch_assembly.observe(assembly_us);
            m.trace.push("batch_assembly", assembly_us, batch.len() as u64);
        }
        if cancelled > 0 {
            m.requests_cancelled.add(cancelled);
        }
        if !expired.is_empty() {
            m.requests_deadline.add(expired.len() as u64);
            for request in expired {
                let _ = request.respond.send(Err(ServeError::Deadline));
            }
        }
        if batch.is_empty() {
            // Everything drained was doomed; go back to waiting.
            state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        return Some(batch);
    }
}

fn run_batch(shared: &Shared, scratch: &mut EmbedScratch, batch: Vec<Request>) {
    // Resolve the current snapshot once per batch: the lease pins the
    // version for this batch's whole lifetime (labeling + responses), while
    // a concurrent publish/rollback is picked up by the next batch. No
    // registry lock is held across the labeling call.
    let lease = shared.registry.get();
    let images: Vec<&Image> = batch.iter().map(|r| r.image.as_ref()).collect();
    // Isolate panics (e.g. a malformed image tripping a backbone assert):
    // the worker must stay alive for everyone else, and the innocent
    // requests sharing the batch deserve answers — so a failed batch is
    // salvaged by retrying its requests individually.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lease.labeler().label_batch_traced(scratch, &images, shared.config.embed_threads)
    }));
    let (labels, timing) = match outcome {
        Ok(traced) => traced,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            goggles_obs::log::warn(
                "serve",
                "batch hit a labeler panic; salvaging individually",
                &[
                    ("batch", goggles_obs::Value::from(batch.len())),
                    ("version", goggles_obs::Value::from(lease.version())),
                    ("panic", goggles_obs::Value::from(msg)),
                ],
            );
            shared.metrics.batches_failed.inc();
            // A panicked embed may have left the arena buffers at any size;
            // they stay valid (growth-only), but retry with a fresh scratch
            // out of caution.
            *scratch = EmbedScratch::new();
            salvage_batch(shared, &lease, batch);
            return;
        }
    };
    let m = &shared.metrics;
    let n = batch.len() as u64;
    m.stage_embed.observe(timing.embed_us);
    m.stage_affinity.observe(timing.affinity_us);
    m.stage_endmodel.observe(timing.endmodel_us);
    if m.trace.is_enabled() {
        m.trace.push("embed", timing.embed_us, n);
        m.trace.push("affinity", timing.affinity_us, n);
        m.trace.push("endmodel", timing.endmodel_us, n);
    }
    respond(shared, &lease, &batch, &labels);
}

/// A poisoned batch panicked the labeler. Retry each member individually on
/// the same version lease, so the innocent majority still gets answers and
/// only the true poison(s) are dropped (their clients are answered with
/// [`ServeError::Closed`]) and counted in
/// [`ServiceStats::failed_requests`]. A singleton batch *is* its own
/// poison — no retry, it would only panic again.
fn salvage_batch(shared: &Shared, lease: &PublishedSnapshot, batch: Vec<Request>) {
    if batch.len() <= 1 {
        shared.metrics.requests_failed.add(batch.len() as u64);
        for request in batch {
            let _ = request.respond.send(Err(ServeError::Closed));
        }
        return;
    }
    for request in batch {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lease.labeler().label_batch_traced(
                &mut EmbedScratch::new(),
                &[request.image.as_ref()],
                shared.config.embed_threads,
            )
        }));
        match outcome {
            Ok((labels, _)) => respond(shared, lease, std::slice::from_ref(&request), &labels),
            Err(_) => {
                shared.metrics.requests_failed.inc();
                let _ = request.respond.send(Err(ServeError::Closed));
            }
        }
    }
}

/// Record the outcome and send the answers for a successfully labeled set
/// of requests (`labels` row `i` answers `batch[i]`).
fn respond(
    shared: &Shared,
    lease: &PublishedSnapshot,
    batch: &[Request],
    labels: &ProbabilisticLabels,
) {
    let done = Instant::now();
    let m = &shared.metrics;
    // Recorded *before* the responses go out, so a client that observed its
    // answer also observes its request in `stats()`.
    for request in batch {
        m.request_latency.observe(done.duration_since(request.enqueued).as_micros() as u64);
    }
    m.batch_size.observe(batch.len() as u64);
    m.requests_ok.add(batch.len() as u64);
    m.batches_total.inc();
    lease.record_served(batch.len() as u64);
    for (i, request) in batch.iter().enumerate() {
        // goggles-lint: allow(alloc-hot): each response owns its probability row — the copy *is* the handoff to the waiting client
        let probs = labels.probs.row(i).to_vec();
        let label = goggles_tensor::argmax(&probs);
        // The receiver may have given up; ignore send failures.
        let _ = request.respond.send(Ok(LabelResponse {
            label,
            probs,
            batch_size: batch.len(),
            version: lease.version(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::FittedLabeler;
    use goggles_core::GogglesConfig;
    use goggles_datasets::{generate, Dataset, TaskConfig, TaskKind};

    fn fitted(seed: u64) -> (FittedLabeler, Dataset) {
        let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 8, 6, seed);
        cfg.image_size = 32;
        let ds = generate(&cfg);
        let dev = ds.sample_dev_set(3, seed);
        let gcfg = GogglesConfig { seed, ..GogglesConfig::fast() };
        let (labeler, _) = FittedLabeler::fit(&gcfg, &ds, &dev).unwrap();
        (labeler, ds)
    }

    #[test]
    fn default_embed_threads_is_positive_share_of_cores() {
        assert!(default_embed_threads(1) >= 1);
        assert!(default_embed_threads(2) >= 1);
        assert!(default_embed_threads(usize::MAX) == 1);
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        assert_eq!(ServeConfig::default().embed_threads, cores.div_ceil(2).max(1));
        // with_workers recomputes the budget for the actual pool size: one
        // worker per core leaves a budget of exactly 1 thread each.
        let wide = ServeConfig::with_workers(cores);
        assert_eq!(wide.workers, cores);
        assert_eq!(wide.embed_threads, 1);
    }

    #[test]
    fn serves_single_requests() {
        let (labeler, ds) = fitted(11);
        let expected = labeler.label_batch(&ds.test_images(), 1);
        let service = LabelService::spawn(labeler, ServeConfig::default());
        for (i, img) in ds.test_images().iter().enumerate() {
            let resp = service.label(img).unwrap();
            assert_eq!(resp.probs, expected.probs.row(i));
            assert!(resp.batch_size >= 1);
        }
        let stats = service.stats();
        assert_eq!(stats.requests, ds.test_indices.len() as u64);
        assert!(stats.batches >= 1);
        assert!(stats.latency.sum > 0);
        assert_eq!(stats.latency.total(), stats.requests);
    }

    #[test]
    fn concurrent_clients_get_batched_answers_matching_direct_path() {
        let (labeler, ds) = fitted(12);
        let expected = labeler.label_batch(&ds.test_images(), 1);
        let service = Arc::new(LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 2,
                max_batch: 4,
                batch_timeout: Duration::from_millis(20),
                ..ServeConfig::default()
            },
        ));
        let images = ds.test_images();
        let handles: Vec<_> = images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let service = Arc::clone(&service);
                let img = (*img).clone();
                std::thread::spawn(move || (i, service.label(&img).unwrap()))
            })
            .collect();
        let mut max_batch_seen = 0;
        for h in handles {
            let (i, resp) = h.join().unwrap();
            assert_eq!(resp.probs, expected.probs.row(i), "request {i}");
            max_batch_seen = max_batch_seen.max(resp.batch_size);
        }
        // Concurrency should have produced at least one multi-request batch
        // (12 simultaneous clients, 20 ms linger, 2 workers).
        assert!(max_batch_seen >= 2, "no batching happened");
        let stats = service.stats();
        assert_eq!(stats.requests, images.len() as u64);
        assert!(stats.batches <= stats.requests);
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let (labeler, ds) = fitted(13);
        let mut service = LabelService::spawn(labeler, ServeConfig::default());
        let img = ds.test_images()[0].clone();
        assert!(service.label(&img).is_ok());
        service.shutdown();
        service.shutdown(); // idempotent
        assert!(matches!(service.label(&img), Err(ServeError::Closed)));
    }

    #[test]
    fn label_all_preserves_order_and_batches_from_one_caller() {
        let (labeler, ds) = fitted(14);
        let expected = labeler.label_batch(&ds.test_images(), 1);
        let service = LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 1,
                max_batch: 4,
                batch_timeout: Duration::from_millis(2),
                ..ServeConfig::default()
            },
        );
        let responses = service.label_all(&ds.test_images()).unwrap();
        assert_eq!(responses.len(), ds.test_indices.len());
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.probs, expected.probs.row(i));
        }
        // All requests were enqueued before the first await, so a single
        // caller must produce at least one multi-image batch (12 requests,
        // max_batch 4, one worker).
        let stats = service.stats();
        assert!(
            stats.batches < stats.requests,
            "label_all produced only singleton batches ({} batches for {} requests)",
            stats.batches,
            stats.requests
        );
    }

    #[test]
    fn labeler_panic_fails_the_request_but_not_the_service() {
        // The labeler was fit on 3-channel images; a 4-channel image panics
        // the backbone's channel assert inside the worker. The client must
        // get `Closed`, not a hang, and the service must keep serving.
        let (labeler, ds) = fitted(15);
        let good = ds.test_images()[0].clone();
        let expected = labeler.label_batch(&[&good], 1);
        let service = LabelService::spawn(
            labeler,
            ServeConfig { workers: 1, batch_timeout: Duration::ZERO, ..ServeConfig::default() },
        );
        let bad = goggles_vision::Image::filled(4, 32, 32, 0.5);
        match service.label(&bad) {
            Err(ServeError::Closed) => {}
            other => panic!("expected Closed for the poisoned request, got {other:?}"),
        }
        // Same worker, next request: still alive and correct.
        let resp = service.label(&good).expect("service must survive a poisoned request");
        assert_eq!(resp.probs, expected.probs.row(0));
        let stats = service.stats();
        assert_eq!(stats.failed_batches, 1);
        assert_eq!(stats.failed_requests, 1, "the poison is accounted for");
        assert_eq!(stats.requests, 1, "poisoned request is not counted as served");
    }

    #[test]
    fn good_request_co_batched_with_poison_still_gets_its_answer() {
        // A poisoned image shares a micro-batch with an innocent one. The
        // batch panics, the salvage pass retries individually: the innocent
        // client gets its exact answer, only the poison is dropped.
        let (labeler, ds) = fitted(17);
        let good = ds.test_images()[0].clone();
        let expected = labeler.label_batch(&[&good], 1);
        let service = Arc::new(LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 1,
                max_batch: 2,
                // long linger so the two submissions below co-batch
                batch_timeout: Duration::from_millis(500),
                ..ServeConfig::default()
            },
        ));
        let bad = goggles_vision::Image::filled(4, 32, 32, 0.5);
        let bad_client = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.label(&bad))
        };
        let good_client = {
            let service = Arc::clone(&service);
            let good = good.clone();
            std::thread::spawn(move || service.label(&good))
        };
        match bad_client.join().unwrap() {
            Err(ServeError::Closed) => {}
            other => panic!("poisoned request should be Closed, got {other:?}"),
        }
        let resp = good_client.join().unwrap().expect("innocent co-batched request must succeed");
        assert_eq!(resp.probs, expected.probs.row(0));
        assert_eq!(resp.batch_size, 1, "salvaged answers come from singleton retries");
        let stats = service.stats();
        assert_eq!(stats.failed_batches, 1, "exactly one poisoned batch");
        assert_eq!(stats.failed_requests, 1, "exactly the poison failed");
        assert_eq!(stats.requests, 1, "exactly the innocent request served");
    }

    #[test]
    fn publish_swaps_version_for_the_next_batch() {
        // Serve with one fit, hot-publish a differently seeded one: answers
        // carry the version they were computed on, and post-swap answers
        // match the new labeler's direct output exactly.
        let (labeler, ds) = fitted(18);
        let imgs = ds.test_images();
        let (swapped, _) = fitted(118);
        let expected_v1 = labeler.label_batch(&imgs, 1);
        let expected_v2 = swapped.label_batch(&imgs, 1);
        for i in 0..imgs.len() {
            assert_ne!(expected_v1.probs.row(i), expected_v2.probs.row(i), "image {i}");
        }
        let service = LabelService::spawn(
            labeler,
            ServeConfig { workers: 1, batch_timeout: Duration::ZERO, ..ServeConfig::default() },
        );
        let before = service.label(imgs[0]).unwrap();
        assert_eq!(before.version, 1);
        assert_eq!(before.probs, expected_v1.probs.row(0));
        let v = service.registry().publish(swapped).unwrap();
        assert_eq!(v, 2);
        assert_eq!(service.current().version(), 2);
        for (i, img) in imgs.iter().enumerate() {
            let resp = service.label(img).unwrap();
            assert_eq!(resp.version, 2, "post-swap batches must resolve the new version");
            assert_eq!(resp.probs, expected_v2.probs.row(i), "request {i}");
        }
        // per-version serve counters add up
        let versions = service.registry().versions();
        assert_eq!(versions[0].served, 1);
        assert_eq!(versions[1].served, imgs.len() as u64);
        // rollback: the next batch serves v1 again
        service.registry().rollback().unwrap();
        let back = service.label(imgs[0]).unwrap();
        assert_eq!(back.version, 1);
        assert_eq!(back.probs, expected_v1.probs.row(0));
    }

    #[test]
    fn reload_from_validates_and_publishes_behind_running_service() {
        let (labeler, ds) = fitted(19);
        let (next, _) = fitted(119);
        let img = ds.test_images()[0].clone();
        let (_, old_probs) = labeler.label_one(&img);
        let (_, new_probs) = next.label_one(&img);
        assert_ne!(old_probs, new_probs, "the two fits must answer differently");
        let dir = std::env::temp_dir().join("goggles_serve_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot_next.ggl");
        next.save_to(&path).unwrap();
        let service = LabelService::spawn(labeler, ServeConfig::default());
        assert_eq!(service.label(&img).unwrap().probs, old_probs);
        let v = service.reload_from(&path).unwrap();
        assert_eq!(v, 2);
        let resp = service.label(&img).unwrap();
        assert_eq!(resp.version, 2);
        assert_eq!(resp.probs, new_probs, "version 2 answers with the reloaded fit");
        // a garbage file must be rejected and must not disturb serving
        let bad_path = dir.join("garbage.ggl");
        std::fs::write(&bad_path, b"not a snapshot at all").unwrap();
        assert!(service.reload_from(&bad_path).is_err());
        assert_eq!(service.current().version(), 2, "failed reload keeps current");
        assert!(service.label(&img).is_ok());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad_path).ok();
    }

    #[test]
    fn shed_watermark_returns_overloaded_instead_of_blocking() {
        // One worker, long linger, watermark 2: the first two submissions
        // queue, the third is shed immediately with a typed, retryable
        // error — the producer never blocks.
        let (labeler, ds) = fitted(31);
        let service = LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 1,
                max_batch: 8,
                batch_timeout: Duration::from_millis(300),
                shed_watermark: 2,
                ..ServeConfig::default()
            },
        );
        let img = ds.test_images()[0].clone();
        let t1 = service.submit(Arc::new(img.clone())).unwrap();
        let t2 = service.submit(Arc::new(img.clone())).unwrap();
        let shed = service.submit(Arc::new(img.clone()));
        match shed {
            Err(ServeError::Overloaded) => {}
            other => panic!("expected Overloaded at the watermark, got {other:?}"),
        }
        assert!(ServeError::Overloaded.retryable());
        t1.wait().unwrap();
        t2.wait().unwrap();
        let stats = service.stats();
        assert_eq!(stats.shed, 1, "exactly the third submission was shed");
        assert_eq!(stats.requests, 2, "shed request was never labeled");
        // below the watermark again: traffic flows
        assert!(service.label(&img).is_ok());
        assert!(
            service.render_metrics().contains("goggles_requests_total{result=\"shed\"} 1"),
            "shed outcome must be exported"
        );
    }

    #[test]
    fn expired_deadline_is_answered_without_labeling() {
        // Already-expired at submission: resolved immediately, no queue
        // slot, no labeling — `requests` stays 0, `deadline_expired` counts.
        let (labeler, ds) = fitted(22);
        let service = LabelService::spawn(labeler, ServeConfig::default());
        let img = ds.test_images()[0].clone();
        let past = Instant::now() - Duration::from_millis(5);
        let outcome =
            service.submit_with_deadline(Arc::new(img.clone()), Some(past)).unwrap().wait();
        assert!(matches!(outcome, Err(ServeError::Deadline)), "got {outcome:?}");
        let stats = service.stats();
        assert_eq!(stats.requests, 0, "expired request must never be labeled");
        assert_eq!(stats.deadline_expired, 1);
        // sanity: the same service still serves normal traffic
        assert!(service.label(&img).is_ok());
    }

    #[test]
    fn queued_requests_expire_and_cancel_without_occupying_batch_slots() {
        // One worker, a long linger and a large max_batch: everything
        // submitted below sits in the queue until the linger deadline, so
        // the cancellations/expiries land deterministically before drain.
        let (labeler, ds) = fitted(23);
        let service = LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 1,
                max_batch: 32,
                batch_timeout: Duration::from_millis(400),
                ..ServeConfig::default()
            },
        );
        let img = ds.test_images()[0].clone();
        // the request that will actually be labeled
        let keep = service.submit(Arc::new(img.clone())).unwrap();
        // three tickets dropped while queued → cancelled, never labeled
        for _ in 0..3 {
            drop(service.submit(Arc::new(img.clone())).unwrap());
        }
        // two requests whose deadline expires inside the linger window
        let d = Instant::now() + Duration::from_millis(20);
        let t1 = service.submit_with_deadline(Arc::new(img.clone()), Some(d)).unwrap();
        let t2 = service.submit_with_deadline(Arc::new(img.clone()), Some(d)).unwrap();
        assert!(matches!(t1.wait(), Err(ServeError::Deadline)));
        assert!(matches!(t2.wait(), Err(ServeError::Deadline)));
        let resp = keep.wait().expect("the live request must be answered");
        assert_eq!(resp.batch_size, 1, "doomed requests must not occupy batch slots");
        let stats = service.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.cancelled, 3);
        assert_eq!(stats.deadline_expired, 2);
        assert_eq!(stats.latency.total(), 1, "histogram counts answered requests only");
    }

    #[test]
    fn ticket_poll_and_wait_timeout_lifecycle() {
        let (labeler, ds) = fitted(24);
        let expected = labeler.label_batch(&[ds.test_images()[0]], 1);
        let service = LabelService::spawn(
            labeler,
            ServeConfig { workers: 1, batch_timeout: Duration::ZERO, ..ServeConfig::default() },
        );
        let mut ticket = service.submit(Arc::new(ds.test_images()[0].clone())).unwrap();
        // poll until resolved (bounded spin; the answer takes ~ms)
        let deadline = Instant::now() + Duration::from_secs(30);
        let outcome = loop {
            if let Some(outcome) = ticket.poll() {
                break outcome;
            }
            assert!(Instant::now() < deadline, "ticket never resolved");
            std::thread::yield_now();
        };
        assert_eq!(outcome.unwrap().probs, expected.probs.row(0));
        // a second ticket resolved through wait_timeout
        let mut t = service.submit(Arc::new(ds.test_images()[0].clone())).unwrap();
        let r = loop {
            if let Some(r) = t.wait_timeout(Duration::from_millis(100)) {
                break r;
            }
            assert!(Instant::now() < deadline, "wait_timeout never resolved");
        };
        assert_eq!(r.unwrap().probs, expected.probs.row(0));
    }

    #[test]
    fn labeler_trait_objects_serve_fitted_and_service_identically() {
        // The transport-agnostic promise: code written against `dyn
        // Labeler` gets identical answers from the bare labeler and the
        // micro-batching service (modulo version/batch metadata).
        let (labeler, ds) = fitted(25);
        let service = LabelService::spawn(labeler.clone(), ServeConfig::default());
        let front: Vec<(&str, &dyn Labeler)> = vec![("fitted", &labeler), ("service", &service)];
        let imgs = ds.test_images();
        let expected = labeler.label_batch(&imgs, 1);
        for (name, l) in front {
            let responses = l.label_all(&imgs).unwrap();
            for (i, resp) in responses.iter().enumerate() {
                assert_eq!(resp.probs, expected.probs.row(i), "{name} request {i}");
                assert_eq!(resp.label, goggles_tensor::argmax(expected.probs.row(i)));
            }
        }
    }

    #[test]
    fn in_range_extreme_images_label_to_distributions() {
        let (labeler, ds) = fitted(31);
        let (c, h, w) = ds.test_images()[0].shape();
        let mut stripes = Image::new(c, h, w);
        for ch in 0..c {
            for y in (0..h).step_by(2) {
                for x in 0..w {
                    stripes.set(ch, y, x, 1.0);
                }
            }
        }
        let extremes = [
            ("all-0", Image::filled(c, h, w, 0.0)),
            ("all-1", Image::filled(c, h, w, 1.0)),
            ("smallest subnormal", Image::filled(c, h, w, f32::from_bits(1))),
            ("-0.0", Image::filled(c, h, w, -0.0)),
            ("0/1 stripes", stripes),
        ];
        let service = LabelService::spawn(labeler.clone(), ServeConfig::default());
        let labelers: [(&str, &dyn Labeler); 2] = [("fitted", &labeler), ("service", &service)];
        for (name, image) in &extremes {
            for (via, labeler) in labelers {
                let probs = labeler.label(image).unwrap().probs;
                let sum: f64 = probs.iter().sum();
                assert!(probs.iter().all(|p| p.is_finite()), "{name} via {via}: {probs:?}");
                assert!((sum - 1.0).abs() <= 1e-9, "{name} via {via}: rows sum to {sum}");
            }
        }
    }

    #[test]
    fn stats_expose_queue_depth_and_batch_size_distribution() {
        // One worker and a long linger: submissions sit in the queue, so
        // the live depth gauge is observable before the drain.
        let (labeler, ds) = fitted(26);
        let service = LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 1,
                max_batch: 8,
                batch_timeout: Duration::from_millis(300),
                ..ServeConfig::default()
            },
        );
        let img = ds.test_images()[0].clone();
        let t1 = service.submit(Arc::new(img.clone())).unwrap();
        let t2 = service.submit(Arc::new(img)).unwrap();
        assert_eq!(service.stats().queue_depth, 2, "both requests still queued");
        t1.wait().unwrap();
        t2.wait().unwrap();
        let stats = service.stats();
        assert_eq!(stats.queue_depth, 0, "queue drained");
        assert_eq!(stats.requests, 2);
        assert_eq!(
            stats.batch_size.total(),
            stats.batches,
            "one batch-size sample per executed batch"
        );
        // both requests shared one batch of 2 → bucket_index(2) = 1
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_size.counts[goggles_obs::bucket_index(2)], 1);
    }

    #[test]
    fn metrics_render_exposes_families_and_stage_histograms() {
        let (labeler, ds) = fitted(27);
        let service = LabelService::spawn(
            labeler,
            ServeConfig { workers: 1, batch_timeout: Duration::ZERO, ..ServeConfig::default() },
        );
        for img in ds.test_images().iter().take(3) {
            service.label(img).unwrap();
        }
        let text = service.render_metrics();
        for family in [
            "goggles_requests_total",
            "goggles_stage_latency_us",
            "goggles_request_latency_us",
            "goggles_snapshot_version",
            "goggles_snapshot_served_total",
            "goggles_snapshot_leases",
            "goggles_queue_depth",
            "goggles_batch_size",
            "goggles_batches_total",
            "goggles_gemm_calls_total",
            "goggles_backbone_flops_per_image",
        ] {
            assert!(text.contains(family), "missing family {family} in:\n{text}");
        }
        assert!(
            text.contains("goggles_requests_total{result=\"ok\"} 3"),
            "ok-request counter wrong in:\n{text}"
        );
        assert!(text.contains("goggles_snapshot_version 1"));
        // the per-stage histograms saw every batch
        let m = &service.shared.metrics;
        let embed = m.stage_embed.snapshot();
        assert_eq!(m.stage_queue_wait.snapshot().total(), 3, "one queue_wait sample per request");
        assert_eq!(embed.total(), m.stage_affinity.snapshot().total());
        assert_eq!(embed.total(), m.stage_endmodel.snapshot().total());
        assert!(embed.total() >= 1);
        assert!(embed.quantile_upper(0.5) > 0);
    }

    #[test]
    fn trace_ring_records_stage_events_and_zero_capacity_disables() {
        let (labeler, ds) = fitted(28);
        let img = ds.test_images()[0].clone();
        let service = LabelService::spawn(
            labeler.clone(),
            ServeConfig { workers: 1, batch_timeout: Duration::ZERO, ..ServeConfig::default() },
        );
        service.label(&img).unwrap();
        let traces = service.recent_traces();
        for stage in ["batch_assembly", "embed", "affinity", "endmodel"] {
            assert!(traces.iter().any(|e| e.stage == stage), "no {stage} trace in {traces:?}");
        }
        // tracing disabled: same serving behavior, no events retained
        let quiet = LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 1,
                batch_timeout: Duration::ZERO,
                trace_capacity: 0,
                ..ServeConfig::default()
            },
        );
        quiet.label(&img).unwrap();
        assert!(quiet.recent_traces().is_empty());
    }

    /// The value of the exposition line `series <value>` in `text`.
    fn scraped(text: &str, series: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no series {series} in:\n{text}"))
    }

    #[test]
    fn stats_and_metrics_agree_on_every_outcome() {
        // One worker, a long linger and a shed watermark of 4: the first
        // four submissions sit in the queue together, so the fifth is shed
        // and the drain sees every doomed request at once.
        let (labeler, ds) = fitted(32);
        let service = LabelService::spawn(
            labeler,
            ServeConfig {
                workers: 1,
                max_batch: 8,
                batch_timeout: Duration::from_millis(300),
                shed_watermark: 4,
                ..ServeConfig::default()
            },
        );
        let good = ds.test_images()[0].clone();
        // A 4-channel image panics the 3-channel backbone: poisoned batch.
        let bad = goggles_vision::Image::filled(4, 32, 32, 0.5);
        let mut nan = good.clone();
        nan.tensor_mut().as_mut_slice()[0] = f32::NAN;
        let mut huge = good.clone();
        huge.tensor_mut().as_mut_slice()[0] = 1e30;

        let ok = service.submit(Arc::new(good.clone())).unwrap();
        let poisoned = service.submit(Arc::new(bad)).unwrap();
        drop(service.submit(Arc::new(good.clone())).unwrap()); // cancelled while queued
        let soon = Instant::now() + Duration::from_millis(20);
        let expires = service.submit_with_deadline(Arc::new(good.clone()), Some(soon)).unwrap();
        assert!(matches!(service.submit(Arc::new(good.clone())), Err(ServeError::Overloaded)));
        let past = Instant::now() - Duration::from_millis(5);
        let expired = service.submit_with_deadline(Arc::new(good.clone()), Some(past)).unwrap();
        assert!(matches!(expired.wait(), Err(ServeError::Deadline)));
        assert!(matches!(service.submit(Arc::new(nan)), Err(ServeError::InvalidImage(_))));
        assert!(matches!(service.submit(Arc::new(huge)), Err(ServeError::InvalidImage(_))));

        assert!(ok.wait().is_ok(), "salvaged from the poisoned batch");
        assert!(matches!(poisoned.wait(), Err(ServeError::Closed)));
        assert!(matches!(expires.wait(), Err(ServeError::Deadline)));
        assert!(service.label(&good).is_ok());

        let stats = service.stats();
        let text = service.render_metrics();
        let outcome =
            |r: &str| scraped(&text, &format!("goggles_requests_total{{result=\"{r}\"}}"));
        // Every outcome happened, and both views count it identically.
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.requests, outcome("ok"));
        assert_eq!(stats.failed_requests, 1);
        assert_eq!(stats.failed_requests, outcome("failed"));
        assert_eq!(stats.deadline_expired, 2, "one at submit, one in the queue");
        assert_eq!(stats.deadline_expired, outcome("deadline"));
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.cancelled, outcome("cancelled"));
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.shed, outcome("shed"));
        assert_eq!(stats.invalid, 2, "the NaN and the 1e30 pixel");
        assert_eq!(stats.invalid, outcome("invalid"));
        assert_eq!(stats.failed_batches, 1);
        assert_eq!(stats.failed_batches, scraped(&text, "goggles_batches_failed_total"));
        assert_eq!(stats.batches, scraped(&text, "goggles_batches_total"));
        assert_eq!(stats.worker_restarts, scraped(&text, "goggles_worker_restarts_total"));
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.queue_depth, scraped(&text, "goggles_queue_depth"));
        assert_eq!(stats.latency.total(), stats.requests);
        assert_eq!(stats.latency.total(), scraped(&text, "goggles_request_latency_us_count"));
        assert_eq!(stats.latency.sum, scraped(&text, "goggles_request_latency_us_sum"));
        assert_eq!(stats.batch_size.total(), stats.batches);
        assert_eq!(stats.batch_size.total(), scraped(&text, "goggles_batch_size_count"));
        assert_eq!(stats.batch_size.sum, stats.requests, "every answer rode in one batch");
        assert_eq!(stats.batch_size.sum, scraped(&text, "goggles_batch_size_sum"));
    }

    #[test]
    fn instrumentation_keeps_labels_bit_identical() {
        // The traced path must return exactly what the untraced labeler
        // computes — instrumentation reads clocks, never touches numerics.
        let (labeler, ds) = fitted(29);
        let imgs = ds.test_images();
        let direct = labeler.label_batch(&imgs, 1);
        let mut scratch = EmbedScratch::new();
        let (traced, timing) = labeler.label_batch_traced(&mut scratch, &imgs, 1);
        assert_eq!(direct.probs, traced.probs);
        // embed dominates; all three stages must have been timed
        let _ = timing.embed_us + timing.affinity_us + timing.endmodel_us;
    }
}
