//! # goggles-trainer
//!
//! The continuous-learning loop behind a GOGGLES serving stack: a
//! background fitter that grows the training corpus **incrementally** and
//! republishes better snapshots behind an accuracy gate, while the
//! [`goggles_serve::LabelService`] it feeds keeps answering requests
//! bit-identically from the currently published version.
//!
//! The paper's system (Das et al., SIGMOD 2020) is batch-only: adding even
//! one image means re-embedding everything and rebuilding the `N × αN`
//! affinity matrix. This crate closes the loop online, in four steps:
//!
//! 1. **Intake** — a bounded queue ([`Trainer::sink`]) implementing
//!    [`goggles_serve::IngestSink`], fed by the wire protocol's `Ingest`
//!    op. A full queue sheds with the retryable
//!    [`goggles_serve::ServeError::Overloaded`]; accepted images are never
//!    dropped (a shutdown drains the queue through one final cycle).
//! 2. **Incremental growth** — new images are embedded and their affinity
//!    rows computed against the **frozen** prototype bank
//!    ([`goggles_serve::FittedLabeler::affinity_rows_for`]), then appended
//!    in place to the training matrix
//!    ([`goggles_core::AffinityMatrix::append_rows`]): `(N+m) × αN`
//!    instead of an `O((N+m)²α)` rebuild, with no copy of the rows already
//!    held. Appending is bit-identical to rebuilding for the frozen
//!    columns, so nothing the serving path computed ever shifts.
//! 3. **Warm-started refit** — each cycle refits the hierarchical model
//!    from the previous snapshot's parameters
//!    ([`goggles_core::Goggles::refit_from_affinity`]): a deterministic
//!    warm candidate plus seeded cold restarts, ranked on the held-out dev
//!    set.
//! 4. **Gated publish** — a two-phase gate guards the
//!    [`goggles_serve::SnapshotRegistry`]: *offline*, the winner's
//!    dev-set score must not regress below the live baseline (minus a
//!    configured slack); *online*, the candidate is canaried on live
//!    traffic (per-version serve counters) and rolled back automatically
//!    if the `trainer.canary` failpoint — or a real regression signal —
//!    fires. Torn snapshot writes (the `snapshot.write` failpoint) fail
//!    the cycle *before* the registry is touched, so the server keeps
//!    serving the previous version untouched.
//!
//! Every stage is observable on the process-global metrics registry
//! (`goggles_trainer_*` families), which the serving stack's
//! `/metrics` scrape already merges.

// No panic outside a reasoned `#[expect]` in this library; clippy.toml exempts test code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use goggles_core::{AffinityMatrix, Goggles, GogglesConfig, HierarchicalModel};
use goggles_datasets::DevSet;
use goggles_serve::{FittedLabeler, IngestSink, ServeError, SnapshotRegistry, TrainingBootstrap};
use goggles_vision::Image;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Alias matching the serving crate's result type.
type ServeResult<T> = goggles_serve::Result<T>;

/// Tuning for a [`Trainer`]. The defaults are sized for tests and demos;
/// a real deployment raises `queue_capacity` and `min_batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Intake queue capacity; a full queue sheds ingests with the
    /// retryable [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Images to accumulate before a refit cycle starts. The cycle drains
    /// the whole queue, so bursts larger than this train together.
    pub min_batch: usize,
    /// Offline gate slack: a candidate may score up to `epsilon` below
    /// the live baseline on the dev set and still publish. `0.0` demands
    /// no regression at all.
    pub epsilon: f64,
    /// Online gate: requests the candidate must serve before acceptance.
    /// `0` skips the canary wait (offline gate only).
    pub canary_served: u64,
    /// Upper bound on the canary wait; on expiry the candidate is judged
    /// on whatever traffic it saw.
    pub canary_timeout: Duration,
    /// Persist each publishable candidate here before the registry sees
    /// it (crash-safe atomic write; the `snapshot.write` failpoint tears
    /// it). `None` publishes in memory only.
    pub snapshot_path: Option<PathBuf>,
    /// Retired versions kept after each publish
    /// ([`SnapshotRegistry::prune_retired`]); `≥ 1` preserves the
    /// rollback target.
    pub keep_retired: usize,
    /// Threads for embedding ingested images.
    pub embed_threads: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            min_batch: 4,
            epsilon: 0.0,
            canary_served: 0,
            canary_timeout: Duration::from_secs(2),
            snapshot_path: None,
            keep_retired: 2,
            embed_threads: 1,
        }
    }
}

/// How one refit cycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitOutcome {
    /// The candidate passed both gate phases and is now serving.
    Published,
    /// The offline gate refused the candidate (dev-set regression or an
    /// injected gate failure); the registry was never touched.
    Rejected,
    /// The candidate published but failed the online canary; the registry
    /// was rolled back to the previous version.
    RolledBack,
    /// The cycle failed mechanically (refit error, torn snapshot write,
    /// publish failure); the previous version keeps serving.
    Failed,
}

impl RefitOutcome {
    fn label(self) -> &'static str {
        match self {
            RefitOutcome::Published => "published",
            RefitOutcome::Rejected => "rejected",
            RefitOutcome::RolledBack => "rolled_back",
            RefitOutcome::Failed => "failed",
        }
    }
}

/// Point-in-time view of a [`Trainer`], for polling and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerStatus {
    /// Images accepted by the intake queue, ever.
    pub ingested: u64,
    /// Images currently waiting in the intake queue.
    pub queue_depth: usize,
    /// Rows of the training affinity matrix (frozen `N` + appended).
    pub rows: usize,
    /// Completed refit cycles (any outcome).
    pub refits: u64,
    /// Cycles that ended [`RefitOutcome::Published`].
    pub published: u64,
    /// Cycles that ended [`RefitOutcome::Rejected`].
    pub rejected: u64,
    /// Cycles that ended [`RefitOutcome::RolledBack`].
    pub rolled_back: u64,
    /// Cycles that ended [`RefitOutcome::Failed`].
    pub failed: u64,
    /// Dev-set score of the most recent candidate (whatever its fate).
    pub dev_score: f64,
    /// Dev-set score of the version currently serving (the gate's bar).
    pub baseline: f64,
    /// Registry version of the last successful publish, if any.
    pub last_published_version: Option<u64>,
    /// Outcome of the most recent cycle, if any cycle ran.
    pub last_outcome: Option<RefitOutcome>,
}

/// Handles into the process-global metrics registry. Registered once per
/// trainer spawn; get-or-create, so repeated spawns share families.
struct TrainerMetrics {
    ingested: goggles_obs::Counter,
    queue_depth: goggles_obs::Gauge,
    rows: goggles_obs::Gauge,
    dev_score: goggles_obs::FloatGauge,
    refit_latency: goggles_obs::Histogram,
    outcomes: [(RefitOutcome, goggles_obs::Counter); 4],
}

impl TrainerMetrics {
    fn new() -> Self {
        let reg = goggles_obs::global();
        let outcome_counter = |o: RefitOutcome| {
            (
                o,
                reg.counter(
                    "goggles_trainer_refits_total",
                    "Completed trainer refit cycles by outcome",
                    &[("outcome", o.label())],
                ),
            )
        };
        Self {
            ingested: reg.counter(
                "goggles_trainer_ingested_total",
                "Images accepted by the trainer intake queue",
                &[],
            ),
            queue_depth: reg.gauge(
                "goggles_trainer_queue_depth",
                "Images waiting in the trainer intake queue",
                &[],
            ),
            rows: reg.gauge(
                "goggles_trainer_rows",
                "Rows of the trainer's growing affinity matrix",
                &[],
            ),
            dev_score: reg.float_gauge(
                "goggles_trainer_dev_score",
                "Dev-set score of the most recent refit candidate",
                &[],
            ),
            refit_latency: reg.histogram(
                "goggles_trainer_refit_latency_us",
                "Wall time of one incremental refit cycle (embed + append + EM)",
                &[],
            ),
            outcomes: [
                outcome_counter(RefitOutcome::Published),
                outcome_counter(RefitOutcome::Rejected),
                outcome_counter(RefitOutcome::RolledBack),
                outcome_counter(RefitOutcome::Failed),
            ],
        }
    }

    fn record_outcome(&self, outcome: RefitOutcome) {
        for (o, c) in &self.outcomes {
            if *o == outcome {
                c.inc();
            }
        }
    }
}

/// Intake-queue state under the mutex.
struct IntakeState {
    queue: VecDeque<Image>,
    accepted: u64,
    shutdown: bool,
}

/// The bounded intake queue: the [`IngestSink`] half of the trainer,
/// shared with the wire server. Backpressure is shed-style (never blocks
/// a connection thread): a full queue answers [`ServeError::Overloaded`].
struct Intake {
    state: Mutex<IntakeState>,
    cond: Condvar,
    capacity: usize,
    ingested: goggles_obs::Counter,
    queue_depth: goggles_obs::Gauge,
}

impl Intake {
    fn lock(&self) -> std::sync::MutexGuard<'_, IntakeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until at least `min_batch` images are queued (or shutdown),
    /// then drain the whole queue. Returns `None` only on shutdown with
    /// an empty queue — queued images always get one final cycle, so an
    /// accepted ingest is never silently dropped.
    fn next_batch(&self, min_batch: usize) -> Option<Vec<Image>> {
        let mut st = self.lock();
        loop {
            if st.shutdown || st.queue.len() >= min_batch.max(1) {
                if st.queue.is_empty() {
                    return if st.shutdown { None } else { Some(Vec::new()) };
                }
                let batch: Vec<Image> = st.queue.drain(..).collect();
                self.queue_depth.set(0);
                return Some(batch);
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn initiate_shutdown(&self) {
        self.lock().shutdown = true;
        self.cond.notify_all();
    }
}

impl IngestSink for Intake {
    fn ingest(&self, image: Image) -> ServeResult<u64> {
        goggles_serve::check_pixels(&image)?;
        let mut st = self.lock();
        if st.shutdown {
            return Err(ServeError::Closed);
        }
        if st.queue.len() >= self.capacity {
            return Err(ServeError::Overloaded);
        }
        st.queue.push_back(image);
        st.accepted += 1;
        let accepted = st.accepted;
        self.ingested.inc();
        self.queue_depth.set(st.queue.len() as i64);
        self.cond.notify_all();
        Ok(accepted)
    }
}

/// Cycle counters shared between the loop thread and status readers.
#[derive(Default)]
struct StatusInner {
    rows: usize,
    refits: u64,
    published: u64,
    rejected: u64,
    rolled_back: u64,
    failed: u64,
    dev_score: f64,
    baseline: f64,
    last_published_version: Option<u64>,
    last_outcome: Option<RefitOutcome>,
}

struct TrainerShared {
    status: Mutex<StatusInner>,
    /// Signaled after every completed cycle, for [`Trainer::wait_for_refits`].
    cycle_done: Condvar,
}

impl TrainerShared {
    fn status(&self) -> std::sync::MutexGuard<'_, StatusInner> {
        self.status.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// State owned by the background loop thread.
struct LoopState {
    goggles: Goggles,
    labeler: FittedLabeler,
    prev: HierarchicalModel,
    /// The training matrix, grown in place by `m × αN` blocks.
    affinity: AffinityMatrix,
    dev_rows: DevSet,
    baseline: f64,
    registry: Arc<SnapshotRegistry>,
    options: TrainerConfig,
    metrics: TrainerMetrics,
    shared: Arc<TrainerShared>,
}

/// The background continuous-learning loop. Spawn with
/// [`Trainer::spawn`], hand [`Trainer::sink`] to a
/// [`goggles_serve::WireServer`] (via `bind_with_ingest`), poll with
/// [`Trainer::status`], stop with [`Trainer::shutdown`] (or drop).
pub struct Trainer {
    intake: Arc<Intake>,
    shared: Arc<TrainerShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Trainer {
    /// Start the loop over a fitted bootstrap
    /// ([`FittedLabeler::fit_for_training`]) and the registry the serving
    /// stack reads from ([`goggles_serve::LabelService::spawn_with_registry`]
    /// shares it). `config` must be the configuration the bootstrap was
    /// fitted with — restarts and seed feed the cold-restart candidates.
    pub fn spawn(
        bootstrap: TrainingBootstrap,
        config: &GogglesConfig,
        registry: Arc<SnapshotRegistry>,
        options: TrainerConfig,
    ) -> Self {
        let metrics = TrainerMetrics::new();
        let intake = Arc::new(Intake {
            state: Mutex::new(IntakeState { queue: VecDeque::new(), accepted: 0, shutdown: false }),
            cond: Condvar::new(),
            capacity: options.queue_capacity.max(1),
            ingested: metrics.ingested.clone(),
            queue_depth: metrics.queue_depth.clone(),
        });
        let shared = Arc::new(TrainerShared {
            status: Mutex::new(StatusInner::default()),
            cycle_done: Condvar::new(),
        });
        let baseline = bootstrap.result.labels.dev_accuracy(&bootstrap.dev_rows);
        let rows = bootstrap.affinity.data.rows();
        {
            let mut st = shared.status();
            st.rows = rows;
            st.baseline = baseline;
            st.dev_score = baseline;
        }
        metrics.rows.set(rows as i64);
        metrics.dev_score.set(baseline);
        let min_batch = options.min_batch.max(1);
        let state = LoopState {
            goggles: Goggles::new(config.clone()),
            prev: bootstrap.labeler.frozen_model(),
            affinity: bootstrap.affinity,
            labeler: bootstrap.labeler,
            dev_rows: bootstrap.dev_rows,
            baseline,
            registry,
            options,
            metrics,
            shared: Arc::clone(&shared),
        };
        let loop_intake = Arc::clone(&intake);
        #[expect(
            clippy::expect_used,
            reason = "spawn only fails on OS thread exhaustion at startup; this constructor is \
                      infallible by API, matching LabelService::spawn"
        )]
        let handle = std::thread::Builder::new()
            .name("goggles-trainer".into())
            .spawn(move || trainer_main(state, &loop_intake, min_batch))
            .expect("spawn trainer thread");
        Self { intake, shared, handle: Some(handle) }
    }

    /// The intake queue as an [`IngestSink`], for
    /// [`goggles_serve::WireServer::bind_with_ingest`].
    pub fn sink(&self) -> Arc<dyn IngestSink> {
        Arc::clone(&self.intake) as Arc<dyn IngestSink>
    }

    /// Enqueue one image locally (same path as a wire `Ingest` op).
    /// Returns the total accepted so far, [`ServeError::Overloaded`] on a
    /// full queue, or [`ServeError::InvalidImage`] for an image with a pixel
    /// outside `[0, 1]`, which never reaches the training matrix.
    pub fn ingest(&self, image: Image) -> ServeResult<u64> {
        self.intake.ingest(image)
    }

    /// Current counters and gate state.
    pub fn status(&self) -> TrainerStatus {
        let intake = self.intake.lock();
        let (ingested, queue_depth) = (intake.accepted, intake.queue.len());
        drop(intake);
        let st = self.shared.status();
        TrainerStatus {
            ingested,
            queue_depth,
            rows: st.rows,
            refits: st.refits,
            published: st.published,
            rejected: st.rejected,
            rolled_back: st.rolled_back,
            failed: st.failed,
            dev_score: st.dev_score,
            baseline: st.baseline,
            last_published_version: st.last_published_version,
            last_outcome: st.last_outcome,
        }
    }

    /// Block until at least `refits` cycles have completed (any outcome)
    /// or `timeout` expires; returns whether the target was reached.
    pub fn wait_for_refits(&self, refits: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.status();
        while st.refits < refits {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timeout) = self
                .shared
                .cycle_done
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        true
    }

    /// Stop the loop: the intake refuses further images, queued ones get
    /// one final cycle, then the thread exits and is joined. Idempotent;
    /// also invoked on drop.
    pub fn shutdown(&mut self) {
        self.intake.initiate_shutdown();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Trainer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = self.status();
        f.debug_struct("Trainer").field("status", &status).finish()
    }
}

fn trainer_main(mut state: LoopState, intake: &Intake, min_batch: usize) {
    while let Some(batch) = intake.next_batch(min_batch) {
        if batch.is_empty() {
            continue;
        }
        let started = Instant::now();
        let outcome = run_cycle(&mut state, &batch);
        state
            .metrics
            .refit_latency
            .observe(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        state.metrics.record_outcome(outcome);
        let mut st = state.shared.status();
        st.refits += 1;
        st.rows = state.affinity.data.rows();
        st.baseline = state.baseline;
        st.last_outcome = Some(outcome);
        match outcome {
            RefitOutcome::Published => st.published += 1,
            RefitOutcome::Rejected => st.rejected += 1,
            RefitOutcome::RolledBack => st.rolled_back += 1,
            RefitOutcome::Failed => st.failed += 1,
        }
        drop(st);
        state.shared.cycle_done.notify_all();
    }
}

/// One full cycle: embed + append, warm refit, two-phase gate.
fn run_cycle(state: &mut LoopState, batch: &[Image]) -> RefitOutcome {
    // 1. Incremental growth: affinity rows against the frozen bank.
    let refs: Vec<&Image> = batch.iter().collect();
    let new_rows = state.labeler.affinity_rows_for(&refs, state.options.embed_threads);
    if let Err(e) = state.affinity.append_rows(&new_rows) {
        goggles_obs::log::error(
            "trainer",
            "appended affinity rows have inconsistent width",
            &[("error", goggles_obs::Value::from(e.to_string()))],
        );
        return RefitOutcome::Failed;
    }
    state.metrics.rows.set(state.affinity.data.rows() as i64);

    // 2. Warm-started refit, ranked against seeded cold restarts.
    let selection =
        match state.goggles.refit_from_affinity(&state.affinity, &state.dev_rows, &state.prev) {
            Ok(s) => s,
            Err(e) => {
                goggles_obs::log::error(
                    "trainer",
                    "incremental refit failed",
                    &[("error", goggles_obs::Value::from(e.to_string()))],
                );
                return RefitOutcome::Failed;
            }
        };
    state.metrics.dev_score.set(selection.dev_score);
    state.shared.status().dev_score = selection.dev_score;

    // 3. Offline gate (phase A): the candidate must hold the baseline
    // (minus the configured slack) on the held-out dev set. The
    // `trainer.gate` failpoint forces a regression here.
    let injected_gate = goggles_serve::fault::enabled()
        && goggles_serve::fault::inject_control("trainer.gate").is_some();
    if injected_gate || selection.dev_score < state.baseline - state.options.epsilon - 1e-12 {
        goggles_obs::log::warn(
            "trainer",
            "candidate rejected by offline gate",
            &[
                ("dev_score", goggles_obs::Value::from(selection.dev_score)),
                ("baseline", goggles_obs::Value::from(state.baseline)),
                ("injected", goggles_obs::Value::from(injected_gate)),
            ],
        );
        return RefitOutcome::Rejected;
    }

    // 4. Candidate construction + persistence. A torn snapshot write
    // fails the cycle before the registry is touched.
    let candidate = match state.labeler.with_models(&selection.model, selection.mapping.clone()) {
        Ok(c) => c,
        Err(e) => {
            goggles_obs::log::error(
                "trainer",
                "candidate failed validation",
                &[("error", goggles_obs::Value::from(e.to_string()))],
            );
            return RefitOutcome::Failed;
        }
    };
    if let Some(path) = &state.options.snapshot_path {
        if let Err(e) = candidate.save_to(path) {
            goggles_obs::log::error(
                "trainer",
                "candidate snapshot write failed; registry untouched",
                &[("error", goggles_obs::Value::from(e.to_string()))],
            );
            return RefitOutcome::Failed;
        }
    }

    // 5. Publish + online canary (phase B). The registry swap is atomic;
    // in-flight batches finish on the previous version.
    let version = match state.registry.publish(candidate.clone()) {
        Ok(v) => v,
        Err(e) => {
            goggles_obs::log::error(
                "trainer",
                "publish failed",
                &[("error", goggles_obs::Value::from(e.to_string()))],
            );
            return RefitOutcome::Failed;
        }
    };
    let served = wait_for_canary(
        &state.registry,
        version,
        state.options.canary_served,
        state.options.canary_timeout,
    );
    let canary_regressed = goggles_serve::fault::enabled()
        && goggles_serve::fault::inject_control("trainer.canary").is_some();
    if canary_regressed {
        let rolled = state.registry.rollback();
        goggles_obs::log::warn(
            "trainer",
            "canary regression; rolled back",
            &[
                ("version", goggles_obs::Value::from(version)),
                ("served", goggles_obs::Value::from(served)),
                ("rollback_ok", goggles_obs::Value::from(rolled.is_ok())),
            ],
        );
        return RefitOutcome::RolledBack;
    }

    // 6. Accepted: the candidate is the new baseline and warm seed.
    state.prev = selection.model;
    state.baseline = selection.dev_score;
    state.labeler = candidate;
    state.registry.prune_retired(state.options.keep_retired.max(1));
    state.shared.status().last_published_version = Some(version);
    goggles_obs::log::info(
        "trainer",
        "candidate published",
        &[
            ("version", goggles_obs::Value::from(version)),
            ("dev_score", goggles_obs::Value::from(selection.dev_score)),
            ("rows", goggles_obs::Value::from(state.affinity.data.rows() as u64)),
        ],
    );
    RefitOutcome::Published
}

/// Poll the registry's per-version serve counter until the canary saw
/// `need` requests or `timeout` expires; returns the count it saw.
fn wait_for_canary(registry: &SnapshotRegistry, version: u64, need: u64, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    loop {
        let served = registry
            .versions()
            .iter()
            .find(|v| v.version == version)
            .map(|v| v.served)
            .unwrap_or(0);
        if served >= need || Instant::now() >= deadline {
            return served;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
