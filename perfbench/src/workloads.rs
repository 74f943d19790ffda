//! The workloads: inputs generated from the seed, set-up, the timed phase,
//! answer verification, and the traced run's extra phases.

use crate::host;
use crate::layers::{self, LayerInputs};
use crate::loadgen::{self, LabelSample};
use crate::report::Metrics;
use crate::stats::{self, Outcome, Tally};
use goggles_core::{Goggles, GogglesConfig};
use goggles_datasets::{cub, generate, gtsrb, Dataset, DevSet, TaskConfig, TaskKind};
use goggles_models::EmOptions;
use goggles_serve::{
    FittedLabeler, LabelService, Labeler, RemoteLabeler, ServeConfig, SnapshotRegistry, WireServer,
};
use goggles_vision::Image;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Training images per class of the serving model (N = 48).
const SERVE_TRAIN_PER_CLASS: usize = 24;
/// Held-out query images per class the serving workload draws from.
const POOL_PER_CLASS: usize = 32;
/// Prototypes per layer (Z = 6, α = 30).
const TOP_Z: usize = 6;
/// Client connections of `serve-saturated`, one client thread each.
const SATURATED_CONNECTIONS: usize = 2;
/// Requests in flight per connection in `serve-saturated`: two batches of
/// `max_batch` over both connections, one in service and one queued, so
/// the queue never drains, batches fill, and every request waits out the
/// batch ahead of it and then its own.
const SATURATED_WINDOW: usize = 8;
/// Training images per class of each `label-dataset` task (N = 512), so
/// the stacked f32 prototype bank (2.3 MiB) outgrows a 2 MiB per-core L2.
const DATASET_TRAIN_PER_CLASS: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Windows a timed serving phase is cut into for `label_p99_ms`, the
/// lowest window p99: 10 s windows of a 40 s run hold about 3000 answers
/// (30 beyond p99) at 300 img/s, and still 10 beyond at 100 img/s.
const P99_WINDOWS: usize = 4;
/// Windows a timed serving phase is cut into for `label_throughput_ips`,
/// the median window's rate: 5 s each in a 40 s run.
const RATE_WINDOWS: usize = 8;

/// Latency limits of `slo_share`, fixed once from the runs at the commit
/// that introduced the benchmark. Serving: between the pooled p95 (65–101
/// ms over five seeds) and the pooled p99 (71–112 ms). Label-dataset, whose handful of calls a run
/// make the share move in steps of 1/7: above the slowest call of ten runs
/// (6.8 s; 6.2 s median).
const SATURATED_LIMIT_MS: f64 = 100.0;
const DATASET_LIMIT_MS: f64 = 7000.0;

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSaturated,
    LabelDataset,
}

impl Workload {
    /// Parse a `BENCHMARK.json` workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "serve-saturated" => Workload::ServeSaturated,
            "label-dataset" => Workload::LabelDataset,
            _ => return None,
        })
    }
}

/// What a run reports.
pub struct RunReport {
    /// Metric values.
    pub metrics: Metrics,
    /// Outcome counts over every checked operation.
    pub tally: Tally,
    /// Facts for the run record (sample counts, limits).
    pub notes: Vec<(String, String)>,
}

/// The standard-scale pipeline configuration: 64×64 input, full backbone,
/// Z = 6 (α = 30), two EM restarts.
fn goggles_config(seed: u64) -> GogglesConfig {
    GogglesConfig {
        top_z: TOP_Z,
        em: EmOptions { restarts: 2, ..EmOptions::default() },
        seed,
        ..GogglesConfig::default()
    }
}

/// The serving configuration: batches of up to 8 and a 2 ms linger, as
/// `goggles-served` has them, but one worker whose batch fans out over
/// every core (`embed_threads` = nproc) instead of two workers of one
/// thread each. Two workers racing for two cores settle into queueing
/// patterns that moved throughput by ±13 % between 2 s windows of one run
/// (±5 % with one worker), and their one-thread batches never take the
/// `m ≥ threads` fan-out branch. Tracing keeps the service's trace ring;
/// untraced runs switch it off.
fn serve_config(tracing: bool) -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        batch_timeout: Duration::from_millis(2),
        trace_capacity: if tracing { 256 } else { 0 },
        ..ServeConfig::with_workers(1)
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `workload` for `seconds` (traced: per-layer metrics instead).
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunReport {
    match workload {
        Workload::ServeSaturated => run_serving(seed, seconds, trace),
        Workload::LabelDataset => run_label_dataset(seed, seconds, trace),
    }
}

// ---------------------------------------------------------------------
// serve-saturated
// ---------------------------------------------------------------------

/// Everything the serving workload generates from the seed.
struct ServeInputs {
    config: GogglesConfig,
    dataset: Dataset,
    dev: DevSet,
    pool: Vec<Arc<Image>>,
    truth: Vec<usize>,
}

fn serve_inputs(seed: u64) -> ServeInputs {
    let kind = TaskKind::Cub { class_a: 0, class_b: 1 };
    let dataset = generate(&TaskConfig::new(kind, SERVE_TRAIN_PER_CLASS, POOL_PER_CLASS, seed));
    let dev = dataset.sample_dev_set(5, seed);
    let pool = dataset.test_images().into_iter().map(|img| Arc::new(img.clone())).collect();
    let truth = dataset.test_labels();
    ServeInputs { config: goggles_config(seed), dataset, dev, pool, truth }
}

/// A running stack: fitted model, registry, service, wire front and the
/// client connections.
struct Stack {
    registry: Arc<SnapshotRegistry>,
    service: Arc<LabelService>,
    server: WireServer,
    clients: Vec<RemoteLabeler>,
    serve: ServeConfig,
}

impl Stack {
    /// Fit, freeze, spawn, bind, connect, and warm up with one pipelined
    /// pass over the pool.
    fn start(inputs: &ServeInputs, tracing: bool) -> Stack {
        let serve = serve_config(tracing);
        let (labeler, _) =
            FittedLabeler::fit(&inputs.config, &inputs.dataset, &inputs.dev).expect("fit");
        let registry = Arc::new(SnapshotRegistry::new(labeler).expect("fitted labeler registers"));
        let service =
            Arc::new(LabelService::spawn_with_registry(Arc::clone(&registry), serve.clone()));
        let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service), SATURATED_CONNECTIONS)
            .expect("bind loopback");
        let clients: Vec<RemoteLabeler> = (0..SATURATED_CONNECTIONS)
            .map(|_| RemoteLabeler::connect(server.local_addr()).expect("connect loopback"))
            .collect();
        let warm: Vec<&Image> = inputs.pool.iter().map(|a| a.as_ref()).collect();
        clients[0].label_all(&warm).expect("warm-up labels");
        Stack { registry, service, server, clients, serve }
    }

    /// Tear down in dependency order and join every thread.
    fn stop(self) {
        let Stack { registry, service, mut server, clients, .. } = self;
        drop(clients);
        server.shutdown();
        drop(service);
        drop(registry);
    }
}

/// Set up [`SETUPS`] times; keep the last stack, report the median.
fn timed_setups(inputs: &ServeInputs) -> (Stack, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            Stack::stop(old);
        }
        let t = Instant::now();
        kept = Some(Stack::start(inputs, false));
        times.push(seconds_since(t));
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

/// What one timed serving phase produced.
struct ServePhase {
    start: Instant,
    samples: Vec<LabelSample>,
    seconds: f64,
    versions: HashMap<u64, Arc<FittedLabeler>>,
}

/// Run the closed loop against `stack`. With `scrape`, the monitor also
/// renders the service's metrics every 100 ms, as an operator would.
fn serve_phase(
    inputs: &ServeInputs,
    stack: &Stack,
    seed: u64,
    seconds: f64,
    scrape: bool,
) -> ServePhase {
    let current = stack.registry.get();
    let versions = HashMap::from([(current.version(), Arc::clone(current.labeler()))]);
    let mut last_scrape = Instant::now();
    let mut tick = || {
        std::thread::sleep(Duration::from_millis(5));
        if scrape && last_scrape.elapsed() >= Duration::from_millis(100) {
            std::hint::black_box(stack.service.render_metrics());
            last_scrape = Instant::now();
        }
    };
    let targets: Vec<&(dyn Labeler + Sync)> =
        stack.clients.iter().map(|c| c as &(dyn Labeler + Sync)).collect();
    let start = Instant::now();
    let samples =
        loadgen::closed_loop(&targets, &inputs.pool, SATURATED_WINDOW, seconds, seed, &mut tick);
    let end = samples.iter().map(|s| s.done).max().unwrap_or(start);
    let seconds = end.duration_since(start).as_secs_f64().max(seconds);
    ServePhase { start, samples, seconds, versions }
}

/// The served answers of a phase, each checked bit for bit against
/// `label_one` of the registry version that answered it.
struct Verified {
    tally: Tally,
    /// `(send offset s, latency ms)` of every verified answer.
    latencies: Vec<(f64, f64)>,
    correct_labels: usize,
    batch_sizes: Vec<usize>,
}

fn verify(phase: &ServePhase, inputs: &ServeInputs) -> Verified {
    let mut reference = layers::Reference::new(&phase.versions, &inputs.pool);
    let mut out = Verified {
        tally: Tally::default(),
        latencies: Vec::new(),
        correct_labels: 0,
        batch_sizes: Vec::new(),
    };
    for s in &phase.samples {
        let latency = s.latency_ms();
        let outcome = reference.outcome(s.pool_idx, &s.reply);
        if let (Outcome::Verified, Ok(r)) = (outcome, &s.reply) {
            let offset = s.sent.duration_since(phase.start).as_secs_f64();
            out.latencies.push((offset, latency));
            out.batch_sizes.push(r.batch_size);
            if r.label == inputs.truth[s.pool_idx] {
                out.correct_labels += 1;
            }
        }
        out.tally.record(outcome, latency, SATURATED_LIMIT_MS);
    }
    out
}

impl Verified {
    /// Latencies, ascending.
    fn sorted_ms(&self) -> Vec<f64> {
        stats::sorted(&self.latencies.iter().map(|l| l.1).collect::<Vec<_>>())
    }
}

fn run_serving(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let inputs = serve_inputs(seed);
    let mut m = Metrics::default();
    let mut notes = vec![("slo_limit_ms".to_string(), SATURATED_LIMIT_MS.to_string())];
    if !trace {
        let (stack, setup_s) = timed_setups(&inputs);
        let phase = serve_phase(&inputs, &stack, seed, seconds, false);
        Stack::stop(stack);
        let v = verify(&phase, &inputs);
        let sorted = v.sorted_ms();
        let (p99, p99_n) = stats::lowest_window_quantile(&v.latencies, seconds, P99_WINDOWS, 0.99);
        m.set("setup_s", setup_s);
        m.set("label_p50_ms", stats::percentile(&sorted, 0.5));
        m.set("label_p99_ms", p99);
        let done: Vec<f64> = v.latencies.iter().map(|&(sent, ms)| sent + 1e-3 * ms).collect();
        m.set("label_throughput_ips", stats::median_window_rate(&done, seconds, RATE_WINDOWS));
        m.set("slo_share", v.tally.slo_share());
        m.set("label_accuracy", v.correct_labels as f64 / v.tally.verified.max(1) as f64);
        m.set("peak_rss_mb", host::peak_rss_mb());
        notes.push(("p99_windows".into(), P99_WINDOWS.to_string()));
        tail_notes(&sorted, p99_n, &mut notes);
        let sizes: Vec<f64> = v.batch_sizes.iter().map(|&b| b as f64).collect();
        notes.push(("batch_size_mean".into(), stats::mean(&sizes).to_string()));
        return RunReport { metrics: m, tally: v.tally, notes };
    }

    // Traced run: the same load untraced, then traced, each for half the
    // run; then the per-layer replay on the same model and images.
    let half = seconds / 2.0;
    let stack = Stack::start(&inputs, false);
    let untraced = serve_phase(&inputs, &stack, seed, half, false);
    Stack::stop(stack);
    let stack = Stack::start(&inputs, true);
    let traced = serve_phase(&inputs, &stack, seed, half, true);
    let labeler = Arc::clone(stack.registry.get_version(1).expect("version 1 is kept").labeler());
    let serve = stack.serve.clone();
    Stack::stop(stack);
    let mut tally = Tally::default();
    let v_untraced = verify(&untraced, &inputs);
    let v_traced = verify(&traced, &inputs);
    tally.merge(&v_untraced.tally);
    tally.merge(&v_traced.tally);
    let p50 = |v: &Verified| stats::percentile(&v.sorted_ms(), 0.5);
    let untraced_p50 = p50(&v_untraced);
    m.set("obs.overhead_pct", 100.0 * (p50(&v_traced) - untraced_p50) / untraced_p50);
    layers::loadgen_metrics(&traced.samples, traced.seconds, &mut m);

    let layer_inputs = LayerInputs {
        config: &inputs.config,
        serve: &serve,
        labeler: &labeler,
        dataset: &inputs.dataset,
        dev: &inputs.dev,
        pool: &inputs.pool,
    };
    let label_loop = (SATURATED_CONNECTIONS, SATURATED_WINDOW);
    let (replay, _) = replay_common(&layer_inputs, label_loop, half, seed, &mut m, &mut tally);

    // Blocking path of one request at the dominant batch size: wire codec
    // both ways, queue wait, embed, affinity, fold-in and mapping.
    let batch = stats::mode(&v_untraced.batch_sizes).max(1);
    let get = |name: &str| m.get(name).expect("replayed above");
    let (embed_ms, affinity_ms) = if batch == 1 {
        (get("core.prototypes.embed_1_ms"), get("core.affinity.row_1_ms"))
    } else {
        let full = serve.max_batch as f64;
        (
            get("core.prototypes.embed_batch_ms_per_image") * batch as f64,
            get("core.affinity.rows_batch_ms") * batch as f64 / full,
        )
    };
    let path = [
        1e-3 * get("serve.wire.request_encode_us"),
        1e-3 * get("serve.wire.request_decode_us"),
        replay.queue_wait_p50_ms,
        embed_ms,
        affinity_ms,
        1e-3 * get("core.hierarchical.fold_in_us"),
        1e-3 * get("core.mapping.apply_us"),
        1e-3 * get("serve.wire.reply_encode_us"),
        1e-3 * get("serve.wire.reply_decode_us"),
    ];
    m.set("unattributed_ms", stats::unattributed_ms(untraced_p50, &path));
    notes.push(("dominant_batch_size".into(), batch.to_string()));
    RunReport { metrics: m, tally, notes }
}

/// Record the sample counts behind the percentiles — `p99_n` is the count
/// the p99 was taken over — and the pooled p90/p95/p99 the latency limits
/// were fixed from.
fn tail_notes(sorted_ms: &[f64], p99_n: usize, notes: &mut Vec<(String, String)>) {
    notes.push(("label_samples".into(), sorted_ms.len().to_string()));
    notes.push(("p99_samples".into(), p99_n.to_string()));
    notes.push(("p99_samples_beyond".into(), stats::samples_beyond(p99_n, 0.99).to_string()));
    notes.push(("p99_supported".into(), stats::supports(p99_n, 0.99).to_string()));
    notes.push(("label_p90_ms".into(), stats::percentile(sorted_ms, 0.9).to_string()));
    notes.push(("label_p95_ms".into(), stats::percentile(sorted_ms, 0.95).to_string()));
    notes.push(("label_p99_pooled_ms".into(), stats::percentile(sorted_ms, 0.99).to_string()));
}

/// The replays every traced run makes: recomposed-path check, wire codecs,
/// the in-process service replay of a label loop, every layer, and the
/// live trainer. Also returns the label-dataset blocking path in ms.
fn replay_common(
    inputs: &LayerInputs,
    label_loop: (usize, usize),
    seconds: f64,
    seed: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (layers::ServiceReplay, f64) {
    layers::check_recomposed_path(inputs, tally);
    layers::wire_codecs(inputs, m);
    let batch_ms = layers::label_batch_ms_by_size(inputs);
    let replay = layers::replay_service(inputs, label_loop, seconds, seed, &batch_ms, m);
    tally.merge(&replay.checks);
    let path_ms = layers::replay_layers(inputs, m);
    layers::replay_trainer(inputs, m);
    (replay, path_ms)
}

// ---------------------------------------------------------------------
// label-dataset
// ---------------------------------------------------------------------

/// The five paper tasks at N = 512, images from the seed. Class pairs are
/// fixed so that only the images change between seeds.
fn dataset_tasks(seed: u64, per_class: usize, test_per_class: usize) -> Vec<(Dataset, DevSet)> {
    let (ca, cb) = cub::class_pairs(1, 0xC0B)[0];
    let (ga, gb) = gtsrb::class_pairs(1, 0x675)[0];
    [
        TaskKind::Cub { class_a: ca, class_b: cb },
        TaskKind::Gtsrb { class_a: ga, class_b: gb },
        TaskKind::Surface,
        TaskKind::TbXray,
        TaskKind::PnXray,
    ]
    .into_iter()
    .map(|kind| {
        let ds = generate(&TaskConfig::new(kind, per_class, test_per_class, seed));
        let dev = ds.sample_dev_set(5, seed);
        (ds, dev)
    })
    .collect()
}

/// One `label_dataset` call.
struct Call {
    task: usize,
    ms: f64,
    images: usize,
    outcome: Outcome,
    /// Accuracy excluding dev rows (the paper's Table 1 metric).
    accuracy: f64,
}

/// Calls over the tasks in turn: one whole round, then more calls while at
/// least half of a mean call still fits in `seconds`. Every result must
/// have finite probabilities whose rows sum to 1 ± 1e-9, and repeat the
/// task's first result bit for bit.
fn dataset_phase(
    goggles: &Goggles,
    tasks: &[(Dataset, DevSet)],
    reference: &mut [Option<Vec<u64>>],
    seconds: f64,
) -> Vec<Call> {
    let start = Instant::now();
    let mut calls = Vec::new();
    for (i, (ds, dev)) in tasks.iter().enumerate().cycle() {
        let elapsed = seconds_since(start);
        if calls.len() >= tasks.len() && elapsed + 0.5 * elapsed / calls.len() as f64 >= seconds {
            break;
        }
        let t = Instant::now();
        let result = goggles.label_dataset(ds, dev);
        let ms = 1e3 * seconds_since(t);
        let mut accuracy = 0.0;
        let outcome = match result {
            Ok(r) => {
                accuracy = r.accuracy_excluding_dev(ds, dev);
                let probs = &r.labels.probs;
                let stochastic = (0..probs.rows()).all(|row| {
                    let p = probs.row(row);
                    p.iter().all(|v| v.is_finite()) && (p.iter().sum::<f64>() - 1.0).abs() <= 1e-9
                });
                let bits: Vec<u64> = probs.as_slice().iter().map(|v| v.to_bits()).collect();
                let same = match &reference[i] {
                    Some(first) => *first == bits,
                    None => {
                        reference[i] = Some(bits);
                        true
                    }
                };
                if stochastic && same {
                    Outcome::Verified
                } else {
                    Outcome::Mismatch
                }
            }
            Err(_) => Outcome::Error,
        };
        calls.push(Call { task: i, ms, images: ds.train_indices.len(), outcome, accuracy });
    }
    calls
}

fn tally_calls(calls: &[Call]) -> Tally {
    let mut t = Tally::default();
    for c in calls {
        t.record(c.outcome, c.ms, DATASET_LIMIT_MS);
    }
    t
}

fn run_label_dataset(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let config = goggles_config(seed);
    let tasks = dataset_tasks(seed, DATASET_TRAIN_PER_CLASS, 8);
    let warm = dataset_tasks(seed ^ 0x3A2A, 16, 0).swap_remove(0);
    let mut m = Metrics::default();
    let mut notes = vec![("slo_limit_ms".to_string(), DATASET_LIMIT_MS.to_string())];
    let mut reference = vec![None; tasks.len()];

    // Set-up: build the system and label a small warm-up task.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut goggles = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let g = Goggles::new(config.clone());
        g.label_dataset(&warm.0, &warm.1).expect("warm-up labeling");
        setups.push(seconds_since(t));
        goggles = Some(g);
    }
    let goggles = goggles.expect("at least one set-up");

    // The traced run times the calls over half the run and spends the
    // other half in the single-image service replay below.
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let calls = dataset_phase(&goggles, &tasks, &mut reference, phase_s);
    let tally = tally_calls(&calls);
    let verified: Vec<&Call> = calls.iter().filter(|c| c.outcome == Outcome::Verified).collect();
    let times = stats::sorted(&verified.iter().map(|c| c.ms).collect::<Vec<_>>());
    let busy_s = times.iter().sum::<f64>() / 1e3;
    let ips = verified.iter().map(|c| c.images).sum::<usize>() as f64 / busy_s;
    // The median over tasks of each task's median call, so that the tasks
    // a run happens to repeat do not move it.
    let per_task: Vec<f64> = (0..tasks.len())
        .map(|t| {
            stats::median(
                &verified.iter().filter(|c| c.task == t).map(|c| c.ms).collect::<Vec<_>>(),
            )
        })
        .collect();
    let call_ms = stats::median(&per_task);
    if !trace {
        let accuracy: Vec<f64> = calls.iter().take(tasks.len()).map(|c| c.accuracy).collect();
        m.set("setup_s", stats::median(&setups));
        m.set("label_p50_ms", call_ms);
        // A run holds a few calls, so this is its slowest call.
        m.set("label_p99_ms", stats::percentile(&times, 0.99));
        m.set("label_throughput_ips", ips);
        m.set("slo_share", tally.slo_share());
        m.set("label_accuracy", stats::mean(&accuracy));
        m.set("peak_rss_mb", host::peak_rss_mb());
        tail_notes(&times, times.len(), &mut notes);
        return RunReport { metrics: m, tally, notes };
    }
    let mut tally = tally;
    // A closed loop: offered equals achieved.
    m.set("loadgen.offered_ips", ips);
    m.set("loadgen.achieved_ips", ips);
    // The pipeline has no trace switch; what tracing adds is an operator
    // scraping the process registry. Its share is one scrape per call.
    let scrape_s =
        layers::time_median(20, || drop(std::hint::black_box(goggles_obs::global().render())));
    m.set("obs.overhead_pct", 100.0 * 1e3 * scrape_s / call_ms);

    // Per-layer replay on the first task's corpus, with a model fitted on
    // it. The service replay sends one image at a time, so every batch
    // holds one image: the per-request serving path on this corpus.
    let (ds, dev) = &tasks[0];
    let (labeler, _) = FittedLabeler::fit(&config, ds, dev).expect("fit");
    let pool: Vec<Arc<Image>> = ds.test_images().into_iter().map(|i| Arc::new(i.clone())).collect();
    let serve = serve_config(true);
    let layer_inputs = LayerInputs {
        config: &config,
        serve: &serve,
        labeler: &labeler,
        dataset: ds,
        dev,
        pool: &pool,
    };
    let (_, path_ms) = replay_common(&layer_inputs, (1, 1), phase_s, seed, &mut m, &mut tally);
    // The residual compares like with like: the first task's own calls.
    let first: Vec<f64> = calls.iter().filter(|c| c.task == 0).map(|c| c.ms).collect();
    m.set("unattributed_ms", stats::unattributed_ms(stats::median(&first), &[path_ms]));
    RunReport { metrics: m, tally, notes }
}
