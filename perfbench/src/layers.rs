//! The traced run's per-layer replay: times calls into each layer's public
//! functions on the workload's own model and images, from outside the
//! program. Nothing here changes what the program computes; the
//! recomposed-path check proves the replayed calls are the ones serving
//! makes.

use crate::loadgen::{self, LabelSample};
use crate::report::{Metrics, CONVS, TAPS};
use crate::stats::{self, Outcome, Tally};
use goggles_cnn::{ConvScratch, VggConfig};
use goggles_core::hierarchical::{fold_in_rows, HierarchicalModel, HierarchicalOptions};
use goggles_core::mapping::{apply_mapping, map_clusters_via_dev_set};
use goggles_core::prototypes::{embed_from_taps, embed_images, embed_images_with};
use goggles_core::{AffinityMatrix, EmbedScratch, Goggles, GogglesConfig};
use goggles_datasets::{Dataset, DevSet};
use goggles_models::{BernoulliMixture, DiagonalGmm, EmOptions};
use goggles_serve::wire::{self, Opcode};
use goggles_serve::{
    FittedLabeler, LabelResponse, LabelService, Labeler, RemoteLabeler, ServeConfig, ServeError,
    ServerOptions, SnapshotRegistry, WireServer,
};
use goggles_tensor::{
    colmax_matmul_panel_f32, gemm_bias_relu_f32, gemm_call_count, gemm_flop_count, im2col_3x3,
    ColmaxPanel, ColmaxScratch, GemmScratch, Matrix,
};
use goggles_trainer::{Trainer, TrainerConfig};
use goggles_vision::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Everything the replay needs from a workload.
pub struct LayerInputs<'a> {
    /// The pipeline configuration the workload's model was fitted with.
    pub config: &'a GogglesConfig,
    /// The serving configuration of the workload's service.
    pub serve: &'a ServeConfig,
    /// The fitted model (registry version 1).
    pub labeler: &'a FittedLabeler,
    /// The training corpus the model was fitted on.
    pub dataset: &'a Dataset,
    /// Its development set (global indices).
    pub dev: &'a DevSet,
    /// The query images the workload sent.
    pub pool: &'a [Arc<Image>],
}

impl LayerInputs<'_> {
    fn dev_rows(&self) -> DevSet {
        let indices = self
            .dev
            .indices
            .iter()
            .map(|&g| {
                self.dataset.train_indices.iter().position(|&t| t == g).expect("dev in training")
            })
            .collect();
        DevSet { indices, labels: self.dev.labels.clone() }
    }

    fn hierarchical_options(&self) -> HierarchicalOptions {
        HierarchicalOptions {
            num_classes: self.config.num_classes,
            em: self.config.em,
            one_hot: self.config.one_hot,
            threads: self.config.threads,
            seed: self.config.seed,
        }
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A label and its probability row.
type Answer = (usize, Vec<f64>);

/// Reference answers for served labels: `label_one` of the registry
/// version that answered, per pool image, computed once each.
pub struct Reference<'a> {
    versions: &'a HashMap<u64, Arc<FittedLabeler>>,
    pool: &'a [Arc<Image>],
    cache: HashMap<(u64, usize), Option<Answer>>,
}

impl<'a> Reference<'a> {
    /// References for answers from `versions` to images of `pool`.
    pub fn new(versions: &'a HashMap<u64, Arc<FittedLabeler>>, pool: &'a [Arc<Image>]) -> Self {
        Self { versions, pool, cache: HashMap::new() }
    }

    /// How a request for pool image `idx` ended: verified only when the
    /// label and every probability bit match the reference; a reply from
    /// an unknown version is a mismatch.
    pub fn outcome(&mut self, idx: usize, reply: &Result<LabelResponse, ServeError>) -> Outcome {
        match reply {
            Ok(r) => {
                let (versions, pool) = (self.versions, self.pool);
                let want = self
                    .cache
                    .entry((r.version, idx))
                    .or_insert_with(|| versions.get(&r.version).map(|l| l.label_one(&pool[idx])));
                match want {
                    Some((label, probs)) if *label == r.label && bits_equal(probs, &r.probs) => {
                        Outcome::Verified
                    }
                    _ => Outcome::Mismatch,
                }
            }
            Err(ServeError::Overloaded | ServeError::Deadline) => Outcome::Refused,
            Err(_) => Outcome::Error,
        }
    }
}

/// The recomposed serving path — embed → `affinity_rows` → `fold_in_rows` →
/// `apply_mapping`, called layer by layer — must reproduce `label_one` bit
/// for bit on every pool image.
pub fn check_recomposed_path(inputs: &LayerInputs, checks: &mut Tally) {
    let goggles = Goggles::new(inputs.config.clone());
    let frozen = inputs.labeler.frozen_model();
    let mut scratch = EmbedScratch::new();
    for img in inputs.pool {
        let emb = embed_images_with(
            goggles.backbone(),
            &mut scratch,
            &[img.as_ref()],
            inputs.config.top_z,
            1,
            inputs.config.center_patches,
        );
        let rows = inputs.labeler.bank().affinity_rows(&emb, 1);
        let clusters = fold_in_rows(&frozen.base_models, &frozen.ensemble, frozen.one_hot, &rows);
        let probs = apply_mapping(&clusters, inputs.labeler.mapping());
        let (label, expected) = inputs.labeler.label_one(img);
        let same =
            goggles_tensor::argmax(probs.row(0)) == label && bits_equal(probs.row(0), &expected);
        checks.record(if same { Outcome::Verified } else { Outcome::Mismatch }, 0.0, 0.0);
    }
}

/// Median `label_batch` time (ms) at each batch size `1..=max_batch`, with
/// the service's per-batch thread budget.
pub fn label_batch_ms_by_size(inputs: &LayerInputs) -> Vec<f64> {
    let refs: Vec<&Image> = inputs.pool.iter().map(|a| a.as_ref()).collect();
    (1..=inputs.serve.max_batch)
        .map(|m| {
            let batch: Vec<&Image> = refs.iter().cycle().take(m).copied().collect();
            1e3 * time_median(3, || {
                black_box(inputs.labeler.label_batch(&batch, inputs.serve.embed_threads));
            })
        })
        .collect()
}

/// Wire codec costs on the workload's own images.
pub fn wire_codecs(inputs: &LayerInputs, m: &mut Metrics) {
    let reps = 5;
    let (mut enc, mut dec, mut ingest_dec, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (id, img) in inputs.pool.iter().enumerate() {
        let id = id as u64;
        enc.push(time_median(reps, || {
            black_box(wire::encode_frame(
                Opcode::LabelRequest,
                id,
                &wire::encode_label_request(img, 0),
            ));
        }));
        let frame =
            wire::encode_frame(Opcode::LabelRequest, id, &wire::encode_label_request(img, 0));
        bytes.push(frame.len() as f64);
        dec.push(time_median(reps, || {
            let (f, _) = wire::decode_frame(&frame).expect("own frame decodes");
            black_box(wire::decode_label_request(&f.payload).expect("own request decodes"));
        }));
        let ingest = wire::encode_frame(Opcode::Ingest, id, &wire::encode_ingest_request(img));
        ingest_dec.push(time_median(reps, || {
            let (f, _) = wire::decode_frame(&ingest).expect("own frame decodes");
            black_box(wire::decode_ingest_request(&f.payload).expect("own ingest decodes"));
        }));
    }
    let (label, probs) = inputs.labeler.label_one(&inputs.pool[0]);
    let resp = LabelResponse { label, probs, batch_size: 1, version: 1 };
    let reply_enc = time_median(200, || {
        black_box(wire::encode_frame(Opcode::LabelReply, 1, &wire::encode_label_reply(&resp)));
    });
    let reply = wire::encode_frame(Opcode::LabelReply, 1, &wire::encode_label_reply(&resp));
    let reply_dec = time_median(200, || {
        let (f, _) = wire::decode_frame(&reply).expect("own frame decodes");
        black_box(wire::decode_label_reply(&f.payload).expect("own reply decodes"));
    });
    m.set("serve.wire.request_encode_us", 1e6 * stats::median(&enc));
    m.set("serve.wire.request_decode_us", 1e6 * stats::median(&dec));
    m.set("serve.wire.reply_encode_us", 1e6 * reply_enc);
    m.set("serve.wire.reply_decode_us", 1e6 * reply_dec);
    m.set("serve.wire.ingest_decode_us", 1e6 * stats::median(&ingest_dec));
    m.set("serve.wire.request_bytes", stats::mean(&bytes));
}

/// Snapshot, registry, backbone, kernel, prototype, affinity, hierarchical,
/// mapping, model and trainer-step replays. Returns the label-dataset
/// blocking path (corpus embed, matrix, fit, map, apply) in ms.
pub fn replay_layers(inputs: &LayerInputs, m: &mut Metrics) -> f64 {
    let config = inputs.config;
    let labeler = inputs.labeler;
    let goggles = Goggles::new(config.clone());
    let net = goggles.backbone();
    let refs: Vec<&Image> = inputs.pool.iter().map(|a| a.as_ref()).collect();
    let max_batch = inputs.serve.max_batch;
    let threads = inputs.serve.embed_threads;
    let full: Vec<&Image> = refs.iter().cycle().take(max_batch).copied().collect();
    let (z, center) = (config.top_z, config.center_patches);

    // serve.snapshot / serve.registry
    m.set(
        "serve.snapshot.label_batch_1_ms",
        1e3 * stats::median(
            &refs
                .iter()
                .map(|img| time_median(1, || drop(black_box(labeler.label_batch(&[img], threads)))))
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "serve.snapshot.label_batch_full_ms",
        1e3 * time_median(5, || drop(black_box(labeler.label_batch(&full, threads)))),
    );
    let bytes = labeler.save();
    m.set("serve.snapshot.save_ms", 1e3 * time_median(5, || drop(black_box(labeler.save()))));
    m.set(
        "serve.snapshot.load_ms",
        1e3 * time_median(5, || {
            drop(black_box(FittedLabeler::load(&bytes).expect("own snapshot")))
        }),
    );
    let registry = SnapshotRegistry::new(labeler.clone()).expect("fitted labeler registers");
    m.set("serve.registry.get_us", 1e6 * time_median(1000, || drop(black_box(registry.get()))));
    let publish: Vec<f64> = (0..5)
        .map(|_| {
            let candidate = labeler.clone();
            let t = Instant::now();
            registry.publish(candidate).expect("fitted labeler publishes");
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.set("serve.registry.publish_us", 1e6 * stats::median(&publish));
    drop(registry);

    // cnn.vgg and the GEMM counters
    let mut conv = ConvScratch::new();
    let _ = net.forward_pool_taps_into(&mut conv, refs[0]);
    let (calls0, flops0) = (gemm_call_count(), gemm_flop_count());
    let taps = net.forward_pool_taps_into(&mut conv, refs[0]);
    let (calls, flops) = (gemm_call_count() - calls0, gemm_flop_count() - flops0);
    let forward = stats::median(
        &refs
            .iter()
            .map(|img| {
                time_median(1, || drop(black_box(net.forward_pool_taps_into(&mut conv, img))))
            })
            .collect::<Vec<_>>(),
    );
    m.set("cnn.vgg.forward_taps_ms", 1e3 * forward);
    m.set("cnn.vgg.gflops", net.forward_flops_per_image() as f64 / forward / 1e9);
    m.set("tensor.gemm.calls_per_image", calls as f64);
    m.set("tensor.gemm.flops_per_image", flops as f64);

    // tensor: per-conv im2col and GEMM on synthetic operands of the
    // backbone's exact shapes, and per-tap colmax against the real bank.
    replay_convs(&config.vgg, m);
    let query = embed_from_taps(&taps, z, center);
    let bank = labeler.bank();
    let mut colmax_bytes = 0usize;
    let mut scratch = ColmaxScratch::default();
    for (l, tap) in TAPS.iter().enumerate() {
        let protos = &bank.stacked[l];
        let panel = ColmaxPanel::new(protos.as_slice(), protos.cols());
        let patches = query.layers[l].patches.as_slice();
        let mut out = vec![0.0f32; protos.rows()];
        let t = time_median(20, || {
            colmax_matmul_panel_f32(&mut scratch, patches, protos.as_slice(), &panel, 0, &mut out);
            black_box(&out);
        });
        m.set(format!("tensor.colmax.{tap}_us"), 1e6 * t);
        colmax_bytes += 4 * (patches.len() + protos.as_slice().len() + protos.rows());
    }
    m.set("tensor.colmax.bytes_per_row", colmax_bytes as f64);

    // core.prototypes
    let mut embed_scratch = EmbedScratch::new();
    m.set(
        "core.prototypes.embed_1_ms",
        1e3 * stats::median(
            &refs
                .iter()
                .map(|img| {
                    time_median(1, || {
                        black_box(embed_images_with(net, &mut embed_scratch, &[img], z, 1, center));
                    })
                })
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "core.prototypes.embed_batch_ms_per_image",
        1e3 * time_median(3, || {
            black_box(embed_images_with(net, &mut embed_scratch, &full, z, threads, center));
        }) / max_batch as f64,
    );
    m.set(
        "core.prototypes.top_z_us",
        1e6 * time_median(50, || drop(black_box(embed_from_taps(&taps, z, center)))),
    );
    let train = inputs.dataset.train_images();
    let t = Instant::now();
    let train_emb = embed_images(net, &train, z, config.threads, center);
    let embed_corpus_ms = 1e3 * t.elapsed().as_secs_f64();
    m.set("core.prototypes.embed_corpus_ms", embed_corpus_ms);

    // core.affinity
    let one = vec![query.clone()];
    let batch_emb = embed_images(net, &full, z, threads, center);
    m.set(
        "core.affinity.row_1_ms",
        1e3 * time_median(20, || drop(black_box(bank.affinity_rows(&one, threads)))),
    );
    m.set(
        "core.affinity.rows_batch_ms",
        1e3 * time_median(5, || drop(black_box(bank.affinity_rows(&batch_emb, threads)))),
    );
    let t = Instant::now();
    let affinity = AffinityMatrix::build(&train_emb, config.threads);
    let matrix_ms = 1e3 * t.elapsed().as_secs_f64();
    m.set("core.affinity.matrix_ms", matrix_ms);

    // core.hierarchical and core.mapping
    let frozen = labeler.frozen_model();
    let row = bank.affinity_rows(&one, 1);
    m.set(
        "core.hierarchical.fold_in_us",
        1e6 * time_median(50, || {
            black_box(fold_in_rows(&frozen.base_models, &frozen.ensemble, frozen.one_hot, &row));
        }),
    );
    let opts = inputs.hierarchical_options();
    let t = Instant::now();
    let fitted = HierarchicalModel::fit(&affinity, &opts).expect("hierarchical fit");
    let fit_ms = 1e3 * t.elapsed().as_secs_f64();
    m.set("core.hierarchical.fit_ms", fit_ms);
    let iterations: usize = fitted.base_models.iter().map(|g| g.stats.iterations).sum::<usize>()
        + fitted.ensemble.stats.iterations;
    m.set("core.hierarchical.em_iterations", iterations as f64);
    m.set(
        "core.hierarchical.refit_warm_ms",
        1e3 * time_median(1, || {
            black_box(
                HierarchicalModel::refit_warm(&affinity, &fitted, &opts).expect("warm refit"),
            );
        }),
    );
    let dev_rows = inputs.dev_rows();
    let map_s = time_median(50, || {
        drop(black_box(map_clusters_via_dev_set(&fitted.responsibilities, &dev_rows)))
    });
    let mapping = map_clusters_via_dev_set(&fitted.responsibilities, &dev_rows);
    let apply_s =
        time_median(50, || drop(black_box(apply_mapping(&fitted.responsibilities, &mapping))));
    m.set("core.mapping.map_us", 1e6 * map_s);
    m.set("core.mapping.apply_us", 1e6 * apply_s);

    // models: one base fit per affinity function, the ensemble fit, and a
    // single-row posterior.
    let k = config.num_classes;
    let gmm_fits: Vec<f64> = (0..affinity.alpha)
        .map(|f| {
            let block = affinity.function_block(f);
            time_median(1, || {
                black_box(
                    DiagonalGmm::fit(&block, k, &config.em, config.seed ^ f as u64)
                        .expect("gmm fit"),
                );
            })
        })
        .collect();
    m.set("models.gmm_diag.fit_ms", 1e3 * stats::median(&gmm_fits));
    let ensemble_em = EmOptions { restarts: config.em.restarts.max(5), ..config.em };
    m.set(
        "models.bernoulli.fit_ms",
        1e3 * time_median(3, || {
            black_box(
                BernoulliMixture::fit(&fitted.ensemble_input, k, &ensemble_em, config.seed)
                    .expect("ensemble fit"),
            );
        }),
    );
    let n = bank.n;
    let block_row = row.col_block(0, n);
    m.set(
        "models.gmm_diag.predict_us",
        1e6 * time_median(200, || drop(black_box(frozen.base_models[0].predict_proba(&block_row)))),
    );

    // trainer steps: append rows for one min_batch, then refit the grown
    // matrix from the fitted model.
    let trainer = TrainerConfig::default();
    let new_imgs: Vec<&Image> = refs.iter().cycle().take(trainer.min_batch).copied().collect();
    let t = Instant::now();
    let appended = labeler.affinity_rows_for(&new_imgs, trainer.embed_threads);
    m.set("trainer.append_rows_ms", 1e3 * t.elapsed().as_secs_f64());
    let mut data = affinity.data.as_slice().to_vec();
    data.extend_from_slice(appended.as_slice());
    let grown = AffinityMatrix {
        data: Matrix::from_vec(affinity.data.rows() + appended.rows(), affinity.data.cols(), data)
            .expect("appended rows share the width"),
        n: affinity.n,
        alpha: affinity.alpha,
        z_per_layer: affinity.z_per_layer,
    };
    let t = Instant::now();
    black_box(goggles.refit_from_affinity(&grown, &dev_rows, &frozen).expect("refit"));
    m.set("trainer.refit_ms", 1e3 * t.elapsed().as_secs_f64());

    embed_corpus_ms + matrix_ms + fit_ms + 1e3 * (map_s + apply_s)
}

/// Per-conv im2col and GEMM times on seeded synthetic operands with the
/// shapes `vgg` implies, plus the computed GEMM bytes per image.
fn replay_convs(vgg: &VggConfig, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
    let mut fill =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.random::<f32>() - 0.5).collect() };
    let mut names = CONVS.iter();
    let mut in_c = vgg.input_channels;
    let mut gemm_bytes = 0usize;
    let mut col = Vec::new();
    let mut gemm = GemmScratch::default();
    for (b, &out_c) in vgg.block_channels.iter().enumerate() {
        let s = vgg.input_size >> b;
        for _ in 0..VggConfig::CONVS_PER_BLOCK[b] {
            let name = names.next().expect("13 convolutions");
            let input = fill(in_c * s * s);
            let (mm, kk, nn) = (out_c, in_c * 9, s * s);
            let weights = fill(mm * kk);
            let bias = fill(mm);
            let mut out = vec![0.0f32; mm * nn];
            let im2col = time_median(20, || {
                im2col_3x3(&input, in_c, s, s, &mut col);
                black_box(&col);
            });
            let gemm_t = time_median(20, || {
                gemm_bias_relu_f32(&mut gemm, &weights, &col, mm, kk, nn, &bias, true, &mut out);
                black_box(&out);
            });
            m.set(format!("tensor.im2col.{name}_us"), 1e6 * im2col);
            m.set(format!("tensor.gemm.{name}_us"), 1e6 * gemm_t);
            gemm_bytes += 4 * (mm * kk + kk * nn + mm * nn);
            in_c = out_c;
        }
    }
    m.set("tensor.gemm.bytes_per_image", gemm_bytes as f64);
}

/// What the in-process service replay measured.
pub struct ServiceReplay {
    /// The replay's own answers, verified.
    pub checks: Tally,
    /// Median time requests waited before their batch ran, ms.
    pub queue_wait_p50_ms: f64,
}

/// Replay the workload's label loop — `threads` client threads with
/// `window` requests in flight each, for `seconds` — into an in-process
/// [`LabelService`] (no socket): ticket latency, queue wait (ticket time
/// minus `label_batch` time at the served batch size), batch sizes, and
/// the service's own counters.
pub fn replay_service(
    inputs: &LayerInputs,
    (threads, window): (usize, usize),
    seconds: f64,
    seed: u64,
    batch_ms: &[f64],
    m: &mut Metrics,
) -> ServiceReplay {
    let service = LabelService::spawn(inputs.labeler.clone(), inputs.serve.clone());
    let _ = service.label_all(&inputs.pool.iter().map(|a| a.as_ref()).collect::<Vec<_>>());
    let targets: Vec<&(dyn Labeler + Sync)> = vec![&service; threads];
    let samples: Vec<LabelSample> =
        loadgen::closed_loop(&targets, inputs.pool, window, seconds, seed, &mut || {
            std::thread::sleep(Duration::from_millis(10))
        });
    let mut checks = Tally::default();
    let (mut tickets, mut waits, mut submits, mut sizes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let versions = HashMap::from([(1, Arc::new(inputs.labeler.clone()))]);
    let mut reference = Reference::new(&versions, inputs.pool);
    for s in &samples {
        submits.push(s.submitted.duration_since(s.sent).as_secs_f64());
        checks.record(reference.outcome(s.pool_idx, &s.reply), 0.0, 0.0);
        if let Ok(r) = &s.reply {
            let lat = s.latency_ms();
            tickets.push(lat);
            sizes.push(r.batch_size as f64);
            let run = batch_ms.get(r.batch_size.saturating_sub(1)).copied().unwrap_or(0.0);
            waits.push(lat - run);
        }
    }
    let sorted = stats::sorted(&tickets);
    let st = service.stats();
    m.set("serve.service.submit_us", 1e6 * stats::median(&submits));
    m.set("serve.service.ticket_p50_ms", stats::percentile(&sorted, 0.5));
    m.set("serve.service.ticket_p99_ms", stats::percentile(&sorted, 0.99));
    let queue_wait_p50_ms = stats::median(&waits);
    m.set("serve.service.queue_wait_p50_ms", queue_wait_p50_ms);
    m.set("serve.service.batch_size_mean", stats::mean(&sizes));
    m.set("serve.service.shed", st.shed as f64);
    m.set("serve.service.deadline_expired", st.deadline_expired as f64);
    m.set("obs.render_us", 1e6 * time_median(20, || drop(black_box(service.render_metrics()))));
    ServiceReplay { checks, queue_wait_p50_ms }
}

/// Refit cycles the trainer replay drives.
const TRAINER_CYCLES: u64 = 3;

/// A live trainer behind a wire server with an ingest sink, on the
/// workload's model: [`TRAINER_CYCLES`] bursts of `min_batch` wire
/// ingests, each sent once the previous cycle has reported. Measures the
/// ingest round trip, each cycle from the ack that completed its
/// `min_batch` to `Trainer::status` reporting its outcome, the outcomes,
/// and the deepest intake queue seen.
pub fn replay_trainer(inputs: &LayerInputs, m: &mut Metrics) {
    let bootstrap = FittedLabeler::fit_for_training(inputs.config, inputs.dataset, inputs.dev)
        .expect("bootstrap fit");
    let registry = Arc::new(SnapshotRegistry::new(bootstrap.labeler.clone()).expect("registers"));
    let service =
        Arc::new(LabelService::spawn_with_registry(Arc::clone(&registry), inputs.serve.clone()));
    let config = TrainerConfig::default();
    let mut trainer = Trainer::spawn(bootstrap, inputs.config, registry, config.clone());
    let mut server = WireServer::bind_with_ingest(
        "127.0.0.1:0",
        Arc::clone(&service),
        1,
        ServerOptions::default(),
        trainer.sink(),
    )
    .expect("bind loopback");
    let client = RemoteLabeler::connect(server.local_addr()).expect("connect loopback");
    let mut images = inputs.pool.iter().cycle();
    let (mut acks, mut cycles, mut depth) = (Vec::new(), Vec::new(), 0);
    for cycle in 1..=TRAINER_CYCLES {
        let mut completed = Instant::now();
        for img in images.by_ref().take(config.min_batch) {
            let t = Instant::now();
            client.ingest(img).expect("trainer accepts");
            completed = Instant::now();
            acks.push(completed.duration_since(t).as_secs_f64());
            depth = depth.max(trainer.status().queue_depth);
        }
        if trainer.wait_for_refits(cycle, Duration::from_secs(60)) {
            cycles.push(completed.elapsed().as_secs_f64());
        }
    }
    let st = trainer.status();
    m.set("trainer.ingest_ack_ms", 1e3 * stats::median(&acks));
    m.set("trainer.refit_cycle_s", stats::median(&cycles));
    m.set("trainer.published", st.published as f64);
    m.set("trainer.rejected", st.rejected as f64);
    m.set("trainer.rolled_back", st.rolled_back as f64);
    m.set("trainer.failed", st.failed as f64);
    m.set("trainer.queue_depth_max", depth as f64);
    drop(client);
    server.shutdown();
    trainer.shutdown();
}

/// The load a workload's own phase offered and got answered.
pub fn loadgen_metrics(samples: &[LabelSample], seconds: f64, m: &mut Metrics) {
    let answered = samples.iter().filter(|s| s.reply.is_ok()).count();
    m.set("loadgen.offered_ips", samples.len() as f64 / seconds);
    m.set("loadgen.achieved_ips", answered as f64 / seconds);
}
