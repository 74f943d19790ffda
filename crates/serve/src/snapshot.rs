//! Fitted-pipeline snapshots and out-of-sample inference.
//!
//! [`FittedLabeler`] freezes everything a labeling request needs:
//!
//! * the backbone *recipe* (`VggConfig` + seed — the network itself is
//!   deterministic, so it is rebuilt rather than serialized),
//! * the training corpus' [`PrototypeBank`] (per-layer stacked prototypes),
//! * each affinity function's fitted diagonal-GMM parameters,
//! * the Bernoulli-mixture ensemble parameters, and
//! * the dev-set cluster→class mapping.
//!
//! A request then costs `O(image)`: embed the incoming image, compute its
//! `1 × αN` affinity row against the stored prototypes, fold the row through
//! the stored base models and ensemble (`predict_proba`, **no refit**), and
//! apply the stored mapping. The training affinity matrix is never rebuilt.

use crate::codec::{fnv1a, Reader, Writer, MAX_SMALL_LEN};
use crate::{ServeError, ServeResult};
use goggles_cnn::{Vgg16, VggConfig};
use goggles_core::hierarchical::fold_in_rows;
use goggles_core::mapping::apply_mapping;
use goggles_core::prototypes::EmbedScratch;
use goggles_core::{
    AffinityMatrix, CorpusFit, Goggles, GogglesConfig, HierarchicalModel, LabelingResult,
    ProbabilisticLabels, PrototypeBank,
};
use goggles_datasets::{Dataset, DevSet};
use goggles_models::{BernoulliMixture, DiagonalGmm, FitStats};
use goggles_tensor::Matrix;
use goggles_vision::Image;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Magic bytes of the snapshot container.
const MAGIC: &[u8; 8] = b"GGLSNAP\x01";
/// Version of the one snapshot format [`FittedLabeler::save`] writes and
/// [`FittedLabeler::load`] accepts.
const VERSION_V1: u32 = 1;

/// The inherent labeling methods' refusal of an image they cannot label:
/// a panic, since their return types carry no error. The message is the
/// [`crate::check_pixels`] verdict.
fn refuse_out_of_range(images: &[&Image]) {
    for image in images {
        if let Err(e) = crate::check_pixels(image) {
            panic!("FittedLabeler cannot label this image: {e}");
        }
    }
}

/// Frozen `DiagonalGmm`: same parameters, no training-side responsibilities
/// (they are not part of the snapshot) and canonical stats — so labelers
/// built by `fit` and by `load` compare (and serialize) identically.
fn frozen_gmm(weights: Vec<f64>, means: Matrix<f64>, variances: Matrix<f64>) -> DiagonalGmm {
    let k = weights.len();
    DiagonalGmm {
        weights,
        means,
        variances,
        responsibilities: Matrix::zeros(0, k),
        stats: FitStats { log_likelihood: 0.0, iterations: 0, converged: true },
    }
}

/// Frozen `BernoulliMixture`, same convention as [`frozen_gmm`].
fn frozen_ensemble(weights: Vec<f64>, probs: Matrix<f64>) -> BernoulliMixture {
    let k = weights.len();
    BernoulliMixture {
        weights,
        probs,
        responsibilities: Matrix::zeros(0, k),
        stats: FitStats { log_likelihood: 0.0, iterations: 0, converged: true },
    }
}

/// The frozen base models and ensemble of a fitted hierarchical model.
fn frozen_models(model: &HierarchicalModel) -> (Vec<DiagonalGmm>, BernoulliMixture) {
    let base_models = model
        .base_models
        .iter()
        .map(|g| frozen_gmm(g.weights.clone(), g.means.clone(), g.variances.clone()))
        .collect();
    (base_models, frozen_ensemble(model.ensemble.weights.clone(), model.ensemble.probs.clone()))
}

/// Per-stage wall-clock breakdown of one labeling call, reported by
/// `FittedLabeler::label_batch_traced`. Durations are whole-batch, in
/// microseconds; they are measurements only and never feed back into the
/// computation.
///
/// Embedding and affinity run fused: each participant of the batch's pool
/// pass embeds an image and immediately computes its affinity row. So
/// `embed_us + affinity_us` is the pass's wall time, split between the two
/// in proportion to the embed and affinity time the participants measured
/// per image (summed over the batch). With two participants each busy the
/// whole pass, the split is the share of core time each stage took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// goggles-lint: allow(dead-pub): return type of pub label_batch_traced; external callers reach it through inference
pub struct StageTiming {
    /// Backbone forward passes + max-pool tap extraction (tiled-GEMM convs):
    /// the embed share of the fused pass.
    pub embed_us: u64,
    /// Affinity rows against the frozen prototype bank (colmax matmul):
    /// the rest of the fused pass.
    pub affinity_us: u64,
    /// End model: base-GMM posteriors, ensemble fold-in, class mapping.
    pub endmodel_us: u64,
}

/// A servable artifact: the frozen GOGGLES pipeline after fitting.
///
/// Obtain one with [`FittedLabeler::fit`] (or
/// [`FittedLabeler::fit_for_training`], which also keeps the training
/// affinity matrix for the trainer); both fit through
/// [`Goggles::fit_corpus`]. Persist it with [`FittedLabeler::save`], and
/// answer requests with [`FittedLabeler::label_one`] /
/// [`FittedLabeler::label_batch`].
#[derive(Debug, Clone)]
pub struct FittedLabeler {
    // --- serialized state ---
    vgg: VggConfig,
    backbone_seed: u64,
    top_z: usize,
    center_patches: bool,
    num_classes: usize,
    one_hot: bool,
    mapping: Vec<usize>,
    bank: PrototypeBank,
    /// Rehydrated once at construction/load time — `predict_proba`-ready,
    /// never rebuilt on the request path.
    base_models: Vec<DiagonalGmm>,
    ensemble: BernoulliMixture,
    // --- rebuilt on construction/load, never serialized ---
    net: Vgg16,
}

impl FittedLabeler {
    /// Fit the full GOGGLES pipeline on `dataset`'s training block and
    /// freeze it into a servable snapshot. Also returns the batch
    /// [`LabelingResult`] so callers can report training-set accuracy
    /// without re-running anything.
    pub fn fit(
        config: &GogglesConfig,
        dataset: &Dataset,
        dev: &DevSet,
    ) -> ServeResult<(Self, LabelingResult)> {
        Self::fit_for_training(config, dataset, dev).map(|b| (b.labeler, b.result))
    }

    /// Bootstrap fit for the continuous-learning loop: one
    /// [`Goggles::fit_corpus`] frozen into a labeler, handing back the
    /// training affinity matrix (`N × αN`) and the dev set in its row
    /// space, so a trainer can append incremental rows against the frozen
    /// bank and re-score candidates without rebuilding anything.
    pub fn fit_for_training(
        config: &GogglesConfig,
        dataset: &Dataset,
        dev: &DevSet,
    ) -> ServeResult<TrainingBootstrap> {
        let goggles = Goggles::new(config.clone());
        let CorpusFit { bank, affinity, dev_rows, result } =
            goggles.fit_corpus(dataset, dev).map_err(ServeError::Pipeline)?;
        let labeler = Self::from_fitted(&goggles, bank, &result.model, result.mapping.clone());
        Ok(TrainingBootstrap { labeler, result, affinity, dev_rows })
    }

    /// Freeze a fitted pipeline: the `Goggles` system it ran under, the
    /// prototype bank of the training corpus, the fitted hierarchical model
    /// and the dev-set mapping.
    fn from_fitted(
        goggles: &Goggles,
        bank: PrototypeBank,
        model: &HierarchicalModel,
        mapping: Vec<usize>,
    ) -> Self {
        let config = goggles.config();
        assert_eq!(
            bank.alpha(),
            model.alpha(),
            "prototype bank and model disagree on the number of affinity functions"
        );
        assert_eq!(bank.n, model.n_train(), "bank/model disagree on corpus size N");
        let (base_models, ensemble) = frozen_models(model);
        Self {
            vgg: config.vgg.clone(),
            backbone_seed: config.backbone_seed,
            top_z: config.top_z,
            center_patches: config.center_patches,
            num_classes: config.num_classes,
            one_hot: model.one_hot,
            mapping,
            bank,
            base_models,
            ensemble,
            net: goggles.backbone().clone(),
        }
    }

    /// Affinity rows (`m × αN`) for new images against the **frozen**
    /// prototype bank — the incremental-append path: embeddings are computed
    /// with the stored backbone recipe and each row is produced by exactly
    /// the same pass the serving path uses, so appending these rows to the
    /// training matrix is bit-identical to having rebuilt it with the new
    /// images present (for the original rows; see the append proptest).
    ///
    /// # Panics
    /// If a pixel of any image lies outside `[0, 1]` (NaN and ±inf
    /// included), as [`crate::check_pixels`] decides. The [`crate::Labeler`]
    /// impl refuses such an image with a typed
    /// [`ServeError::InvalidImage`] instead.
    pub fn affinity_rows_for(&self, images: &[&Image], threads: usize) -> Matrix<f64> {
        refuse_out_of_range(images);
        self.embed_and_score(&EmbedScratch::new(), images, threads).0
    }

    /// Rebuild a [`HierarchicalModel`] view of the frozen parameters (empty
    /// responsibilities, zero likelihood) — the warm-start seed when the
    /// trainer bootstraps from a loaded snapshot instead of an in-process
    /// fit.
    pub fn frozen_model(&self) -> HierarchicalModel {
        let k = self.num_classes;
        let alpha = self.base_models.len();
        HierarchicalModel {
            base_models: self.base_models.clone(),
            ensemble_input: Matrix::zeros(0, alpha * k),
            responsibilities: Matrix::zeros(0, k),
            ensemble: self.ensemble.clone(),
            one_hot: self.one_hot,
            log_likelihood: 0.0,
        }
    }

    /// A candidate labeler: this labeler's frozen backbone + prototype bank
    /// with **new** model parameters and mapping (from an incremental
    /// refit). Validates the combination before it can be published.
    pub fn with_models(
        &self,
        model: &HierarchicalModel,
        mapping: Vec<usize>,
    ) -> ServeResult<FittedLabeler> {
        let (base_models, ensemble) = frozen_models(model);
        let candidate = FittedLabeler {
            vgg: self.vgg.clone(),
            backbone_seed: self.backbone_seed,
            top_z: self.top_z,
            center_patches: self.center_patches,
            num_classes: self.num_classes,
            one_hot: model.one_hot,
            mapping,
            bank: self.bank.clone(),
            base_models,
            ensemble,
            net: self.net.clone(),
        };
        candidate.validate()?;
        Ok(candidate)
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of affinity functions `α`.
    pub fn alpha(&self) -> usize {
        self.base_models.len()
    }

    /// Size `N` of the frozen training corpus.
    pub fn n_train(&self) -> usize {
        self.bank.n
    }

    /// The stored cluster→class mapping.
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// The frozen prototype bank.
    pub fn bank(&self) -> &PrototypeBank {
        &self.bank
    }

    /// Label a batch of new images. Per image this embeds it, computes its
    /// `1 × αN` affinity row against the stored prototypes and folds it
    /// through the stored models — no training-matrix rebuild, no refit.
    /// Returns class-aligned probabilistic labels (mapping applied).
    ///
    /// # Panics
    /// If a pixel of any image lies outside `[0, 1]` (NaN and ±inf
    /// included), as [`crate::check_pixels`] decides. The [`crate::Labeler`]
    /// impl refuses such an image with a typed
    /// [`ServeError::InvalidImage`] instead.
    pub fn label_batch(&self, images: &[&Image], threads: usize) -> ProbabilisticLabels {
        refuse_out_of_range(images);
        self.label_batch_traced(&mut EmbedScratch::new(), images, threads).0
    }

    /// [`FittedLabeler::label_batch`] against a caller-owned
    /// [`EmbedScratch`], also reporting how long each internal stage took
    /// (see [`StageTiming`] for how the fused pass is split). A long-lived
    /// worker (each [`crate::LabelService`] thread holds one scratch) reuses
    /// the backbone's conv tile and activation arenas across requests, so
    /// steady-state labeling allocates nothing on the embedding side beyond
    /// the per-image tap tensors. Timing only reads clocks, so the labels
    /// are bit-identical for any scratch history (the observability layer's
    /// core guarantee).
    ///
    /// Pixels are not checked here: the service refuses out-of-range ones
    /// at submission.
    pub(crate) fn label_batch_traced(
        &self,
        scratch: &mut EmbedScratch,
        images: &[&Image],
        threads: usize,
    ) -> (ProbabilisticLabels, StageTiming) {
        let (rows, mut timing) = self.embed_and_score(scratch, images, threads);
        let t0 = Instant::now();
        let cluster_probs = self.fold_in(&rows);
        let labels = ProbabilisticLabels { probs: apply_mapping(&cluster_probs, &self.mapping) };
        timing.endmodel_us = t0.elapsed().as_micros() as u64;
        (labels, timing)
    }

    /// The one pass behind every labeling call: on up to `threads`
    /// participants of the process-wide [`goggles_tensor::pool`] (the
    /// calling thread and the pool's helpers), each participant claims an
    /// image, embeds it (the caller through `scratch`, a helper through its
    /// own arena) and immediately computes its affinity row into row `i` of
    /// the result. Rows are bit-identical for every thread count and
    /// schedule. The timing's `embed_us`/`affinity_us` split the pass's wall
    /// time as [`StageTiming`] documents; `endmodel_us` is left 0.
    fn embed_and_score(
        &self,
        scratch: &EmbedScratch,
        images: &[&Image],
        threads: usize,
    ) -> (Matrix<f64>, StageTiming) {
        let row_len = self.bank.alpha() * self.bank.n;
        let mut rows = Matrix::<f64>::zeros(images.len(), row_len);
        let embed_ns = AtomicU64::new(0);
        let affinity_ns = AtomicU64::new(0);
        let start = Instant::now();
        goggles_tensor::pool::for_each_chunk_mut(
            rows.as_mut_slice(),
            row_len,
            threads,
            |i, row| {
                let t0 = Instant::now();
                let embedding =
                    scratch.embed_image(&self.net, images[i], self.top_z, self.center_patches);
                let t1 = Instant::now();
                self.bank.affinity_row(&embedding, row);
                embed_ns.fetch_add(t1.duration_since(t0).as_nanos() as u64, Ordering::Relaxed);
                affinity_ns.fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
            },
        );
        let wall_us = start.elapsed().as_micros() as u64;
        let (embed, affinity) = (embed_ns.into_inner(), affinity_ns.into_inner());
        let embed_us = match embed.checked_add(affinity) {
            Some(total) if total > 0 => {
                (u128::from(wall_us) * u128::from(embed) / u128::from(total)) as u64
            }
            _ => wall_us,
        };
        let timing =
            StageTiming { embed_us, affinity_us: wall_us - embed_us, ..StageTiming::default() };
        (rows, timing)
    }

    /// Estimated backbone flops per labeled image — surfaced as the
    /// `goggles_backbone_flops_per_image` gauge so scrape-side tooling can
    /// turn embed-stage latency into effective GFLOP/s.
    pub(crate) fn backbone_flops_per_image(&self) -> u64 {
        self.net.forward_flops_per_image()
    }

    /// Label a single image on the calling thread; returns the argmax class
    /// and the full class-probability row.
    ///
    /// # Panics
    /// As [`FittedLabeler::label_batch`]: on a pixel outside `[0, 1]`.
    pub fn label_one(&self, image: &Image) -> (usize, Vec<f64>) {
        refuse_out_of_range(&[image]);
        self.label_one_checked(image)
    }

    /// [`FittedLabeler::label_one`] for an image whose pixels the caller
    /// has already checked (the [`crate::Labeler`] impl, which answers a
    /// bad one with a typed error).
    pub(crate) fn label_one_checked(&self, image: &Image) -> (usize, Vec<f64>) {
        let labels = self.label_batch_traced(&mut EmbedScratch::new(), &[image], 1).0;
        let row = labels.probs.row(0).to_vec();
        (goggles_tensor::argmax(&row), row)
    }

    /// Fold precomputed affinity rows (`m × αN`) through the stored base
    /// models and ensemble: `predict_proba` all the way down, in cluster
    /// space (mapping **not** applied).
    pub(crate) fn fold_in(&self, rows: &Matrix<f64>) -> Matrix<f64> {
        fold_in_rows(&self.base_models, &self.ensemble, self.one_hot, rows)
    }

    /// Test-only: overwrite the stored mapping, to build corrupt labelers
    /// for validation tests in sibling modules.
    #[cfg(test)]
    pub(crate) fn set_mapping_for_tests(&mut self, mapping: Vec<usize>) {
        self.mapping = mapping;
    }

    // ------------------------------------------------------------------
    // persistence
    // ------------------------------------------------------------------

    /// Serialize to the snapshot format: every model parameter as `f64`
    /// (the prototype bank as its native `f32`), every structural integer
    /// as `u64`, shapes stored per matrix, an FNV-1a checksum trailer. Lossless and deterministic: equal labelers produce
    /// identical bytes, and `save → load → save` is byte-for-byte stable.
    /// Do not reorder fields — existing snapshot files depend on the layout.
    pub fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION_V1);
        // backbone recipe
        w.put_usize(self.vgg.input_channels);
        for &c in &self.vgg.block_channels {
            w.put_usize(c);
        }
        w.put_usize(self.vgg.input_size);
        for &d in &self.vgg.fc_dims {
            w.put_usize(d);
        }
        w.put_usize(self.vgg.logits_dim);
        w.put_u64(self.backbone_seed);
        // pipeline shape
        w.put_usize(self.top_z);
        w.put_bool(self.center_patches);
        w.put_usize(self.num_classes);
        w.put_bool(self.one_hot);
        w.put_usize_slice(&self.mapping);
        // prototype bank
        w.put_usize(self.bank.n);
        w.put_usize(self.bank.z_per_layer);
        w.put_usize(self.bank.stacked.len());
        for layer in &self.bank.stacked {
            w.put_matrix_f32(layer);
        }
        // base models
        w.put_usize(self.base_models.len());
        for bm in &self.base_models {
            w.put_f64_slice(&bm.weights);
            w.put_matrix_f64(&bm.means);
            w.put_matrix_f64(&bm.variances);
        }
        // ensemble
        w.put_f64_slice(&self.ensemble.weights);
        w.put_matrix_f64(&self.ensemble.probs);
        // integrity trailer
        let checksum = fnv1a(w.as_bytes());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Deserialize a snapshot written by [`FittedLabeler::save`]: the
    /// checksum, magic and version are checked, the decoded content is
    /// semantically validated ([`FittedLabeler::validate`]) and the frozen
    /// backbone is rebuilt. Codec-level damage (checksum, truncation,
    /// implausible lengths, a version other than 1) surfaces as
    /// [`ServeError::Snapshot`]; content that decodes but is inconsistent
    /// surfaces as [`ServeError::Corrupt`]. Structural integers are read
    /// through the `MAX_SMALL_LEN` cap, so a corrupt-but-checksummed field
    /// cannot smuggle in an implausible dimension.
    pub fn load(bytes: &[u8]) -> ServeResult<Self> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(ServeError::Snapshot("snapshot too short".into()));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = match <[u8; 8]>::try_from(trailer) {
            Ok(arr) => u64::from_le_bytes(arr),
            Err(_) => return Err(ServeError::Snapshot("truncated checksum trailer".into())),
        };
        let actual = fnv1a(payload);
        if stored != actual {
            return Err(ServeError::Snapshot(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
        let mut r = Reader::new(payload);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(ServeError::Snapshot("bad magic bytes".into()));
        }
        let version = r.get_u32()?;
        if version != VERSION_V1 {
            return Err(ServeError::Snapshot(format!(
                "unsupported snapshot version {version} (supported: {VERSION_V1})"
            )));
        }
        let input_channels = r.get_len(MAX_SMALL_LEN)?;
        let mut block_channels = [0usize; 5];
        for c in &mut block_channels {
            *c = r.get_len(MAX_SMALL_LEN)?;
        }
        let input_size = r.get_len(MAX_SMALL_LEN)?;
        let mut fc_dims = [0usize; 2];
        for d in &mut fc_dims {
            *d = r.get_len(MAX_SMALL_LEN)?;
        }
        let logits_dim = r.get_len(MAX_SMALL_LEN)?;
        let vgg = VggConfig { input_channels, block_channels, input_size, fc_dims, logits_dim };
        let backbone_seed = r.get_u64()?;
        let top_z = r.get_len(MAX_SMALL_LEN)?;
        let center_patches = r.get_bool()?;
        let num_classes = r.get_len(MAX_SMALL_LEN)?;
        let one_hot = r.get_bool()?;
        let mapping = r.get_usize_slice()?;
        let n = r.get_len(MAX_SMALL_LEN)?;
        let z_per_layer = r.get_len(MAX_SMALL_LEN)?;
        let n_layers = r.get_len(MAX_SMALL_LEN)?;
        let mut stacked = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            stacked.push(r.get_matrix_f32()?);
        }
        let bank = PrototypeBank::from_stacked(stacked, n, z_per_layer)
            .map_err(|e| ServeError::Corrupt(e.to_string()))?;
        let n_models = r.get_len(MAX_SMALL_LEN)?;
        let mut base_models = Vec::with_capacity(n_models);
        for _ in 0..n_models {
            let weights = r.get_f64_slice()?;
            let means = r.get_matrix_f64()?;
            let variances = r.get_matrix_f64()?;
            base_models.push(frozen_gmm(weights, means, variances));
        }
        let ensemble = frozen_ensemble(r.get_f64_slice()?, r.get_matrix_f64()?);
        if r.remaining() != 0 {
            return Err(ServeError::Snapshot(format!(
                "{} trailing bytes after snapshot payload",
                r.remaining()
            )));
        }
        validate_parts(&vgg, top_z, num_classes, &mapping, &bank, &base_models, &ensemble)?;
        let net = Vgg16::new(&vgg, backbone_seed);
        Ok(FittedLabeler {
            vgg,
            backbone_seed,
            top_z,
            center_patches,
            num_classes,
            one_hot,
            mapping,
            bank,
            base_models,
            ensemble,
            net,
        })
    }

    /// Semantic consistency check over the frozen state — everything a
    /// request will index into must line up **before** the labeler is
    /// allowed near traffic. Called by [`FittedLabeler::load`] and by
    /// [`crate::SnapshotRegistry::publish`], so a corrupted-but-checksummed
    /// (or hand-built) artifact is rejected with [`ServeError::Corrupt`]
    /// instead of panicking inside `apply_mapping` on the first request.
    pub fn validate(&self) -> ServeResult<()> {
        validate_parts(
            &self.vgg,
            self.top_z,
            self.num_classes,
            &self.mapping,
            &self.bank,
            &self.base_models,
            &self.ensemble,
        )
    }

    /// [`FittedLabeler::save`] straight to a file — **crash-safely**: the
    /// bytes go to a sibling `<name>.tmp`, are fsynced, and only then
    /// atomically renamed over `path`, so a reader (or a restart) never
    /// observes a half-written snapshot under the final name. A crash
    /// mid-write leaves only a `.tmp` orphan, which
    /// [`sweep_snapshot_dir`] quarantines at startup.
    pub fn save_to(&self, path: &std::path::Path) -> ServeResult<()> {
        write_atomic(path, &self.save())
    }

    /// [`FittedLabeler::load`] straight from a file.
    pub fn load_from(path: &std::path::Path) -> ServeResult<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| ServeError::Io(format!("reading {}: {e}", path.display())))?;
        Self::load(&bytes)
    }
}

/// Everything [`FittedLabeler::fit_for_training`] hands the trainer, moved
/// out of one [`Goggles::fit_corpus`]: the servable snapshot, the batch
/// labeling result (whose `model` seeds warm restarts), the training
/// affinity matrix to append to, and the dev set in its row space for gate
/// scoring.
#[derive(Debug, Clone)]
pub struct TrainingBootstrap {
    /// The frozen, servable labeler.
    pub labeler: FittedLabeler,
    /// Batch pipeline output (training-set labels, mapping, fitted model).
    pub result: LabelingResult,
    /// Training affinity matrix, `N × αN`: the matrix the trainer grows
    /// in place with [`AffinityMatrix::append_rows`].
    pub affinity: AffinityMatrix,
    /// Dev set translated into row space of `affinity`.
    pub dev_rows: DevSet,
}

/// Suffix appended to a file a [`sweep_snapshot_dir`] pass pulled out of
/// rotation (torn temp files, corrupt snapshots).
const QUARANTINE_SUFFIX: &str = ".quarantined";
/// Suffix of the sibling temp file [`FittedLabeler::save_to`] writes before
/// the atomic rename.
const TMP_SUFFIX: &str = ".tmp";

/// Crash-safe file write: bytes land in a sibling `<name>.tmp`, are fsynced
/// to disk, then atomically renamed over `path` (with a best-effort fsync
/// of the parent directory so the rename itself survives a crash). The
/// `snapshot.write` failpoint can fail the write or tear it — a torn write
/// leaves a truncated `.tmp` behind and never renames, exactly like a
/// crash mid-write.
fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> ServeResult<()> {
    use std::io::Write as _;
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Err(ServeError::Io(format!("{} has no usable file name", path.display())));
    };
    let tmp = path.with_file_name(format!("{name}{TMP_SUFFIX}"));
    let mut payload = bytes;
    let mut torn = false;
    if crate::fault::enabled() {
        match crate::fault::inject_write("snapshot.write") {
            Some(crate::fault::WriteFault::Err(e)) => {
                return Err(ServeError::Io(format!("writing {}: {e}", tmp.display())));
            }
            Some(crate::fault::WriteFault::Torn) => {
                payload = &bytes[..bytes.len() / 2];
                torn = true;
            }
            None => {}
        }
    }
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| ServeError::Io(format!("creating {}: {e}", tmp.display())))?;
    file.write_all(payload)
        .map_err(|e| ServeError::Io(format!("writing {}: {e}", tmp.display())))?;
    file.sync_all().map_err(|e| ServeError::Io(format!("syncing {}: {e}", tmp.display())))?;
    drop(file);
    if torn {
        // Simulated crash mid-write: the truncated temp file stays on disk
        // (for the startup sweep to find) and the final name is untouched.
        return Err(ServeError::Io(format!(
            "injected torn write: {} left half-written",
            tmp.display()
        )));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        ServeError::Io(format!("renaming {} over {}: {e}", tmp.display(), path.display()))
    })?;
    if let Some(parent) = path.parent() {
        // Directory fsync is what makes the rename durable; not every
        // filesystem supports opening a directory, so this stays
        // best-effort.
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Outcome of a [`sweep_snapshot_dir`] pass.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Loadable snapshot files, newest first (by modification time, file
    /// name as tie-breaker) — `valid.first()` is the fall-back target.
    pub valid: Vec<std::path::PathBuf>,
    /// Files pulled out of rotation this pass (their new `.quarantined`
    /// names): orphaned `.tmp` files from interrupted writes and files that
    /// failed to load as a snapshot.
    pub quarantined: Vec<std::path::PathBuf>,
}

/// Startup sweep over a snapshot directory: quarantine torn and corrupt
/// files (rename to `<name>.quarantined`, preserving the evidence without
/// deleting anything), and report the surviving valid snapshots newest
/// first. Already-quarantined files and subdirectories are left alone.
/// Used by [`crate::SnapshotRegistry::reload_from`] (and the
/// `goggles-served` binary at startup) to fall back to the newest valid
/// version when the preferred snapshot is damaged.
pub fn sweep_snapshot_dir(dir: &std::path::Path) -> ServeResult<SweepReport> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ServeError::Io(format!("sweeping {}: {e}", dir.display())))?;
    let mut report = SweepReport::default();
    let mut valid: Vec<(std::time::SystemTime, std::path::PathBuf)> = Vec::new();
    for entry in entries {
        let entry = match entry {
            Ok(e) => e,
            Err(_) => continue, // raced deletion; nothing to sweep
        };
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(str::to_owned) else {
            continue;
        };
        if !entry.file_type().is_ok_and(|t| t.is_file()) || name.ends_with(QUARANTINE_SUFFIX) {
            continue;
        }
        let broken = if name.ends_with(TMP_SUFFIX) {
            // An orphaned temp file is an interrupted write by
            // construction: save_to removes it on every successful rename.
            true
        } else {
            FittedLabeler::load_from(&path).is_err()
        };
        if broken {
            let target = path.with_file_name(format!("{name}{QUARANTINE_SUFFIX}"));
            std::fs::rename(&path, &target)
                .map_err(|e| ServeError::Io(format!("quarantining {}: {e}", path.display())))?;
            report.quarantined.push(target);
        } else {
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            valid.push((mtime, path));
        }
    }
    valid.sort_by(|a, b| b.cmp(a));
    report.valid = valid.into_iter().map(|(_, p)| p).collect();
    Ok(report)
}

/// Upper bound on the rebuilt backbone's parameter count. A
/// corrupted-but-checksummed recipe must be rejected here, not discovered
/// as a multi-gigabyte allocation (or an assert) inside `Vgg16::new`.
const MAX_BACKBONE_PARAMS: u64 = 1 << 28;

/// Parameter count the recipe implies (mirrors `Vgg16::new`'s allocation:
/// conv stacks + the three-layer head). `None` on arithmetic overflow.
fn backbone_param_cost(vgg: &VggConfig) -> Option<u64> {
    let mut total: u64 = 0;
    let mut in_c = vgg.input_channels as u64;
    for (b, &out_c) in vgg.block_channels.iter().enumerate() {
        let out_c = out_c as u64;
        let convs = VggConfig::CONVS_PER_BLOCK[b] as u64;
        let first = in_c.checked_mul(out_c)?.checked_mul(9)?.checked_add(out_c)?;
        let rest =
            out_c.checked_mul(out_c)?.checked_mul(9)?.checked_add(out_c)?.checked_mul(convs - 1)?;
        total = total.checked_add(first)?.checked_add(rest)?;
        in_c = out_c;
    }
    // head: flattened final pool map → fc0 → fc1 → logits
    let s = (vgg.input_size >> 5) as u64;
    let flat = (vgg.block_channels[4] as u64).checked_mul(s.checked_mul(s)?)?;
    let dims = [flat, vgg.fc_dims[0] as u64, vgg.fc_dims[1] as u64, vgg.logits_dim as u64];
    for w in dims.windows(2) {
        total = total.checked_add(w[0].checked_mul(w[1])?)?.checked_add(w[1])?;
    }
    Some(total)
}

/// The semantic consistency rules every servable labeler must satisfy
/// (shared by [`FittedLabeler::load`] and [`FittedLabeler::validate`]).
fn validate_parts(
    vgg: &VggConfig,
    top_z: usize,
    num_classes: usize,
    mapping: &[usize],
    bank: &PrototypeBank,
    base_models: &[DiagonalGmm],
    ensemble: &BernoulliMixture,
) -> ServeResult<()> {
    // The backbone recipe is rebuilt with `Vgg16::new`, which asserts its
    // geometry and allocates weights proportional to the recipe — both must
    // be pre-checked so a corrupt snapshot errs instead of panicking/OOMing.
    if vgg.input_size < 32 || !vgg.input_size.is_power_of_two() {
        return Err(ServeError::Corrupt(format!(
            "backbone input_size {} is not a power of two ≥ 32",
            vgg.input_size
        )));
    }
    if vgg.input_channels == 0
        || vgg.block_channels.contains(&0)
        || vgg.fc_dims.contains(&0)
        || vgg.logits_dim == 0
    {
        return Err(ServeError::Corrupt("backbone recipe has a zero dimension".into()));
    }
    match backbone_param_cost(vgg) {
        Some(params) if params <= MAX_BACKBONE_PARAMS => {}
        _ => {
            return Err(ServeError::Corrupt(format!(
                "backbone recipe implies an implausible parameter count (cap {MAX_BACKBONE_PARAMS})"
            )))
        }
    }
    if num_classes == 0 {
        return Err(ServeError::Corrupt("labeler declares zero classes".into()));
    }
    // `mapping` must be a *permutation* of 0..K: length K, all entries in
    // range, no duplicates. A duplicate entry (previously unchecked) leaves
    // one class column unwritten and silently mislabels; an out-of-range
    // entry panics with an index-out-of-bounds inside `apply_mapping`.
    if mapping.len() != num_classes {
        return Err(ServeError::Corrupt(format!(
            "mapping has {} entries for {num_classes} classes",
            mapping.len()
        )));
    }
    let mut seen = vec![false; num_classes];
    for (cluster, &class) in mapping.iter().enumerate() {
        if class >= num_classes {
            return Err(ServeError::Corrupt(format!(
                "mapping[{cluster}] = {class} is not a class (K = {num_classes}); \
                 mapping must be a permutation of 0..{num_classes}"
            )));
        }
        if seen[class] {
            return Err(ServeError::Corrupt(format!(
                "mapping assigns class {class} to two clusters; \
                 mapping must be a permutation of 0..{num_classes}"
            )));
        }
        seen[class] = true;
    }
    if bank.n == 0 || bank.z_per_layer == 0 || bank.stacked.is_empty() {
        return Err(ServeError::Corrupt("prototype bank is empty".into()));
    }
    let bank_rows = bank
        .n
        .checked_mul(bank.z_per_layer)
        .ok_or_else(|| ServeError::Corrupt("bank shape N·Z overflows".into()))?;
    for (l, layer) in bank.stacked.iter().enumerate() {
        if layer.rows() != bank_rows || layer.cols() == 0 {
            return Err(ServeError::Corrupt(format!(
                "bank layer {l} is {}×{}; expected N·Z = {}·{} = {bank_rows} rows",
                layer.rows(),
                layer.cols(),
                bank.n,
                bank.z_per_layer,
            )));
        }
    }
    // Prototype extraction on the request path pads to exactly `top_z` rows
    // per layer, so the recipe's Z and the bank's Z must agree; a corrupt
    // `top_z` would otherwise load cleanly and blow up (or allocate
    // `top_z × C`) on the first request.
    if top_z != bank.z_per_layer {
        return Err(ServeError::Corrupt(format!(
            "top_z = {top_z} disagrees with the bank's Z = {}",
            bank.z_per_layer
        )));
    }
    if base_models.len() != bank.alpha() {
        return Err(ServeError::Corrupt(format!(
            "{} base models but bank encodes α = {}",
            base_models.len(),
            bank.alpha()
        )));
    }
    for (f, bm) in base_models.iter().enumerate() {
        if bm.weights.len() != num_classes
            || bm.means.shape() != (num_classes, bank.n)
            || bm.variances.shape() != (num_classes, bank.n)
        {
            return Err(ServeError::Corrupt(format!("base model {f} has inconsistent shapes")));
        }
    }
    if ensemble.weights.len() != num_classes
        || ensemble.probs.rows() != num_classes
        || ensemble.probs.cols() != base_models.len() * num_classes
    {
        return Err(ServeError::Corrupt("ensemble parameter shapes inconsistent".into()));
    }
    Ok(())
}

impl PartialEq for FittedLabeler {
    /// Equality over the serialized state (the rebuilt backbone is a pure
    /// function of it; model comparison covers exactly the persisted
    /// parameters).
    fn eq(&self, other: &Self) -> bool {
        self.vgg == other.vgg
            && self.backbone_seed == other.backbone_seed
            && self.top_z == other.top_z
            && self.center_patches == other.center_patches
            && self.num_classes == other.num_classes
            && self.one_hot == other.one_hot
            && self.mapping == other.mapping
            && self.bank == other.bank
            && self.base_models.len() == other.base_models.len()
            && self.base_models.iter().zip(&other.base_models).all(|(a, b)| {
                a.weights == b.weights && a.means == b.means && a.variances == b.variances
            })
            && self.ensemble.weights == other.ensemble.weights
            && self.ensemble.probs == other.ensemble.probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_datasets::{generate, TaskConfig, TaskKind};

    fn fitted(seed: u64) -> (FittedLabeler, LabelingResult, Dataset, DevSet) {
        let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 10, 6, seed);
        cfg.image_size = 32;
        let ds = generate(&cfg);
        let dev = ds.sample_dev_set(3, seed);
        let gcfg = GogglesConfig { seed, ..GogglesConfig::fast() };
        let (labeler, result) = FittedLabeler::fit(&gcfg, &ds, &dev).unwrap();
        (labeler, result, ds, dev)
    }

    #[test]
    fn fit_matches_batch_pipeline_exactly() {
        // FittedLabeler::fit, fit_for_training and the batch pipeline all
        // fit through Goggles::fit_corpus, so their results must agree bit
        // for bit, and so must the two labelers.
        let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 10, 4, 3);
        cfg.image_size = 32;
        let ds = generate(&cfg);
        let dev = ds.sample_dev_set(3, 3);
        let gcfg = GogglesConfig { seed: 1, ..GogglesConfig::fast() };
        let (labeler, via_serve) = FittedLabeler::fit(&gcfg, &ds, &dev).unwrap();
        let bootstrap = FittedLabeler::fit_for_training(&gcfg, &ds, &dev).unwrap();
        let goggles = Goggles::new(gcfg);
        let batch = goggles.label_dataset(&ds, &dev).unwrap();
        for result in [&via_serve, &bootstrap.result] {
            assert_eq!(result.labels.hard_labels(), batch.labels.hard_labels());
            assert_eq!(result.mapping, batch.mapping);
            assert_eq!(result.labels.probs.as_slice(), batch.labels.probs.as_slice());
        }
        assert_eq!(bootstrap.labeler, labeler);
        let matrix = goggles.build_affinity_matrix(&ds.train_images());
        assert_eq!(bootstrap.affinity.data.as_slice(), matrix.data.as_slice());
    }

    #[test]
    fn save_is_byte_for_byte_deterministic() {
        let (labeler, _, _, _) = fitted(1);
        let a = labeler.save();
        let b = labeler.save();
        assert_eq!(a, b);
        let reloaded = FittedLabeler::load(&a).unwrap();
        assert_eq!(reloaded, labeler);
        assert_eq!(reloaded.save(), a, "save→load→save must be stable");
    }

    #[test]
    fn reload_preserves_label_batch_exactly() {
        let (labeler, _, ds, _) = fitted(2);
        let test_images = ds.test_images();
        let before = labeler.label_batch(&test_images, 2);
        let reloaded = FittedLabeler::load(&labeler.save()).unwrap();
        let after = reloaded.label_batch(&test_images, 2);
        assert_eq!(before.probs, after.probs);
    }

    #[test]
    fn label_one_agrees_with_label_batch() {
        let (labeler, _, ds, _) = fitted(4);
        let imgs = ds.test_images();
        let batch = labeler.label_batch(&imgs, 1);
        for (i, img) in imgs.iter().enumerate() {
            let (hard, row) = labeler.label_one(img);
            assert_eq!(row, batch.probs.row(i));
            assert_eq!(hard, goggles_tensor::argmax(batch.probs.row(i)));
        }
    }

    #[test]
    fn fused_batch_matches_the_recomposed_path_bit_for_bit() {
        // embed → affinity rows → fold-in → mapping, stage by stage on one
        // thread, against the fused per-image pool pass.
        let (labeler, _, ds, _) = fitted(9);
        let imgs = ds.test_images();
        assert!(imgs.len() >= 9);
        let mut scratch = EmbedScratch::new();
        for size in 1..=9 {
            let batch = &imgs[..size];
            let embeddings = goggles_core::prototypes::embed_images_with(
                &labeler.net,
                &mut scratch,
                batch,
                labeler.top_z,
                1,
                labeler.center_patches,
            );
            let rows = labeler.bank.affinity_rows(&embeddings, 1);
            let cluster =
                fold_in_rows(&labeler.base_models, &labeler.ensemble, labeler.one_hot, &rows);
            let expected = apply_mapping(&cluster, &labeler.mapping);
            for threads in [1usize, 2, 3, 8] {
                let fused = labeler.label_batch(batch, threads);
                assert_eq!(fused.probs, expected, "batch {size}, threads {threads}");
                let fused_rows = labeler.affinity_rows_for(batch, threads);
                assert_eq!(fused_rows, rows, "rows: batch {size}, threads {threads}");
            }
        }
    }

    /// An in-range test image with pixel 5 set to `value`.
    fn image_with_pixel(ds: &Dataset, value: f32) -> Image {
        let mut image = ds.test_images()[0].clone();
        image.tensor_mut().as_mut_slice()[5] = value;
        image
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn label_one_refuses_a_huge_pixel() {
        let (labeler, _, ds, _) = fitted(10);
        labeler.label_one(&image_with_pixel(&ds, 1e30));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn label_batch_refuses_a_max_pixel() {
        let (labeler, _, ds, _) = fitted(10);
        let bad = image_with_pixel(&ds, f32::MAX);
        let good = ds.test_images();
        labeler.label_batch(&[good[0], &bad, good[1]], 2);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn affinity_rows_for_refuses_a_nan_pixel() {
        let (labeler, _, ds, _) = fitted(10);
        labeler.affinity_rows_for(&[&image_with_pixel(&ds, f32::NAN)], 2);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn label_batch_refuses_a_negative_pixel() {
        let (labeler, _, ds, _) = fitted(10);
        labeler.label_batch(&[&image_with_pixel(&ds, -1e-3)], 1);
    }

    #[test]
    fn out_of_sample_rows_are_distributions() {
        let (labeler, _, ds, _) = fitted(5);
        let labels = labeler.label_batch(&ds.test_images(), 2);
        assert_eq!(labels.probs.shape(), (ds.test_indices.len(), 2));
        for i in 0..labels.probs.rows() {
            let s: f64 = labels.probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        // empty batch is well-defined
        let empty = labeler.label_batch(&[], 4);
        assert_eq!(empty.probs.shape(), (0, 2));
    }

    #[test]
    fn out_of_sample_path_on_training_images_matches_batch_labels() {
        // Serving the *training* images through the snapshot re-embeds them,
        // recomputes their affinity rows against the stored prototypes and
        // folds in — which must agree with the batch pipeline's converged
        // posteriors on those same rows.
        let (labeler, result, ds, _) = fitted(6);
        assert_eq!(labeler.alpha(), 20, "fast() config has α = 5·4");
        let served = labeler.label_batch(&ds.train_images(), 2);
        assert_eq!(served.probs.rows(), labeler.n_train());
        let diff = served.probs.max_abs_diff(&result.labels.probs);
        assert!(diff < 1e-6, "served vs batch posterior diff = {diff}");
        assert_eq!(served.hard_labels(), result.labels.hard_labels());
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let (labeler, _, _, _) = fitted(7);
        let bytes = labeler.save();
        // flip one payload byte → checksum failure
        let mut bad = bytes.clone();
        bad[MAGIC.len() + 10] ^= 0x40;
        assert!(matches!(FittedLabeler::load(&bad), Err(ServeError::Snapshot(_))));
        // truncation → error, not panic
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(FittedLabeler::load(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // bad magic
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(FittedLabeler::load(&wrong).is_err());
    }

    /// Recompute the FNV-1a trailer after editing payload bytes in place —
    /// produces corrupted-but-checksummed artifacts for validation tests.
    fn rechecksum(bytes: &mut [u8]) {
        let n = bytes.len();
        let c = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&c.to_le_bytes());
    }

    #[test]
    fn corrupt_mapping_is_rejected_at_load_not_served() {
        // A hand-built snapshot whose mapping is not a permutation passes
        // the checksum but must fail load/validate with `Corrupt` — it used
        // to reach `apply_mapping` and mislabel (duplicate) or panic
        // (out of range) on the first request.
        let (labeler, _, _, _) = fitted(12);
        let mut bad = labeler.clone();
        bad.mapping = vec![0, 0]; // duplicate: class 1 never written
        assert!(matches!(bad.validate(), Err(ServeError::Corrupt(_))));
        match FittedLabeler::load(&bad.save()) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("permutation"), "unexpected message: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let mut oob = labeler.clone();
        oob.mapping = vec![0, 7]; // out of range: would index-OOB in apply_mapping
        assert!(matches!(oob.validate(), Err(ServeError::Corrupt(_))));
        assert!(matches!(FittedLabeler::load(&oob.save()), Err(ServeError::Corrupt(_))));
        // the genuine labeler validates clean
        labeler.validate().unwrap();
    }

    #[test]
    fn corrupt_backbone_recipe_is_rejected_not_rebuilt() {
        // A checksummed snapshot whose backbone recipe is stomped must err
        // at validation — not panic inside `Vgg16::new`'s geometry asserts
        // or allocate an implausible weight tensor.
        let (labeler, _, _, _) = fitted(20);
        // v1 input_size lives at offset 60 (magic 8 + version 4 +
        // input_channels 8 + block_channels 40); guard the offset map.
        let bytes = labeler.save();
        assert_eq!(u64::from_le_bytes(bytes[60..68].try_into().unwrap()), 32);
        let mut bad = bytes.clone();
        bad[60..68].copy_from_slice(&33u64.to_le_bytes()); // not a power of two
        rechecksum(&mut bad);
        assert!(matches!(FittedLabeler::load(&bad), Err(ServeError::Corrupt(_))));
        // huge-but-capped channel count → implausible parameter total
        let mut fat = bytes.clone();
        fat[20..28].copy_from_slice(&(MAX_SMALL_LEN as u64).to_le_bytes());
        rechecksum(&mut fat);
        assert!(matches!(FittedLabeler::load(&fat), Err(ServeError::Corrupt(_))));
    }

    #[test]
    fn corrupt_top_z_is_rejected_at_load_not_first_request() {
        // top_z drives the per-request prototype extraction; a stomped value
        // used to load cleanly and blow up on the first request.
        let (labeler, _, _, _) = fitted(21);
        let bytes = labeler.save();
        // v1 top_z lives at offset 100 (after the 92-byte recipe + seed)
        assert_eq!(u64::from_le_bytes(bytes[100..108].try_into().unwrap()), 4);
        // plausible-but-wrong value → caught by the bank consistency check
        let mut bad = bytes.clone();
        bad[100..108].copy_from_slice(&12345u64.to_le_bytes());
        rechecksum(&mut bad);
        match FittedLabeler::load(&bad) {
            Err(ServeError::Corrupt(msg)) => assert!(msg.contains("top_z"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // implausibly huge value → caught by the structural cap
        let mut huge = bytes;
        huge[100..108].copy_from_slice(&u64::MAX.to_le_bytes());
        rechecksum(&mut huge);
        assert!(matches!(FittedLabeler::load(&huge), Err(ServeError::Snapshot(_))));
    }

    #[test]
    fn unsupported_version_is_negotiated_away() {
        let (labeler, _, _, _) = fitted(13);
        let good = labeler.save();
        for version in [0u32, 2, 3, u32::MAX] {
            let mut bytes = good.clone();
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            rechecksum(&mut bytes);
            match FittedLabeler::load(&bytes) {
                Err(ServeError::Snapshot(msg)) => {
                    assert!(
                        msg.contains(&format!("unsupported snapshot version {version}")),
                        "{msg}"
                    )
                }
                other => panic!("version {version}: expected Snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let (labeler, _, ds, _) = fitted(8);
        let dir = std::env::temp_dir().join("goggles_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.ggl");
        labeler.save_to(&path).unwrap();
        let reloaded = FittedLabeler::load_from(&path).unwrap();
        let imgs = ds.test_images();
        assert_eq!(labeler.label_batch(&imgs, 1).probs, reloaded.label_batch(&imgs, 1).probs);
        std::fs::remove_file(&path).ok();
    }
}
