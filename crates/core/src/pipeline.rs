//! End-to-end GOGGLES pipeline (the paper's Figure 3): images → affinity
//! matrix → hierarchical class inference → dev-set mapping → probabilistic
//! labels.

use crate::affinity::{AffinityMatrix, PrototypeBank};
use crate::hierarchical::{fit_metrics, HierarchicalModel, HierarchicalOptions};
use crate::mapping::{apply_mapping, map_clusters_via_dev_set};
use crate::prototypes::embed_images;
use crate::{GogglesError, Result};
use goggles_cnn::{Vgg16, VggConfig};
use goggles_datasets::{Dataset, DevSet};
use goggles_models::EmOptions;
use goggles_tensor::Matrix;
use goggles_vision::Image;

/// Configuration of the full GOGGLES system.
#[derive(Debug, Clone)]
pub struct GogglesConfig {
    /// Backbone architecture (§3 uses VGG-16; see DESIGN.md for the
    /// surrogate-weights substitution).
    pub vgg: VggConfig,
    /// Seed of the frozen backbone weights — shared across all datasets,
    /// like the single pretrained VGG-16 in the paper.
    pub backbone_seed: u64,
    /// Prototypes per max-pool layer (`Z`; the paper uses 10, for
    /// `α = 50` affinity functions).
    pub top_z: usize,
    /// Number of classes `K`.
    pub num_classes: usize,
    /// EM options for base and ensemble models.
    pub em: EmOptions,
    /// One-hot encode base predictions before the ensemble (paper default).
    pub one_hot: bool,
    /// Center patch vectors per image/layer before cosine similarity.
    /// Required by the surrogate random-weight backbone (see
    /// `prototypes::embed_image`); irrelevant-to-harmful with a genuinely
    /// pretrained backbone, hence configurable.
    pub center_patches: bool,
    /// Most participants (the calling thread plus helpers of the
    /// process-wide [`goggles_tensor::pool`]) for embedding, affinity and
    /// base-model fitting. A cap only: no thread is spawned per call.
    pub threads: usize,
    /// Seed for all inference-side randomness.
    pub seed: u64,
}

impl Default for GogglesConfig {
    fn default() -> Self {
        Self {
            vgg: VggConfig::default(),
            backbone_seed: 0xB0DE,
            top_z: 10,
            num_classes: 2,
            em: EmOptions::default(),
            one_hot: true,
            center_patches: true,
            threads: default_threads(),
            seed: 0,
        }
    }
}

impl GogglesConfig {
    /// A reduced configuration (tiny backbone, Z = 4 → α = 20) for tests
    /// and fast examples. Same code paths, ~10× cheaper.
    pub fn fast() -> Self {
        Self {
            vgg: VggConfig::tiny(),
            top_z: 4,
            em: EmOptions { restarts: 2, ..EmOptions::default() },
            ..Self::default()
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Probabilistic labels `ỹ_i^k = Pr(y*_i = k)` for a block of instances,
/// columns aligned with **classes** (mapping already applied).
#[derive(Debug, Clone)]
pub struct ProbabilisticLabels {
    /// `n × K` row-stochastic matrix.
    pub probs: Matrix<f64>,
}

impl ProbabilisticLabels {
    /// Discrete labels by per-row argmax.
    pub fn hard_labels(&self) -> Vec<usize> {
        goggles_models::hard_labels(&self.probs)
    }

    /// Fraction of rows whose argmax matches `truth`.
    pub fn accuracy(&self, truth: &[usize]) -> f64 {
        assert_eq!(truth.len(), self.probs.rows());
        if truth.is_empty() {
            return 0.0;
        }
        let hard = self.hard_labels();
        hard.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    }

    /// Mean max-probability — a calibration-free confidence summary.
    pub fn mean_confidence(&self) -> f64 {
        let n = self.probs.rows();
        if n == 0 {
            return 0.0;
        }
        (0..n)
            .map(|i| self.probs.row(i).iter().cloned().fold(f64::NEG_INFINITY, f64::max))
            .sum::<f64>()
            / n as f64
    }

    /// Fraction of dev rows whose argmax matches the dev label, with
    /// `dev_rows` in row space of these labels (0.0 for an empty dev set).
    pub fn dev_accuracy(&self, dev_rows: &DevSet) -> f64 {
        if dev_rows.is_empty() {
            return 0.0;
        }
        let hard = self.hard_labels();
        let correct = dev_rows
            .indices
            .iter()
            .zip(&dev_rows.labels)
            .filter(|(&idx, &lbl)| hard[idx] == lbl)
            .count();
        correct as f64 / dev_rows.len() as f64
    }
}

/// Everything the pipeline produced for one dataset.
#[derive(Debug, Clone)]
pub struct LabelingResult {
    /// Class-aligned probabilistic labels; row `r` describes the instance
    /// whose global dataset index is `row_indices[r]`.
    pub labels: ProbabilisticLabels,
    /// The cluster→class mapping `g` chosen by the dev set.
    pub mapping: Vec<usize>,
    /// The fitted hierarchical model (kept for ablation/diagnostics).
    pub model: HierarchicalModel,
    /// Global dataset index of each row.
    pub row_indices: Vec<usize>,
}

impl LabelingResult {
    /// Labeling accuracy over all inferred rows.
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        let truth: Vec<usize> = self.row_indices.iter().map(|&i| dataset.labels[i]).collect();
        self.labels.accuracy(&truth)
    }

    /// Labeling accuracy excluding the development set — the number the
    /// paper reports ("we report the performance of GOGGLES on the
    /// remaining images", §5.1.1).
    pub fn accuracy_excluding_dev(&self, dataset: &Dataset, dev: &DevSet) -> f64 {
        let hard = self.labels.hard_labels();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (r, &idx) in self.row_indices.iter().enumerate() {
            if dev.indices.contains(&idx) {
                continue;
            }
            total += 1;
            if hard[r] == dataset.labels[idx] {
                correct += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }
}

/// Outcome of [`Goggles::refit_from_affinity`]: the winning candidate of a
/// warm restart plus cold restarts, ranked by held-out dev accuracy.
#[derive(Debug, Clone)]
pub struct RefitSelection {
    /// Class-aligned probabilistic labels over every row of the input
    /// matrix (appended rows included).
    pub labels: ProbabilisticLabels,
    /// The cluster→class mapping chosen by the dev set.
    pub mapping: Vec<usize>,
    /// The winning refitted model.
    pub model: HierarchicalModel,
    /// Dev-set accuracy of the winner (0.0 when the dev set is empty).
    pub dev_score: f64,
    /// Which candidate won: 0 = warm restart, `i > 0` = cold restart `i`.
    pub candidate: usize,
}

/// Everything one corpus fit produced ([`Goggles::fit_corpus`]).
#[derive(Debug, Clone)]
pub struct CorpusFit {
    /// The training block's stacked prototypes: what a new image's
    /// affinity row is computed against, out of sample.
    pub bank: PrototypeBank,
    /// The training block's `N × αN` affinity matrix, built from `bank`.
    pub affinity: AffinityMatrix,
    /// The dev set in row space of `affinity`.
    pub dev_rows: DevSet,
    /// The labels, mapping and model of the fit.
    pub result: LabelingResult,
}

/// The GOGGLES system: a frozen backbone plus the affinity-coding pipeline.
#[derive(Debug, Clone)]
pub struct Goggles {
    net: Vgg16,
    config: GogglesConfig,
}

impl Goggles {
    /// Instantiate the system (builds the frozen backbone deterministically).
    pub fn new(config: GogglesConfig) -> Self {
        let net = Vgg16::new(&config.vgg, config.backbone_seed);
        Self { net, config }
    }

    /// The frozen backbone (shared with the end-model baselines so every
    /// method sees the same representation, as in §5.1.3).
    pub fn backbone(&self) -> &Vgg16 {
        &self.net
    }

    /// The active configuration.
    pub fn config(&self) -> &GogglesConfig {
        &self.config
    }

    /// Step 1: construct the `N × αN` affinity matrix for a set of images.
    ///
    /// The embedding and matrix phases are timed into
    /// `goggles_fit_stage_latency_us{stage="embed"|"affinity"}`.
    pub fn build_affinity_matrix(&self, images: &[&Image]) -> AffinityMatrix {
        self.embed_corpus(images).1
    }

    /// Embed `images`, stack their prototypes into a bank and build the
    /// affinity matrix against it, timed into the `embed` and `affinity`
    /// stages.
    fn embed_corpus(&self, images: &[&Image]) -> (PrototypeBank, AffinityMatrix) {
        let obs = fit_metrics();
        let embeddings = {
            let _span = goggles_obs::Span::enter(&obs.embed);
            embed_images(
                &self.net,
                images,
                self.config.top_z,
                self.config.threads,
                self.config.center_patches,
            )
        };
        let _span = goggles_obs::Span::enter(&obs.affinity);
        let bank = PrototypeBank::from_embeddings(&embeddings);
        let affinity = AffinityMatrix::from_bank(&bank, &embeddings, self.config.threads);
        (bank, affinity)
    }

    /// The hierarchical-model options this system's configuration implies.
    pub fn hierarchical_options(&self) -> HierarchicalOptions {
        HierarchicalOptions {
            num_classes: self.config.num_classes,
            em: self.config.em,
            one_hot: self.config.one_hot,
            threads: self.config.threads,
            seed: self.config.seed,
        }
    }

    /// Step 2: class inference on a prebuilt affinity matrix. `dev_rows`
    /// must be expressed in **row space** of the matrix.
    ///
    /// This entry point is also what the representation ablations use: feed
    /// an [`AffinityMatrix::from_feature_vectors`] built from HOG or logits
    /// features to run "GOGGLES' inference module on them" (§5.3).
    ///
    /// Besides the fit's own EM spans, the cluster→class mapping is timed
    /// into `goggles_fit_stage_latency_us{stage="map"}`.
    pub fn infer_from_affinity(
        &self,
        affinity: &AffinityMatrix,
        dev_rows: &DevSet,
    ) -> Result<(ProbabilisticLabels, Vec<usize>, HierarchicalModel)> {
        let model = HierarchicalModel::fit(affinity, &self.hierarchical_options())?;
        let _span = goggles_obs::Span::enter(&fit_metrics().map);
        let mapping = map_clusters_via_dev_set(&model.responsibilities, dev_rows);
        let probs = apply_mapping(&model.responsibilities, &mapping);
        Ok((ProbabilisticLabels { probs }, mapping, model))
    }

    /// Incremental refit for the continuous-learning loop: given an
    /// affinity matrix (possibly rectangular, `(N + m) × αN` with appended
    /// rows) and the previously published model, produce the best candidate
    /// among a **warm** restart (EM from `prev`'s parameters, candidate 0)
    /// and `config.em.restarts - 1` **cold** restarts with perturbed seeds.
    /// Candidates are ranked by held-out dev-set accuracy after the
    /// cluster→class mapping — the cheap fix for EM instability at K ≥ 3:
    /// rather than trusting in-sample likelihood, the restart that actually
    /// labels the dev set best wins (ties: higher log-likelihood, then the
    /// warm candidate / lowest index).
    ///
    /// `dev_rows` must be in **row space** of `affinity`. With an empty dev
    /// set only the warm candidate is produced (nothing could rank a cold
    /// one above it).
    pub fn refit_from_affinity(
        &self,
        affinity: &AffinityMatrix,
        dev_rows: &DevSet,
        prev: &HierarchicalModel,
    ) -> Result<RefitSelection> {
        let opts = self.hierarchical_options();
        let mut candidates = vec![HierarchicalModel::refit_warm(affinity, prev, &opts)?];
        if !dev_rows.is_empty() {
            for r in 1..self.config.em.restarts.max(1) {
                let cold_opts = HierarchicalOptions {
                    seed: self
                        .config
                        .seed
                        .wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..opts
                };
                candidates.push(HierarchicalModel::fit(affinity, &cold_opts)?);
            }
        }
        let mut best: Option<RefitSelection> = None;
        for (i, model) in candidates.into_iter().enumerate() {
            let mapping = map_clusters_via_dev_set(&model.responsibilities, dev_rows);
            let probs = apply_mapping(&model.responsibilities, &mapping);
            let labels = ProbabilisticLabels { probs };
            let dev_score = labels.dev_accuracy(dev_rows);
            let replace = match &best {
                None => true,
                Some(b) => {
                    dev_score > b.dev_score
                        || (dev_score == b.dev_score
                            && model.log_likelihood > b.model.log_likelihood)
                }
            };
            if replace {
                best = Some(RefitSelection { labels, mapping, model, dev_score, candidate: i });
            }
        }
        Ok(best.expect("at least the warm candidate"))
    }

    /// Full pipeline on a dataset's training block with a development set
    /// sampled from it, keeping everything the fit built: the prototype
    /// bank, the affinity matrix and the dev set in its row space. Dev
    /// indices are global dataset indices; rows of the result cover every
    /// training instance (dev rows included, since the paper folds the dev
    /// set into the affinity matrix: `N = n + m`).
    ///
    /// The dev set is translated first, so an index outside the training
    /// block fails before any embedding; an empty training block is
    /// refused too. Each call records one observation in each of the
    /// `goggles_fit_stage_latency_us` stages `embed`, `affinity`,
    /// `em_base`, `em_ensemble` and `map`.
    pub fn fit_corpus(&self, dataset: &Dataset, dev: &DevSet) -> Result<CorpusFit> {
        let dev_rows = translate_dev_to_rows(&dataset.train_indices, dev)?;
        let images = dataset.train_images();
        if images.is_empty() {
            return Err(GogglesError::InvalidInput("dataset has no training images".into()));
        }
        let (bank, affinity) = self.embed_corpus(&images);
        let (labels, mapping, model) = self.infer_from_affinity(&affinity, &dev_rows)?;
        let row_indices = dataset.train_indices.clone();
        Ok(CorpusFit {
            bank,
            affinity,
            dev_rows,
            result: LabelingResult { labels, mapping, model, row_indices },
        })
    }

    /// [`Goggles::fit_corpus`], keeping only the labeling result.
    pub fn label_dataset(&self, dataset: &Dataset, dev: &DevSet) -> Result<LabelingResult> {
        Ok(self.fit_corpus(dataset, dev)?.result)
    }
}

/// Translate a dev set in global dataset indices into affinity-matrix row
/// space (rows follow `train_indices` order). An index outside
/// `train_indices` is refused with [`GogglesError::InvalidInput`].
///
/// One `HashMap` over `train_indices` replaces the per-dev-index linear
/// `position` scan (`O(n + m)` instead of `O(n·m)`); should a global index
/// somehow appear twice in `train_indices`, the **first** row keeps it,
/// matching the old scan's behavior.
pub fn translate_dev_to_rows(train_indices: &[usize], dev: &DevSet) -> Result<DevSet> {
    let mut row_of: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::with_capacity(train_indices.len());
    for (row, &t) in train_indices.iter().enumerate() {
        row_of.entry(t).or_insert(row);
    }
    let mut rows = Vec::with_capacity(dev.len());
    for &idx in &dev.indices {
        let row = *row_of.get(&idx).ok_or_else(|| {
            GogglesError::InvalidInput(format!("dev index {idx} not in the training block"))
        })?;
        rows.push(row);
    }
    Ok(DevSet { indices: rows, labels: dev.labels.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_datasets::{generate, TaskConfig, TaskKind};

    fn small_dataset(seed: u64) -> Dataset {
        let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 12, 2, seed);
        cfg.image_size = 32;
        generate(&cfg)
    }

    fn fast_goggles(seed: u64) -> Goggles {
        Goggles::new(GogglesConfig { seed, ..GogglesConfig::fast() })
    }

    #[test]
    fn end_to_end_labels_an_easy_task_well() {
        let ds = small_dataset(1);
        let dev = ds.sample_dev_set(3, 1);
        let result = fast_goggles(0).label_dataset(&ds, &dev).unwrap();
        assert_eq!(result.labels.probs.rows(), 24);
        let acc = result.accuracy(&ds);
        assert!(acc > 0.7, "accuracy = {acc}");
        // rows are stochastic
        for i in 0..result.labels.probs.rows() {
            let s: f64 = result.labels.probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn accuracy_excluding_dev_drops_dev_rows() {
        let ds = small_dataset(2);
        let dev = ds.sample_dev_set(3, 2);
        let result = fast_goggles(1).label_dataset(&ds, &dev).unwrap();
        // 24 rows, 6 dev rows excluded → 18 counted.
        let excl = result.accuracy_excluding_dev(&ds, &dev);
        assert!((0.0..=1.0).contains(&excl));
        // with an empty dev set, both accuracies coincide
        let all = result.accuracy(&ds);
        let same = result.accuracy_excluding_dev(&ds, &DevSet::empty());
        assert!((all - same).abs() < 1e-12);
    }

    #[test]
    fn affinity_matrix_shape_is_n_by_alpha_n() {
        let ds = small_dataset(3);
        let g = fast_goggles(2);
        let am = g.build_affinity_matrix(&ds.train_images());
        let n = ds.train_indices.len();
        let alpha = 5 * g.config().top_z;
        assert_eq!(am.data.shape(), (n, alpha * n));
        assert_eq!(am.alpha, alpha);
    }

    #[test]
    fn dev_set_fixes_cluster_orientation() {
        // With a dev set, the mapped labels should agree with ground truth
        // better than chance on the dev rows themselves.
        let ds = small_dataset(4);
        let dev = ds.sample_dev_set(4, 4);
        let result = fast_goggles(3).label_dataset(&ds, &dev).unwrap();
        let dev_rows = translate_dev_to_rows(&ds.train_indices, &dev).unwrap();
        let agreement = result.labels.dev_accuracy(&dev_rows);
        assert!(agreement >= 0.5, "dev agreement {agreement}");
    }

    #[test]
    fn translate_dev_handles_duplicates_first_wins() {
        // Duplicate dev indices all resolve; a (pathological) duplicated
        // train index maps to its first row, like the old linear scan did.
        let train = vec![5, 9, 7, 9, 3];
        let dev = DevSet { indices: vec![9, 3, 9], labels: vec![1, 0, 1] };
        let rows = translate_dev_to_rows(&train, &dev).unwrap();
        assert_eq!(rows.indices, vec![1, 4, 1]);
        assert_eq!(rows.labels, vec![1, 0, 1]);
        // unknown index still rejected
        let bad = DevSet { indices: vec![11], labels: vec![0] };
        assert!(translate_dev_to_rows(&train, &bad).is_err());
    }

    #[test]
    fn invalid_dev_index_is_rejected() {
        let ds = small_dataset(5);
        let dev = DevSet { indices: vec![999], labels: vec![0] };
        assert!(fast_goggles(0).label_dataset(&ds, &dev).is_err());
        match fast_goggles(0).fit_corpus(&ds, &dev) {
            Err(GogglesError::InvalidInput(msg)) => assert!(msg.contains("999"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn empty_training_block_is_rejected() {
        let ds = small_dataset(5);
        let test_only: Vec<_> =
            ds.test_indices.iter().map(|&i| (ds.images[i].clone(), ds.labels[i])).collect();
        let empty = Dataset::from_parts(ds.name.clone(), ds.kind, 2, Vec::new(), test_only);
        assert_eq!(
            fast_goggles(0).fit_corpus(&empty, &DevSet::empty()).unwrap_err(),
            GogglesError::InvalidInput("dataset has no training images".into())
        );
    }

    #[test]
    fn fit_corpus_keeps_the_bank_matrix_and_dev_rows_of_label_dataset() {
        let ds = small_dataset(11);
        let dev = ds.sample_dev_set(3, 11);
        let g = fast_goggles(8);
        let fit = g.fit_corpus(&ds, &dev).unwrap();
        let batch = g.label_dataset(&ds, &dev).unwrap();
        assert_eq!(fit.result.labels.probs.as_slice(), batch.labels.probs.as_slice());
        assert_eq!(fit.result.mapping, batch.mapping);
        assert_eq!(fit.result.row_indices, ds.train_indices);
        let rebuilt = g.build_affinity_matrix(&ds.train_images());
        assert_eq!(fit.affinity.data.as_slice(), rebuilt.data.as_slice());
        assert_eq!((fit.affinity.n, fit.affinity.alpha), (rebuilt.n, rebuilt.alpha));
        assert_eq!((fit.bank.n, fit.bank.alpha()), (fit.affinity.n, fit.affinity.alpha));
        let dev_rows = translate_dev_to_rows(&ds.train_indices, &dev).unwrap();
        assert_eq!(
            (fit.dev_rows.indices, fit.dev_rows.labels),
            (dev_rows.indices, dev_rows.labels)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = small_dataset(6);
        let dev = ds.sample_dev_set(3, 6);
        let a = fast_goggles(9).label_dataset(&ds, &dev).unwrap();
        let b = fast_goggles(9).label_dataset(&ds, &dev).unwrap();
        assert_eq!(a.labels.hard_labels(), b.labels.hard_labels());
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn feature_affinity_pipeline_works() {
        // Logits-style ablation: cosine affinity over backbone features.
        let ds = small_dataset(7);
        let g = fast_goggles(4);
        let feats32 = g
            .backbone()
            .logits_batch(&ds.train_images().iter().map(|&i| i.clone()).collect::<Vec<_>>());
        let feats = Matrix::from_fn(feats32.rows(), feats32.cols(), |i, j| feats32[(i, j)] as f64);
        let am = AffinityMatrix::from_feature_vectors(&feats);
        let dev = ds.sample_dev_set(3, 7);
        let dev_rows = translate_dev_to_rows(&ds.train_indices, &dev).unwrap();
        let (labels, mapping, model) = g.infer_from_affinity(&am, &dev_rows).unwrap();
        assert_eq!(labels.probs.rows(), ds.train_indices.len());
        assert_eq!(mapping.len(), 2);
        assert_eq!(model.alpha(), 1);
    }

    #[test]
    fn refit_from_affinity_never_loses_to_previous_model() {
        let ds = small_dataset(9);
        let g = fast_goggles(6);
        let dev = ds.sample_dev_set(4, 9);
        let CorpusFit { affinity: am, dev_rows, result: first, .. } =
            g.fit_corpus(&ds, &dev).unwrap();
        let refit = g.refit_from_affinity(&am, &dev_rows, &first.model).unwrap();
        // The warm candidate starts from `first.model`'s optimum, so the
        // winner's dev score can only match or beat it.
        let prev_score = first.labels.dev_accuracy(&dev_rows);
        assert!(refit.dev_score >= prev_score - 1e-12, "{} < {prev_score}", refit.dev_score);
        assert_eq!(refit.labels.probs.rows(), am.data.rows());
        assert_eq!(refit.mapping.len(), 2);
        // Deterministic: same inputs, same winner.
        let again = g.refit_from_affinity(&am, &dev_rows, &first.model).unwrap();
        assert_eq!(again.candidate, refit.candidate);
        assert_eq!(again.dev_score, refit.dev_score);
        assert_eq!(again.labels.probs.as_slice(), refit.labels.probs.as_slice());
    }

    #[test]
    fn refit_with_empty_dev_set_uses_warm_candidate_only() {
        let ds = small_dataset(10);
        let g = fast_goggles(7);
        let dev = ds.sample_dev_set(3, 10);
        let first = g.fit_corpus(&ds, &dev).unwrap();
        let refit =
            g.refit_from_affinity(&first.affinity, &DevSet::empty(), &first.result.model).unwrap();
        assert_eq!(refit.candidate, 0);
        assert_eq!(refit.dev_score, 0.0);
    }

    #[test]
    fn mean_confidence_in_unit_range() {
        let ds = small_dataset(8);
        let dev = ds.sample_dev_set(2, 8);
        let result = fast_goggles(5).label_dataset(&ds, &dev).unwrap();
        let c = result.labels.mean_confidence();
        assert!((0.5..=1.0).contains(&c), "confidence = {c}");
    }
}
