//! The hierarchical generative model (§4.1, Figure 6).
//!
//! *Base layer*: one diagonal-covariance GMM per affinity function, fit on
//! that function's `N × N` slice of the affinity matrix, emitting a label
//! prediction matrix `LP_f ∈ R^{N×K}`.
//!
//! *Ensemble layer*: the α blocks are one-hot encoded ("we convert LP to a
//! one-hot encoded matrix by converting the highest class prediction to 1"),
//! concatenated into `LP ∈ {0,1}^{N×αK}` and modeled with a multivariate
//! Bernoulli mixture whose parameters `b_{k,l}` learn each affinity
//! function's reliability.
//!
//! Base models are independent, so they are fit in parallel on the
//! process-wide [`goggles_tensor::pool`] — the parallelization §5.3 of the
//! paper describes.

use crate::affinity::AffinityMatrix;
use crate::Result;
use goggles_models::{BernoulliMixture, DiagonalGmm, EmOptions};
use goggles_tensor::Matrix;

/// Options for the hierarchical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalOptions {
    /// Number of classes K.
    pub num_classes: usize,
    /// EM options shared by base and ensemble models.
    pub em: EmOptions,
    /// One-hot encode the concatenated LP before the ensemble (paper
    /// behaviour). `false` feeds raw probabilities — an ablation knob that
    /// demonstrates the §4.1 argument for categorical modeling.
    pub one_hot: bool,
    /// Most participants of the process-wide [`goggles_tensor::pool`] that
    /// fit the base models (the calling thread included).
    pub threads: usize,
    /// Seed for all stochastic initialization.
    pub seed: u64,
}

impl Default for HierarchicalOptions {
    fn default() -> Self {
        Self { num_classes: 2, em: EmOptions::default(), one_hot: true, threads: 8, seed: 0 }
    }
}

/// Fitted hierarchical model.
#[derive(Debug, Clone)]
pub struct HierarchicalModel {
    /// The fitted per-function base models (diagonal GMMs over that
    /// function's `N`-dimensional affinity columns), kept so new rows can be
    /// folded in without refitting (see [`HierarchicalModel::predict_proba`]).
    /// Each model's `responsibilities` is its `N × K` label-prediction
    /// matrix (cluster ids are per-model and unaligned — the ensemble
    /// resolves that); see `HierarchicalModel::base_prediction`.
    pub base_models: Vec<DiagonalGmm>,
    /// Concatenated (one-hot) ensemble input, `N × αK`.
    pub ensemble_input: Matrix<f64>,
    /// Final ensemble responsibilities, `N × K` (cluster space, pre-mapping).
    pub responsibilities: Matrix<f64>,
    /// The fitted ensemble model (its Bernoulli parameters are per-function
    /// reliability estimates).
    pub ensemble: BernoulliMixture,
    /// Whether base predictions were one-hot encoded before the ensemble
    /// (recorded so fold-in encodes new rows identically).
    pub one_hot: bool,
    /// Final ensemble log-likelihood.
    pub log_likelihood: f64,
}

impl HierarchicalModel {
    /// Fit the full hierarchy on an affinity matrix.
    ///
    /// Timing of the two EM phases (base-layer fan-out, ensemble fit) and
    /// their iteration counts are recorded into the process-wide
    /// [`goggles_obs::global`] registry as `goggles_fit_stage_latency_us`
    /// and `goggles_fit_em_iterations` — observation only, no effect on the
    /// fitted parameters.
    pub fn fit(affinity: &AffinityMatrix, opts: &HierarchicalOptions) -> Result<Self> {
        Self::fit_with(affinity, opts, Start::Cold)
    }

    /// Refit the hierarchy on an affinity matrix, **warm-starting** every EM
    /// from `prev`'s parameters instead of k-means: no restarts, no RNG
    /// anywhere, so the result is deterministic in `(affinity, prev)` alone
    /// and in particular independent of `opts.threads`.
    ///
    /// `affinity` may be rectangular — `(N + m) × αN` with rows appended
    /// against the frozen prototype bank (the incremental-refit path): each
    /// base GMM's dimensionality is the column count `N` of its block, which
    /// appending rows does not change, so `prev`'s means/variances remain
    /// shape-compatible. Requires `prev.alpha() == affinity.alpha` and
    /// `prev.n_train() == affinity.n`.
    pub fn refit_warm(
        affinity: &AffinityMatrix,
        prev: &Self,
        opts: &HierarchicalOptions,
    ) -> Result<Self> {
        if prev.alpha() != affinity.alpha || prev.n_train() != affinity.n {
            return Err(crate::GogglesError::InvalidInput(format!(
                "warm refit: previous model is α={}, N={} but affinity matrix is α={}, N={}",
                prev.alpha(),
                prev.n_train(),
                affinity.alpha,
                affinity.n
            )));
        }
        if affinity.data.rows() < affinity.n {
            return Err(crate::GogglesError::InvalidInput(format!(
                "warm refit: affinity matrix has {} rows, fewer than its declared N = {}",
                affinity.data.rows(),
                affinity.n
            )));
        }
        Self::fit_with(affinity, opts, Start::Warm(prev))
    }

    /// The one fit body behind [`HierarchicalModel::fit`] and
    /// [`HierarchicalModel::refit_warm`]; `start` decides only where each
    /// EM begins.
    fn fit_with(
        affinity: &AffinityMatrix,
        opts: &HierarchicalOptions,
        start: Start,
    ) -> Result<Self> {
        let obs = fit_metrics();
        let base_models = {
            let _span = goggles_obs::Span::enter(&obs.em_base);
            fit_base_models(affinity, opts, start)?
        };
        for gmm in &base_models {
            obs.base_iterations.observe(gmm.stats.iterations as u64);
        }
        let lp: Vec<&Matrix<f64>> = base_models.iter().map(|g| &g.responsibilities).collect();
        // A warm refit encodes exactly like the previous fit so fold-in
        // stays consistent.
        let one_hot = match start {
            Start::Cold => opts.one_hot,
            Start::Warm(prev) => prev.one_hot,
        };
        let ensemble_input = concat_label_predictions(&lp, one_hot);
        let ensemble = {
            let _span = goggles_obs::Span::enter(&obs.em_ensemble);
            match start {
                // The ensemble fit is cheap (binary N × αK input) but decides
                // the final labels, so a cold fit gets extra restarts
                // regardless of the base models' budget: EM local optima here
                // directly cost accuracy.
                Start::Cold => {
                    let em = EmOptions { restarts: opts.em.restarts.max(5), ..opts.em };
                    let seed = opts.seed ^ 0xE45E_3B1E;
                    BernoulliMixture::fit(&ensemble_input, opts.num_classes, &em, seed)?
                }
                Start::Warm(prev) => BernoulliMixture::fit_from(
                    &ensemble_input,
                    &prev.ensemble.weights,
                    &prev.ensemble.probs,
                    &opts.em,
                )?,
            }
        };
        obs.ensemble_iterations.observe(ensemble.stats.iterations as u64);
        obs.fits_total.inc();
        let responsibilities = ensemble.responsibilities.clone();
        let log_likelihood = ensemble.stats.log_likelihood;
        Ok(Self {
            base_models,
            ensemble_input,
            responsibilities,
            ensemble,
            one_hot,
            log_likelihood,
        })
    }

    /// Number of base models (α).
    pub fn alpha(&self) -> usize {
        self.base_models.len()
    }

    /// Dimensionality each base model was fit on (the training corpus size
    /// `N` — every affinity function block is `N` columns wide).
    pub fn n_train(&self) -> usize {
        self.base_models.first().map_or(0, |g| g.means.cols())
    }

    /// Cluster posteriors for **new** affinity rows without any refitting:
    /// each function's `N`-column block goes through its stored base GMM's
    /// posterior, the blocks are (one-hot) concatenated exactly as in
    /// training, and the stored ensemble emits `P(cluster | row)`.
    ///
    /// `rows` must be `m × αN`, laid out like [`AffinityMatrix::data`]
    /// (e.g. from [`crate::PrototypeBank::affinity_rows`]). Returns `m × K`
    /// in **cluster** space — apply the dev-set mapping for class space.
    pub fn predict_proba(&self, rows: &Matrix<f64>) -> Result<Matrix<f64>> {
        let alpha = self.alpha();
        let n = self.n_train();
        if rows.cols() != alpha * n {
            return Err(crate::GogglesError::InvalidInput(format!(
                "affinity rows have {} columns; model expects α·N = {}·{} = {}",
                rows.cols(),
                alpha,
                n,
                alpha * n
            )));
        }
        Ok(fold_in_rows(&self.base_models, &self.ensemble, self.one_hot, rows))
    }

    /// Estimated reliability of each affinity function: the mean absolute
    /// deviation of its ensemble Bernoulli parameters from 0.5. A useless
    /// function's one-hot votes are independent of the cluster, so its
    /// `b_{k,l}` sit near the base rate; an informative one's sit near 0/1.
    pub fn function_reliabilities(&self) -> Vec<f64> {
        let k = self.ensemble.probs.rows();
        let alpha = self.alpha();
        let kk = self.ensemble.probs.cols() / alpha;
        let mut out = Vec::with_capacity(alpha);
        for f in 0..alpha {
            let mut acc = 0.0;
            let mut cnt = 0;
            for comp in 0..k {
                for l in f * kk..(f + 1) * kk {
                    acc += (self.ensemble.probs[(comp, l)] - 0.5).abs();
                    cnt += 1;
                }
            }
            out.push(acc / cnt as f64);
        }
        out
    }
}

/// Fold precomputed affinity rows (`m × αN`, laid out like
/// [`AffinityMatrix::data`]) through **already-fitted** models: each
/// function's `N`-column block goes through its base GMM's posterior, the
/// blocks are concatenated exactly as in training, and the ensemble emits
/// `P(cluster | row)` (`m × K`, cluster space — no refitting anywhere).
///
/// This is the single source of truth for the fold-in math; both
/// [`HierarchicalModel::predict_proba`] and the `goggles-serve` snapshot
/// path call it.
///
/// # Panics
/// Panics if `base_models` is empty or `rows` is not `m × αN`.
pub fn fold_in_rows(
    base_models: &[DiagonalGmm],
    ensemble: &BernoulliMixture,
    one_hot: bool,
    rows: &Matrix<f64>,
) -> Matrix<f64> {
    assert!(!base_models.is_empty(), "need at least one base model");
    let n = base_models[0].means.cols();
    let alpha = base_models.len();
    assert_eq!(rows.cols(), alpha * n, "affinity rows must be m × αN ({alpha}·{n})");
    let lp: Vec<Matrix<f64>> = base_models
        .iter()
        .enumerate()
        .map(|(f, gmm)| gmm.predict_proba(&rows.col_block(f * n, (f + 1) * n)))
        .collect();
    let input = concat_label_predictions(&lp, one_hot);
    ensemble.predict_proba(&input)
}

/// Cached handles into the process-wide observability registry for the fit
/// path. Resolved once; afterwards recording is lock-free atomics.
pub(crate) struct FitMetrics {
    /// Backbone embedding of a labeling call's images.
    pub(crate) embed: goggles_obs::Histogram,
    /// Affinity-matrix construction.
    pub(crate) affinity: goggles_obs::Histogram,
    em_base: goggles_obs::Histogram,
    em_ensemble: goggles_obs::Histogram,
    /// Cluster→class mapping and its application.
    pub(crate) map: goggles_obs::Histogram,
    base_iterations: goggles_obs::Histogram,
    ensemble_iterations: goggles_obs::Histogram,
    fits_total: goggles_obs::Counter,
}

pub(crate) fn fit_metrics() -> &'static FitMetrics {
    static METRICS: std::sync::OnceLock<FitMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = goggles_obs::global();
        let stage = |name| {
            reg.histogram(
                "goggles_fit_stage_latency_us",
                "Wall time of labeling-pipeline and hierarchical-fit phases in microseconds",
                &[("stage", name)],
            )
        };
        let iter_help = "EM iterations consumed by the winning restart";
        FitMetrics {
            embed: stage("embed"),
            affinity: stage("affinity"),
            em_base: stage("em_base"),
            em_ensemble: stage("em_ensemble"),
            map: stage("map"),
            base_iterations: reg.histogram(
                "goggles_fit_em_iterations",
                iter_help,
                &[("layer", "base")],
            ),
            ensemble_iterations: reg.histogram(
                "goggles_fit_em_iterations",
                iter_help,
                &[("layer", "ensemble")],
            ),
            fits_total: reg.counter("goggles_fits_total", "Completed hierarchical model fits", &[]),
        }
    })
}

/// Where each EM of a fit starts: k-means seeded from
/// [`HierarchicalOptions::seed`] (with restarts), or the parameters of a
/// previous fit (no restarts, no RNG).
#[derive(Clone, Copy)]
enum Start<'a> {
    Cold,
    Warm(&'a HierarchicalModel),
}

/// Fit one diagonal GMM per affinity-function block on up to
/// `opts.threads` participants of the process-wide [`goggles_tensor::pool`]
/// (the calling thread and the pool's helpers; `threads` caps them and
/// spawns nothing). Participants claim the next unfitted function from the
/// pool's shared counter instead of owning a fixed chunk: the deep-layer
/// functions run several times more EM iterations than the shallow ones
/// and sit together at the end of the index range, so a static split
/// leaves one worker with most of the work. Claim `c` fits function
/// `alpha − 1 − c`, longest fits first, so the cheap shallow fits fill in
/// at the end instead of one deep fit finishing alone. Each fit depends
/// only on its own block and start (a warm start is RNG-free; a cold one
/// seeds from `f`), and its result lands in slot `f`, so the output is the
/// same for every thread count and claiming order.
fn fit_base_models(
    affinity: &AffinityMatrix,
    opts: &HierarchicalOptions,
    start: Start,
) -> Result<Vec<DiagonalGmm>> {
    let alpha = affinity.alpha;
    // An empty affinity matrix would otherwise reach the ensemble with no
    // label predictions and panic there.
    if alpha == 0 || affinity.n == 0 {
        return Err(crate::GogglesError::InvalidInput(format!(
            "cannot fit base models on an empty affinity matrix (α = {alpha}, N = {})",
            affinity.n
        )));
    }
    let fit = |f: usize| {
        let block = affinity.function_block(f);
        match start {
            Start::Cold => DiagonalGmm::fit(
                &block,
                opts.num_classes,
                &opts.em,
                opts.seed ^ (0xBA5E_0000 + f as u64),
            ),
            Start::Warm(prev) => {
                let g = &prev.base_models[f];
                DiagonalGmm::fit_from(&block, &g.weights, &g.means, &g.variances, &opts.em)
            }
        }
    };
    let mut fits =
        goggles_tensor::pool::map(alpha, opts.threads, |claimed| fit(alpha - 1 - claimed));
    fits.reverse();
    fits.into_iter().map(|fit| fit.map_err(Into::into)).collect()
}

/// Concatenate α label-prediction matrices into the ensemble input
/// (`N × αK`), one-hot encoding each block when requested. Accepts owned
/// matrices or references (`&[Matrix<f64>]` / `&[&Matrix<f64>]`).
pub(crate) fn concat_label_predictions<M: std::borrow::Borrow<Matrix<f64>>>(
    blocks: &[M],
    one_hot: bool,
) -> Matrix<f64> {
    assert!(!blocks.is_empty(), "need at least one base model");
    let n = blocks[0].borrow().rows();
    let k = blocks[0].borrow().cols();
    let mut out = Matrix::<f64>::zeros(n, blocks.len() * k);
    for (f, block) in blocks.iter().enumerate() {
        let block = block.borrow();
        assert_eq!(block.shape(), (n, k), "ragged LP block {f}");
        for i in 0..n {
            let src = block.row(i);
            let dst = &mut out.row_mut(i)[f * k..(f + 1) * k];
            if one_hot {
                let best = goggles_tensor::argmax(src);
                dst[best] = 1.0;
            } else {
                dst.copy_from_slice(src);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::{normal, std_rng};

    /// Synthetic affinity matrix: `alpha_good` informative functions whose
    /// blocks have same-class affinity ≈ hi and cross ≈ lo, plus
    /// `alpha_noise` pure-noise functions. Returns (matrix, truth).
    fn synthetic_affinity(
        n_per: usize,
        alpha_good: usize,
        alpha_noise: usize,
        gap: f64,
        seed: u64,
    ) -> (AffinityMatrix, Vec<usize>) {
        let n = 2 * n_per;
        let alpha = alpha_good + alpha_noise;
        let truth: Vec<usize> = (0..n).map(|i| usize::from(i >= n_per)).collect();
        let mut rng = std_rng(seed);
        let mut data = Matrix::<f64>::zeros(n, alpha * n);
        for f in 0..alpha {
            for i in 0..n {
                for j in 0..n {
                    let v = if f < alpha_good {
                        let base = if truth[i] == truth[j] { 0.5 + gap } else { 0.5 - gap };
                        base + 0.05 * normal(&mut rng)
                    } else {
                        0.5 + 0.15 * normal(&mut rng)
                    };
                    data[(i, f * n + j)] = v.clamp(0.0, 1.0);
                }
            }
        }
        (AffinityMatrix { data, n, alpha, z_per_layer: 1 }, truth)
    }

    fn binary_accuracy(labels: &[usize], truth: &[usize]) -> f64 {
        let same =
            labels.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
        same.max(1.0 - same)
    }

    fn opts(seed: u64) -> HierarchicalOptions {
        HierarchicalOptions {
            em: EmOptions { restarts: 2, ..EmOptions::default() },
            seed,
            threads: 4,
            ..HierarchicalOptions::default()
        }
    }

    #[test]
    fn recovers_classes_from_clean_affinities() {
        let (am, truth) = synthetic_affinity(20, 3, 0, 0.3, 1);
        let model = HierarchicalModel::fit(&am, &opts(0)).unwrap();
        let labels = goggles_models::hard_labels(&model.responsibilities);
        assert!(binary_accuracy(&labels, &truth) > 0.95);
    }

    #[test]
    fn tolerates_majority_noise_functions() {
        // 2 informative functions among 8 noise ones — the affinity
        // selection problem the ensemble must solve (§4.1).
        let (am, truth) = synthetic_affinity(20, 2, 8, 0.3, 2);
        let model = HierarchicalModel::fit(&am, &opts(1)).unwrap();
        let labels = goggles_models::hard_labels(&model.responsibilities);
        assert!(binary_accuracy(&labels, &truth) > 0.9);
    }

    #[test]
    fn reliabilities_rank_good_functions_above_noise() {
        let (am, _) = synthetic_affinity(25, 2, 4, 0.35, 3);
        let model = HierarchicalModel::fit(&am, &opts(2)).unwrap();
        let rel = model.function_reliabilities();
        assert_eq!(rel.len(), 6);
        let min_good = rel[..2].iter().cloned().fold(f64::INFINITY, f64::min);
        let max_noise = rel[2..].iter().cloned().fold(0.0f64, f64::max);
        assert!(
            min_good > max_noise,
            "good {min_good:.3} should exceed noise {max_noise:.3} ({rel:?})"
        );
    }

    #[test]
    fn one_hot_encoding_is_binary_row_block_normalized() {
        let blocks = vec![
            Matrix::from_rows(&[&[0.9, 0.1], &[0.4, 0.6]]),
            Matrix::from_rows(&[&[0.2, 0.8], &[0.7, 0.3]]),
        ];
        let lp = concat_label_predictions(&blocks, true);
        assert_eq!(lp.shape(), (2, 4));
        assert_eq!(lp.row(0), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(lp.row(1), &[0.0, 1.0, 1.0, 0.0]);
        // raw mode passes probabilities through
        let raw = concat_label_predictions(&blocks, false);
        assert_eq!(raw.row(0), &[0.9, 0.1, 0.2, 0.8]);
    }

    #[test]
    fn ensemble_dims_are_alpha_times_k() {
        let (am, _) = synthetic_affinity(15, 2, 1, 0.3, 4);
        let model = HierarchicalModel::fit(&am, &opts(3)).unwrap();
        assert_eq!(model.alpha(), 3);
        assert_eq!(model.ensemble_input.shape(), (30, 6));
        assert_eq!(model.responsibilities.shape(), (30, 2));
    }

    #[test]
    fn deterministic_per_seed() {
        let (am, _) = synthetic_affinity(15, 2, 2, 0.3, 5);
        let a = HierarchicalModel::fit(&am, &opts(7)).unwrap();
        let b = HierarchicalModel::fit(&am, &opts(7)).unwrap();
        assert_eq!(
            goggles_models::hard_labels(&a.responsibilities),
            goggles_models::hard_labels(&b.responsibilities)
        );
    }

    #[test]
    fn fold_in_reproduces_training_posteriors() {
        // predict_proba on the training rows themselves must agree with the
        // stored responsibilities (same E-step on converged parameters).
        let (am, _) = synthetic_affinity(15, 2, 1, 0.3, 8);
        let model = HierarchicalModel::fit(&am, &opts(4)).unwrap();
        assert_eq!(model.n_train(), am.n);
        let rep = model.predict_proba(&am.data).unwrap();
        let diff = rep.max_abs_diff(&model.responsibilities);
        assert!(diff < 1e-8, "diff = {diff}");
    }

    #[test]
    fn empty_affinity_matrix_is_invalid_input_not_a_panic() {
        // Regression: α = 0 used to reach `alpha.div_ceil(threads)` with
        // threads clamped to 0 and panic inside the worker fan-out.
        let empty = AffinityMatrix { data: Matrix::zeros(0, 0), n: 0, alpha: 0, z_per_layer: 1 };
        match HierarchicalModel::fit(&empty, &opts(0)) {
            Err(crate::GogglesError::InvalidInput(msg)) => {
                assert!(msg.contains("empty affinity matrix"), "unexpected message: {msg}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // α > 0 but N = 0 (no instances) is equally unfittable.
        let no_rows = AffinityMatrix { data: Matrix::zeros(0, 0), n: 0, alpha: 3, z_per_layer: 1 };
        assert!(matches!(
            HierarchicalModel::fit(&no_rows, &opts(0)),
            Err(crate::GogglesError::InvalidInput(_))
        ));
    }

    #[test]
    fn warm_refit_improves_and_ignores_thread_count() {
        let (am, truth) = synthetic_affinity(15, 2, 2, 0.3, 10);
        let cold = HierarchicalModel::fit(&am, &opts(11)).unwrap();
        let warm = HierarchicalModel::refit_warm(&am, &cold, &opts(11)).unwrap();
        assert!(warm.log_likelihood >= cold.log_likelihood - 1e-9);
        let labels = goggles_models::hard_labels(&warm.responsibilities);
        assert!(binary_accuracy(&labels, &truth) > 0.9);
        // Thread fan-out must not change a single bit of the result.
        for threads in [1usize, 2, 7] {
            let o = HierarchicalOptions { threads, ..opts(11) };
            let again = HierarchicalModel::refit_warm(&am, &cold, &o).unwrap();
            assert_eq!(again.log_likelihood, warm.log_likelihood);
            assert_eq!(
                again.responsibilities.as_slice(),
                warm.responsibilities.as_slice(),
                "threads = {threads}"
            );
            for (a, b) in again.base_models.iter().zip(&warm.base_models) {
                assert_eq!(a.means.as_slice(), b.means.as_slice());
            }
        }
    }

    #[test]
    fn cold_fit_ignores_thread_count() {
        // Workers claim functions in whatever order they finish, but each
        // result lands in its own slot: no thread count changes a bit.
        let (am, _) = synthetic_affinity(15, 2, 3, 0.3, 14);
        let reference = HierarchicalModel::fit(&am, &opts(12)).unwrap();
        for threads in [1usize, 2, 7, 64] {
            let o = HierarchicalOptions { threads, ..opts(12) };
            let again = HierarchicalModel::fit(&am, &o).unwrap();
            assert_eq!(again.log_likelihood, reference.log_likelihood, "threads = {threads}");
            assert_eq!(
                again.responsibilities.as_slice(),
                reference.responsibilities.as_slice(),
                "threads = {threads}"
            );
            for (a, b) in again.base_models.iter().zip(&reference.base_models) {
                assert_eq!(a.means.as_slice(), b.means.as_slice(), "threads = {threads}");
                assert_eq!(a.variances.as_slice(), b.variances.as_slice(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn warm_refit_accepts_appended_rows() {
        // Rectangular (N + m) × αN input: the incremental-append shape. The
        // base models' dimensionality (block width N) is unchanged.
        let (am, _) = synthetic_affinity(12, 2, 1, 0.3, 12);
        let cold = HierarchicalModel::fit(&am, &opts(13)).unwrap();
        let n = am.n;
        let m = 5usize;
        let grown = Matrix::from_fn(n + m, am.alpha * n, |i, j| am.data[(i % n, j)]);
        let grown = AffinityMatrix { data: grown, n, alpha: am.alpha, z_per_layer: am.z_per_layer };
        let warm = HierarchicalModel::refit_warm(&grown, &cold, &opts(13)).unwrap();
        assert_eq!(warm.responsibilities.rows(), n + m);
        assert_eq!(warm.n_train(), n);
        assert!(warm.log_likelihood.is_finite());
    }

    #[test]
    fn warm_refit_rejects_mismatched_shapes() {
        let (am, _) = synthetic_affinity(10, 2, 0, 0.3, 14);
        let model = HierarchicalModel::fit(&am, &opts(15)).unwrap();
        let (other, _) = synthetic_affinity(10, 3, 0, 0.3, 14);
        assert!(matches!(
            HierarchicalModel::refit_warm(&other, &model, &opts(15)),
            Err(crate::GogglesError::InvalidInput(_))
        ));
        // A declared N above the model's training N is rejected too.
        let short = AffinityMatrix {
            data: am.data.clone(),
            n: am.n + 1,
            alpha: am.alpha,
            z_per_layer: am.z_per_layer,
        };
        assert!(HierarchicalModel::refit_warm(&short, &model, &opts(15)).is_err());
    }

    #[test]
    fn fold_in_rejects_wrong_width() {
        let (am, _) = synthetic_affinity(10, 2, 0, 0.3, 9);
        let model = HierarchicalModel::fit(&am, &opts(5)).unwrap();
        let bad = Matrix::<f64>::zeros(1, am.n * am.alpha + 1);
        assert!(model.predict_proba(&bad).is_err());
    }

    #[test]
    fn hierarchical_parameter_count_is_linear_in_n() {
        // The §4.1 claim: hierarchy has 2αKN + αK parameters vs the naive
        // full GMM's K(C(αN,2) + αN). Verify the formula on our shapes.
        let (am, _) = synthetic_affinity(10, 2, 0, 0.3, 6);
        let n = am.n;
        let alpha = am.alpha;
        let k = 2usize;
        let hier_params = 2 * alpha * k * n + alpha * k;
        let d = alpha * n;
        let naive_params = k * (d * (d - 1) / 2 + d);
        assert!(hier_params < naive_params / 4, "{hier_params} vs {naive_params}");
    }
}
