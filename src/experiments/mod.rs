//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5). The bench targets in `crates/bench` and several examples
//! are thin wrappers over this module.
//!
//! | Paper artifact | Entry point |
//! |---|---|
//! | Table 1 (labeling accuracy) | [`table1::run`] |
//! | Table 2 (end-model accuracy) | [`table2::run`] |
//! | Figure 2 (affinity distributions) | [`figures::figure2`] |
//! | Figure 5 (affinity matrix blocks) | [`figures::figure5`] |
//! | Figure 7 (dev-set size theory) | [`figures::figure7`] |
//! | Figure 8 (accuracy vs dev size) | [`figures::figure8`] |
//! | Figure 9 (accuracy vs #functions) | [`figures::figure9`] |
//!
//! Performance is not measured here: the `perfbench` harness at the repo
//! root times serving, embedding, affinity and the retrain loop, layer by
//! layer, on the same code paths.
//!
//! Every run is deterministic given the [`Scale`]; `Scale::from_env()`
//! honours `GOGGLES_SCALE=quick|standard|paper` so CI and laptops can dial
//! the cost.

pub mod figures;
pub mod methods;
pub mod report;
pub mod table1;
pub mod table2;

use goggles_cnn::VggConfig;
use goggles_core::{translate_dev_to_rows, Goggles, GogglesConfig};
use goggles_datasets::{cub, generate, gtsrb, Dataset, DevSet, TaskConfig, TaskKind};
use goggles_models::EmOptions;
use goggles_tensor::Matrix;

/// Cost dial for the experiment suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale smoke run: tiny backbone, small datasets, 1 trial.
    Quick,
    /// Default: small backbone, moderate datasets, 2 trials / 2 pairs.
    Standard,
    /// Paper-shaped: full 64×64 backbone, Z = 10 (α = 50), 3 trials /
    /// 3 class pairs. (The paper itself averages 10 trials / 10 pairs;
    /// bump [`RunParams::trials`] if you have the patience.)
    Paper,
}

impl Scale {
    /// Read the scale from `GOGGLES_SCALE` (default [`Scale::Standard`]).
    pub fn from_env() -> Self {
        match std::env::var("GOGGLES_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "quick" => Scale::Quick,
            "paper" => Scale::Paper,
            _ => Scale::Standard,
        }
    }

    /// Concrete run parameters for this scale.
    pub fn params(self) -> RunParams {
        match self {
            Scale::Quick => RunParams {
                n_train_per_class: 16,
                n_test_per_class: 8,
                image_size: 32,
                pairs: 1,
                trials: 1,
                dev_per_class: 5,
                top_z: 4,
                tiny_backbone: true,
            },
            Scale::Standard => RunParams {
                n_train_per_class: 24,
                n_test_per_class: 10,
                image_size: 64,
                pairs: 2,
                trials: 2,
                dev_per_class: 5,
                top_z: 6,
                tiny_backbone: false,
            },
            Scale::Paper => RunParams {
                n_train_per_class: 50,
                n_test_per_class: 15,
                image_size: 64,
                pairs: 3,
                trials: 3,
                dev_per_class: 5,
                top_z: 10,
                tiny_backbone: false,
            },
        }
    }
}

/// Concrete knobs of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Training images per class.
    pub n_train_per_class: usize,
    /// Held-out test images per class.
    pub n_test_per_class: usize,
    /// Square image side.
    pub image_size: usize,
    /// Class pairs sampled for CUB / GTSRB (paper: 10).
    pub pairs: usize,
    /// Trials per fixed-class dataset (paper: 10).
    pub trials: usize,
    /// Dev labels per class (paper default: 5).
    pub dev_per_class: usize,
    /// Prototypes per layer (paper: 10 → α = 50).
    pub top_z: usize,
    /// Use the reduced backbone (tests / quick runs).
    pub tiny_backbone: bool,
}

impl RunParams {
    /// The GOGGLES configuration implied by these parameters.
    pub fn goggles_config(&self, seed: u64) -> GogglesConfig {
        let vgg = if self.tiny_backbone {
            VggConfig { input_size: self.image_size.max(32), ..VggConfig::tiny() }
        } else {
            VggConfig { input_size: self.image_size.max(64), ..VggConfig::default() }
        };
        GogglesConfig {
            vgg,
            top_z: self.top_z,
            em: EmOptions { restarts: 2, ..EmOptions::default() },
            seed,
            ..GogglesConfig::default()
        }
    }

    /// The five benchmark tasks for trial `trial` (CUB/GTSRB pick the
    /// `trial`-th sampled class pair, wrapping).
    pub fn tasks_for_trial(&self, trial: usize) -> Vec<TaskConfig> {
        let cub_pairs = cub::class_pairs(self.pairs.max(1), 0xC0B);
        let gtsrb_pairs = gtsrb::class_pairs(self.pairs.max(1), 0x675);
        let (ca, cb) = cub_pairs[trial % cub_pairs.len()];
        let (ga, gb) = gtsrb_pairs[trial % gtsrb_pairs.len()];
        let seed = 0x5EED_0000 + trial as u64;
        let mk = |kind| TaskConfig {
            kind,
            n_train_per_class: self.n_train_per_class,
            n_test_per_class: self.n_test_per_class,
            image_size: self.image_size,
            seed,
        };
        vec![
            mk(TaskKind::Cub { class_a: ca, class_b: cb }),
            mk(TaskKind::Gtsrb { class_a: ga, class_b: gb }),
            mk(TaskKind::Surface),
            mk(TaskKind::TbXray),
            mk(TaskKind::PnXray),
        ]
    }
}

/// Everything one (dataset, trial) evaluation needs, computed once and
/// shared by all methods so the comparison is apples-to-apples: same
/// backbone, same affinity matrix, same dev set, same features.
pub struct TrialContext {
    /// The generated dataset.
    pub dataset: Dataset,
    /// The sampled development set (global indices).
    pub dev: DevSet,
    /// The GOGGLES system (owns the shared frozen backbone).
    pub goggles: Goggles,
    /// Affinity matrix over the training block.
    pub affinity: goggles_core::AffinityMatrix,
    /// Dev set translated to affinity row space.
    pub dev_rows: DevSet,
    /// Backbone logits of the training block (raw f64).
    pub train_logits: Matrix<f64>,
    /// Backbone logits of the test block (raw f64).
    pub test_logits: Matrix<f64>,
}

impl TrialContext {
    /// Build the shared context for one task configuration.
    pub fn build(params: &RunParams, task: &TaskConfig, trial: usize) -> Self {
        let dataset = generate(task);
        let dev = dataset.sample_dev_set(params.dev_per_class, task.seed ^ trial as u64);
        let goggles = Goggles::new(params.goggles_config(0xA11 + trial as u64));
        let affinity = goggles.build_affinity_matrix(&dataset.train_images());
        let dev_rows = translate_dev_to_rows(&dataset.train_indices, &dev)
            .expect("dev index must be in the training block");
        let to_f64 = |m: &Matrix<f32>| Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] as f64);
        let train_imgs: Vec<_> = dataset.train_images().iter().map(|&i| i.clone()).collect();
        let test_imgs: Vec<_> = dataset.test_images().iter().map(|&i| i.clone()).collect();
        let threads = goggles.config().threads;
        let train_logits = to_f64(&goggles.backbone().logits_batch_threaded(&train_imgs, threads));
        let test_logits = to_f64(&goggles.backbone().logits_batch_threaded(&test_imgs, threads));
        Self { dataset, dev, goggles, affinity, dev_rows, train_logits, test_logits }
    }

    /// Ground-truth labels of the training block.
    pub fn train_truth(&self) -> Vec<usize> {
        self.dataset.train_labels()
    }

    /// Row positions (train-block space) of the dev set.
    pub fn dev_row_set(&self) -> Vec<usize> {
        self.dev_rows.indices.clone()
    }

    /// Accuracy of hard labels over non-dev training rows — the paper's
    /// labeling-accuracy metric ("the remaining images", §5.1.1).
    pub fn labeling_accuracy(&self, hard_labels: &[usize]) -> f64 {
        let truth = self.train_truth();
        assert_eq!(hard_labels.len(), truth.len());
        let dev_rows = self.dev_row_set();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, (&p, &t)) in hard_labels.iter().zip(&truth).enumerate() {
            if dev_rows.contains(&i) {
                continue;
            }
            total += 1;
            if p == t {
                correct += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Best accuracy over all cluster→class permutations (the "optimal
    /// cluster-class mapping" the paper grants the clustering baselines),
    /// computed over non-dev rows via the assignment solver.
    pub fn optimal_mapping_accuracy(&self, cluster_labels: &[usize], k: usize) -> f64 {
        let truth = self.train_truth();
        assert_eq!(cluster_labels.len(), truth.len());
        let dev_rows = self.dev_row_set();
        // counts[cluster][class] over non-dev rows
        let mut counts = Matrix::<f64>::zeros(k, k);
        let mut total = 0usize;
        for (i, (&c, &t)) in cluster_labels.iter().zip(&truth).enumerate() {
            if dev_rows.contains(&i) {
                continue;
            }
            counts[(c, t)] += 1.0;
            total += 1;
        }
        if total == 0 {
            return 0.0;
        }
        let assign = goggles_models::solve_assignment(&counts);
        let correct: f64 = assign.iter().enumerate().map(|(c, &t)| counts[(c, t)]).sum();
        correct / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_increasing_cost() {
        let q = Scale::Quick.params();
        let s = Scale::Standard.params();
        let p = Scale::Paper.params();
        assert!(q.n_train_per_class <= s.n_train_per_class);
        assert!(s.n_train_per_class <= p.n_train_per_class);
        assert_eq!(p.top_z, 10, "paper scale must use α = 50");
        assert!(!p.tiny_backbone);
    }

    #[test]
    fn tasks_for_trial_covers_all_five() {
        let params = Scale::Quick.params();
        let tasks = params.tasks_for_trial(0);
        assert_eq!(tasks.len(), 5);
        let names: Vec<_> = tasks.iter().map(|t| t.kind.dataset_name()).collect();
        assert_eq!(names, vec!["CUB", "GTSRB", "Surface", "TB-Xray", "PN-Xray"]);
        // different trials draw different CUB pairs when pairs > 1
        let p2 = RunParams { pairs: 3, ..params };
        let t0 = p2.tasks_for_trial(0)[0].kind;
        let t1 = p2.tasks_for_trial(1)[0].kind;
        assert_ne!(t0, t1);
    }

    #[test]
    fn trial_context_is_consistent() {
        let params = RunParams {
            n_train_per_class: 6,
            n_test_per_class: 2,
            image_size: 32,
            pairs: 1,
            trials: 1,
            dev_per_class: 2,
            top_z: 2,
            tiny_backbone: true,
        };
        let task = params.tasks_for_trial(0)[2]; // Surface: cheapest
        let ctx = TrialContext::build(&params, &task, 0);
        let n = ctx.dataset.train_indices.len();
        assert_eq!(ctx.affinity.n, n);
        assert_eq!(ctx.affinity.alpha, 5 * params.top_z);
        assert_eq!(ctx.train_logits.rows(), n);
        assert_eq!(ctx.test_logits.rows(), 4);
        assert_eq!(ctx.dev_rows.indices.len(), 4);
        // perfect labels → accuracy 1; flipped → 0
        let truth = ctx.train_truth();
        assert_eq!(ctx.labeling_accuracy(&truth), 1.0);
        let flipped: Vec<usize> = truth.iter().map(|&t| 1 - t).collect();
        assert_eq!(ctx.labeling_accuracy(&flipped), 0.0);
        // optimal mapping rescues the flip
        assert_eq!(ctx.optimal_mapping_accuracy(&flipped, 2), 1.0);
    }
}
