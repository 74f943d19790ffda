//! Property tests for the continuous-learning loop's two core guarantees:
//!
//! 1. **Incremental append ≡ rebuild.** Affinity rows for new images
//!    computed against the *frozen* prototype bank (the trainer's
//!    `affinity_rows_for` path) are bit-identical to what a from-scratch
//!    rectangular rebuild over old+new images would produce — growing the
//!    matrix one batch at a time loses nothing.
//! 2. **Warm-start EM is thread-count invariant.** `refit_warm` (and the
//!    full gated `refit_from_affinity` selection) produces bit-identical
//!    parameters whether the per-function fan-out runs on 1 thread or
//!    several — the trainer may be deployed on any core count without
//!    perturbing what gets published.

use goggles::core::{
    Goggles, GogglesConfig, HierarchicalModel, HierarchicalOptions, RefitSelection,
};
use goggles::datasets::{generate, Dataset, TaskConfig, TaskKind};
use goggles::serve::{FittedLabeler, TrainingBootstrap};
use goggles::tensor::Matrix;
use goggles::vision::Image;
use proptest::prelude::*;

/// Smallest task that still exercises both hierarchy levels: 2 classes,
/// 3 train images each, 32×32 pixels, tiny backbone.
fn tiny_task(seed: u64, per_class: usize) -> TaskConfig {
    let mut task = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, per_class, 1, seed);
    task.image_size = 32;
    task
}

fn tiny_fit(seed: u64) -> (GogglesConfig, Dataset, TrainingBootstrap) {
    let config = GogglesConfig { seed, ..GogglesConfig::fast() };
    let ds = generate(&tiny_task(seed, 3));
    let dev = ds.sample_dev_set(1, seed);
    let bootstrap = FittedLabeler::fit_for_training(&config, &ds, &dev)
        .expect("bootstrap fit on the tiny task");
    (config, ds, bootstrap)
}

fn bits(m: &Matrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Appending rows batch-by-batch against the frozen bank is
    /// bit-identical to computing the full rectangular matrix in one shot,
    /// at any thread count.
    #[test]
    fn incremental_append_is_bit_identical_to_rebuild(
        seed in 0u64..1_000,
        extra_per_class in 1usize..3,
        threads in 1usize..4,
    ) {
        let (_config, ds, mut bootstrap) = tiny_fit(seed);
        let new_ds = generate(&tiny_task(seed.wrapping_add(101), extra_per_class));
        let new_images: Vec<&Image> = new_ds.train_images();

        // Incremental path: the bootstrap's training matrix grown in place
        // by one appended batch, the step the trainer runs each cycle.
        let appended = bootstrap.labeler.affinity_rows_for(&new_images, threads);
        bootstrap.affinity.append_rows(&appended).expect("appended rows have the matrix's width");
        let incremental = &bootstrap.affinity.data;

        // Rebuild path: every image (old and new) through one batch call
        // against the same frozen bank.
        let old_images = ds.train_images();
        let all: Vec<&Image> = old_images.iter().chain(new_images.iter()).copied().collect();
        let rebuilt = bootstrap.labeler.affinity_rows_for(&all, 1);

        prop_assert_eq!(rebuilt.rows(), incremental.rows());
        prop_assert_eq!(rebuilt.cols(), incremental.cols());
        prop_assert_eq!(bits(&rebuilt), bits(incremental));

        // And the appended batch itself is thread-count invariant.
        let appended_serial = bootstrap.labeler.affinity_rows_for(&new_images, 1);
        prop_assert_eq!(bits(&appended), bits(&appended_serial));
    }

    /// `refit_warm` run on the grown matrix yields bit-identical model
    /// parameters regardless of the per-function thread fan-out, and the
    /// full gated selection (`refit_from_affinity`) picks the same
    /// candidate with the same dev score and labels.
    #[test]
    fn warm_refit_is_deterministic_across_thread_counts(seed in 0u64..1_000) {
        let (config, _ds, bootstrap) = tiny_fit(seed);
        let new_ds = generate(&tiny_task(seed.wrapping_add(202), 1));
        let appended = bootstrap.labeler.affinity_rows_for(&new_ds.train_images(), 1);
        let mut grown = bootstrap.affinity;
        grown.append_rows(&appended).expect("appended rows have the matrix's width");
        let prev = &bootstrap.result.model;

        let opts = |threads: usize| HierarchicalOptions {
            num_classes: config.num_classes,
            em: config.em,
            one_hot: config.one_hot,
            threads,
            seed: config.seed,
        };
        let serial = HierarchicalModel::refit_warm(&grown, prev, &opts(1))
            .expect("warm refit, 1 thread");
        let fanned = HierarchicalModel::refit_warm(&grown, prev, &opts(3))
            .expect("warm refit, 3 threads");
        prop_assert_eq!(serial.log_likelihood.to_bits(), fanned.log_likelihood.to_bits());
        prop_assert_eq!(bits(&serial.responsibilities), bits(&fanned.responsibilities));
        prop_assert_eq!(serial.base_models.len(), fanned.base_models.len());
        for (a, b) in serial.base_models.iter().zip(&fanned.base_models) {
            prop_assert_eq!(bits(&a.means), bits(&b.means));
            prop_assert_eq!(bits(&a.variances), bits(&b.variances));
        }
        prop_assert_eq!(bits(&serial.ensemble.probs), bits(&fanned.ensemble.probs));

        // The full gated selection agrees too: same winner, same score,
        // same published labels.
        let pick = |threads: usize| -> RefitSelection {
            let goggles = Goggles::new(GogglesConfig { threads, ..config.clone() });
            goggles
                .refit_from_affinity(&grown, &bootstrap.dev_rows, prev)
                .expect("gated refit selection")
        };
        let sel_serial = pick(1);
        let sel_fanned = pick(3);
        prop_assert_eq!(sel_serial.candidate, sel_fanned.candidate);
        prop_assert_eq!(sel_serial.dev_score.to_bits(), sel_fanned.dev_score.to_bits());
        prop_assert_eq!(&sel_serial.mapping, &sel_fanned.mapping);
        prop_assert_eq!(bits(&sel_serial.labels.probs), bits(&sel_fanned.labels.probs));
    }
}
