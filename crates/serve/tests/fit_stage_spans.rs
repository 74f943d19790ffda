//! `FittedLabeler::fit` runs the same corpus fit as `Goggles::label_dataset`
//! (`Goggles::fit_corpus`), so one call must attribute its wall time to each
//! of the five `goggles_fit_stage_latency_us` stages exactly once. This test
//! lives in its own binary so no other test in the process records into the
//! global registry while it counts.

use goggles_core::GogglesConfig;
use goggles_datasets::{generate, TaskConfig, TaskKind};
use goggles_serve::FittedLabeler;

const STAGES: [&str; 5] = ["embed", "affinity", "em_base", "em_ensemble", "map"];

fn observations(stage: &str) -> u64 {
    goggles_obs::global()
        .histogram("goggles_fit_stage_latency_us", "", &[("stage", stage)])
        .snapshot()
        .total()
}

#[test]
fn one_fitted_labeler_fit_observes_each_stage_once() {
    let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 12, 2, 3);
    cfg.image_size = 32;
    let ds = generate(&cfg);
    let dev = ds.sample_dev_set(3, 3);
    let config = GogglesConfig { seed: 3, ..GogglesConfig::fast() };
    let before = STAGES.map(observations);
    FittedLabeler::fit(&config, &ds, &dev).expect("fit");
    let after = STAGES.map(observations);
    for ((stage, b), a) in STAGES.iter().zip(before).zip(after) {
        assert_eq!(a - b, 1, "stage {stage}: {b} → {a} observations");
    }
}
