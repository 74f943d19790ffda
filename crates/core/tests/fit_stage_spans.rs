//! `label_dataset` attributes its wall time to five stage spans in the
//! `goggles_fit_stage_latency_us` family. This test lives in its own binary
//! so no other test in the process records into the global registry while
//! it counts.

use goggles_core::{Goggles, GogglesConfig};
use goggles_datasets::{generate, TaskConfig, TaskKind};

const STAGES: [&str; 5] = ["embed", "affinity", "em_base", "em_ensemble", "map"];

fn observations(stage: &str) -> u64 {
    goggles_obs::global()
        .histogram("goggles_fit_stage_latency_us", "", &[("stage", stage)])
        .snapshot()
        .total()
}

#[test]
fn one_label_dataset_call_observes_each_stage_once() {
    let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 12, 2, 3);
    cfg.image_size = 32;
    let ds = generate(&cfg);
    let dev = ds.sample_dev_set(3, 3);
    let goggles = Goggles::new(GogglesConfig { seed: 3, ..GogglesConfig::fast() });
    let before = STAGES.map(observations);
    goggles.label_dataset(&ds, &dev).expect("labeling");
    let after = STAGES.map(observations);
    for ((stage, b), a) in STAGES.iter().zip(before).zip(after) {
        assert_eq!(a - b, 1, "stage {stage}: {b} → {a} observations");
    }
}
