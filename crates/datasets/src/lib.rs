//! # goggles-datasets
//!
//! Synthetic image task generators standing in for the five corpora of the
//! paper's evaluation (§5.1.1). The originals cannot be shipped (licensing,
//! size, PHI), so each generator reproduces the *task structure* that the
//! GOGGLES pipeline actually interacts with — localized class-discriminative
//! visual evidence over nuisance backgrounds — with difficulty knobs
//! calibrated so the relative ordering of the paper's Table 1 holds
//! (CUB easiest … GTSRB hardest). DESIGN.md §2 documents the substitution.
//!
//! | Generator | Mirrors | Class evidence | Nuisances |
//! |---|---|---|---|
//! | [`cub`] | CUB-200-2011 class pairs | body/head plumage colors, wing-bar patterns, beak shape | pose, position, scale, background, lighting |
//! | [`gtsrb`] | GTSRB class pairs | small glyph inside a shared sign shape | blur, exposure, clutter, occlusion |
//! | [`surface`] | surface-finish inspection | grain amplitude, pits, deep scratches | polish direction, illumination |
//! | [`xray`] (TB) | Shenzhen TB set | focal cavities/opacities in lung fields | anatomy jitter, exposure |
//! | [`xray`] (PN) | pediatric pneumonia set | diffuse lung haze | anatomy jitter, exposure |
//!
//! Every generator is deterministic given a [`TaskConfig::seed`], and CUB
//! additionally emits per-image binary attribute annotations so the Snorkel
//! comparison can build labeling functions exactly as §5.1.2 describes.

pub mod cub;
pub mod gtsrb;
pub mod surface;
pub mod types;
pub mod xray;

pub use cub::CubAttributes;
pub use types::{Dataset, DevSet, TaskConfig, TaskKind};

/// Generate the dataset described by `config`.
pub fn generate(config: &TaskConfig) -> Dataset {
    match config.kind {
        TaskKind::Cub { class_a, class_b } => cub::generate(config, class_a, class_b),
        TaskKind::Gtsrb { class_a, class_b } => gtsrb::generate(config, class_a, class_b),
        TaskKind::Surface => surface::generate(config),
        TaskKind::SurfaceGrades => surface::generate_grades(config),
        TaskKind::TbXray => xray::generate_tb(config),
        TaskKind::PnXray => xray::generate_pn(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The five benchmark tasks in the paper's Table 1 order, with the
    /// canonical class pair for the pair-sampled datasets.
    fn table1_kinds() -> [TaskKind; 5] {
        [
            TaskKind::Cub { class_a: 0, class_b: 1 },
            TaskKind::Gtsrb { class_a: 0, class_b: 1 },
            TaskKind::Surface,
            TaskKind::TbXray,
            TaskKind::PnXray,
        ]
    }

    #[test]
    fn standard_suite_covers_all_five() {
        let names: Vec<&str> = table1_kinds().iter().map(|k| k.dataset_name()).collect();
        assert_eq!(names, vec!["CUB", "GTSRB", "Surface", "TB-Xray", "PN-Xray"]);
    }

    #[test]
    fn generate_dispatches_every_kind() {
        for kind in table1_kinds() {
            let ds = generate(&TaskConfig::new(kind, 4, 2, 1));
            assert_eq!(ds.images.len(), 12, "{}", ds.name);
            assert_eq!(ds.num_classes, 2);
        }
    }
}
