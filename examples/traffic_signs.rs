//! Hard-task scenario: GTSRB-like traffic signs, where the class evidence is
//! a small glyph inside a shared sign shape — the paper's hardest dataset
//! (70.51% in Table 1). Demonstrates per-affinity-function diagnostics:
//! which of the α functions carry signal, and what the ensemble thinks of
//! them (§4.1's "affinity function selection").
//!
//! ```text
//! cargo run --release --example traffic_signs
//! ```

use goggles::core::affinity::AffinityFunction;
use goggles::core::translate_dev_to_rows;
use goggles::prelude::*;

fn main() {
    // Two signs from the same family: identical shape and colors, glyph
    // differs (see goggles-datasets::gtsrb).
    let task = TaskConfig::new(TaskKind::Gtsrb { class_a: 0, class_b: 8 }, 32, 8, 11);
    let dataset = generate(&task);
    let dev = dataset.sample_dev_set(5, 11);
    println!("{}: same shape family, glyph-only difference", dataset.name);

    let goggles = Goggles::new(GogglesConfig::fast());
    let affinity = goggles.build_affinity_matrix(&dataset.train_images());

    // Rank affinity functions by their class-separation AUC (Example 2 /
    // Figure 2 of the paper: some functions separate, many are noise).
    let truth = dataset.train_labels();
    let z = goggles.config().top_z;
    let lib = AffinityFunction::library(affinity.alpha / z, z);
    let mut ranked: Vec<(usize, f64)> =
        (0..affinity.alpha).map(|f| (f, affinity.score_distribution(f, &truth).auc)).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop-5 affinity functions by separation AUC:");
    for &(f, auc) in ranked.iter().take(5) {
        println!("  {}  AUC = {:.3}", lib[f], auc);
    }
    println!("bottom-3 (noise, the ensemble must discount these):");
    for &(f, auc) in ranked.iter().rev().take(3) {
        println!("  {}  AUC = {:.3}", lib[f], auc);
    }

    // Full inference, then compare the ensemble's learned reliabilities
    // against the ground-truth AUC ranking.
    let dev_rows = translate_dev_to_rows(&dataset.train_indices, &dev).unwrap();
    let (labels, mapping, model) =
        goggles.infer_from_affinity(&affinity, &dev_rows).expect("inference failed");
    let rel = model.function_reliabilities();
    let best_by_model =
        (0..rel.len()).max_by(|&a, &b| rel[a].partial_cmp(&rel[b]).unwrap()).unwrap();
    println!(
        "\nensemble's most-trusted function: {} (reliability {:.3}, true AUC {:.3})",
        lib[best_by_model],
        rel[best_by_model],
        affinity.score_distribution(best_by_model, &truth).auc
    );
    println!("cluster→class mapping: {mapping:?}");

    let mut correct = 0;
    let hard = labels.hard_labels();
    for (i, &t) in truth.iter().enumerate() {
        if hard[i] == t {
            correct += 1;
        }
    }
    println!(
        "labeling accuracy: {:.2}% ({} / {} training images)",
        100.0 * correct as f64 / truth.len() as f64,
        correct,
        truth.len()
    );
}
