//! Medical imaging scenario: bootstrap a TB-screening classifier from
//! unlabeled chest X-rays — the paper's motivating use case for domains
//! with **zero** ImageNet overlap (§5.1.1).
//!
//! The full loop: GOGGLES labels the unlabeled X-rays, the probabilistic
//! labels train a downstream model (expected cross-entropy, §2.1), and the
//! downstream model is evaluated on held-out patients — the Table 2
//! protocol, plus a comparison against training on the 10 dev labels alone
//! (the few-shot baseline).
//!
//! ```text
//! cargo run --release --example xray_screening
//! ```

use goggles::core::translate_dev_to_rows;
use goggles::endmodel::{accuracy, standardize_fit, CosineClassifier, MlpHead, TrainConfig};
use goggles::prelude::*;
use goggles::tensor::Matrix;

fn main() {
    // Unlabeled screening corpus + 5 radiologist labels per class.
    let task = TaskConfig::new(TaskKind::TbXray, 40, 15, 7);
    let dataset = generate(&task);
    let dev = dataset.sample_dev_set(5, 7);
    println!("{}: {} unlabeled studies, 10 labeled", dataset.name, dataset.train_indices.len());

    // --- Step 1: GOGGLES generates training labels ---
    let goggles = Goggles::new(GogglesConfig::fast());
    let result = goggles.label_dataset(&dataset, &dev).expect("labeling failed");
    println!(
        "GOGGLES labeling accuracy: {:.2}%",
        100.0 * result.accuracy_excluding_dev(&dataset, &dev)
    );

    // --- Step 2: train the downstream screening model ---
    let to_f64 = |m: &Matrix<f32>| Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] as f64);
    let train_imgs: Vec<Image> = dataset.train_images().iter().map(|&i| i.clone()).collect();
    let test_imgs: Vec<Image> = dataset.test_images().iter().map(|&i| i.clone()).collect();
    let train_feats_raw = to_f64(&goggles.backbone().logits_batch(&train_imgs));
    let test_feats_raw = to_f64(&goggles.backbone().logits_batch(&test_imgs));
    let standardizer = standardize_fit(&train_feats_raw);
    let train_feats = standardizer.transform(&train_feats_raw);
    let test_feats = standardizer.transform(&test_feats_raw);

    let cfg = TrainConfig { epochs: 200, ..TrainConfig::default() };
    let head = MlpHead::train(&train_feats, &result.labels.probs, 32, &cfg);
    let test_acc = accuracy(&head.predict(&test_feats), &dataset.test_labels());
    println!("downstream model (GOGGLES labels) test accuracy: {:.2}%", 100.0 * test_acc);

    // --- Baseline: few-shot training on the dev set alone ---
    let dev_rows = translate_dev_to_rows(&dataset.train_indices, &dev).unwrap();
    let support = train_feats.select_rows(&dev_rows.indices);
    let fsl = CosineClassifier::train(&support, &dev.labels, 2, 150, 0);
    let fsl_acc = accuracy(&fsl.predict(&test_feats), &dataset.test_labels());
    println!("few-shot baseline (same 10 labels)  test accuracy: {:.2}%", 100.0 * fsl_acc);

    if test_acc >= fsl_acc {
        println!("\n=> exploiting the unlabeled pool beat training on the dev set alone.");
    } else {
        println!("\n=> on this draw the few-shot baseline won — rerun with more unlabeled data.");
    }
}
