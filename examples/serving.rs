//! End-to-end serving demo: fit GOGGLES once, freeze it into a snapshot,
//! reload from bytes, and label held-out images **online** through the
//! micro-batching [`LabelService`] — per-request cost is O(image): no
//! training-matrix rebuild, no mixture-model refit. The demo then
//! **hot-reloads** the snapshot of a second, differently seeded fit behind
//! the running service (publish → new version, rollback → old version)
//! without stopping it.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! The demo also runs the paper's batch (transductive) pipeline over the
//! same held-out images and checks the served accuracy lands within
//! 2 points of it.

use goggles::core::translate_dev_to_rows;
use goggles::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let seed = 7u64;
    // 30 train + 25 held-out images per class (binary task → 50 held out).
    let mut task = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 30, 25, seed);
    task.image_size = 32;
    let ds = generate(&task);
    let dev = ds.sample_dev_set(5, seed);
    let config = GogglesConfig { seed, ..GogglesConfig::fast() };

    // ---- 1. fit once (batch) and freeze -------------------------------
    let t0 = Instant::now();
    let (labeler, fit_result) = FittedLabeler::fit(&config, &ds, &dev).expect("fitting failed");
    let fit_time = t0.elapsed();
    println!(
        "fitted on {} images in {:.2?} (train accuracy {:.1}%)",
        ds.train_indices.len(),
        fit_time,
        100.0 * fit_result.accuracy_excluding_dev(&ds, &dev),
    );

    // ---- 2. snapshot to bytes and reload ------------------------------
    let bytes = labeler.save();
    println!("snapshot: {} KiB", bytes.len() / 1024);
    let reloaded = FittedLabeler::load(&bytes).expect("snapshot reload failed");

    // ---- 3. serve the held-out images through the micro-batcher -------
    let held_out = ds.test_images();
    let truth = ds.test_labels();
    assert!(held_out.len() >= 50, "need ≥ 50 held-out images");
    let service = Arc::new(LabelService::spawn(
        reloaded,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    ));
    let t1 = Instant::now();
    let handles: Vec<_> = held_out
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let service = Arc::clone(&service);
            let img = (*img).clone();
            std::thread::spawn(move || (i, service.label(&img).expect("service closed")))
        })
        .collect();
    let mut served_labels = vec![0usize; held_out.len()];
    for h in handles {
        let (i, resp) = h.join().expect("client thread");
        served_labels[i] = resp.label;
    }
    let serve_time = t1.elapsed();
    let stats = service.stats();
    let served_acc = served_labels.iter().zip(&truth).filter(|(a, b)| a == b).count() as f64
        / truth.len() as f64;
    println!(
        "served {} held-out images in {:.2?} ({:.0} img/s, {} batches, mean batch {:.1}, mean latency {:.1} ms)",
        stats.requests,
        serve_time,
        stats.requests as f64 / serve_time.as_secs_f64(),
        stats.batches,
        stats.mean_batch_size(),
        stats.mean_latency_us() / 1000.0,
    );
    println!("served accuracy on held-out images: {:.1}%", 100.0 * served_acc);

    // ---- 4. hot-reload a refit snapshot behind the service -----------
    // A production labeler is refit as the corpus grows; the registry
    // publishes the new version under live traffic — in-flight batches
    // finish on the old version, the next batch serves the new one.
    let refit_config = GogglesConfig { seed: seed + 1, ..config.clone() };
    let (refit, _) = FittedLabeler::fit(&refit_config, &ds, &dev).expect("refit failed");
    let snap_path = std::env::temp_dir().join("goggles_serving_demo_refit.ggl");
    refit.save_to(&snap_path).expect("write refit snapshot");
    let version = service.reload_from(&snap_path).expect("hot-reload failed");
    let resp = service.label(held_out[0]).expect("service closed");
    assert_eq!(resp.version, version, "post-swap requests serve the new version");
    assert_eq!(resp.probs, refit.label_one(held_out[0]).1, "and answer with the refit");
    println!(
        "hot-reloaded the refit as version {version}; next answer came from version {} (class {})",
        resp.version, resp.label
    );
    let rolled_back = service.registry().rollback().expect("rollback failed");
    assert_eq!(service.label(held_out[0]).expect("service closed").version, rolled_back);
    println!("rolled back to version {rolled_back}; registry: {:?}", service.registry().versions());
    std::fs::remove_file(&snap_path).ok();

    // ---- 5. reference: the paper's batch pipeline over the same images -
    // The batch system can only label images inside its affinity matrix, so
    // it must refit on train + held-out (transductive) — exactly the cost
    // the serving path avoids.
    let t2 = Instant::now();
    let all: Vec<(Image, usize)> = ds
        .train_indices
        .iter()
        .chain(&ds.test_indices)
        .map(|&i| (ds.images[i].clone(), ds.labels[i]))
        .collect();
    let transductive = Dataset::from_parts(ds.name.clone(), ds.kind, ds.num_classes, all, vec![]);
    // dev indices keep their positions: train block order is unchanged.
    let dev_t = translate_dev_to_rows(&ds.train_indices, &dev).unwrap();
    let batch_result =
        Goggles::new(config).label_dataset(&transductive, &dev_t).expect("batch pipeline failed");
    let batch_time = t2.elapsed();
    let batch_hard = batch_result.labels.hard_labels();
    let n_train = ds.train_indices.len();
    let batch_acc = (0..held_out.len()).filter(|&i| batch_hard[n_train + i] == truth[i]).count()
        as f64
        / truth.len() as f64;
    println!(
        "batch (refit) pipeline on the same images: {:.1}% in {:.2?}",
        100.0 * batch_acc,
        batch_time
    );

    let gap = (served_acc - batch_acc).abs();
    println!("accuracy gap: {:.1} points", 100.0 * gap);
    assert!(
        gap <= 0.02 + 1e-9,
        "served accuracy must be within 2 points of the batch pipeline (gap {:.3})",
        gap
    );
    println!("OK: online serving matches the batch pipeline within 2 points.");
}
