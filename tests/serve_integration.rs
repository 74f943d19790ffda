//! Integration tests of the serving subsystem: snapshot round-tripping,
//! out-of-sample agreement with the batch pipeline, and the model-lifecycle
//! guarantee — a snapshot published under live concurrent traffic swaps in
//! without dropping, blocking or corrupting a single request (the
//! guarantees `goggles-serve` is sold on).

use goggles::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn task(train_per_class: usize, test_per_class: usize, seed: u64) -> (Dataset, DevSet) {
    let mut cfg = TaskConfig::new(
        TaskKind::Cub { class_a: 0, class_b: 1 },
        train_per_class,
        test_per_class,
        seed,
    );
    cfg.image_size = 32;
    let ds = generate(&cfg);
    let dev = ds.sample_dev_set(4, seed);
    (ds, dev)
}

#[test]
fn snapshot_round_trip_is_byte_deterministic_and_label_stable() {
    let (ds, dev) = task(10, 8, 21);
    let config = GogglesConfig { seed: 21, ..GogglesConfig::fast() };
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).unwrap();

    // save is deterministic, and save→load→save is byte-for-byte stable
    let bytes = labeler.save();
    assert_eq!(bytes, labeler.save());
    let reloaded = FittedLabeler::load(&bytes).unwrap();
    assert_eq!(reloaded.save(), bytes);

    // label_batch is identical before and after reload
    let held_out = ds.test_images();
    let before = labeler.label_batch(&held_out, 2);
    let after = reloaded.label_batch(&held_out, 2);
    assert_eq!(before.probs, after.probs);
}

#[test]
fn out_of_sample_labels_agree_with_batch_pipeline() {
    // Serve held-out images from a snapshot, then refit the batch pipeline
    // transductively over train + held-out and compare accuracy on exactly
    // those images: the gap must be within 2 points.
    let (ds, dev) = task(20, 15, 7);
    let config = GogglesConfig { seed: 7, ..GogglesConfig::fast() };
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).unwrap();

    let held_out = ds.test_images();
    let truth = ds.test_labels();
    let served = labeler.label_batch(&held_out, 2);
    let served_acc = served.accuracy(&truth);

    let all: Vec<(Image, usize)> = ds
        .train_indices
        .iter()
        .chain(&ds.test_indices)
        .map(|&i| (ds.images[i].clone(), ds.labels[i]))
        .collect();
    let transductive = Dataset::from_parts(ds.name.clone(), ds.kind, ds.num_classes, all, vec![]);
    let batch = Goggles::new(config).label_dataset(&transductive, &dev).unwrap();
    let hard = batch.labels.hard_labels();
    let n_train = ds.train_indices.len();
    let batch_acc = (0..truth.len()).filter(|&i| hard[n_train + i] == truth[i]).count() as f64
        / truth.len() as f64;

    // One-sided: the snapshot fold-in must not *degrade* accuracy by more
    // than 2 points relative to a full refit (beating it is fine — the
    // frozen models were fit on a cleaner, train-only affinity matrix).
    assert!(
        served_acc + 0.02 + 1e-9 >= batch_acc,
        "served {served_acc:.3} trails batch {batch_acc:.3} by more than 2 points"
    );
}

#[test]
fn service_answers_match_direct_inference_and_count_requests() {
    let (ds, dev) = task(8, 6, 33);
    let config = GogglesConfig { seed: 33, ..GogglesConfig::fast() };
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).unwrap();
    let expected = labeler.label_batch(&ds.test_images(), 1);

    let service = Arc::new(LabelService::spawn(
        FittedLabeler::load(&labeler.save()).unwrap(),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            batch_timeout: Duration::from_millis(10),
            ..ServeConfig::default()
        },
    ));
    let handles: Vec<_> = ds
        .test_images()
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let service = Arc::clone(&service);
            let img = (*img).clone();
            std::thread::spawn(move || (i, service.label(&img).unwrap()))
        })
        .collect();
    for h in handles {
        let (i, resp) = h.join().unwrap();
        assert_eq!(resp.probs, expected.probs.row(i), "request {i}");
    }
    let stats = service.stats();
    assert_eq!(stats.requests, ds.test_indices.len() as u64);
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
}

#[test]
fn publish_under_concurrent_load_never_drops_or_corrupts_a_request() {
    // The swap-under-load acceptance criterion: with concurrent clients
    // running, `registry.publish(next)` completes without any request
    // erroring, every response is bit-identical to one of the two published
    // versions (on the version it reports), and post-swap responses match
    // the new version's direct `label_batch` output.
    let (ds, dev) = task(8, 6, 55);
    let config = GogglesConfig { seed: 55, ..GogglesConfig::fast() };
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).unwrap();
    // "retrained" artifact: the same task refit under another seed
    let reseeded = GogglesConfig { seed: 155, ..config };
    let (swapped, _) = FittedLabeler::fit(&reseeded, &ds, &dev).unwrap();

    let images: Vec<Image> = ds.test_images().iter().map(|img| (*img).clone()).collect();
    let expected_v1 = labeler.label_batch(&ds.test_images(), 1);
    let expected_v2 = swapped.label_batch(&ds.test_images(), 1);
    // otherwise a version check by answer would be vacuous
    for i in 0..images.len() {
        assert_ne!(expected_v1.probs.row(i), expected_v2.probs.row(i), "image {i}");
    }

    let service = Arc::new(LabelService::spawn(
        labeler,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            batch_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    ));
    let keep_running = Arc::new(AtomicBool::new(true));
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let service = Arc::clone(&service);
            let keep_running = Arc::clone(&keep_running);
            let images = images.clone();
            let expected_v1 = expected_v1.probs.clone();
            let expected_v2 = expected_v2.probs.clone();
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                let mut served = 0u64;
                // keep at least a few rounds in flight on both sides of the
                // publish, then drain until told to stop
                while keep_running.load(Ordering::Relaxed) || rounds < 3 {
                    for (i, img) in images.iter().enumerate() {
                        let resp = service
                            .label(img)
                            .unwrap_or_else(|e| panic!("client {c} request {i} errored: {e}"));
                        // bit-identical to the version the response claims
                        match resp.version {
                            1 => assert_eq!(resp.probs, expected_v1.row(i), "request {i} on v1"),
                            2 => assert_eq!(resp.probs, expected_v2.row(i), "request {i} on v2"),
                            v => panic!("response from unpublished version {v}"),
                        }
                        served += 1;
                    }
                    rounds += 1;
                }
                served
            })
        })
        .collect();

    // let traffic build up, then swap mid-stream
    std::thread::sleep(Duration::from_millis(30));
    let v = service.registry().publish(swapped).expect("publish under load");
    assert_eq!(v, 2);
    std::thread::sleep(Duration::from_millis(30));
    keep_running.store(false, Ordering::Relaxed);
    let mut total = 0u64;
    for c in clients {
        total += c.join().expect("swap client must not panic");
    }
    let stats = service.stats();
    assert_eq!(stats.requests, total, "every submitted request was answered");
    assert_eq!(stats.failed_requests, 0, "no request may be dropped by the swap");
    assert_eq!(stats.failed_batches, 0);

    // post-swap: fresh requests resolve version 2 and match its direct output
    for (i, img) in images.iter().enumerate() {
        let resp = service.label(img).unwrap();
        assert_eq!(resp.version, 2, "post-swap request {i}");
        assert_eq!(resp.probs, expected_v2.probs.row(i), "post-swap request {i}");
    }
    // both versions actually carried traffic, and the counters account for
    // every request (clients + the verification loop above)
    let versions = service.registry().versions();
    assert_eq!(versions.len(), 2);
    assert!(versions[1].current);
    assert!(versions[1].served >= images.len() as u64, "v2 must have served traffic");
    let by_version: u64 = versions.iter().map(|v| v.served).sum();
    assert_eq!(by_version, total + images.len() as u64);
}

#[test]
fn rollback_behind_running_service_restores_old_answers() {
    let (ds, dev) = task(8, 5, 56);
    let config = GogglesConfig { seed: 56, ..GogglesConfig::fast() };
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).unwrap();
    let reseeded = GogglesConfig { seed: 156, ..config };
    let (swapped, _) = FittedLabeler::fit(&reseeded, &ds, &dev).unwrap();
    let img = ds.test_images()[0].clone();
    let expected_v1 = labeler.label_batch(&[&img], 1);
    let expected_v2 = swapped.label_batch(&[&img], 1);
    assert_ne!(expected_v1.probs, expected_v2.probs, "the two fits must answer differently");

    let service = LabelService::spawn(labeler, ServeConfig::default());
    service.registry().publish(swapped).unwrap();
    let resp = service.label(&img).unwrap();
    assert_eq!(resp.version, 2);
    assert_eq!(resp.probs, expected_v2.probs.row(0));
    let restored = service.registry().rollback().unwrap();
    assert_eq!(restored, 1);
    let resp = service.label(&img).unwrap();
    assert_eq!(resp.version, 1);
    assert_eq!(resp.probs, expected_v1.probs.row(0));
}
