//! Network serving demo: fit GOGGLES once, put a wire-protocol TCP front
//! on the micro-batching service, and label held-out images from a
//! **remote client** — then hot-reload the snapshot of a second,
//! differently seeded fit *over the wire* without stopping the server.
//!
//! ```text
//! cargo run --release --example network
//! ```
//!
//! The demo exercises the transport-agnostic `Labeler` trait: the same
//! `label_images` function runs against the in-process `FittedLabeler` and
//! against the `RemoteLabeler` on the other side of a TCP connection, and
//! the answers must be **bit-identical** — the wire carries exact `f64`
//! probabilities.

use goggles::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Written once against the trait; works for every transport.
fn label_images(labeler: &dyn Labeler, images: &[&Image]) -> Vec<LabelResponse> {
    labeler.label_all(images).expect("labeling failed")
}

fn main() {
    let seed = 7u64;
    let mut task = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 12, 10, seed);
    task.image_size = 32;
    let ds = generate(&task);
    let dev = ds.sample_dev_set(4, seed);
    let config = GogglesConfig { seed, ..GogglesConfig::fast() };

    // ---- 1. fit once, label in-process (the reference answers) ---------
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).expect("fitting failed");
    let held_out = ds.test_images();
    let reference = label_images(&labeler, &held_out);

    // ---- 2. spawn the server: micro-batcher + TCP wire front ----------
    let service = Arc::new(LabelService::spawn(
        labeler,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    ));
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service), 2).expect("bind failed");
    println!("server listening on {}", server.local_addr());

    // ---- 3. remote client: same trait, one TCP connection -------------
    let client = RemoteLabeler::connect(server.local_addr()).expect("connect failed");
    let t0 = Instant::now();
    let remote = label_images(&client, &held_out);
    let elapsed = t0.elapsed();
    assert_eq!(remote.len(), reference.len());
    for (i, (r, e)) in remote.iter().zip(&reference).enumerate() {
        assert_eq!(r.label, e.label, "image {i}");
        assert_eq!(r.probs, e.probs, "image {i}: remote answers must be bit-identical");
        assert_eq!(r.version, 1, "image {i} served by version 1");
    }
    println!(
        "remote-labeled {} images in {:.2?} ({:.0} img/s, pipelined) — all bit-identical",
        remote.len(),
        elapsed,
        remote.len() as f64 / elapsed.as_secs_f64(),
    );

    // ---- 4. ticket lifecycle: non-blocking submission + deadline -------
    let mut ticket = client.submit(Arc::new(held_out[0].clone())).expect("submit failed");
    let outcome = loop {
        if let Some(outcome) = ticket.wait_timeout(Duration::from_millis(50)) {
            break outcome;
        }
        println!("…still in flight");
    };
    println!("ticket resolved: class {}", outcome.expect("labeling failed").label);
    let expired = client
        .submit_with_deadline(
            Arc::new(held_out[0].clone()),
            Some(Instant::now() - Duration::from_millis(1)),
        )
        .expect("submit failed")
        .wait();
    assert!(matches!(expired, Err(goggles::serve::ServeError::Deadline)));
    println!("expired deadline correctly answered with ServeError::Deadline");

    // ---- 5. remote hot-reload: swap a refit behind live traffic -------
    let refit_config = GogglesConfig { seed: seed + 1, ..config };
    let (refit, _) = FittedLabeler::fit(&refit_config, &ds, &dev).expect("refit failed");
    let snap_path = std::env::temp_dir().join("goggles_network_demo_refit.ggl");
    refit.save_to(&snap_path).expect("write refit snapshot");
    let version =
        client.reload(snap_path.to_str().expect("utf-8 temp path")).expect("remote reload failed");
    let post_swap = client.label(held_out[0]).expect("post-swap label failed");
    assert_eq!(post_swap.version, version, "next answer serves the reloaded version");
    assert_eq!(post_swap.probs, refit.label_one(held_out[0]).1, "and answers with the refit");
    println!("hot-reloaded over the wire as version {version}");

    // ---- 6. remote stats + clean shutdown ------------------------------
    let remote_stats = client.stats().expect("stats failed");
    println!(
        "server stats: {} requests, mean batch {:.1}, p50 {} µs, p99 {} µs (version {})",
        remote_stats.stats.requests,
        remote_stats.stats.mean_batch_size(),
        remote_stats.stats.p50_latency_us(),
        remote_stats.stats.p99_latency_us(),
        remote_stats.version,
    );
    client.shutdown_server().expect("shutdown op failed");
    drop(client);
    server.wait();
    std::fs::remove_file(&snap_path).ok();
    println!("OK: server drained and shut down cleanly.");
}
