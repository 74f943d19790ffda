//! Integration tests of the network front: loopback round trips through
//! `WireServer` + `RemoteLabeler` must be bit-identical to in-process
//! inference, remote hot-reload must swap versions under live load, and
//! the ticket lifecycle (deadlines, cancellation, non-blocking polls) must
//! behave the same across the wire as in-process.

use goggles::prelude::*;
use goggles::serve::ServeError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture(seed: u64) -> (FittedLabeler, Dataset) {
    let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 8, 6, seed);
    cfg.image_size = 32;
    let ds = generate(&cfg);
    let dev = ds.sample_dev_set(3, seed);
    let config = GogglesConfig { seed, ..GogglesConfig::fast() };
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).unwrap();
    (labeler, ds)
}

fn spawn_stack(
    labeler: FittedLabeler,
    config: ServeConfig,
) -> (Arc<LabelService>, WireServer, RemoteLabeler) {
    let service = Arc::new(LabelService::spawn(labeler, config));
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
    let client = RemoteLabeler::connect(server.local_addr()).unwrap();
    (service, server, client)
}

#[test]
fn loopback_answers_are_bit_identical_to_in_process_label_one() {
    let (labeler, ds) = fixture(71);
    let (_service, _server, client) = spawn_stack(labeler.clone(), ServeConfig::default());
    for (i, img) in ds.test_images().iter().enumerate() {
        let (expected_label, expected_probs) = labeler.label_one(img);
        let resp = client.label(img).unwrap();
        assert_eq!(resp.label, expected_label, "image {i}");
        assert_eq!(resp.probs, expected_probs, "image {i}: probs must be bit-identical");
        assert_eq!(resp.version, 1, "image {i}: served by the initial version");
    }
}

#[test]
fn pipelined_label_all_matches_and_batches() {
    let (labeler, ds) = fixture(72);
    let expected = labeler.label_batch(&ds.test_images(), 1);
    let (service, _server, client) = spawn_stack(
        labeler,
        ServeConfig {
            workers: 1,
            max_batch: 4,
            batch_timeout: Duration::from_millis(10),
            ..ServeConfig::default()
        },
    );
    let responses = client.label_all(&ds.test_images()).unwrap();
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.probs, expected.probs.row(i), "request {i}");
    }
    // All requests were on the wire before the first reply was awaited, so
    // the single connection must have fed the micro-batcher real batches.
    let stats = service.stats();
    assert_eq!(stats.requests, ds.test_indices.len() as u64);
    assert!(
        stats.batches < stats.requests,
        "pipelining produced only singleton batches ({} batches / {} requests)",
        stats.batches,
        stats.requests
    );
    // The remote stats op reports the same counters (plus the histogram).
    let remote = client.stats().unwrap();
    assert_eq!(remote.version, 1);
    assert_eq!(remote.stats.requests, stats.requests);
    assert_eq!(remote.stats.latency.total(), stats.requests);
    assert!(remote.stats.p99_latency_us() >= remote.stats.p50_latency_us());
}

#[test]
fn remote_reload_swaps_versions_under_load_and_prunes_the_registry() {
    let (labeler, ds) = fixture(73);
    let (swapped, _) = fixture(173);
    let images: Vec<Image> = ds.test_images().iter().map(|img| (*img).clone()).collect();
    let expected_v1 = labeler.label_batch(&ds.test_images(), 1);
    let expected_v2 = swapped.label_batch(&ds.test_images(), 1);
    // otherwise a version check by answer would be vacuous
    for i in 0..images.len() {
        assert_ne!(expected_v1.probs.row(i), expected_v2.probs.row(i), "image {i}");
    }

    let dir = std::env::temp_dir().join("goggles_remote_reload_test");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("snapshot_next.ggl");
    swapped.save_to(&snap_path).unwrap();

    let (service, server, client) = spawn_stack(
        labeler,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            batch_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    // Concurrent remote clients hammer the server while the reload lands.
    let keep_running = Arc::new(AtomicBool::new(true));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let addr = server.local_addr();
            let keep_running = Arc::clone(&keep_running);
            let images = images.clone();
            let expected_v1 = expected_v1.probs.clone();
            let expected_v2 = expected_v2.probs.clone();
            std::thread::spawn(move || {
                let client = RemoteLabeler::connect(addr).unwrap();
                let mut rounds = 0u64;
                while keep_running.load(Ordering::Relaxed) || rounds < 2 {
                    for (i, img) in images.iter().enumerate() {
                        let resp = client
                            .label(img)
                            .unwrap_or_else(|e| panic!("client {c} request {i} errored: {e}"));
                        match resp.version {
                            1 => assert_eq!(resp.probs, expected_v1.row(i), "req {i} on v1"),
                            2 => assert_eq!(resp.probs, expected_v2.row(i), "req {i} on v2"),
                            v => panic!("response from unpublished version {v}"),
                        }
                    }
                    rounds += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    // The swap, driven over the wire.
    let version = client.reload(snap_path.to_str().unwrap()).unwrap();
    assert_eq!(version, 2);
    std::thread::sleep(Duration::from_millis(20));
    keep_running.store(false, Ordering::Relaxed);
    for c in clients {
        c.join().expect("load client must not panic");
    }
    // Post-swap answers serve version 2 bit-exactly.
    for (i, img) in images.iter().enumerate() {
        let resp = client.label(img).unwrap();
        assert_eq!(resp.version, 2, "post-swap request {i}");
        assert_eq!(resp.probs, expected_v2.probs.row(i), "post-swap request {i}");
    }
    assert_eq!(service.stats().failed_requests, 0, "the swap must not drop requests");

    // Reload twice more: `reload_from` prunes retired versions (keeping
    // the rollback target), so the registry stays bounded.
    assert_eq!(client.reload(snap_path.to_str().unwrap()).unwrap(), 3);
    assert_eq!(client.reload(snap_path.to_str().unwrap()).unwrap(), 4);
    let versions = service.registry().versions();
    assert!(
        versions.len() <= 3,
        "registry must stay bounded under repeated reloads, got {versions:?}"
    );
    // A reload of a garbage file errs remotely and leaves serving intact.
    let bad_path = dir.join("garbage.ggl");
    std::fs::write(&bad_path, b"junk").unwrap();
    assert!(client.reload(bad_path.to_str().unwrap()).is_err());
    assert_eq!(client.label(&images[0]).unwrap().version, 4);
    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&bad_path).ok();
}

/// Pull the value of a single-sample family (no labels) out of a
/// Prometheus text exposition.
fn scrape_value(text: &str, family: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(family))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Sum every sample of a labeled counter family (e.g. all `result=` series
/// of `goggles_requests_total`).
fn scrape_family_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| {
            !l.starts_with('#')
                && l.split(['{', ' ']).next() == Some(family)
                && !l.starts_with(&format!("{family}_"))
        })
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

#[test]
fn remote_metrics_scrape_matches_in_process_registry() {
    let (labeler, ds) = fixture(80);
    let (service, _server, client) = spawn_stack(
        labeler,
        ServeConfig { workers: 1, batch_timeout: Duration::ZERO, ..ServeConfig::default() },
    );
    let n = ds.test_indices.len() as u64;
    client.label_all(&ds.test_images()).unwrap();

    let remote = client.metrics().unwrap();
    let local = service.render_metrics();
    // Both renders come from the same registry; spot-check that the remote
    // scrape carries the same families and counter values. (Full string
    // equality would be racy: the wire spans themselves record between the
    // two renders.)
    for family in ["goggles_requests_total", "goggles_stage_latency_us", "goggles_snapshot_version"]
    {
        assert!(remote.contains(family), "remote scrape missing {family}:\n{remote}");
        assert!(local.contains(family), "local render missing {family}:\n{local}");
    }
    assert_eq!(scrape_value(&remote, "goggles_snapshot_version"), Some(1.0));
    assert_eq!(
        scrape_family_sum(&remote, "goggles_requests_total"),
        n as f64,
        "remote requests_total must equal the requests served:\n{remote}"
    );
    assert_eq!(
        scrape_family_sum(&remote, "goggles_requests_total"),
        scrape_family_sum(&local, "goggles_requests_total"),
    );
    // The wire path itself is instrumented: the remote scrape travelled the
    // protocol, so decode/encode spans must have samples by now.
    let decode_count =
        scrape_value(&remote, "goggles_stage_latency_us_count{stage=\"wire_decode\"}");
    assert!(decode_count.unwrap_or(0.0) >= n as f64, "wire_decode span missing:\n{remote}");
    assert_eq!(service.stats().requests, n);
}

#[test]
fn remote_deadlines_resolve_to_deadline_error_without_labeling() {
    let (labeler, ds) = fixture(74);
    let (service, _server, client) = spawn_stack(labeler, ServeConfig::default());
    let img = ds.test_images()[0];
    // Client-side expiry: resolved locally.
    let expired = client
        .submit_with_deadline(
            Arc::new(img.clone()),
            Some(Instant::now() - Duration::from_millis(1)),
        )
        .unwrap()
        .wait();
    assert!(matches!(expired, Err(ServeError::Deadline)), "got {expired:?}");
    // Server-side expiry: the budget survives the wire but dies in the
    // queue (tiny budget, real image) — the batcher answers Deadline.
    let outcome = client
        .submit_with_deadline(
            Arc::new(img.clone()),
            Some(Instant::now() + Duration::from_micros(30)),
        )
        .unwrap()
        .wait();
    assert!(matches!(outcome, Err(ServeError::Deadline)), "got {outcome:?}");
    assert_eq!(service.stats().requests, 0, "expired requests must never be labeled");
    assert!(service.stats().deadline_expired >= 1);
    // A sane deadline still gets labeled.
    let ok = client
        .submit_with_deadline(Arc::new(img.clone()), Some(Instant::now() + Duration::from_secs(30)))
        .unwrap()
        .wait();
    assert!(ok.is_ok(), "got {ok:?}");
}

#[test]
fn remote_tickets_poll_and_server_survives_client_disconnect() {
    let (labeler, ds) = fixture(75);
    let (_service, server, client) = spawn_stack(labeler.clone(), ServeConfig::default());
    let img = ds.test_images()[0];
    // Non-blocking poll loop over the wire.
    let mut ticket = client.submit(Arc::new(img.clone())).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let outcome = loop {
        if let Some(outcome) = ticket.poll() {
            break outcome;
        }
        assert!(Instant::now() < deadline, "remote ticket never resolved");
        std::thread::yield_now();
    };
    let (expected_label, expected_probs) = labeler.label_one(img);
    let resp = outcome.unwrap();
    assert_eq!((resp.label, resp.probs), (expected_label, expected_probs));
    // Abrupt client disconnect with a request possibly in flight: the
    // server must keep serving new connections.
    let rude = RemoteLabeler::connect(server.local_addr()).unwrap();
    let _ = rude.submit(Arc::new(img.clone())).unwrap();
    drop(rude);
    let again = RemoteLabeler::connect(server.local_addr()).unwrap();
    assert!(again.label(img).is_ok(), "server must survive a rude disconnect");
}

#[test]
fn shutdown_op_completes_while_other_clients_stay_connected() {
    // Regression: a second, idle client keeps its connection open across
    // the shutdown op. The server must close it and wind down anyway —
    // it used to park in read_frame on the idle connection and never join.
    let (labeler, ds) = fixture(77);
    let (_service, server, client) = spawn_stack(labeler, ServeConfig::default());
    let idle = RemoteLabeler::connect(server.local_addr()).unwrap();
    assert!(idle.label(ds.test_images()[0]).is_ok());
    client.shutdown_server().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.wait();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server.wait() hung on the idle client's open connection");
    waiter.join().unwrap();
    // The idle client observes the closed connection as an error, not a hang.
    assert!(idle.label(ds.test_images()[0]).is_err());
}

#[test]
fn server_drop_completes_while_a_client_is_still_connected() {
    // Regression companion: dropping the server (e.g. unwinding) with a
    // live client connected must also not hang the join.
    let (labeler, ds) = fixture(78);
    let (_service, server, client) = spawn_stack(labeler, ServeConfig::default());
    assert!(client.label(ds.test_images()[0]).is_ok());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(server); // client intentionally still connected
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("drop(WireServer) hung on the live connection");
    dropper.join().unwrap();
    assert!(client.label(ds.test_images()[0]).is_err());
}

#[test]
fn oversized_image_fails_its_request_but_not_the_connection() {
    // An image whose wire payload exceeds the 64 MiB frame cap must be
    // rejected client-side with a descriptive error — writing it would get
    // the whole pipelined connection dropped by the server's framing layer.
    let (labeler, ds) = fixture(79);
    let (_service, _server, client) = spawn_stack(labeler, ServeConfig::default());
    let huge = Image::filled(64, 600, 600, 0.1); // 64·600·600·4 B ≈ 92 MB payload
    match client.label(&huge) {
        Err(ServeError::Wire(msg)) => assert!(msg.contains("frame cap"), "{msg}"),
        other => panic!("expected a Wire error for the oversized image, got {other:?}"),
    }
    assert!(client.label(ds.test_images()[0]).is_ok(), "connection must stay usable");
}

#[test]
fn non_finite_pixels_get_a_typed_error_and_the_connection_stays_up() {
    // One pixel outside [0, 1] (NaN and ±inf included) used to flip
    // answers to a confident wrong class. Over the wire it must come back
    // as a typed, non-retryable error, counted in the metrics, with the
    // connection still usable.
    let (labeler, ds) = fixture(81);
    let (service, _server, client) = spawn_stack(labeler.clone(), ServeConfig::default());
    let good = ds.test_images()[0];
    let bad_values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e-3];
    for bad_value in bad_values {
        let mut bad = good.clone();
        bad.tensor_mut().as_mut_slice()[17] = bad_value;
        match client.label(&bad) {
            Err(e @ ServeError::InvalidImage(_)) => assert!(!e.retryable()),
            other => panic!("{bad_value}: expected InvalidImage, got {other:?}"),
        }
        assert!(matches!(client.ingest(&bad), Err(ServeError::InvalidImage(_))));
        assert!(matches!(Labeler::label(&labeler, &bad), Err(ServeError::InvalidImage(_))));
        assert!(matches!(service.submit(Arc::new(bad)), Err(ServeError::InvalidImage(_))));
    }
    assert!(client.label(good).is_ok(), "connection must stay usable");
    let scrape = client.metrics().unwrap();
    let invalid = 2.0 * bad_values.len() as f64; // one wire label, one in-process submit each
    assert_eq!(scrape_value(&scrape, "goggles_requests_total{result=\"invalid\"}"), Some(invalid));
}

#[test]
fn client_errs_cleanly_when_server_goes_away() {
    let (labeler, ds) = fixture(76);
    let (_service, server, client) = spawn_stack(labeler, ServeConfig::default());
    let img = ds.test_images()[0];
    assert!(client.label(img).is_ok());
    client.shutdown_server().unwrap();
    server.wait();
    // Subsequent calls must error (Closed / Io), never hang or panic.
    let outcome = client.label(img);
    assert!(outcome.is_err(), "labeling after server shutdown must fail, got {outcome:?}");
}
