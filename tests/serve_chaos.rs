//! Chaos suite: the loopback serving stack under seeded fault plans.
//!
//! Each test installs a deterministic [`FaultPlan`] (seed from
//! `GOGGLES_CHAOS_SEED`, default 42 — the seed is printed so a randomized
//! CI failure reproduces with one env var) and drives the full
//! `LabelService` + `WireServer` + `RemoteLabeler` stack through it:
//! flaky and hard I/O faults on the wire, a worker panic, a torn snapshot
//! write, an overload burst, a graceful drain. The invariants are always
//! the same: **zero lost tickets** (every request resolves — bit-identical
//! success or a typed retryable error), **zero hangs** (every wait is
//! bounded), and **clean recovery** (the stack serves correctly after the
//! faults stop).
//!
//! The fault injector is process-global, so these tests serialize on one
//! lock and run in this dedicated integration binary, away from every
//! other test process.

// The lint's panic-rule audit keys off #[cfg(test)] scoping; integration
// tests compile with cfg(test), so this gate is a tautology that makes
// the intentional assert!/unwrap chaos explicit and lint-visible.
#[cfg(test)]
mod chaos {
    use goggles::prelude::*;
    use goggles::serve::{fault, ServeError};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// One lock for the whole suite: the injector is process-global.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clears the installed plan even when an assertion unwinds, so one
    /// failing test cannot leak faults into the next.
    struct PlanGuard;
    impl Drop for PlanGuard {
        fn drop(&mut self) {
            fault::clear();
        }
    }

    fn install(spec: &str) -> PlanGuard {
        fault::install(&FaultPlan::parse(spec).unwrap());
        PlanGuard
    }

    fn chaos_seed() -> u64 {
        let seed =
            std::env::var("GOGGLES_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42u64);
        // Shown on failure: rerun with GOGGLES_CHAOS_SEED=<seed> to repro.
        eprintln!("chaos seed: {seed}");
        seed
    }

    fn fixture(seed: u64) -> (FittedLabeler, Dataset) {
        let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 8, 6, seed);
        cfg.image_size = 32;
        let ds = generate(&cfg);
        let dev = ds.sample_dev_set(3, seed);
        let config = GogglesConfig { seed, ..GogglesConfig::fast() };
        let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).unwrap();
        (labeler, ds)
    }

    const HANG_GUARD: Duration = Duration::from_secs(60);

    /// Wait for a ticket with the suite's hang guard: a request that
    /// neither resolves nor fails within the guard is a lost ticket.
    fn bounded_wait(ticket: &mut Ticket) -> Result<LabelResponse, ServeError> {
        ticket.wait_timeout(HANG_GUARD).expect("ticket neither resolved nor failed: lost")
    }

    /// ≥5% injected I/O faults on the wire (transient flaky reads/writes
    /// plus periodic hard read errors that kill whole connections): with a
    /// retrying, reconnecting client every answer is still bit-identical
    /// to in-process inference, and nothing hangs or gets lost.
    #[test]
    fn flaky_wire_still_answers_bit_identically() {
        let _lock = serial();
        let seed = chaos_seed();
        let _plan = install(&format!(
            "seed={seed};wire.read:flaky@p0.08;wire.write:flaky@p0.05;wire.read:io@%41"
        ));
        let (labeler, ds) = fixture(81);
        let service =
            std::sync::Arc::new(LabelService::spawn(labeler.clone(), ServeConfig::default()));
        let server = WireServer::bind("127.0.0.1:0", std::sync::Arc::clone(&service), 2).unwrap();
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            jitter_seed: seed,
            ..RetryPolicy::default()
        };
        let client = RemoteLabeler::connect_with(server.local_addr(), policy).unwrap();
        for round in 0..4 {
            for (i, img) in ds.test_images().iter().enumerate() {
                let (expected_label, expected_probs) = labeler.label_one(img);
                let resp = client.label(img).unwrap();
                assert_eq!(resp.label, expected_label, "round {round} image {i}");
                assert_eq!(
                    resp.probs, expected_probs,
                    "round {round} image {i}: must be bit-identical"
                );
            }
        }
        // A deadline-budgeted call under the same faults: the total budget
        // spans every retry attempt and the answer is still bit-identical.
        let budgeted =
            client.label_with_deadline(ds.test_images()[1], Instant::now() + HANG_GUARD).unwrap();
        assert_eq!(budgeted.label, labeler.label_one(ds.test_images()[1]).0);
        // Recovery: with the plan cleared the stack keeps serving.
        fault::clear();
        assert!(client.label(ds.test_images()[0]).is_ok());
        assert!(!client.is_closed(), "a just-served client holds a live connection");
    }

    /// A worker panic mid-stream: the held batch's tickets resolve with the
    /// typed retryable `Closed` (never silently lost), the watchdog
    /// respawns the worker (counted in stats and metrics), and the service
    /// keeps serving bit-identically.
    #[test]
    fn worker_panic_is_respawned_by_the_watchdog() {
        let _lock = serial();
        let seed = chaos_seed();
        let (labeler, ds) = fixture(82);
        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            batch_timeout: Duration::from_millis(1),
            fault_plan: Some(
                FaultPlan::parse(&format!("seed={seed};worker.batch:panic@#2")).unwrap(),
            ),
            ..ServeConfig::default()
        };
        let service = LabelService::spawn(labeler.clone(), config);
        let images = ds.test_images();
        let mut failed = 0u32;
        for img in &images {
            let mut ticket = service.submit(Arc::new((*img).clone())).unwrap();
            match bounded_wait(&mut ticket) {
                Ok(resp) => {
                    let (expected_label, _) = labeler.label_one(img);
                    assert_eq!(resp.label, expected_label);
                }
                Err(e) => {
                    assert!(e.retryable(), "panic fallout must be typed retryable, got {e:?}");
                    failed += 1;
                }
            }
        }
        assert!(failed >= 1, "the injected panic must surface on at least one ticket");
        let stats = service.stats();
        assert_eq!(stats.worker_restarts, 1, "exactly one watchdog respawn");
        assert!(
            service.render_metrics().contains("goggles_worker_restarts_total 1"),
            "restart must be exported"
        );
        // Recovery: the respawned worker serves correctly.
        fault::clear();
        let resp = service.label(images[0]).unwrap();
        assert_eq!(resp.label, labeler.label_one(images[0]).0);
    }

    /// A torn snapshot write (simulated crash mid-write): the final name is
    /// never clobbered, the startup sweep quarantines the torn temp file,
    /// and a directory reload falls back to the newest valid version.
    #[test]
    fn torn_snapshot_write_quarantines_and_falls_back() {
        let _lock = serial();
        let seed = chaos_seed();
        let (labeler, ds) = fixture(83);
        let dir = std::env::temp_dir().join(format!("goggles_chaos_snapdir_{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // A good snapshot lands first, fault-free.
        let good = dir.join("model_a.ggl");
        labeler.save_to(&good).unwrap();

        // The next write tears: error surfaced, temp orphan left behind,
        // the good file untouched.
        let _plan = install(&format!("seed={seed};snapshot.write:torn@#1"));
        let torn = dir.join("model_b.ggl");
        let err = labeler.save_to(&torn).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "torn write must fail typed: {err:?}");
        assert!(!torn.exists(), "a torn write must never land under the final name");
        assert!(dir.join("model_b.ggl.tmp").exists(), "the torn temp file is the evidence");
        fault::clear();

        // Reloading from the directory sweeps: the torn temp is
        // quarantined and the newest valid snapshot is published.
        let service = LabelService::spawn(labeler.clone(), ServeConfig::default());
        let version = service.reload_from(&dir).unwrap();
        assert_eq!(version, 2, "fallback publishes the surviving valid snapshot");
        assert!(
            dir.join("model_b.ggl.tmp.quarantined").exists(),
            "torn temp must be quarantined, not deleted"
        );
        assert!(good.exists(), "the valid snapshot survives the sweep untouched");
        let resp = service.label(ds.test_images()[0]).unwrap();
        assert_eq!(resp.version, 2);
        assert_eq!(resp.label, labeler.label_one(ds.test_images()[0]).0);

        // A second sweep is idempotent: already-quarantined files are
        // skipped and the valid snapshot is the lone survivor.
        let report: goggles::serve::SweepReport = goggles::serve::sweep_snapshot_dir(&dir).unwrap();
        assert_eq!(report.valid, vec![good.clone()]);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An overload burst against a tiny queue: shed requests fail fast with
    /// the typed, retryable `Overloaded` over the wire (never a hang, never
    /// a dropped connection), the shed counter reflects them, and the
    /// server stays ready and serves normally afterwards.
    #[test]
    fn overload_burst_sheds_typed_and_recovers() {
        let _lock = serial();
        let seed = chaos_seed();
        let (labeler, ds) = fixture(84);
        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            batch_timeout: Duration::from_millis(20),
            shed_watermark: 2,
            fault_plan: Some(
                // A slow worker makes the burst pile up deterministically.
                FaultPlan::parse(&format!("seed={seed};worker.batch:delay:30@%1")).unwrap(),
            ),
            ..ServeConfig::default()
        };
        let service = std::sync::Arc::new(LabelService::spawn(labeler.clone(), config));
        let server = WireServer::bind("127.0.0.1:0", std::sync::Arc::clone(&service), 2).unwrap();
        assert!(server.ready_flag().load(std::sync::atomic::Ordering::Acquire));
        // No retries: the raw overload outcome must reach the caller.
        let client = RemoteLabeler::connect_with(server.local_addr(), RetryPolicy::none()).unwrap();

        let images = ds.test_images();
        let burst: Vec<Ticket> = (0..24)
            .map(|i| {
                client
                    .submit_with_deadline(
                        std::sync::Arc::new(images[i % images.len()].clone()),
                        None,
                    )
                    .unwrap()
            })
            .collect();
        let mut ok = 0u32;
        let mut shed = 0u32;
        let start = Instant::now();
        for (i, mut ticket) in burst.into_iter().enumerate() {
            match bounded_wait(&mut ticket) {
                Ok(resp) => {
                    ok += 1;
                    let img = images[i % images.len()];
                    assert_eq!(resp.label, labeler.label_one(img).0, "request {i}");
                }
                Err(ServeError::Overloaded) => {
                    assert!(ServeError::Overloaded.retryable());
                    shed += 1;
                }
                Err(other) => panic!("request {i}: expected success or Overloaded, got {other:?}"),
            }
        }
        assert!(start.elapsed() < HANG_GUARD, "burst resolution must be bounded");
        assert!(ok >= 1, "some of the burst must be served");
        assert!(shed >= 1, "a 24-deep burst over watermark 2 must shed");
        assert_eq!(service.stats().shed, u64::from(shed), "stats count every shed");

        // Recovery: faults off, queue drained — the server is still ready
        // and a retrying client sails through.
        fault::clear();
        let retrying = RemoteLabeler::connect_with(
            server.local_addr(),
            RetryPolicy { jitter_seed: seed, ..RetryPolicy::default() },
        )
        .unwrap();
        let resp = retrying.label(images[0]).unwrap();
        assert_eq!(resp.label, labeler.label_one(images[0]).0);
        assert!(server.ready_flag().load(std::sync::atomic::Ordering::Acquire));
    }

    /// Graceful drain: a wire shutdown flips readiness immediately, but
    /// every ticket already in flight is still answered before the server
    /// exits — and the whole sequence is bounded.
    #[test]
    fn drain_answers_every_inflight_ticket() {
        let _lock = serial();
        let seed = chaos_seed();
        let (labeler, ds) = fixture(85);
        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            batch_timeout: Duration::from_millis(5),
            fault_plan: Some(
                // Slow batches keep tickets in flight across the drain.
                FaultPlan::parse(&format!("seed={seed};worker.batch:delay:15@%1")).unwrap(),
            ),
            ..ServeConfig::default()
        };
        let service = std::sync::Arc::new(LabelService::spawn(labeler.clone(), config));
        let server = WireServer::bind_with(
            "127.0.0.1:0",
            std::sync::Arc::clone(&service),
            2,
            ServerOptions { drain_grace: Duration::from_millis(400), ..ServerOptions::default() },
        )
        .unwrap();
        let addr = server.local_addr();
        let ready = server.ready_flag();
        let client = RemoteLabeler::connect(addr).unwrap();
        let images = ds.test_images();
        let tickets: Vec<Ticket> = images
            .iter()
            .map(|img| {
                client.submit_with_deadline(std::sync::Arc::new((*img).clone()), None).unwrap()
            })
            .collect();

        let controller = RemoteLabeler::connect(addr).unwrap();
        controller.shutdown_server().unwrap();
        // Readiness flips as the drain starts, before the server is gone.
        let flip_deadline = Instant::now() + HANG_GUARD;
        while ready.load(std::sync::atomic::Ordering::Acquire) {
            assert!(Instant::now() < flip_deadline, "readiness never flipped during drain");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Every in-flight ticket still resolves — answered during the
        // grace window, bit-identically.
        for (i, mut ticket) in tickets.into_iter().enumerate() {
            let resp = bounded_wait(&mut ticket)
                .unwrap_or_else(|e| panic!("in-flight ticket {i} lost to the drain: {e:?}"));
            assert_eq!(resp.label, labeler.label_one(images[i]).0, "ticket {i}");
        }
        // The server winds down fully (bounded, no hang) once drained.
        let joiner = std::thread::spawn(move || server.wait());
        let join_deadline = Instant::now() + HANG_GUARD;
        while !joiner.is_finished() {
            assert!(Instant::now() < join_deadline, "drained server failed to exit");
            std::thread::sleep(Duration::from_millis(5));
        }
        joiner.join().unwrap();
        fault::clear();
    }

    /// The per-connection inflight cap sheds typed errors while a capped
    /// burst is pending, without disturbing other connections.
    #[test]
    fn per_connection_inflight_cap_sheds_only_the_noisy_connection() {
        let _lock = serial();
        let seed = chaos_seed();
        let (labeler, ds) = fixture(86);
        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            batch_timeout: Duration::from_millis(20),
            fault_plan: Some(
                FaultPlan::parse(&format!("seed={seed};worker.batch:delay:25@%1")).unwrap(),
            ),
            ..ServeConfig::default()
        };
        let service = std::sync::Arc::new(LabelService::spawn(labeler.clone(), config));
        let server = WireServer::bind_with(
            "127.0.0.1:0",
            std::sync::Arc::clone(&service),
            2,
            ServerOptions { max_inflight_per_conn: 3, ..ServerOptions::default() },
        )
        .unwrap();
        let noisy = RemoteLabeler::connect(server.local_addr()).unwrap();
        let images = ds.test_images();
        let burst: Vec<Ticket> = (0..16)
            .map(|i| {
                noisy
                    .submit_with_deadline(
                        std::sync::Arc::new(images[i % images.len()].clone()),
                        None,
                    )
                    .unwrap()
            })
            .collect();
        let mut shed = 0u32;
        for (i, mut ticket) in burst.into_iter().enumerate() {
            match bounded_wait(&mut ticket) {
                Ok(resp) => assert_eq!(resp.label, labeler.label_one(images[i % images.len()]).0),
                Err(ServeError::Overloaded) => shed += 1,
                Err(other) => panic!("request {i}: expected success or Overloaded, got {other:?}"),
            }
        }
        assert!(shed >= 1, "a 16-deep pipeline over cap 3 must shed");
        fault::clear();
        // A fresh, polite connection is unaffected.
        let polite = RemoteLabeler::connect(server.local_addr()).unwrap();
        assert_eq!(polite.label(images[0]).unwrap().label, labeler.label_one(images[0]).0);
    }
}
