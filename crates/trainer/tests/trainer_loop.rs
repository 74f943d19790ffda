//! End-to-end exercise of the continuous-learning loop against a live
//! `LabelService`: ingest → incremental refit → gated publish, with the
//! serving plane answering throughout. Four scenarios:
//!
//! 1. happy path — a batch publishes under live label load with zero
//!    dropped requests, and an image with a pixel outside [0, 1] is
//!    refused at intake;
//! 2. offline gate failure (`trainer.gate` failpoint) — the candidate is
//!    rejected and serving stays bit-identical on the old version;
//! 3. canary regression (`trainer.canary` failpoint) — the candidate
//!    publishes, regresses, and is rolled back; serving returns to the
//!    previous version bit-identically;
//! 4. torn snapshot write (`snapshot.write` failpoint) — the cycle fails
//!    before the registry is touched, then succeeds once the fault clears.
//!
//! The fault injector is process-global, so every test serializes on one
//! lock (same discipline as the root `serve_chaos` suite).

#[cfg(test)]
mod loop_tests {
    use goggles_core::GogglesConfig;
    use goggles_datasets::{generate, TaskConfig, TaskKind};
    use goggles_serve::{
        fault, FaultPlan, FittedLabeler, LabelService, Labeler, ServeConfig, ServeError,
        TrainingBootstrap,
    };
    use goggles_trainer::{RefitOutcome, Trainer, TrainerConfig};
    use goggles_vision::Image;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    /// One lock for the whole suite: the injector is process-global.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clears the installed plan even when an assertion unwinds.
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

    fn tiny_task(seed: u64, per_class: usize) -> TaskConfig {
        let mut task =
            TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, per_class, 1, seed);
        task.image_size = 32;
        task
    }

    /// Bootstrap fit plus a pool of fresh images to feed the intake.
    fn fixture(seed: u64) -> (GogglesConfig, TrainingBootstrap, Vec<Image>) {
        let config = GogglesConfig { seed, ..GogglesConfig::fast() };
        let ds = generate(&tiny_task(seed, 3));
        let dev = ds.sample_dev_set(1, seed);
        let bootstrap = FittedLabeler::fit_for_training(&config, &ds, &dev).unwrap();
        let pool = generate(&tiny_task(seed.wrapping_add(909), 4));
        let fresh: Vec<Image> = pool.train_images().into_iter().cloned().collect();
        (config, bootstrap, fresh)
    }

    /// TrainerConfig with the offline gate held wide open (`epsilon: 1.0`
    /// can never reject a score in [0, 1]) so each scenario deterministically
    /// reaches the stage under test; the gate's own arithmetic is covered
    /// by the failpoint scenarios and unit tests.
    fn open_gate() -> TrainerConfig {
        TrainerConfig { min_batch: 2, epsilon: 1.0, ..TrainerConfig::default() }
    }

    fn stack(
        bootstrap: TrainingBootstrap,
        config: &GogglesConfig,
        options: TrainerConfig,
    ) -> (Arc<LabelService>, Trainer) {
        let registry =
            Arc::new(goggles_serve::SnapshotRegistry::new(bootstrap.labeler.clone()).unwrap());
        let service = Arc::new(LabelService::spawn_with_registry(
            Arc::clone(&registry),
            ServeConfig::with_workers(2),
        ));
        let trainer = Trainer::spawn(bootstrap, config, registry, options);
        (service, trainer)
    }

    const REFIT_TIMEOUT: Duration = Duration::from_secs(60);

    #[test]
    fn publishes_under_live_load_with_zero_drops() {
        let _guard = serial();
        let (config, bootstrap, fresh) = fixture(11);
        let options = open_gate();
        // Exactly one cycle's worth: with more, a cycle may start once
        // `min_batch` have arrived and leave the rest for the next one.
        let batch = options.min_batch;
        let (service, trainer) = stack(bootstrap, &config, options);

        // Live label load on a second thread for the whole cycle.
        let stop = Arc::new(AtomicBool::new(false));
        let probe = fresh[0].clone();
        let load = {
            let (service, stop, probe) = (Arc::clone(&service), Arc::clone(&stop), probe);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    service.label(&probe).expect("label request dropped during publish");
                    answered += 1;
                }
                answered
            })
        };

        // An image with a pixel outside [0, 1] is refused at intake, so it
        // neither counts toward the batch nor reaches the training matrix.
        for bad_value in [f32::NAN, 1e30] {
            let mut poisoned = fresh[0].clone();
            poisoned.tensor_mut().as_mut_slice()[5] = bad_value;
            assert!(matches!(trainer.ingest(poisoned), Err(ServeError::InvalidImage(_))));
        }
        for img in fresh.iter().take(batch).cloned() {
            trainer.ingest(img).unwrap();
        }
        assert!(trainer.wait_for_refits(1, REFIT_TIMEOUT), "refit cycle never completed");
        stop.store(true, Ordering::Relaxed);
        let answered = load.join().unwrap();
        assert!(answered > 0, "load thread never got a response");

        let status = trainer.status();
        assert_eq!(status.ingested, batch as u64);
        assert_eq!(status.published, 1, "status: {status:?}");
        assert_eq!(status.last_outcome, Some(RefitOutcome::Published));
        assert_eq!(status.last_published_version, Some(2));
        assert_eq!(service.registry().current_version(), 2);
        assert_eq!(status.rows, 6 + batch, "frozen N plus the appended batch");
        // The published model now answers requests.
        assert_eq!(service.label(&fresh[0]).unwrap().version, 2);
    }

    #[test]
    fn gate_rejection_keeps_serving_bit_identical() {
        let _guard = serial();
        let _plan = install("trainer.gate:io@#1");
        let (config, bootstrap, fresh) = fixture(23);
        let (service, trainer) = stack(bootstrap, &config, open_gate());

        let before = service.label(&fresh[3]).unwrap();
        assert_eq!(before.version, 1);

        for img in fresh.iter().take(2).cloned() {
            trainer.ingest(img).unwrap();
        }
        assert!(trainer.wait_for_refits(1, REFIT_TIMEOUT));
        let status = trainer.status();
        assert_eq!(status.last_outcome, Some(RefitOutcome::Rejected), "status: {status:?}");
        assert_eq!(status.published, 0);
        assert_eq!(service.registry().current_version(), 1, "rejected candidate must not publish");

        let after = service.label(&fresh[3]).unwrap();
        assert_eq!(after.version, 1);
        assert_eq!(after.label, before.label);
        let before_bits: Vec<u64> = before.probs.iter().map(|p| p.to_bits()).collect();
        let after_bits: Vec<u64> = after.probs.iter().map(|p| p.to_bits()).collect();
        assert_eq!(before_bits, after_bits, "serving drifted across a rejected refit");
    }

    #[test]
    fn canary_regression_rolls_back_to_previous_version() {
        let _guard = serial();
        let _plan = install("trainer.canary:io@#1");
        let (config, bootstrap, fresh) = fixture(37);
        let (service, trainer) = stack(bootstrap, &config, open_gate());

        let before = service.label(&fresh[3]).unwrap();
        assert_eq!(before.version, 1);

        for img in fresh.iter().take(2).cloned() {
            trainer.ingest(img).unwrap();
        }
        assert!(trainer.wait_for_refits(1, REFIT_TIMEOUT));
        let status = trainer.status();
        assert_eq!(status.last_outcome, Some(RefitOutcome::RolledBack), "status: {status:?}");
        assert_eq!(status.rolled_back, 1);
        assert_eq!(
            service.registry().current_version(),
            1,
            "canary regression must restore the previous version"
        );

        let after = service.label(&fresh[3]).unwrap();
        assert_eq!(after.version, 1);
        let before_bits: Vec<u64> = before.probs.iter().map(|p| p.to_bits()).collect();
        let after_bits: Vec<u64> = after.probs.iter().map(|p| p.to_bits()).collect();
        assert_eq!(before_bits, after_bits, "serving drifted across a rollback");
    }

    #[test]
    fn torn_snapshot_write_fails_cycle_before_registry() {
        let _guard = serial();
        let _plan = install("snapshot.write:torn@#1");
        let dir = std::env::temp_dir().join(format!("goggles-trainer-loop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("candidate.snap");
        let (config, bootstrap, fresh) = fixture(53);
        let options = TrainerConfig { snapshot_path: Some(path.clone()), ..open_gate() };
        let (service, trainer) = stack(bootstrap, &config, options);

        for img in fresh.iter().take(2).cloned() {
            trainer.ingest(img).unwrap();
        }
        assert!(trainer.wait_for_refits(1, REFIT_TIMEOUT));
        let status = trainer.status();
        assert_eq!(status.last_outcome, Some(RefitOutcome::Failed), "status: {status:?}");
        assert_eq!(
            service.registry().current_version(),
            1,
            "a torn snapshot write must fail the cycle before the registry is touched"
        );
        assert!(!path.exists(), "torn write must not leave the final snapshot name");

        // Fault exhausted (`#1` fires once): the next cycle persists and
        // publishes — the loop self-heals without a restart.
        for img in fresh.iter().skip(2).take(2).cloned() {
            trainer.ingest(img).unwrap();
        }
        assert!(trainer.wait_for_refits(2, REFIT_TIMEOUT));
        let status = trainer.status();
        assert_eq!(status.last_outcome, Some(RefitOutcome::Published), "status: {status:?}");
        assert_eq!(service.registry().current_version(), 2);
        assert!(path.exists(), "published candidate must be persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
