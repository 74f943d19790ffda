//! Hot-swappable model lifecycle: the [`SnapshotRegistry`].
//!
//! A production labeler in the GOGGLES model is refit whenever the prototype
//! corpus or dev set grows, so the serving layer must swap in a new
//! [`FittedLabeler`] **under live traffic** — without dropping requests,
//! without blocking the workers, and with an escape hatch back to the
//! previous version. The registry owns the versioned `Arc<FittedLabeler>`s
//! and hands out cheap leases:
//!
//! * [`SnapshotRegistry::publish`] validates a labeler
//!   ([`FittedLabeler::validate`]) and atomically makes it the current
//!   version (monotonically numbered from 1).
//! * [`SnapshotRegistry::get`] resolves the *current* version as a
//!   [`PublishedSnapshot`] lease — an `Arc` clone under a short lock, never
//!   held across labeling. Callers that resolve once per batch get the
//!   swap-consistency guarantee: an in-flight batch finishes on the version
//!   it started with; the next batch picks up the swap.
//! * [`SnapshotRegistry::rollback`] re-points "current" at the previously
//!   published version (retired versions are kept, so rollback is O(1) and
//!   in-flight leases stay valid).
//! * Per-version serve counters (`PublishedSnapshot::record_served`,
//!   surfaced by [`SnapshotRegistry::versions`]) make a canary or a drain
//!   observable: publish, then watch the old version's counter go quiet.
//! * `SnapshotRegistry::prune_retired` expires old retired versions
//!   (keeping leased ones and the most recent `keep_last`), so a service
//!   that republishes periodically holds O(1) snapshots in memory.

use crate::snapshot::FittedLabeler;
use crate::{ServeError, ServeResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A lease on one published snapshot version: the labeler, its version
/// number, and the shared serve counter. Cloning is two `Arc` bumps.
#[derive(Debug, Clone)]
// goggles-lint: allow(dead-pub): return type of pub SnapshotRegistry accessors; external callers reach it through inference
pub struct PublishedSnapshot {
    version: u64,
    labeler: Arc<FittedLabeler>,
    served: Arc<AtomicU64>,
}

impl PublishedSnapshot {
    /// The monotonically increasing version number (first publish = 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The frozen labeler of this version.
    pub fn labeler(&self) -> &Arc<FittedLabeler> {
        &self.labeler
    }

    /// Record `n` requests served on this version (reflected in
    /// [`SnapshotRegistry::versions`]).
    pub(crate) fn record_served(&self, n: u64) {
        self.served.fetch_add(n, Ordering::Relaxed);
    }

    /// Requests served on this version so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

/// Observability row for one registered version.
#[derive(Debug, Clone, PartialEq, Eq)]
// goggles-lint: allow(dead-pub): return type of pub SnapshotRegistry::versions; external callers reach it through inference
pub struct VersionInfo {
    /// Version number.
    pub version: u64,
    /// Requests served on this version.
    pub served: u64,
    /// Whether this is the version [`SnapshotRegistry::get`] resolves.
    pub current: bool,
    /// Outstanding leases on this version: `Arc` clones of the labeler held
    /// outside the registry (in-flight batches, retained handles). 0 means
    /// only the registry itself references the version.
    pub leases: u64,
}

struct RegistryState {
    /// Every registered version in publish order. Retired versions stay
    /// resolvable for in-flight leases and for rollback until explicitly
    /// expired with [`SnapshotRegistry::prune_retired`] (which
    /// [`crate::LabelService::reload_from`] does after each successful
    /// publish), so registry memory is bounded even under periodic reloads.
    versions: Vec<PublishedSnapshot>,
    /// Index into `versions` of the currently served snapshot.
    current: usize,
}

/// Owner of the versioned labelers behind a running [`crate::LabelService`].
///
/// All operations take a short internal lock; none holds it across labeling
/// work, so `publish` under load never blocks traffic for longer than an
/// `Arc` clone.
pub struct SnapshotRegistry {
    state: Mutex<RegistryState>,
}

impl SnapshotRegistry {
    /// Take the state lock, recovering from poisoning. Recovery is sound:
    /// every mutation below leaves `RegistryState` consistent before any
    /// operation that could unwind, so a poisoned lock only means some
    /// other thread panicked while *observing* a consistent state.
    fn state(&self) -> std::sync::MutexGuard<'_, RegistryState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Start a registry with an initial labeler as version 1.
    ///
    /// The initial labeler is validated like any publish; a freshly fitted
    /// labeler always passes.
    pub fn new(initial: FittedLabeler) -> ServeResult<Self> {
        initial.validate()?;
        let state = RegistryState {
            versions: vec![PublishedSnapshot {
                version: 1,
                labeler: Arc::new(initial),
                served: Arc::new(AtomicU64::new(0)),
            }],
            current: 0,
        };
        Ok(Self { state: Mutex::new(state) })
    }

    /// Validate `labeler` and atomically make it the current version.
    /// Returns the new version number. Corrupt or inconsistent labelers are
    /// rejected with [`ServeError::Corrupt`] and the current version is
    /// left untouched.
    pub fn publish(&self, labeler: FittedLabeler) -> ServeResult<u64> {
        labeler.validate()?;
        let mut state = self.state();
        let version = state.versions.last().map_or(0, |s| s.version) + 1;
        state.versions.push(PublishedSnapshot {
            version,
            labeler: Arc::new(labeler),
            served: Arc::new(AtomicU64::new(0)),
        });
        state.current = state.versions.len() - 1;
        Ok(version)
    }

    /// Load, validate and publish a snapshot file — the hot-reload front
    /// used by [`crate::LabelService::reload_from`]. Accepts whatever
    /// [`FittedLabeler::load`] accepts.
    pub(crate) fn publish_file(&self, path: &std::path::Path) -> ServeResult<u64> {
        self.publish(FittedLabeler::load_from(path)?)
    }

    /// Publish a snapshot from a file **or a directory**. A directory is
    /// swept first ([`crate::snapshot::sweep_snapshot_dir`]): torn and
    /// corrupt files are quarantined, and the newest valid snapshot is
    /// published — the crash-recovery path, so a service restarting over a
    /// snapshot directory always comes up on the best surviving version.
    pub fn reload_from(&self, path: &std::path::Path) -> ServeResult<u64> {
        if !path.is_dir() {
            return self.publish_file(path);
        }
        let report = crate::snapshot::sweep_snapshot_dir(path)?;
        match report.valid.first() {
            Some(newest) => self.publish_file(newest),
            None => Err(ServeError::Registry(format!(
                "no valid snapshot in {} ({} file(s) quarantined)",
                path.display(),
                report.quarantined.len()
            ))),
        }
    }

    /// Re-point "current" at the version published immediately before the
    /// current one. Errors with [`ServeError::Registry`] when already at
    /// version 1, or when the predecessor was expired by
    /// `SnapshotRegistry::prune_retired` — rolling back must never land
    /// on an *older* survivor silently, so the error lists the versions
    /// still registered instead.
    pub fn rollback(&self) -> ServeResult<u64> {
        let mut state = self.state();
        let v = state.versions[state.current].version;
        if v == 1 {
            return Err(ServeError::Registry(format!(
                "cannot roll back: version {v} is the oldest registered snapshot"
            )));
        }
        // Versions are numbered consecutively at publish time, so the
        // publish-order predecessor of `v` is exactly `v - 1`; an
        // index-based step would target whichever older version happened
        // to survive pruning.
        let target = v - 1;
        match state.versions.iter().position(|s| s.version == target) {
            Some(i) => {
                state.current = i;
                Ok(target)
            }
            None => {
                let surviving: Vec<u64> = state.versions.iter().map(|s| s.version).collect();
                Err(ServeError::Registry(format!(
                    "cannot roll back from version {v}: predecessor {target} was pruned; \
                     surviving versions: {surviving:?}"
                )))
            }
        }
    }

    /// Lease the current version: an `Arc` clone under a short lock.
    pub fn get(&self) -> PublishedSnapshot {
        let state = self.state();
        state.versions[state.current].clone()
    }

    /// Lease a specific registered version (current or retired).
    // goggles-lint: allow(dead-pub): lookup sibling of the used current_version; called by perfbench's registry probe, which lives outside this workspace
    pub fn get_version(&self, version: u64) -> ServeResult<PublishedSnapshot> {
        let state = self.state();
        state
            .versions
            .iter()
            .find(|s| s.version == version)
            .cloned()
            .ok_or_else(|| ServeError::Registry(format!("version {version} is not registered")))
    }

    /// The current version number.
    pub fn current_version(&self) -> u64 {
        let state = self.state();
        state.versions[state.current].version
    }

    /// Expire retired versions to bound registry memory: drop every
    /// *unleased* retired version older than the `keep_last` most recently
    /// published retired ones. Returns how many were dropped.
    ///
    /// The current version is never dropped. A retired version still held
    /// by an in-flight lease ([`SnapshotRegistry::get`] clone outside the
    /// registry) is kept — its `Arc` strong count proves a batch may still
    /// be labeling on it — so pruning under live traffic is always safe.
    /// `keep_last ≥ 1` preserves the [`SnapshotRegistry::rollback`] target.
    ///
    /// Note that pruning forgets the dropped versions' serve counters
    /// ([`SnapshotRegistry::versions`] observability), which is the point:
    /// a service that republishes periodically holds O(keep_last) snapshots
    /// instead of one per publish ever made.
    pub fn prune_retired(&self, keep_last: usize) -> usize {
        let mut state = self.state();
        let n = state.versions.len();
        let retired: Vec<usize> = (0..n).filter(|&i| i != state.current).collect();
        let prunable = retired.len().saturating_sub(keep_last);
        let mut drop_marks = vec![false; n];
        for &i in &retired[..prunable] {
            // strong count 1 == only the registry's own Arc — no lease out.
            if Arc::strong_count(&state.versions[i].labeler) == 1 {
                drop_marks[i] = true;
            }
        }
        let dropped = drop_marks.iter().filter(|&&d| d).count();
        if dropped > 0 {
            // `current` is never marked, so its new index is its old index
            // minus the entries dropped before it.
            let dropped_before = drop_marks[..state.current].iter().filter(|&&d| d).count();
            let mut kept = Vec::with_capacity(n - dropped);
            for (i, snap) in state.versions.drain(..).enumerate() {
                if !drop_marks[i] {
                    kept.push(snap);
                }
            }
            state.current -= dropped_before;
            state.versions = kept;
        }
        dropped
    }

    /// Observability: every registered version with its serve counter, in
    /// publish order.
    pub fn versions(&self) -> Vec<VersionInfo> {
        let state = self.state();
        state
            .versions
            .iter()
            .enumerate()
            .map(|(i, s)| VersionInfo {
                version: s.version,
                served: s.served(),
                current: i == state.current,
                leases: (Arc::strong_count(&s.labeler) - 1) as u64,
            })
            .collect()
    }
}

impl std::fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRegistry").field("versions", &self.versions()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_core::GogglesConfig;
    use goggles_datasets::{generate, Dataset, TaskConfig, TaskKind};

    fn fitted(seed: u64) -> (FittedLabeler, Dataset) {
        let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 8, 4, seed);
        cfg.image_size = 32;
        let ds = generate(&cfg);
        let dev = ds.sample_dev_set(3, seed);
        let gcfg = GogglesConfig { seed, ..GogglesConfig::fast() };
        let (labeler, _) = FittedLabeler::fit(&gcfg, &ds, &dev).unwrap();
        (labeler, ds)
    }

    #[test]
    fn publish_rollback_and_counters() {
        let (a, _) = fitted(41);
        let b = a.clone();
        let registry = SnapshotRegistry::new(a).unwrap();
        assert_eq!(registry.current_version(), 1);

        let lease1 = registry.get();
        assert_eq!(lease1.version(), 1);
        lease1.record_served(3);

        let v2 = registry.publish(b).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(registry.current_version(), 2);
        // the old lease stays valid and keeps counting against version 1
        lease1.record_served(2);
        let infos = registry.versions();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0], VersionInfo { version: 1, served: 5, current: false, leases: 1 });
        assert_eq!(infos[1], VersionInfo { version: 2, served: 0, current: true, leases: 0 });

        // rollback re-points current; retired version still leasable
        assert_eq!(registry.rollback().unwrap(), 1);
        assert_eq!(registry.current_version(), 1);
        assert!(matches!(registry.rollback(), Err(ServeError::Registry(_))));
        assert_eq!(registry.get_version(2).unwrap().version(), 2);
        assert!(registry.get_version(99).is_err());
    }

    #[test]
    fn publish_rejects_corrupt_labelers_and_keeps_current() {
        let (a, _) = fitted(42);
        let mut bad = a.clone();
        // not a permutation — must be rejected at publish time
        let registry = SnapshotRegistry::new(a).unwrap();
        {
            let bytes = {
                // corrupt through the public surface: a v1 snapshot with a
                // duplicated mapping entry re-checksummed would also do, but
                // the clone path is simpler and equivalent here.
                bad.set_mapping_for_tests(vec![0, 0]);
                bad.save()
            };
            assert!(FittedLabeler::load(&bytes).is_err());
        }
        assert!(matches!(registry.publish(bad), Err(ServeError::Corrupt(_))));
        assert_eq!(registry.current_version(), 1, "failed publish must not advance");
        assert_eq!(registry.versions().len(), 1);
    }

    #[test]
    fn prune_retired_drops_old_unleased_versions_only() {
        let (a, _) = fitted(44);
        let registry = SnapshotRegistry::new(a.clone()).unwrap();
        for _ in 0..4 {
            registry.publish(a.clone()).unwrap(); // versions 2..=5
        }
        assert_eq!(registry.versions().len(), 5);

        // Lease version 2 (retired): it must survive pruning.
        let lease2 = registry.get_version(2).unwrap();
        // keep_last = 1 → retired {1,2,3,4}, prunable {1,2,3}; 2 is leased.
        let dropped = registry.prune_retired(1);
        assert_eq!(dropped, 2, "versions 1 and 3 are old, retired and unleased");
        let left: Vec<u64> = registry.versions().iter().map(|v| v.version).collect();
        assert_eq!(left, vec![2, 4, 5]);
        assert_eq!(registry.current_version(), 5, "current is never pruned");
        // The lease keeps working after the prune.
        assert_eq!(lease2.version(), 2);

        // Release the lease: now 2 and 4 are prunable (keeping none).
        drop(lease2);
        assert_eq!(registry.prune_retired(0), 2);
        let left: Vec<u64> = registry.versions().iter().map(|v| v.version).collect();
        assert_eq!(left, vec![5]);
        // Nothing retired left: rollback correctly refuses, pruning is a
        // no-op, and serving continues on the current version.
        assert!(matches!(registry.rollback(), Err(ServeError::Registry(_))));
        assert_eq!(registry.prune_retired(0), 0);
        assert_eq!(registry.get().version(), 5);
    }

    #[test]
    fn prune_keeps_rollback_target_and_rollback_still_works() {
        let (a, _) = fitted(45);
        let registry = SnapshotRegistry::new(a.clone()).unwrap();
        registry.publish(a.clone()).unwrap();
        registry.publish(a).unwrap(); // current = 3
        assert_eq!(registry.prune_retired(1), 1, "version 1 expires, version 2 kept");
        assert_eq!(registry.rollback().unwrap(), 2, "rollback target survived the prune");
        // With current re-pointed at 2, version 3 is now retired; pruning
        // with keep_last = 1 keeps it (most recent retired).
        assert_eq!(registry.prune_retired(1), 0);
        assert_eq!(registry.versions().len(), 2);
    }

    #[test]
    fn rollback_refuses_to_land_on_a_pruned_predecessor() {
        let (a, _) = fitted(46);
        let registry = SnapshotRegistry::new(a.clone()).unwrap();
        registry.publish(a.clone()).unwrap();
        registry.publish(a.clone()).unwrap(); // versions 1..=3, current = 3
        assert_eq!(registry.prune_retired(0), 2, "both retired versions expire");
        // The publish-order predecessor (version 2) is gone. Before the
        // index-based walk was fixed, this silently "succeeded" by landing
        // on whatever older version survived; now it reports the pruned
        // target and the surviving versions.
        let err = registry.rollback().unwrap_err();
        match err {
            ServeError::Registry(msg) => {
                assert!(msg.contains("predecessor 2 was pruned"), "unexpected message: {msg}");
                assert!(msg.contains("[3]"), "must list surviving versions: {msg}");
            }
            other => panic!("expected Registry error, got {other:?}"),
        }
        // Current is untouched by the refused rollback.
        assert_eq!(registry.current_version(), 3);
        // A later publish restores a rollback target.
        registry.publish(a).unwrap(); // version 4
        assert_eq!(registry.rollback().unwrap(), 3);
    }

    #[test]
    fn get_is_consistent_under_concurrent_publish() {
        // Hammer get() while another thread publishes; every lease must be
        // a fully valid version, and the final current must be the last
        // publish.
        let (a, ds) = fitted(43);
        let img = ds.test_images()[0].clone();
        let b = a.clone();
        let registry = Arc::new(SnapshotRegistry::new(a).unwrap());
        let publisher = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                for _ in 0..4 {
                    let next = FittedLabeler::load(&b.save()).unwrap();
                    registry.publish(next).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let img = img.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let lease = registry.get();
                        let (label, probs) = lease.labeler().label_one(&img);
                        assert!(label < probs.len());
                        lease.record_served(1);
                    }
                })
            })
            .collect();
        publisher.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(registry.current_version(), 5);
        let total: u64 = registry.versions().iter().map(|v| v.served).sum();
        assert_eq!(total, 60);
    }
}
