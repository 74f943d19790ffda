//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] names **failpoint sites** on the serving path and attaches
//! a fault kind plus a firing schedule to each. The plan is seeded from the
//! vendored RNG, so a chaos run is reproducible: the same spec string
//! produces the same fault sequence (per site) on every run. When no plan is
//! installed every failpoint is a single relaxed atomic load — the framework
//! costs nothing on the happy path and is never enabled implicitly; only
//! [`install`] (via `ServeConfig::fault_plan` or `goggles-served
//! --fault-plan`) turns it on.
//!
//! ## Sites
//!
//! Sites are free-form dotted strings; the ones wired into the stack are:
//!
//! | site | where it fires |
//! |---|---|
//! | `wire.read` | byte reads in the frame decoder (client + server) |
//! | `wire.write` | frame writes (client + server) |
//! | `snapshot.write` | [`crate::FittedLabeler::save_to`] persistence |
//! | `snapshot.read` | snapshot file loads |
//! | `worker.batch` | a service worker, between taking and running a batch |
//!
//! ## Plan grammar
//!
//! Entries are `;`-separated. `seed=<u64>` sets the plan seed; every other
//! entry is `<site>:<kind>@<schedule>`:
//!
//! ```text
//! seed=42;wire.read:flaky@p0.05;snapshot.write:torn@#1;worker.batch:panic@#3
//! ```
//!
//! Kinds: `io` (hard I/O error), `flaky` (transient `Interrupted`/
//! `WouldBlock`), `torn` (partial write persisted, then an error), `panic`
//! (worker-watchdog fodder), `delay:<ms>` (sleep, then proceed).
//!
//! Schedules: `p<f64>` (per-hit probability, seeded), `#<n>` (exactly the
//! `n`th hit of that site, once), `%<n>` (every `n`th hit).

// No panic outside a reasoned `#[expect]` in this module; clippy.toml exempts test code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::fnv1a;

/// What a triggered failpoint does to its call site.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultKind {
    /// Hard I/O error (`ErrorKind::Other`) — the operation fails outright.
    Io,
    /// Transient I/O error (`Interrupted` or `WouldBlock`, alternating) —
    /// a correct read loop retries these instead of killing the connection.
    Flaky,
    /// Partial write: the site persists a truncated artifact and then
    /// reports an error, simulating a crash mid-write.
    Torn,
    /// Panic at the site. Only honored by [`maybe_panic`] failpoints (the
    /// worker watchdog's test harness); I/O failpoints ignore it.
    Panic,
    /// Sleep for the given milliseconds, then proceed normally.
    Delay(u64),
}

/// When a rule fires, relative to the per-rule hit counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Schedule {
    /// Fire with this probability on each hit (seeded, reproducible).
    Prob(f64),
    /// Fire on exactly the `n`th hit (1-based), once.
    Nth(u64),
    /// Fire on every `n`th hit.
    Every(u64),
}

/// One failpoint rule: a site, a fault kind, and a firing schedule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SiteRule {
    /// Failpoint site name (e.g. `wire.read`).
    pub site: String,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// When the rule fires.
    pub schedule: Schedule,
}

/// A parsed, seeded fault plan. See the [module docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for per-rule RNGs (probability schedules).
    pub seed: u64,
    /// The failpoint rules, in spec order.
    pub(crate) rules: Vec<SiteRule>,
}

impl FaultPlan {
    /// Parse a plan spec string (see the [module docs](self) for the
    /// grammar). Errors name the offending entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed =
                    seed.trim().parse().map_err(|_| format!("fault plan: bad seed {seed:?}"))?;
                continue;
            }
            let (site, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault plan: entry {entry:?} missing ':' separator"))?;
            let (kind_s, sched_s) = rest
                .rsplit_once('@')
                .ok_or_else(|| format!("fault plan: entry {entry:?} missing '@<schedule>'"))?;
            let kind = match kind_s {
                "io" => FaultKind::Io,
                "flaky" => FaultKind::Flaky,
                "torn" => FaultKind::Torn,
                "panic" => FaultKind::Panic,
                other => match other.strip_prefix("delay:") {
                    Some(ms) => FaultKind::Delay(
                        ms.parse().map_err(|_| format!("fault plan: bad delay {ms:?}"))?,
                    ),
                    None => return Err(format!("fault plan: unknown fault kind {other:?}")),
                },
            };
            let schedule = if let Some(p) = sched_s.strip_prefix('p') {
                let p: f64 = p.parse().map_err(|_| format!("fault plan: bad probability {p:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault plan: probability {p} outside [0, 1]"));
                }
                Schedule::Prob(p)
            } else if let Some(n) = sched_s.strip_prefix('#') {
                Schedule::Nth(n.parse().map_err(|_| format!("fault plan: bad hit index {n:?}"))?)
            } else if let Some(n) = sched_s.strip_prefix('%') {
                let n: u64 = n.parse().map_err(|_| format!("fault plan: bad period {n:?}"))?;
                if n == 0 {
                    return Err("fault plan: period must be >= 1".to_string());
                }
                Schedule::Every(n)
            } else {
                return Err(format!("fault plan: unknown schedule {sched_s:?}"));
            };
            plan.rules.push(SiteRule { site: site.trim().to_string(), kind, schedule });
        }
        Ok(plan)
    }
}

struct ActiveRule {
    site: String,
    kind: FaultKind,
    schedule: Schedule,
    hits: u64,
    rng: StdRng,
}

/// Fast-path gate: `false` means every failpoint returns immediately.
/// Relaxed is enough — installation happens-before use via the injector
/// mutex; the flag only short-circuits the lock on the happy path.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn injector() -> &'static Mutex<Option<Vec<ActiveRule>>> {
    static INJECTOR: OnceLock<Mutex<Option<Vec<ActiveRule>>>> = OnceLock::new();
    INJECTOR.get_or_init(|| Mutex::new(None))
}

/// Install a fault plan process-wide, replacing any previous one. Hit
/// counters and RNG streams start fresh. Each rule's RNG seed folds in the
/// FNV-1a of its site name, so distinct sites draw independent (but
/// reproducible) probability sequences.
pub fn install(plan: &FaultPlan) {
    let rules = plan
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| ActiveRule {
            site: r.site.clone(),
            kind: r.kind.clone(),
            schedule: r.schedule,
            hits: 0,
            rng: StdRng::seed_from_u64(plan.seed ^ fnv1a(r.site.as_bytes()) ^ ((i as u64) << 32)),
        })
        .collect();
    let mut guard = injector().lock().unwrap_or_else(|p| p.into_inner());
    *guard = Some(rules);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Remove the installed plan; all failpoints become no-ops again.
pub fn clear() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut guard = injector().lock().unwrap_or_else(|p| p.into_inner());
    *guard = None;
}

/// Whether a plan is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Advance the site's rules by one hit and return the first fault that
/// fires, if any. `Delay` is returned like any other kind; callers sleep
/// outside the injector lock.
fn fire(site: &str) -> Option<FaultKind> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let mut guard = injector().lock().unwrap_or_else(|p| p.into_inner());
    let rules = guard.as_mut()?;
    for rule in rules.iter_mut() {
        if rule.site != site {
            continue;
        }
        rule.hits += 1;
        let triggered = match rule.schedule {
            Schedule::Prob(p) => rule.rng.random_bool(p),
            Schedule::Nth(n) => rule.hits == n,
            Schedule::Every(n) => rule.hits % n == 0,
        };
        if triggered {
            return Some(rule.kind.clone());
        }
    }
    None
}

fn injected(site: &str, transient: bool) -> io::Error {
    if transient {
        // Alternate the two transient kinds so retry loops see both.
        static FLIP: AtomicU64 = AtomicU64::new(0);
        let kind = if FLIP.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
            io::ErrorKind::Interrupted
        } else {
            io::ErrorKind::WouldBlock
        };
        io::Error::new(kind, format!("injected transient fault at {site}"))
    } else {
        io::Error::other(format!("injected fault at {site}"))
    }
}

/// I/O failpoint: returns the injected error for this hit, if any.
/// `delay` sleeps and proceeds; `panic` rules are ignored here (a panic
/// on an I/O path would kill a connection thread, not a worker).
pub(crate) fn inject_io(site: &str) -> Option<io::Error> {
    match fire(site)? {
        FaultKind::Io | FaultKind::Torn => Some(injected(site, false)),
        FaultKind::Flaky => Some(injected(site, true)),
        FaultKind::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        FaultKind::Panic => None,
    }
}

/// Control-plane failpoint for out-of-crate consumers — the background
/// trainer's gate/canary sites (`trainer.gate`, `trainer.canary`). Same
/// semantics as the internal I/O failpoint: `io`/`flaky`/`torn` rules
/// return an injected error, `delay` sleeps and proceeds.
pub fn inject_control(site: &str) -> Option<io::Error> {
    inject_io(site)
}

/// Outcome of a [`inject_write`] failpoint.
#[derive(Debug)]
pub(crate) enum WriteFault {
    /// Fail the write with this error; nothing is persisted.
    Err(io::Error),
    /// Persist a truncated artifact, then report failure (simulated crash
    /// mid-write).
    Torn,
}

/// Write-path failpoint (snapshot persistence): distinguishes torn writes
/// from clean failures so the site can leave a genuinely corrupt artifact.
pub(crate) fn inject_write(site: &str) -> Option<WriteFault> {
    match fire(site)? {
        FaultKind::Io => Some(WriteFault::Err(injected(site, false))),
        FaultKind::Flaky => Some(WriteFault::Err(injected(site, true))),
        FaultKind::Torn => Some(WriteFault::Torn),
        FaultKind::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        FaultKind::Panic => None,
    }
}

/// Panic failpoint (worker watchdog): panics if a `panic` rule fires,
/// sleeps on `delay`, ignores I/O kinds.
pub(crate) fn maybe_panic(site: &str) {
    match fire(site) {
        #[expect(
            clippy::panic,
            reason = "this IS the failpoint — the intentional panic that exercises the worker \
                      watchdog, reachable only with an installed fault plan"
        )]
        Some(FaultKind::Panic) => panic!("injected panic at {site}"),
        Some(FaultKind::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The injector is process-global; tests that install/clear plans must
    /// not interleave. (Plans here only name `t.*` sites so concurrently
    /// running service tests never match a rule.)
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42; wire.read:flaky@p0.05; snapshot.write:torn@#1; \
             worker.batch:panic@#3; wire.write:delay:7@%4",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].site, "wire.read");
        assert_eq!(plan.rules[0].kind, FaultKind::Flaky);
        assert_eq!(plan.rules[0].schedule, Schedule::Prob(0.05));
        assert_eq!(plan.rules[1].kind, FaultKind::Torn);
        assert_eq!(plan.rules[1].schedule, Schedule::Nth(1));
        assert_eq!(plan.rules[2].kind, FaultKind::Panic);
        assert_eq!(plan.rules[3].kind, FaultKind::Delay(7));
        assert_eq!(plan.rules[3].schedule, Schedule::Every(4));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "wire.read",               // no kind
            "wire.read:zap@p0.5",      // unknown kind
            "wire.read:io@q3",         // unknown schedule
            "wire.read:io@p1.5",       // probability out of range
            "wire.read:io@%0",         // zero period
            "seed=notanumber",         // bad seed
            "wire.read:delay:xx@p0.1", // bad delay
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn nth_schedule_fires_exactly_once_and_prob_is_reproducible() {
        let _guard = serial();
        let plan = FaultPlan::parse("seed=7;t.site:io@#2;t.prob:io@p0.3").unwrap();
        install(&plan);
        assert!(inject_io("t.site").is_none(), "hit 1 must not fire");
        assert!(inject_io("t.site").is_some(), "hit 2 must fire");
        assert!(inject_io("t.site").is_none(), "hit 3 must not fire");
        let first: Vec<bool> = (0..64).map(|_| inject_io("t.prob").is_some()).collect();
        // Reinstall: counters and RNG streams reset, sequence repeats.
        install(&plan);
        assert!(inject_io("t.site").is_none());
        assert!(inject_io("t.site").is_some());
        assert!(inject_io("t.site").is_none());
        let second: Vec<bool> = (0..64).map(|_| inject_io("t.prob").is_some()).collect();
        assert_eq!(first, second, "probability schedule must be reproducible");
        assert!(first.iter().any(|&b| b), "p=0.3 over 64 hits should fire");
        clear();
        assert!(inject_io("t.site").is_none());
        assert!(!enabled());
    }

    #[test]
    fn disabled_framework_injects_nothing() {
        let _guard = serial();
        clear();
        for _ in 0..16 {
            assert!(inject_io("wire.read").is_none());
            assert!(inject_write("snapshot.write").is_none());
            maybe_panic("worker.batch"); // must not panic
        }
    }
}
