//! One process-wide pool of persistent helper threads for index-parallel
//! loops.
//!
//! The pool is created on first use with `available_parallelism() − 1`
//! helpers that live for the rest of the process. A job is a range of item
//! indices `0..items` and one closure. The calling thread always takes
//! part, and up to `cap − 1` helpers join it. Every participant claims the
//! next unclaimed index from an atomic counter, one item per claim, until
//! none are left. Each item writes only its own output slot
//! ([`map`], [`for_each_chunk_mut`]), so a job's result is the same bit for
//! bit for every participant count and every claiming schedule.
//!
//! * **One job at a time.** A caller that finds the pool busy runs its whole
//!   job inline. So does a call made from inside a pool job (on a helper or
//!   on the job's caller), and a call whose cap or item count is 1. Such a
//!   caller never waits on another caller, so nested and concurrent callers
//!   cannot deadlock.
//! * **Panics.** A panicking item is caught; the participant that ran it
//!   stops claiming and the others stop after their current item. Once every
//!   participant has stopped, the first payload is resumed on the caller.
//!   Helpers survive, and the pool stays usable.
//! * **Handoff.** Helpers sleep on a `Condvar` and are woken once per job,
//!   with no polling or sleep back-off.
//!
//! The pool is type-agnostic: it holds no per-thread state for its callers.
//! Code that wants a reusable per-thread workspace keeps it in its own
//! thread-local and asks [`on_helper`] whether the current thread is a
//! helper (the caller usually has an arena of its own).

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

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

type Payload = Box<dyn Any + Send>;

thread_local! {
    /// Whether this thread is one of the pool's helpers.
    static HELPER: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread is running items of a pool job right now.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is one of the pool's helper threads (as
/// opposed to a job's caller or any other thread).
pub fn on_helper() -> bool {
    HELPER.with(Cell::get)
}

/// Run `work(i)` once for every `i < items` on up to `cap` participants:
/// the calling thread plus up to `cap − 1` pool helpers. Returns once every
/// item has run.
///
/// The job runs inline on the calling thread, in index order, when `cap`
/// or `items` is at most 1, when the machine offers no helper, when the
/// call is made from inside a pool job, or when another caller's job holds
/// the pool.
///
/// If an item panics, the first payload is resumed on the caller after
/// every participant has stopped; items not yet claimed then do not run.
fn for_each(items: usize, cap: usize, work: impl Fn(usize) + Sync) {
    if cap.min(items) <= 1 || IN_JOB.with(Cell::get) {
        return (0..items).for_each(&work);
    }
    let Some(pool) = pool() else {
        return (0..items).for_each(&work);
    };
    let job = Job { items, next: AtomicUsize::new(0), work: &work, panic: Mutex::new(None) };
    if !pool.post(&job, cap.min(items) - 1) {
        return (0..items).for_each(&work);
    }
    {
        // Dropping the guard retires the job, even on an unwind, so no
        // helper can hold the posted pointer past this block.
        let _retire = Retire(pool);
        IN_JOB.with(|f| f.set(true));
        job.participate();
        IN_JOB.with(|f| f.set(false));
    }
    let payload = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Run `work(i)` for every `i < items` as one pool job on up to `cap`
/// participants (the calling thread and up to `cap − 1` helpers; see the
/// module docs for when it runs inline instead), collecting the result of
/// item `i` into slot `i` of the returned vector.
///
/// # Panics
/// If an item panics: the first payload is resumed on the caller once every
/// participant has stopped.
pub fn map<T: Send>(items: usize, cap: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::with_capacity(items);
    slots.resize_with(items, || None);
    for_each_chunk_mut(&mut slots, 1, cap, |i, slot| {
        if let Some(slot) = slot.first_mut() {
            *slot = Some(work(i));
        }
    });
    slots.into_iter().flatten().collect()
}

/// Run `work(i, piece)` as one pool job over the consecutive `chunk`-long
/// pieces of `data` on up to `cap` participants, as [`map`] does: item `i`
/// gets exclusive access to piece `i` (the last piece may be shorter).
///
/// # Panics
/// If `chunk` is 0, and as [`map`] if an item panics.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    cap: usize,
    work: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk > 0, "pool::for_each_chunk_mut: chunk length must be positive");
    // One lock per piece: each index is claimed exactly once, so every lock
    // is taken once and never contended.
    let pieces: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk).map(Mutex::new).collect();
    for_each(pieces.len(), cap, |i| {
        if let Some(piece) = pieces.get(i) {
            work(i, &mut piece.lock().unwrap_or_else(PoisonError::into_inner));
        }
    });
}

/// One posted job: the items left to claim, the work, and the first panic.
struct Job<'a> {
    items: usize,
    next: AtomicUsize,
    work: &'a (dyn Fn(usize) + Sync),
    panic: Mutex<Option<Payload>>,
}

impl Job<'_> {
    /// Claim and run items until none are left or one panicked. Never
    /// unwinds: a panic is stored as the job's payload (the first one wins)
    /// and makes every participant stop claiming.
    fn participate(&self) {
        // Relaxed is enough for the claim counter: it only hands out
        // indices. The items' writes reach the caller through the pool's
        // state mutex, which every helper takes after its last item and the
        // caller takes before it returns.
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items {
                return;
            }
            (self.work)(i);
        }));
        if let Err(payload) = outcome {
            self.next.store(self.items, Ordering::Relaxed);
            self.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
        }
    }
}

/// The current job as the helpers see it, with its lifetime erased.
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// A `JobPtr` only travels from the posting caller to the helpers through
// the pool's state mutex, and `Pool::post`/`Retire` keep its `Job` alive
// while any helper can reach it.
// SAFETY: the pointee is a `Job`, which is `Sync` (atomics, a mutex and a
// `Sync` closure), so handing a pointer to it to another thread is sound.
unsafe impl Send for JobPtr {}

/// What the state mutex guards.
struct State {
    /// The posted job, `None` once its caller has retired it.
    job: Option<JobPtr>,
    /// Bumped on every post, so a helper joins each job at most once.
    generation: u64,
    /// How many more helpers may join the posted job.
    seats: usize,
    /// Helpers inside the posted job right now.
    active: usize,
    /// Whether a caller owns the pool (from post to retire).
    busy: bool,
}

struct Pool {
    helpers: usize,
    state: Mutex<State>,
    /// Helpers wait here for a job with a free seat.
    wake: Condvar,
    /// The caller waits here for the last helper to leave its job.
    idle: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the pool for `job` and wake up to `seats` helpers for it.
    /// Returns `false`, posting nothing, if another caller owns the pool.
    fn post(&self, job: &Job<'_>, seats: usize) -> bool {
        let seats = seats.min(self.helpers);
        {
            let mut state = self.lock();
            if state.busy {
                return false;
            }
            // Lifetime erasure. SAFETY: the erased pointer is dereferenced
            // only by helpers that join the job while it is posted, and the
            // caller retires the job (clears it and waits until `active` is
            // 0) before the `Job` it points at goes out of scope: `for_each`
            // holds a `Retire` guard from right after this post until after
            // its own participation, and the guard's drop runs on every
            // exit, unwinding included.
            let erased = std::ptr::from_ref(job).cast::<Job<'static>>();
            state.busy = true;
            state.job = Some(JobPtr(erased));
            state.generation = state.generation.wrapping_add(1);
            state.seats = seats;
        }
        for _ in 0..seats {
            self.wake.notify_one();
        }
        true
    }

    /// Withdraw the posted job, wait until no helper is inside it, and
    /// release the pool.
    fn retire(&self) {
        let mut state = self.lock();
        state.job = None;
        state.seats = 0;
        while state.active > 0 {
            state = self.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.busy = false;
    }

    /// A helper's whole life: wait for a job with a free seat, run its
    /// items, report back, repeat.
    fn serve(&self) {
        HELPER.with(|f| f.set(true));
        IN_JOB.with(|f| f.set(true));
        let mut seen = 0u64;
        loop {
            let job = self.claim_seat(&mut seen);
            // `claim_seat` counted this helper in `active` under the state
            // mutex while the job was posted, and `retire` does not return
            // (so the caller's `Job` stays alive) until `leave` below has
            // brought `active` back to 0.
            // SAFETY: so the pointee outlives this borrow.
            let job = unsafe { &*job.0 };
            job.participate();
            self.leave();
        }
    }

    /// Block until a job this helper has not joined has a free seat, and
    /// take it.
    fn claim_seat(&self, seen: &mut u64) -> JobPtr {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.job {
                if state.generation != *seen && state.seats > 0 {
                    *seen = state.generation;
                    state.seats -= 1;
                    state.active += 1;
                    return job;
                }
            }
            state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Leave the current job; the last helper out wakes its caller.
    fn leave(&self) {
        let mut state = self.lock();
        state.active = state.active.saturating_sub(1);
        if state.active == 0 {
            self.idle.notify_all();
        }
    }
}

/// Retires the posted job when dropped (see [`Pool::retire`]).
struct Retire(&'static Pool);

impl Drop for Retire {
    fn drop(&mut self) {
        self.0.retire();
    }
}

/// The process-wide pool, its helpers spawned on first use; `None` on a
/// machine that offers no second thread.
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static SPAWN: Once = Once::new();
    let pool = POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Pool {
            helpers: threads.saturating_sub(1),
            state: Mutex::new(State { job: None, generation: 0, seats: 0, active: 0, busy: false }),
            wake: Condvar::new(),
            idle: Condvar::new(),
        }
    });
    if pool.helpers == 0 {
        return None;
    }
    SPAWN.call_once(|| {
        for h in 0..pool.helpers {
            // A helper that fails to spawn only leaves a seat that nobody
            // takes: callers never wait for seats to fill.
            let _ = std::thread::Builder::new()
                .name(format!("goggles-pool-{h}"))
                .spawn(move || pool.serve());
        }
    });
    Some(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// The tests below share one process-wide pool; each holds this lock
    /// so that a test that needs its job to get the pool is not turned
    /// inline by a neighbour's job.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        let _serial = serial();
        for items in [0usize, 1, 2, 7, 100] {
            for cap in [1usize, 2, 3, 64] {
                let hits: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
                for_each(items, cap, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "items {items} cap {cap} index {i}");
                }
                let squares = map(items, cap, |i| i * i);
                assert_eq!(squares, (0..items).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn chunks_are_disjoint_and_cover_the_slice() {
        let _serial = serial();
        for cap in [1usize, 2, 3, 64] {
            let mut data = vec![0u32; 23];
            for_each_chunk_mut(&mut data, 5, cap, |i, piece| {
                assert!(piece.len() == 5 || (i == 4 && piece.len() == 3));
                for v in piece.iter_mut() {
                    *v += i as u32 + 1;
                }
            });
            let expected: Vec<u32> = (0..23).map(|j| j / 5 + 1).collect();
            assert_eq!(data, expected, "cap {cap}");
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_stays_usable() {
        let _serial = serial();
        for cap in [1usize, 2, 8] {
            let ran = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for_each(50, cap, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 {
                        panic!("item three failed");
                    }
                })
            }));
            let payload = outcome.expect_err("the item's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item three failed"), "cap {cap}");
            assert!(ran.load(Ordering::Relaxed) >= 4);
            // The next job runs every item.
            let sum = AtomicU64::new(0);
            for_each(100, cap, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950, "cap {cap}");
        }
    }

    #[test]
    fn a_nested_call_runs_inline() {
        let _serial = serial();
        let pooled = pool().is_some();
        let outer = map(6, 8, |_| {
            let me = std::thread::current().id();
            let inner = map(5, 8, |j| (std::thread::current().id(), j));
            let inline = inner.iter().all(|&(id, _)| id == me);
            let ordered = inner.iter().map(|&(_, j)| j).eq(0..5);
            inline && ordered && IN_JOB.with(Cell::get) == pooled
        });
        assert_eq!(outer, vec![true; 6]);
        assert!(!IN_JOB.with(Cell::get), "the caller leaves the job");
    }

    #[test]
    fn two_concurrent_callers_both_finish_with_correct_slots() {
        let _serial = serial();
        let run = |salt: u64| {
            for round in 0..200u64 {
                let got = map(37, 4, |i| (i as u64) * 1000 + salt + round);
                let want: Vec<u64> = (0..37u64).map(|i| i * 1000 + salt + round).collect();
                assert_eq!(got, want);
            }
        };
        std::thread::scope(|s| {
            let a = s.spawn(|| run(1));
            let b = s.spawn(|| run(2));
            a.join().expect("first caller");
            b.join().expect("second caller");
        });
    }
}
