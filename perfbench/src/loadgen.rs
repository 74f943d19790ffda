//! Client-side load over any [`Labeler`] — the wire client for the
//! workloads, the in-process service for the traced replay.
//!
//! Label requests run in closed loops: each client thread keeps a fixed
//! window of requests in flight on its connection and sends the next as
//! soon as the oldest is answered.

use goggles_serve::{LabelResponse, Labeler, ServeError, Ticket};
use goggles_vision::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One label request as the client saw it.
#[derive(Debug)]
pub struct LabelSample {
    /// Query-pool image sent.
    pub pool_idx: usize,
    /// When the client began submitting it.
    pub sent: Instant,
    /// When the submit call returned.
    pub submitted: Instant,
    /// When the client had the answer.
    pub done: Instant,
    /// The answer.
    pub reply: Result<LabelResponse, ServeError>,
}

impl LabelSample {
    /// Client round trip, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// Run a closed loop for `seconds`: one client thread per target keeps
/// `window` requests in flight, sending the next as soon as the oldest is
/// answered. Images are drawn from `pool` by a per-thread seeded generator.
/// `tick` runs repeatedly on the calling thread until the load is done (it
/// should block briefly: it is the monitor, not load).
pub fn closed_loop(
    targets: &[&(dyn Labeler + Sync)],
    pool: &[Arc<Image>],
    window: usize,
    seconds: f64,
    seed: u64,
    tick: &mut dyn FnMut(),
) -> Vec<LabelSample> {
    // Only stops the monitor; the samples travel through `join`, which
    // synchronizes, so the counter publishes nothing and can be relaxed.
    let running = AtomicUsize::new(targets.len());
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .iter()
            .enumerate()
            .map(|(t, &target)| {
                let running = &running;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xC105_ED00 + t as u64));
                    let mut inflight = VecDeque::with_capacity(window);
                    let mut out = Vec::new();
                    let submit = |rng: &mut StdRng| {
                        let i = rng.random_range(0..pool.len());
                        let sent = Instant::now();
                        let ticket = target.submit(Arc::clone(&pool[i]));
                        (i, sent, Instant::now(), ticket)
                    };
                    for _ in 0..window {
                        inflight.push_back(submit(&mut rng));
                    }
                    while let Some((pool_idx, sent, submitted, ticket)) = inflight.pop_front() {
                        let reply = ticket.and_then(Ticket::wait);
                        let done = Instant::now();
                        out.push(LabelSample { pool_idx, sent, submitted, done, reply });
                        if done < stop {
                            inflight.push_back(submit(&mut rng));
                        }
                    }
                    running.fetch_sub(1, Ordering::Relaxed);
                    out
                })
            })
            .collect();
        while running.load(Ordering::Relaxed) > 0 {
            tick();
        }
        handles.into_iter().flat_map(|h| h.join().expect("closed-loop client thread")).collect()
    })
}
