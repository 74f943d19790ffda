//! [`RemoteLabeler`]: the `TcpStream` client of the wire protocol.
//!
//! One connection, any number of requests in flight: `submit` writes a
//! frame and returns immediately with a [`Ticket`]; a background reader
//! thread demultiplexes replies to their tickets by request id. The
//! blocking [`Labeler::label_all`] therefore *pipelines* — every request is
//! on the wire before the first reply is awaited, so a batch pays one
//! round trip of latency, not one per image, and the server's micro-batcher
//! sees the whole burst at once.
//!
//! Beyond labeling, the client drives the serving control plane remotely:
//! [`RemoteLabeler::stats`] (full counter snapshot + current version),
//! [`RemoteLabeler::reload`] (hot-swap a server-side snapshot file behind
//! live traffic) and [`RemoteLabeler::shutdown_server`].
//!
//! ## Resilience: [`RetryPolicy`]
//!
//! Connected with [`RemoteLabeler::connect_with`], the client retries
//! **idempotent blocking operations** (`label`, `label_all` items, `stats`,
//! `metrics`) on retryable errors ([`ServeError::retryable`]: `Overloaded`,
//! `Io`, `Closed`) with capped exponential backoff plus seeded jitter, and
//! transparently **reconnects** when the connection died — the failed
//! request is replayed on the fresh connection. Non-idempotent operations
//! (`reload`, `shutdown_server`) and the raw ticket-based `submit` are
//! never retried. [`RemoteLabeler::label_with_deadline`] spreads one
//! deadline budget across all attempts: a retry that cannot finish before
//! the deadline is not attempted. Retries and reconnects are counted in
//! the process-global metrics registry (`goggles_retries_total`,
//! `goggles_reconnects_total`).

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

use crate::api::{Labeler, Ticket};
use crate::service::LabelResponse;
use crate::wire::{
    self, decode_error_reply, decode_ingest_reply, decode_label_reply, decode_metrics_reply,
    decode_reload_reply, decode_stats_reply, encode_ingest_request, encode_label_request,
    encode_reload_request, Frame, Opcode, RemoteStats,
};
use crate::{ServeError, ServeResult};
use goggles_vision::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Retry/reconnect policy for a [`RemoteLabeler`]'s idempotent blocking
/// operations. The default retries twice (three attempts total) with
/// 10 ms → 20 ms capped-exponential backoff and reconnects on dead
/// connections; [`RetryPolicy::none`] restores the fail-fast behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation, the first included. `1` disables
    /// retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// `max_backoff`.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter RNG (each sleep is scaled by a factor in
    /// `[0.5, 1.0)`), so a retry schedule is reproducible under test.
    pub jitter_seed: u64,
    /// Reconnect (and replay the failed request) when the connection is
    /// dead, instead of failing every subsequent call with
    /// [`ServeError::Closed`].
    pub reconnect: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0,
            reconnect: true,
        }
    }
}

impl RetryPolicy {
    /// No retries, no reconnects — every error surfaces immediately.
    /// What [`RemoteLabeler::connect`] uses.
    pub fn none() -> Self {
        Self { max_attempts: 1, reconnect: false, ..Self::default() }
    }

    /// Backoff before retry number `retry` (1-based): capped exponential,
    /// jittered into `[0.5, 1.0)` of the nominal value.
    fn backoff(&self, retry: u32, jitter: &mut StdRng) -> Duration {
        let nominal = self
            .base_backoff
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16))
            .min(self.max_backoff);
        nominal.mul_f64(0.5 + 0.5 * jitter.random::<f64>())
    }
}

/// A reply waiter, keyed by request id in [`ClientShared::pending`].
enum Pending {
    Label(mpsc::Sender<ServeResult<LabelResponse>>),
    Stats(mpsc::Sender<ServeResult<RemoteStats>>),
    Metrics(mpsc::Sender<ServeResult<String>>),
    Reload(mpsc::Sender<ServeResult<u64>>),
    Ingest(mpsc::Sender<ServeResult<u64>>),
    Shutdown(mpsc::Sender<ServeResult<()>>),
}

impl Pending {
    /// Resolve this waiter with an error, whatever its reply type.
    fn fail(self, err: ServeError) {
        match self {
            Pending::Label(tx) => drop(tx.send(Err(err))),
            Pending::Stats(tx) => drop(tx.send(Err(err))),
            Pending::Metrics(tx) => drop(tx.send(Err(err))),
            Pending::Reload(tx) => drop(tx.send(Err(err))),
            Pending::Ingest(tx) => drop(tx.send(Err(err))),
            Pending::Shutdown(tx) => drop(tx.send(Err(err))),
        }
    }
}

struct ClientShared {
    /// Write half; frames are written whole under this lock so concurrent
    /// submitters never interleave bytes.
    writer: Mutex<TcpStream>,
    /// In-flight requests awaiting their reply.
    pending: Mutex<HashMap<u64, Pending>>,
    next_id: AtomicU64,
    /// Set once the connection is unusable (peer closed, protocol error).
    closed: AtomicBool,
}

impl ClientShared {
    /// Register a waiter and write its request frame; on a write failure
    /// the waiter is deregistered and the connection marked closed.
    fn send(&self, opcode: Opcode, payload: &[u8], pending: Pending) -> ServeResult<u64> {
        // goggles-lint: allow(atomics): Acquire pairs with the reader's Release store so the drained map is visible
        if self.closed.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        // Writing an oversized frame would get the whole connection
        // dropped by the server's framing layer (failing every pipelined
        // request with an opaque `Closed`); fail just this request, with a
        // cause, before anything hits the wire.
        if payload.len() > wire::MAX_PAYLOAD_LEN {
            return Err(ServeError::Wire(format!(
                "request payload of {} bytes exceeds the {}-byte frame cap",
                payload.len(),
                wire::MAX_PAYLOAD_LEN
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).insert(id, pending);
        let outcome = {
            let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            // goggles-lint: allow(lock-order): intentional — the writer mutex exists precisely to serialize whole frames onto the shared socket; writing outside it would interleave frame bytes
            wire::write_frame(&mut *writer, opcode, id, payload)
        };
        if let Err(e) = outcome {
            self.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
            // goggles-lint: allow(atomics): Release publishes the deregistered waiter before peers see `closed`
            self.closed.store(true, Ordering::Release);
            return Err(e);
        }
        // Re-check after registering: if the reader thread died between the
        // entry check and our insert, it may have already drained `pending`
        // and our waiter would never resolve. Only an entry *still in the
        // map* is unresolvable — a missing one was either dispatched (the
        // reply is on the channel; e.g. a shutdown ack racing the server's
        // close) or drained (the dropped sender resolves the wait to
        // `Closed`). The reader sets `closed` *before* clearing, so one of
        // the paths always fires.
        // goggles-lint: allow(atomics): Acquire pairs with the reader's Release; see the ordering argument above
        if self.closed.load(Ordering::Acquire)
            && self.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&id).is_some()
        {
            return Err(ServeError::Closed);
        }
        Ok(id)
    }

    /// Route one reply frame to its waiter. Unknown ids are tolerated (the
    /// waiter may have given up); malformed payloads resolve the waiter
    /// with a wire error.
    fn dispatch(&self, frame: Frame) {
        let Some(pending) =
            self.pending.lock().unwrap_or_else(PoisonError::into_inner).remove(&frame.request_id)
        else {
            return;
        };
        match (frame.opcode, pending) {
            (Opcode::ErrorReply, waiter) => {
                let err = decode_error_reply(&frame.payload)
                    .unwrap_or_else(|e| ServeError::Wire(format!("undecodable error reply: {e}")));
                waiter.fail(err);
            }
            (Opcode::LabelReply, Pending::Label(tx)) => {
                let _ = tx.send(decode_label_reply(&frame.payload));
            }
            (Opcode::StatsReply, Pending::Stats(tx)) => {
                let _ = tx.send(decode_stats_reply(&frame.payload));
            }
            (Opcode::MetricsReply, Pending::Metrics(tx)) => {
                let _ = tx.send(decode_metrics_reply(&frame.payload));
            }
            (Opcode::ReloadReply, Pending::Reload(tx)) => {
                let _ = tx.send(decode_reload_reply(&frame.payload));
            }
            (Opcode::IngestReply, Pending::Ingest(tx)) => {
                let _ = tx.send(decode_ingest_reply(&frame.payload));
            }
            (Opcode::ShutdownReply, Pending::Shutdown(tx)) => {
                let _ = tx.send(Ok(()));
            }
            (op, waiter) => {
                waiter.fail(ServeError::Wire(format!("mismatched reply opcode {op:?}")));
            }
        }
    }
}

/// One live TCP connection: the shared write/pending state plus its reader
/// thread. Dropping a `Connection` closes the socket and joins the reader.
struct Connection {
    shared: Arc<ClientShared>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Connection {
    fn open(addrs: &[SocketAddr]) -> ServeResult<Self> {
        let stream = TcpStream::connect(addrs)
            .map_err(|e| ServeError::Io(format!("connecting to server: {e}")))?;
        // Frames are whole messages; latency matters more than packing.
        let _ = stream.set_nodelay(true);
        let mut read_half =
            stream.try_clone().map_err(|e| ServeError::Io(format!("cloning connection: {e}")))?;
        let shared = Arc::new(ClientShared {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("goggles-remote-reader".into())
                .spawn(move || {
                    // Reply pump: demultiplex until the peer closes or the
                    // stream breaks, then fail everything still in flight
                    // (dropping a waiter's sender resolves it to `Closed`).
                    while let Ok(Some(frame)) = wire::read_frame(&mut read_half) {
                        shared.dispatch(frame);
                    }
                    // goggles-lint: allow(atomics): Release orders the flag before the drain, the linchpin of send()'s re-check
                    shared.closed.store(true, Ordering::Release);
                    shared.pending.lock().unwrap_or_else(PoisonError::into_inner).clear();
                })
                .map_err(|e| ServeError::Io(format!("spawning reader thread: {e}")))?
        };
        Ok(Self { shared, reader: Some(reader) })
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Closing the socket unblocks the reader thread, which then fails
        // any still-pending waiters before exiting.
        if let Ok(writer) = self.shared.writer.lock() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A [`Labeler`] on the far side of a TCP connection — the client half of
/// the wire protocol, speaking to a [`crate::WireServer`] (usually the
/// `goggles-served` binary).
pub struct RemoteLabeler {
    /// Resolved endpoint, kept for reconnects.
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    /// The live connection; swapped in place on reconnect. Tickets issued
    /// on an older connection keep their own `Arc` into it and resolve
    /// (with `Closed`) independently.
    conn: Mutex<Connection>,
    jitter: Mutex<StdRng>,
    retries: goggles_obs::Counter,
    reconnects: goggles_obs::Counter,
}

impl RemoteLabeler {
    /// Connect to a serving endpoint (e.g. `"127.0.0.1:7878"`) with the
    /// fail-fast [`RetryPolicy::none`] — errors surface immediately, as
    /// they always did. Use [`RemoteLabeler::connect_with`] for retries.
    pub fn connect(addr: impl ToSocketAddrs) -> ServeResult<Self> {
        Self::connect_with(addr, RetryPolicy::none())
    }

    /// Connect with a [`RetryPolicy`] governing the idempotent blocking
    /// operations (see the [module docs](self)).
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> ServeResult<Self> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Io(format!("resolving server address: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(ServeError::Io("server address resolved to nothing".into()));
        }
        let conn = Connection::open(&addrs)?;
        let global = goggles_obs::global();
        Ok(Self {
            addrs,
            jitter: Mutex::new(StdRng::seed_from_u64(policy.jitter_seed)),
            policy,
            conn: Mutex::new(conn),
            retries: global.counter(
                "goggles_retries_total",
                "Remote-labeler operations retried after a retryable error",
                &[],
            ),
            reconnects: global.counter(
                "goggles_reconnects_total",
                "Remote-labeler reconnects after a dead connection",
                &[],
            ),
        })
    }

    /// A usable connection handle: the current one if alive, a fresh one
    /// (reconnect-and-replay) if it died and the policy allows. The
    /// blocking open happens with no lock held; a racing reconnect from
    /// another thread wins gracefully (its connection is used, ours is
    /// discarded).
    fn live_shared(&self) -> ServeResult<Arc<ClientShared>> {
        {
            let conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
            // goggles-lint: allow(atomics): Acquire pairs with the reader's Release store (see ClientShared::send)
            if !conn.shared.closed.load(Ordering::Acquire) || !self.policy.reconnect {
                return Ok(Arc::clone(&conn.shared));
            }
        }
        let fresh = Connection::open(&self.addrs)?;
        let shared = Arc::clone(&fresh.shared);
        let mut conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        // goggles-lint: allow(atomics): Acquire pairs with the reader's Release store (see ClientShared::send)
        if conn.shared.closed.load(Ordering::Acquire) {
            let stale = std::mem::replace(&mut *conn, fresh);
            drop(conn);
            self.reconnects.inc();
            // The stale connection's reader is already exiting (its socket
            // is dead); dropping joins it outside the conn lock.
            drop(stale);
            Ok(shared)
        } else {
            // Another thread reconnected first; use its connection.
            let current = Arc::clone(&conn.shared);
            drop(conn);
            drop(fresh);
            Ok(current)
        }
    }

    /// Run one idempotent blocking operation under the retry policy:
    /// retryable failures ([`ServeError::retryable`]) back off
    /// (capped-exponential, jittered) and replay — on a fresh connection if
    /// the old one died. A `deadline` bounds the *total* budget: no retry
    /// is attempted that could not finish before it.
    fn with_retry<T>(
        &self,
        deadline: Option<Instant>,
        attempt: impl Fn(&ClientShared) -> ServeResult<T>,
    ) -> ServeResult<T> {
        let mut tries = 0u32;
        loop {
            let outcome = match self.live_shared() {
                Ok(shared) => attempt(&shared),
                Err(e) => Err(e),
            };
            tries += 1;
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) if e.retryable() && tries < self.policy.max_attempts => {
                    let pause = {
                        let mut jitter = self.jitter.lock().unwrap_or_else(PoisonError::into_inner);
                        self.policy.backoff(tries, &mut jitter)
                    };
                    if let Some(d) = deadline {
                        if Instant::now() + pause >= d {
                            return Err(e);
                        }
                    }
                    self.retries.inc();
                    std::thread::sleep(pause);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Full counter snapshot of the remote service, plus the snapshot
    /// version currently serving. Idempotent — retried under the policy.
    pub fn stats(&self) -> ServeResult<RemoteStats> {
        self.with_retry(None, |shared| {
            let (tx, rx) = mpsc::channel();
            shared.send(Opcode::StatsRequest, &[], Pending::Stats(tx))?;
            rx.recv().unwrap_or(Err(ServeError::Closed))
        })
    }

    /// Scrape the remote service's metrics registry: the same Prometheus
    /// text exposition that the server's `GET /metrics` HTTP front renders
    /// ([`crate::LabelService::render_metrics`]), shipped over the wire
    /// protocol instead of HTTP. Idempotent — retried under the policy.
    pub fn metrics(&self) -> ServeResult<String> {
        self.with_retry(None, |shared| {
            let (tx, rx) = mpsc::channel();
            shared.send(Opcode::MetricsRequest, &[], Pending::Metrics(tx))?;
            rx.recv().unwrap_or(Err(ServeError::Closed))
        })
    }

    /// Hot-reload a snapshot file **on the server's filesystem** behind the
    /// running service; returns the published version. In-flight batches
    /// finish on their old version — same semantics as
    /// [`crate::LabelService::reload_from`], driven over the wire. **Not
    /// retried**: a replayed reload would publish (and bump the version)
    /// twice.
    pub fn reload(&self, server_path: &str) -> ServeResult<u64> {
        let (tx, rx) = mpsc::channel();
        self.live_shared()?.send(
            Opcode::ReloadRequest,
            &encode_reload_request(server_path),
            Pending::Reload(tx),
        )?;
        rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Submit one image to the server's background trainer (its continuous
    /// -learning intake queue); returns the total number of images the
    /// trainer has accepted so far. Requires the server to have been
    /// started with an ingest sink (`goggles-served --retrain`); otherwise
    /// the server answers with a wire error. **Not retried**: a replayed
    /// ingest would enqueue (and train on) the same image twice.
    pub fn ingest(&self, image: &Image) -> ServeResult<u64> {
        let (tx, rx) = mpsc::channel();
        self.live_shared()?.send(
            Opcode::Ingest,
            &encode_ingest_request(image),
            Pending::Ingest(tx),
        )?;
        rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Ask the server to shut down cleanly (stop accepting, drain, exit).
    /// Returns once the server acknowledged. **Not retried.**
    pub fn shutdown_server(&self) -> ServeResult<()> {
        let (tx, rx) = mpsc::channel();
        self.live_shared()?.send(Opcode::ShutdownRequest, &[], Pending::Shutdown(tx))?;
        rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Label one image with a **total** deadline budget spread across all
    /// retry attempts: each attempt ships the remaining budget to the
    /// server, and a backoff that would overrun the deadline fails with the
    /// last error instead of sleeping past it.
    pub fn label_with_deadline(
        &self,
        image: &Image,
        deadline: Instant,
    ) -> ServeResult<LabelResponse> {
        self.with_retry(Some(deadline), |shared| submit_on(shared, image, Some(deadline))?.wait())
    }

    /// Whether the current connection has failed (or the peer closed it).
    /// With `RetryPolicy::reconnect`, the next idempotent operation opens a
    /// fresh connection anyway.
    pub fn is_closed(&self) -> bool {
        let conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        // goggles-lint: allow(atomics): Acquire pairs with the reader's Release store (see ClientShared::send)
        conn.shared.closed.load(Ordering::Acquire)
    }

    /// Encode and send one label request straight from a borrowed image —
    /// the wire frame is the only copy made, so the blocking wrappers
    /// below never clone pixel buffers into throwaway `Arc`s. Single
    /// attempt: the ticket is bound to the connection that sent it.
    fn submit_borrowed(&self, image: &Image, deadline: Option<Instant>) -> ServeResult<Ticket> {
        let shared = self.live_shared()?;
        submit_on(&shared, image, deadline)
    }
}

/// Encode and send one label request on a specific connection.
fn submit_on(
    shared: &ClientShared,
    image: &Image,
    deadline: Option<Instant>,
) -> ServeResult<Ticket> {
    let deadline_us = match deadline {
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                return Ok(Ticket::ready(Err(ServeError::Deadline)));
            }
            // max(1): a sub-microsecond budget must still travel as a
            // deadline (0 means "none" on the wire).
            (d - now).as_micros().min(u128::from(u64::MAX)).max(1) as u64
        }
        None => 0,
    };
    let payload = encode_label_request(image, deadline_us);
    let (tx, rx) = mpsc::channel();
    shared.send(Opcode::LabelRequest, &payload, Pending::Label(tx))?;
    Ok(Ticket::pending(rx, None))
}

impl Labeler for RemoteLabeler {
    /// Submission writes one frame and returns immediately; the ticket
    /// resolves when the reply frame arrives. The deadline is shipped as a
    /// *relative* budget (the hosts share no clock) and enforced by the
    /// server's micro-batcher; an already-expired deadline short-circuits
    /// locally without a wire trip. Single attempt — a ticket cannot be
    /// replayed; use the blocking wrappers for retry semantics.
    fn submit_with_deadline(
        &self,
        image: Arc<Image>,
        deadline: Option<Instant>,
    ) -> ServeResult<Ticket> {
        self.submit_borrowed(&image, deadline)
    }

    /// Overrides the default to encode straight from the borrowed image —
    /// no pixel-buffer clone into a throwaway `Arc`. Retried under the
    /// policy (labeling is idempotent).
    fn label(&self, image: &Image) -> ServeResult<LabelResponse> {
        self.with_retry(None, |shared| submit_on(shared, image, None)?.wait())
    }

    /// Overrides the default for the same reason as [`Labeler::label`];
    /// still submits everything before awaiting anything (pipelining).
    /// Items whose first (pipelined) attempt fails with a retryable error
    /// are replayed individually under the policy.
    fn label_all(&self, images: &[&Image]) -> ServeResult<Vec<LabelResponse>> {
        let tickets: ServeResult<Vec<Ticket>> =
            images.iter().map(|img| self.submit_borrowed(img, None)).collect();
        let outcomes: Vec<ServeResult<LabelResponse>> = match tickets {
            Ok(tickets) => tickets.into_iter().map(Ticket::wait).collect(),
            // The pipelined burst could not even be submitted (e.g. dead
            // connection): fall through and let the per-item retry path
            // reconnect and replay everything.
            // goggles-lint: allow(alloc-hot): submit-failure fan-out, runs once per dead connection — not per request
            Err(e) => images.iter().map(|_| Err(e.clone())).collect(),
        };
        outcomes
            .into_iter()
            .zip(images.iter())
            .map(|(outcome, img)| match outcome {
                Err(e) if e.retryable() && self.policy.max_attempts > 1 => self.label(img),
                other => other,
            })
            .collect()
    }
}

impl std::fmt::Debug for RemoteLabeler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        // goggles-lint: allow(atomics): Acquire pairs with the reader's Release store (see ClientShared::send)
        let closed = conn.shared.closed.load(Ordering::Acquire);
        let in_flight = conn.shared.pending.lock().unwrap_or_else(PoisonError::into_inner).len();
        drop(conn);
        f.debug_struct("RemoteLabeler")
            .field("closed", &closed)
            .field("in_flight", &in_flight)
            .field("policy", &self.policy)
            .finish()
    }
}
