//! [`WireServer`]: the std-only `TcpListener` front of the wire protocol.
//!
//! A fixed pool of connection threads shares one listener; each thread
//! accepts a connection and speaks the [`crate::wire`] protocol over it
//! until the peer disconnects, then goes back to accepting. Label requests
//! are fed to the existing micro-batcher through tickets
//! ([`crate::Labeler::submit_with_deadline`]): the connection's reader
//! keeps parsing frames while a per-connection writer thread awaits tickets
//! in submission order, so one pipelined client fills whole micro-batches
//! and slow labeling never stops request intake.
//!
//! The server is deliberately dependency-free (std `TcpListener`/threads
//! only — no async runtime, per the offline-build constraint); the
//! `goggles-served` binary is a thin argument-parsing wrapper around this
//! type.
//!
//! ## Resilience
//!
//! [`ServerOptions`] adds two safeguards. A **per-connection inflight
//! cap** bounds how many label tickets one connection may have pending:
//! past the cap, requests are answered immediately with the retryable
//! [`ServeError::Overloaded`] instead of queueing without bound (pair it
//! with [`crate::ServeConfig::shed_watermark`] for a global bound).
//! Shutdown over the wire is a **graceful drain**: the server flips its
//! readiness flag ([`WireServer::ready_flag`] — exported as `GET /healthz`
//! by the binary), stops accepting, keeps serving already-open connections
//! for a grace window, then closes their read halves so every in-flight
//! ticket is still answered before the pool exits.

use crate::service::LabelService;
use crate::wire::{
    self, decode_ingest_request, decode_label_request, decode_reload_request, encode_error_reply,
    encode_ingest_reply, encode_label_reply, encode_metrics_reply, encode_reload_reply,
    encode_stats_reply, Opcode, RemoteStats,
};
use crate::{Labeler, ServeError, ServeResult, Ticket};
use goggles_vision::Image;
use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning for the resilience layer of a [`WireServer`]. The default is the
/// historical behavior: no inflight cap, a 250 ms drain grace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerOptions {
    /// Maximum label tickets one connection may have in flight; past it,
    /// requests are shed with the retryable [`ServeError::Overloaded`]
    /// instead of queueing. `0` disables the cap.
    pub max_inflight_per_conn: u64,
    /// How long a graceful drain keeps already-open connections alive
    /// (still answering requests) after the readiness flag flips, before
    /// their read halves are closed.
    pub drain_grace: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self { max_inflight_per_conn: 0, drain_grace: Duration::from_millis(250) }
    }
}

/// Receiver for [`Opcode::Ingest`] images: the server decodes the frame and
/// hands the image off here without blocking the connection reader. The
/// continuous-learning trainer implements this over its bounded intake
/// queue; a full queue should return the retryable
/// [`ServeError::Overloaded`] so clients back off instead of piling up.
pub trait IngestSink: Send + Sync {
    /// Accept one image for background training. Returns the total number
    /// of images accepted so far (echoed to the client), or an error that
    /// is sent back as a wire error reply.
    fn ingest(&self, image: Image) -> ServeResult<u64>;
}

/// State shared by every connection thread of one server.
struct ServerShared {
    service: Arc<LabelService>,
    shutdown: AtomicBool,
    /// `true` while serving; flipped off at the start of a drain or
    /// shutdown. Shared out (`Arc`) so a health front can report readiness
    /// without holding the server.
    ready: Arc<AtomicBool>,
    /// Read halves of the currently open connections, so shutdown can
    /// close them and unblock readers parked in `read_frame` — without
    /// this, joining the pool would hang until every client disconnected
    /// on its own.
    open_conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    local: SocketAddr,
    pool: usize,
    options: ServerOptions,
    /// Where [`Opcode::Ingest`] images go; `None` answers ingest requests
    /// with a wire error (the server was started without a trainer).
    ingest: Option<Arc<dyn IngestSink>>,
}

impl ServerShared {
    /// Flip the shutdown flag and unblock every parked thread: acceptors
    /// via throwaway connects, connection readers via socket shutdown.
    fn initiate_shutdown(&self) {
        // goggles-lint: allow(atomics): Release pairs with the health front's Acquire so probes see the flip promptly
        self.ready.store(false, Ordering::Release);
        // goggles-lint: allow(atomics): Release pairs with the acceptors' Acquire loads so a woken thread sees the flag
        self.shutdown.store(true, Ordering::Release);
        for stream in self.open_conns.lock().unwrap_or_else(PoisonError::into_inner).values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        wake_acceptors(self.local, self.pool);
    }

    /// Graceful drain: flip unready, stop accepting, keep serving
    /// already-open connections for the grace window, then close only
    /// their **read** halves — readers see EOF and stop taking new work,
    /// while the per-connection writers still flush every queued reply, so
    /// no in-flight ticket is lost. Blocks for the grace window; run from
    /// the connection thread that received the shutdown request.
    fn initiate_drain(&self) {
        // goggles-lint: allow(atomics): Release pairs with the health front's Acquire so probes flip to draining before connections die
        self.ready.store(false, Ordering::Release);
        // goggles-lint: allow(atomics): Release pairs with the acceptors' Acquire loads; new connections are refused from here on
        self.shutdown.store(true, Ordering::Release);
        wake_acceptors(self.local, self.pool);
        std::thread::sleep(self.options.drain_grace);
        for stream in self.open_conns.lock().unwrap_or_else(PoisonError::into_inner).values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
}

/// A running TCP front over a [`LabelService`]. Bind with
/// [`WireServer::bind`], then either [`WireServer::wait`] (serve until a
/// client sends the shutdown op) or keep it alongside other work and let
/// drop (or [`WireServer::shutdown`]) stop it.
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    service: Option<Arc<LabelService>>,
}

impl WireServer {
    /// Bind a listener (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start `conn_threads` connection threads over `service`. At most
    /// `conn_threads` connections are served concurrently; further clients
    /// queue in the OS accept backlog.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<LabelService>,
        conn_threads: usize,
    ) -> ServeResult<Self> {
        Self::bind_with(addr, service, conn_threads, ServerOptions::default())
    }

    /// [`WireServer::bind`] with explicit [`ServerOptions`] (inflight cap,
    /// drain grace).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<LabelService>,
        conn_threads: usize,
        options: ServerOptions,
    ) -> ServeResult<Self> {
        Self::bind_inner(addr, service, conn_threads, options, None)
    }

    /// [`WireServer::bind_with`] plus an [`IngestSink`]: incoming
    /// [`Opcode::Ingest`] frames are decoded and handed to `sink` (the
    /// continuous-learning trainer's intake queue). Without a sink, ingest
    /// requests are answered with a wire error.
    pub fn bind_with_ingest(
        addr: impl ToSocketAddrs,
        service: Arc<LabelService>,
        conn_threads: usize,
        options: ServerOptions,
        sink: Arc<dyn IngestSink>,
    ) -> ServeResult<Self> {
        Self::bind_inner(addr, service, conn_threads, options, Some(sink))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        service: Arc<LabelService>,
        conn_threads: usize,
        options: ServerOptions,
        ingest: Option<Arc<dyn IngestSink>>,
    ) -> ServeResult<Self> {
        assert!(conn_threads >= 1, "need at least one connection thread");
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Io(format!("binding listener: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("resolving bound address: {e}")))?;
        let listener = Arc::new(listener);
        let shared = Arc::new(ServerShared {
            service: Arc::clone(&service),
            shutdown: AtomicBool::new(false),
            ready: Arc::new(AtomicBool::new(true)),
            open_conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            local,
            pool: conn_threads,
            options,
            ingest,
        });
        let mut threads = Vec::with_capacity(conn_threads);
        for i in 0..conn_threads {
            let listener = Arc::clone(&listener);
            let shared_for_thread = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                // goggles-lint: allow(alloc-hot): startup-only pool-spawn loop, one name per thread, not steady-state
                .name(format!("goggles-served-conn-{i}"))
                .spawn(move || accept_loop(&listener, &shared_for_thread));
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(e) => {
                    // Unwind the part of the pool that did start, then
                    // surface the failure instead of panicking.
                    shared.initiate_shutdown();
                    for handle in threads {
                        let _ = handle.join();
                    }
                    // goggles-lint: allow(alloc-hot): startup failure path, the loop (and server) exits here
                    return Err(ServeError::Io(format!("spawning connection thread: {e}")));
                }
            }
        }
        Ok(Self { addr: local, shared, threads, service: Some(service) })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Readiness flag: `true` while serving, `false` from the moment a
    /// drain or shutdown starts. Hand it to a health front (the
    /// `goggles-served` binary exports it as `GET /healthz`) — probes keep
    /// answering through the drain window, reporting not-ready.
    pub fn ready_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.ready)
    }

    /// Serve until shutdown is requested (by a [`Opcode::ShutdownRequest`]
    /// over the wire, or a concurrent [`WireServer::shutdown`]), then drain
    /// the label service and return. Consumes the server; used by the
    /// `goggles-served` binary as its main loop.
    pub fn wait(mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Dropping our service handle drains the queue and joins the
        // workers (unless another owner still holds a clone).
        self.service.take();
    }

    /// Stop accepting, close every open connection (unblocking readers
    /// mid-`read_frame`), and join the connection threads. Idempotent; also
    /// invoked on drop.
    pub fn shutdown(&mut self) {
        self.shared.initiate_shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.service.take();
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Unblock acceptor threads parked in `accept()` by connecting (and
/// immediately dropping) throwaway sockets. A wildcard bind address
/// (`0.0.0.0` / `::`) is not connectable on every platform, so the wake
/// targets the matching loopback instead.
fn wake_acceptors(addr: SocketAddr, n: usize) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    for _ in 0..n {
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(200));
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    // goggles-lint: allow(atomics): Acquire pairs with initiate_shutdown's Release store before sockets close
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // goggles-lint: allow(atomics): Acquire pairs with initiate_shutdown's Release store
                if shared.shutdown.load(Ordering::Acquire) {
                    return; // woken for shutdown, not a real client
                }
                // Register the connection (a cheap fd clone) so shutdown
                // can close it out from under a parked reader; always
                // deregister afterwards.
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared
                        .open_conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(conn_id, clone);
                }
                handle_connection(stream, shared);
                shared.open_conns.lock().unwrap_or_else(PoisonError::into_inner).remove(&conn_id);
            }
            Err(_) => {
                // goggles-lint: allow(atomics): Acquire pairs with initiate_shutdown's Release store
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Persistent accept failures (EMFILE…) must not busy-spin
                // the pool; transient ones barely notice the pause.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Per-connection reply jobs, written strictly in submission order.
enum Reply {
    /// Already-encoded frame (stats, reload, errors, shutdown ack).
    Raw { id: u64, opcode: Opcode, payload: Vec<u8> },
    /// A labeling ticket to await; resolves to a label reply or an error
    /// reply.
    Label { id: u64, ticket: Ticket },
}

fn handle_connection(stream: TcpStream, shared: &Arc<ServerShared>) {
    let service = &shared.service;
    let metrics = Arc::clone(service.serve_metrics());
    let writer_metrics = Arc::clone(&metrics);
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (jobs, job_rx) = mpsc::channel::<Reply>();
    // Label tickets this connection has pending, for the inflight cap:
    // the reader increments on submission, the writer decrements once the
    // ticket resolved.
    let inflight = Arc::new(AtomicU64::new(0));
    let writer_inflight = Arc::clone(&inflight);
    // Writer: awaits tickets in submission order and streams replies while
    // the reader keeps accepting frames — this is what makes one
    // connection's pipeline fill micro-batches.
    let writer =
        std::thread::Builder::new().name("goggles-served-writer".into()).spawn(move || {
            let mut out = BufWriter::new(write_half);
            while let Ok(job) = job_rx.recv() {
                let (id, opcode, payload) = match job {
                    Reply::Raw { id, opcode, payload } => (id, opcode, payload),
                    Reply::Label { id, ticket } => {
                        let outcome = ticket.wait();
                        writer_inflight.fetch_sub(1, Ordering::Relaxed);
                        match outcome {
                            Ok(resp) => {
                                let _span =
                                    goggles_obs::Span::enter(&writer_metrics.stage_wire_encode);
                                (id, Opcode::LabelReply, encode_label_reply(&resp))
                            }
                            Err(e) => (id, Opcode::ErrorReply, encode_error_reply(&e)),
                        }
                    }
                };
                if wire::write_frame(&mut out, opcode, id, &payload).is_err() {
                    return; // peer gone; replies have nowhere to go
                }
            }
        });
    let writer = match writer {
        Ok(handle) => handle,
        // No writer means no way to answer; drop the connection (the
        // client sees a close, the server keeps serving others).
        Err(_) => return,
    };

    let mut read_half = stream;
    // Reading stops on clean disconnect, stream desync or I/O failure —
    // after a framing error the byte stream is unrecoverable; replies
    // already queued still flush below.
    while let Ok(Some(frame)) = wire::read_frame(&mut read_half) {
        let id = frame.request_id;
        match frame.opcode {
            Opcode::LabelRequest => {
                let decoded = {
                    let _span = goggles_obs::Span::enter(&metrics.stage_wire_decode);
                    decode_label_request(&frame.payload)
                };
                let cap = shared.options.max_inflight_per_conn;
                let job = match decoded {
                    // Per-connection backpressure: past the cap, shed with
                    // the typed, retryable overload error before touching
                    // the service queue at all.
                    Ok(_) if cap > 0 && inflight.load(Ordering::Relaxed) >= cap => {
                        service.record_shed();
                        error_reply(id, &ServeError::Overloaded)
                    }
                    Ok(req) => {
                        let deadline = (req.deadline_us > 0)
                            .then(|| Instant::now() + Duration::from_micros(req.deadline_us));
                        // Decoded straight into one allocation; the queue
                        // shares it — no pixel copy anywhere on the path.
                        match service.submit_with_deadline(Arc::new(req.image), deadline) {
                            Ok(ticket) => {
                                inflight.fetch_add(1, Ordering::Relaxed);
                                Reply::Label { id, ticket }
                            }
                            Err(e) => error_reply(id, &e),
                        }
                    }
                    Err(e) => {
                        if matches!(e, ServeError::InvalidImage(_)) {
                            service.record_invalid();
                        }
                        error_reply(id, &e)
                    }
                };
                if jobs.send(job).is_err() {
                    break;
                }
            }
            Opcode::StatsRequest => {
                let remote = RemoteStats {
                    stats: service.stats(),
                    version: service.registry().current_version(),
                };
                let raw = Reply::Raw {
                    id,
                    opcode: Opcode::StatsReply,
                    payload: encode_stats_reply(&remote),
                };
                if jobs.send(raw).is_err() {
                    break;
                }
            }
            Opcode::MetricsRequest => {
                let raw = Reply::Raw {
                    id,
                    opcode: Opcode::MetricsReply,
                    payload: encode_metrics_reply(&service.render_metrics()),
                };
                if jobs.send(raw).is_err() {
                    break;
                }
            }
            Opcode::ReloadRequest => {
                let job = match decode_reload_request(&frame.payload) {
                    Ok(path) => match service.reload_from(std::path::Path::new(&path)) {
                        Ok(version) => Reply::Raw {
                            id,
                            opcode: Opcode::ReloadReply,
                            payload: encode_reload_reply(version),
                        },
                        Err(e) => error_reply(id, &e),
                    },
                    Err(e) => error_reply(id, &e),
                };
                if jobs.send(job).is_err() {
                    break;
                }
            }
            Opcode::Ingest => {
                let job = match decode_ingest_request(&frame.payload) {
                    Ok(image) => match &shared.ingest {
                        Some(sink) => match sink.ingest(image) {
                            Ok(accepted) => Reply::Raw {
                                id,
                                opcode: Opcode::IngestReply,
                                payload: encode_ingest_reply(accepted),
                            },
                            Err(e) => error_reply(id, &e),
                        },
                        None => {
                            let msg = "ingest is not enabled on this server (no trainer attached)";
                            // goggles-lint: allow(alloc-hot): misconfigured-client error path, not steady-state
                            let e = ServeError::Wire(msg.to_string());
                            error_reply(id, &e)
                        }
                    },
                    Err(e) => error_reply(id, &e),
                };
                if jobs.send(job).is_err() {
                    break;
                }
            }
            Opcode::ShutdownRequest => {
                let _ = jobs.send(Reply::Raw {
                    id,
                    opcode: Opcode::ShutdownReply,
                    // goggles-lint: allow(alloc-hot): empty Vec::new never allocates, and this arm shuts the server down
                    payload: Vec::new(),
                });
                // Flush the ack, then drain gracefully: readiness flips
                // immediately, other connections keep serving through the
                // grace window, and every queued ticket is still answered.
                drop(jobs);
                let _ = writer.join();
                shared.initiate_drain();
                return;
            }
            // A client must never send reply opcodes; answer with a
            // protocol error and drop the connection (state is suspect).
            op => {
                // goggles-lint: allow(alloc-hot): protocol-error path; the connection is dropped right after
                let e = ServeError::Wire(format!("unexpected client opcode {op:?}"));
                let _ = jobs.send(error_reply(id, &e));
                break;
            }
        }
    }
    // Let the writer drain every queued reply, then close.
    drop(jobs);
    let _ = writer.join();
}

fn error_reply(id: u64, e: &ServeError) -> Reply {
    Reply::Raw { id, opcode: Opcode::ErrorReply, payload: encode_error_reply(e) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Labeler;
    use crate::client::RemoteLabeler;
    use crate::service::ServeConfig;
    use crate::snapshot::FittedLabeler;
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
    fn bind_resolves_ephemeral_port_and_shuts_down_cleanly() {
        let (labeler, ds) = fitted(61);
        let service = Arc::new(LabelService::spawn(labeler, ServeConfig::default()));
        let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "port 0 must resolve to a real port");
        // a quick round trip proves the pool is accepting
        let client = RemoteLabeler::connect(addr).unwrap();
        let resp = client.label(ds.test_images()[0]).unwrap();
        assert_eq!(resp.version, 1);
        drop(client);
        drop(server); // shutdown via drop must not hang
                      // the service is still usable by its other owner
        assert!(service.label(ds.test_images()[0]).is_ok());
    }

    #[test]
    fn wire_level_garbage_gets_the_connection_dropped_not_the_server() {
        use std::io::{Read as _, Write as _};
        let (labeler, ds) = fitted(62);
        let service = Arc::new(LabelService::spawn(labeler, ServeConfig::default()));
        let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
        let addr = server.local_addr();
        // raw garbage: the server must close this connection…
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"this is definitely not a GWP2 frame").unwrap();
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink); // unblocks when the server closes
        drop(raw);
        // …and keep serving well-formed clients.
        let client = RemoteLabeler::connect(addr).unwrap();
        assert!(client.label(ds.test_images()[0]).is_ok());
    }
}
