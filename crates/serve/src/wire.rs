//! The length-framed, checksummed binary wire protocol of the network
//! front.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! ┌────────────┬──────────┬────────┬───────────┬─────────┬──────────────┐
//! │ magic GWP2 │ len u32  │ op u8  │ req id u64│ payload │ xxh64 u64    │
//! │  4 bytes   │ LE       │        │ LE        │ op-dep. │ over op..pay │
//! └────────────┴──────────┴────────┴───────────┴─────────┴──────────────┘
//! ```
//!
//! `len` counts everything after itself (opcode + id + payload + checksum),
//! is bounded by [`MAX_FRAME_LEN`] before any allocation, and the trailing
//! XXH64 checksum (seed 0, [`crate::codec::xxh64`]) covers opcode, request
//! id and payload — truncation, bit rot and garbage are all rejected at the
//! framing layer, and any single bit flip changes the checksum. Protocol
//! revision 1 (`GWP1`) carried an FNV-1a trailer; a revision-1 peer gets
//! "bad frame magic", not a checksum mismatch. [`read_frame`] reads each
//! frame into one buffer, which becomes the frame's payload. Payload
//! encodings reuse the [`crate::codec`] conventions: little-endian,
//! length-prefixed, bounded lengths; image pixels are converted a whole
//! slice at a time.
//!
//! Request ids are chosen by the client and echoed verbatim in the
//! matching reply (or [`Opcode::ErrorReply`]), which is what makes
//! pipelining possible: a client may have any number of requests in flight
//! on one connection and match replies by id.
//!
//! The operation set mirrors the serving control plane: label (image +
//! optional deadline budget), stats, hot-reload, shutdown, and a metrics
//! dump (the full observability registry as Prometheus text).

use crate::codec::{xxh64, Reader, Writer};
use crate::fault;
use crate::service::{LabelResponse, ServiceStats};
use crate::{ServeError, ServeResult};
use goggles_tensor::Tensor3;
use goggles_vision::Image;
use std::io::{ErrorKind, Read, Write as IoWrite};

/// Magic bytes opening every frame ("GoggleS Wire Protocol v2": the XXH64
/// trailer).
pub(crate) const WIRE_MAGIC: [u8; 4] = *b"GWP2";
/// Hard cap on `len` (bytes after the length field). A 64 MiB frame fits a
/// 3 × 2048 × 2048 float image plus headers; anything larger is garbage and
/// must not trigger a huge allocation.
pub const MAX_FRAME_LEN: usize = 1 << 26;
/// Bytes of the body before the payload: opcode (1) + request id (8).
const BODY_HEAD: usize = 1 + 8;
/// Fixed non-payload bytes inside `len`: opcode (1) + request id (8) +
/// checksum (8).
const FRAME_OVERHEAD: usize = BODY_HEAD + 8;
/// Largest payload a frame can carry ([`MAX_FRAME_LEN`] minus the frame
/// overhead). Senders must check against this **before** encoding — an
/// oversized frame would be rejected by the peer's framing layer, killing
/// the whole pipelined connection instead of just the one request.
pub(crate) const MAX_PAYLOAD_LEN: usize = MAX_FRAME_LEN - FRAME_OVERHEAD;
/// Largest image edge the protocol accepts.
pub(crate) const MAX_IMAGE_DIM: usize = 1 << 14;
/// Largest channel count the protocol accepts.
pub(crate) const MAX_IMAGE_CHANNELS: usize = 64;

/// Frame opcodes. Requests flow client → server, replies server → client;
/// [`Opcode::ErrorReply`] answers any request that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Image + deadline budget → [`Opcode::LabelReply`].
    LabelRequest = 1,
    /// Label, probability row, serving version, batch size.
    LabelReply = 2,
    /// Error code + message, echoing the failed request's id.
    ErrorReply = 3,
    /// Ask for the service counters → [`Opcode::StatsReply`].
    StatsRequest = 4,
    /// Full [`ServiceStats`] (histograms included) + current version.
    StatsReply = 5,
    /// Server-side snapshot path to hot-reload → [`Opcode::ReloadReply`].
    ReloadRequest = 6,
    /// Version number the reload published.
    ReloadReply = 7,
    /// Ask the server to shut down cleanly → [`Opcode::ShutdownReply`].
    ShutdownRequest = 8,
    /// Acknowledged; the server stops accepting and drains.
    ShutdownReply = 9,
    /// Ask for the full observability registry → [`Opcode::MetricsReply`].
    MetricsRequest = 10,
    /// Prometheus text exposition dump of the server's metrics registry.
    MetricsReply = 11,
    /// Hand the server a new **training** image for the continuous-learning
    /// intake queue → [`Opcode::IngestReply`]. Unlike a label request the
    /// image is not answered, it is enqueued for the background trainer.
    Ingest = 12,
    /// Total images accepted into the intake queue so far (u64).
    IngestReply = 13,
}

impl Opcode {
    /// Parse a wire byte; unknown opcodes are a protocol error (garbage
    /// must never be dispatched).
    pub(crate) fn from_u8(b: u8) -> ServeResult<Self> {
        Ok(match b {
            1 => Opcode::LabelRequest,
            2 => Opcode::LabelReply,
            3 => Opcode::ErrorReply,
            4 => Opcode::StatsRequest,
            5 => Opcode::StatsReply,
            6 => Opcode::ReloadRequest,
            7 => Opcode::ReloadReply,
            8 => Opcode::ShutdownRequest,
            9 => Opcode::ShutdownReply,
            10 => Opcode::MetricsRequest,
            11 => Opcode::MetricsReply,
            12 => Opcode::Ingest,
            13 => Opcode::IngestReply,
            b => return Err(ServeError::Wire(format!("unknown opcode {b:#04x}"))),
        })
    }
}

/// One decoded frame: opcode, the client-chosen request id, and the
/// opcode-specific payload bytes (still encoded).
#[derive(Debug, Clone, PartialEq, Eq)]
// goggles-lint: allow(dead-pub): parameter/return type of the pub read_frame/decode_frame codec API; reached through inference
pub struct Frame {
    /// What this frame asks for / answers.
    pub opcode: Opcode,
    /// Client-chosen id echoed in the reply; pipelining key.
    pub request_id: u64,
    /// Opcode-specific payload (see the `encode_*`/`decode_*` pairs).
    pub payload: Vec<u8>,
}

/// Encode one frame to bytes (magic + length + checksummed body).
pub fn encode_frame(opcode: Opcode, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let len = FRAME_OVERHEAD + payload.len();
    let mut out = Vec::with_capacity(8 + len);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let body_start = out.len();
    out.push(opcode as u8);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = xxh64(out.get(body_start..).unwrap_or_default());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Check a frame header (magic, then the length bounds) and return `len`,
/// the number of body bytes that follow it.
fn body_len(header: [u8; 8]) -> ServeResult<usize> {
    let [m0, m1, m2, m3, l0, l1, l2, l3] = header;
    if [m0, m1, m2, m3] != WIRE_MAGIC {
        return Err(ServeError::Wire("bad frame magic".into()));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if !(FRAME_OVERHEAD..=MAX_FRAME_LEN).contains(&len) {
        return Err(ServeError::Wire(format!(
            "implausible frame length {len} (bounds {FRAME_OVERHEAD}..={MAX_FRAME_LEN})"
        )));
    }
    Ok(len)
}

/// Verify a frame body's checksum, then split it into opcode, request id
/// and payload.
fn open_body(body: &[u8]) -> ServeResult<(Opcode, u64, &[u8])> {
    // A body that passed `body_len` makes the three splits below
    // infallible, but each still degrades to a Wire error rather than
    // trusting arithmetic.
    let Some((checked, trailer)) = body.split_last_chunk::<8>() else {
        return Err(ServeError::Wire("frame body too short for checksum".into()));
    };
    let stored = u64::from_le_bytes(*trailer);
    let actual = xxh64(checked);
    if stored != actual {
        return Err(ServeError::Wire(format!(
            "frame checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let Some((&op, after_op)) = checked.split_first() else {
        return Err(ServeError::Wire("frame body too short for opcode".into()));
    };
    let opcode = Opcode::from_u8(op)?;
    let Some((rid, payload)) = after_op.split_first_chunk::<8>() else {
        return Err(ServeError::Wire("frame body too short for request id".into()));
    };
    Ok((opcode, u64::from_le_bytes(*rid), payload))
}

/// Decode one frame from the front of `bytes`; returns the frame and the
/// number of bytes consumed. Truncation, bad magic, implausible lengths,
/// checksum mismatches and unknown opcodes all come back as
/// [`ServeError::Wire`] — never a panic, never an unbounded allocation.
pub fn decode_frame(bytes: &[u8]) -> ServeResult<(Frame, usize)> {
    let Some((header, after_header)) = bytes.split_first_chunk::<8>() else {
        return Err(ServeError::Wire(format!("frame header truncated ({} bytes)", bytes.len())));
    };
    let len = body_len(*header)?;
    let Some(body) = after_header.get(..len) else {
        return Err(ServeError::Wire(format!(
            "frame truncated: header promises {len} bytes, {} available",
            after_header.len()
        )));
    };
    let (opcode, request_id, payload) = open_body(body)?;
    Ok((Frame { opcode, request_id, payload: payload.to_vec() }, 8 + len))
}

/// A transient I/O error: the operation was interrupted or would block —
/// retry it instead of treating the connection as dead. (`TimedOut` is what
/// a socket read timeout surfaces on some platforms where Unix reports
/// `WouldBlock`.)
fn is_transient(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Back off before retrying a transient read: `Interrupted` retries
/// immediately (the syscall was merely preempted), `WouldBlock`/`TimedOut`
/// pause briefly so a not-ready socket is not spun on.
fn transient_pause(e: &std::io::Error) {
    if e.kind() != ErrorKind::Interrupted {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Write one frame to a stream.
pub(crate) fn write_frame(
    w: &mut impl IoWrite,
    opcode: Opcode,
    request_id: u64,
    payload: &[u8],
) -> ServeResult<()> {
    if fault::enabled() {
        if let Some(e) = fault::inject_io("wire.write") {
            if !is_transient(&e) {
                return Err(ServeError::Io(format!("writing frame: {e}")));
            }
            // A transient write fault only delays; write_all below retries
            // `Interrupted` internally anyway.
            transient_pause(&e);
        }
    }
    let bytes = encode_frame(opcode, request_id, payload);
    w.write_all(&bytes).map_err(|e| ServeError::Io(format!("writing frame: {e}")))?;
    w.flush().map_err(|e| ServeError::Io(format!("flushing frame: {e}")))
}

/// Read one frame from a stream. `Ok(None)` is a clean end-of-stream (the
/// peer closed between frames); closing *inside* a frame, and every other
/// protocol violation, is an error.
pub fn read_frame(r: &mut impl Read) -> ServeResult<Option<Frame>> {
    // First byte read separately so a clean close (0 bytes) is not an error.
    let mut first = [0u8; 1];
    loop {
        if let Some(e) = fault::inject_io("wire.read") {
            if is_transient(&e) {
                transient_pause(&e);
                continue;
            }
            // goggles-lint: allow(alloc-hot): injected-fault return path; the retry loop exits here
            return Err(ServeError::Io(format!("reading frame: {e}")));
        }
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            // Transient errors (`Interrupted`, `WouldBlock`, `TimedOut`)
            // retry instead of killing a healthy pipelined connection.
            Err(e) if is_transient(&e) => transient_pause(&e),
            // goggles-lint: allow(alloc-hot): I/O error return path; the retry loop exits here
            Err(e) => return Err(ServeError::Io(format!("reading frame: {e}"))),
        }
    }
    let [first_byte] = first;
    let mut header = [first_byte, 0, 0, 0, 0, 0, 0, 0];
    if let Some((_, rest)) = header.split_first_mut() {
        read_exact(r, rest)?;
    }
    let len = body_len(header)?;
    // The body is read into one buffer, checked in place, and then becomes
    // the payload: trimming the checksum and shifting out opcode and
    // request id reuse its allocation instead of copying it.
    let mut body = vec![0u8; len];
    read_exact(r, &mut body)?;
    let (opcode, request_id, payload) = open_body(&body)?;
    let payload_end = BODY_HEAD + payload.len();
    body.truncate(payload_end);
    body.drain(..BODY_HEAD);
    Ok(Some(Frame { opcode, request_id, payload: body }))
}

/// Fill `buf` completely, retrying transient errors (`Interrupted`,
/// `WouldBlock`, `TimedOut`) instead of treating them as fatal — the std
/// `read_exact` only retries `Interrupted`, so a stray `WouldBlock` (e.g. a
/// socket read timeout mid-frame) used to kill the whole pipelined
/// connection. EOF mid-frame is still a protocol error.
fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> ServeResult<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if let Some(e) = fault::inject_io("wire.read") {
            if is_transient(&e) {
                transient_pause(&e);
                continue;
            }
            // goggles-lint: allow(alloc-hot): injected-fault return path; the retry loop exits here
            return Err(ServeError::Io(format!("reading frame: {e}")));
        }
        let Some(dst) = buf.get_mut(filled..) else {
            break;
        };
        match r.read(dst) {
            Ok(0) => return Err(ServeError::Wire("connection closed mid-frame".into())),
            Ok(n) => filled += n,
            Err(e) if is_transient(&e) => transient_pause(&e),
            // goggles-lint: allow(alloc-hot): I/O error return path; the retry loop exits here
            Err(e) => return Err(ServeError::Io(format!("reading frame: {e}"))),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// payload encodings
// ---------------------------------------------------------------------

/// Decoded [`Opcode::LabelRequest`] payload.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelRequest {
    /// The image to label (decoded straight into its final buffer; the
    /// server wraps it in an `Arc` without copying).
    pub image: Image,
    /// Deadline *budget* in microseconds relative to receipt; 0 = none.
    /// Relative, not absolute: the two hosts do not share a clock.
    pub deadline_us: u64,
}

/// Encode an image + deadline budget for [`Opcode::LabelRequest`].
pub fn encode_label_request(image: &Image, deadline_us: u64) -> Vec<u8> {
    let (c, h, w) = image.shape();
    let mut wr = Writer::new();
    wr.put_u64(deadline_us);
    wr.put_u32(c as u32);
    wr.put_u32(h as u32);
    wr.put_u32(w as u32);
    wr.put_f32_slice_raw(image.tensor().as_slice());
    wr.into_bytes()
}

/// Decode an [`Opcode::LabelRequest`] payload: the deadline budget, then
/// the image. A malformed image is a [`ServeError::Wire`] error, one with a
/// pixel outside `[0, 1]` [`ServeError::InvalidImage`].
pub fn decode_label_request(payload: &[u8]) -> ServeResult<LabelRequest> {
    let mut r = Reader::new(payload);
    let deadline_us = r.get_u64().map_err(wire_err)?;
    Ok(LabelRequest { image: decode_image(r)?, deadline_us })
}

/// Decode the image that ends a label or ingest payload. Dimensions are
/// bounded (`MAX_IMAGE_CHANNELS`, `MAX_IMAGE_DIM`) and the pixel count must
/// exactly match the remaining payload, so a corrupt frame can neither
/// over-allocate nor smuggle in trailing garbage. A well-formed image with
/// a pixel outside `[0, 1]` is [`ServeError::InvalidImage`].
fn decode_image(mut r: Reader<'_>) -> ServeResult<Image> {
    let c = r.get_len_u32(MAX_IMAGE_CHANNELS).map_err(wire_err)?;
    let h = r.get_len_u32(MAX_IMAGE_DIM).map_err(wire_err)?;
    let w = r.get_len_u32(MAX_IMAGE_DIM).map_err(wire_err)?;
    if c == 0 || h == 0 || w == 0 {
        return Err(ServeError::Wire(format!("image with zero dimension ({c}×{h}×{w})")));
    }
    let pixels = c
        .checked_mul(h)
        .and_then(|p| p.checked_mul(w))
        .ok_or_else(|| ServeError::Wire(format!("image shape {c}×{h}×{w} overflows")))?;
    if r.remaining() != pixels * 4 {
        return Err(ServeError::Wire(format!(
            "image payload is {} bytes, shape {c}×{h}×{w} needs {}",
            r.remaining(),
            pixels * 4
        )));
    }
    // One bulk little-endian conversion, then the range check over the
    // same, still cache-resident, pixels.
    let data = r.get_f32_vec(pixels).map_err(wire_err)?;
    let tensor = Tensor3::from_vec(c, h, w, data)
        .map_err(|e| ServeError::Wire(format!("image decode: {e}")))?;
    let image = Image::from_tensor(tensor);
    crate::check_pixels(&image)?;
    Ok(image)
}

/// Encode a [`LabelResponse`] for [`Opcode::LabelReply`]. Probabilities are
/// bit-exact `f64`s, so a remote answer is bit-identical to the in-process
/// one.
pub fn encode_label_reply(resp: &LabelResponse) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(resp.label as u32);
    w.put_u64(resp.version);
    w.put_u32(resp.batch_size as u32);
    w.put_f64_slice(&resp.probs);
    w.into_bytes()
}

/// Decode an [`Opcode::LabelReply`] payload.
pub fn decode_label_reply(payload: &[u8]) -> ServeResult<LabelResponse> {
    let mut r = Reader::new(payload);
    let label = r.get_u32().map_err(wire_err)? as usize;
    let version = r.get_u64().map_err(wire_err)?;
    let batch_size = r.get_u32().map_err(wire_err)? as usize;
    let probs = r.get_f64_slice().map_err(wire_err)?;
    if probs.is_empty() || label >= probs.len() {
        return Err(ServeError::Wire(format!(
            "label {label} out of range for {} probabilities",
            probs.len()
        )));
    }
    if r.remaining() != 0 {
        return Err(ServeError::Wire("trailing bytes after label reply".into()));
    }
    Ok(LabelResponse { label, probs, batch_size, version })
}

/// Error codes carried by [`Opcode::ErrorReply`] — the wire image of
/// [`ServeError`].
fn error_code(e: &ServeError) -> u8 {
    match e {
        ServeError::Snapshot(_) => 1,
        ServeError::Corrupt(_) => 2,
        ServeError::Io(_) => 3,
        ServeError::Pipeline(_) => 4,
        ServeError::Registry(_) => 5,
        ServeError::Closed => 6,
        ServeError::Deadline => 7,
        ServeError::Wire(_) => 8,
        ServeError::Overloaded => 9,
        ServeError::InvalidImage(_) => 10,
    }
}

/// Encode a [`ServeError`] for [`Opcode::ErrorReply`]: error code, a
/// retryable flag byte (the wire image of [`ServeError::retryable`], so a
/// client decides retry-vs-fail without string matching), and the display
/// message.
pub fn encode_error_reply(e: &ServeError) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(error_code(e));
    w.put_u8(u8::from(e.retryable()));
    put_string(&mut w, &e.to_string());
    w.into_bytes()
}

/// Decode an [`Opcode::ErrorReply`] payload back into the native error.
/// Variants that carry structured inner errors ([`ServeError::Pipeline`])
/// come back with their display string. The retryable flag must agree with
/// the decoded variant's own [`ServeError::retryable`] — a disagreement
/// means the peer speaks a different protocol revision (or the frame is
/// corrupt despite its checksum) and is rejected rather than silently
/// mis-classifying the error.
pub fn decode_error_reply(payload: &[u8]) -> ServeResult<ServeError> {
    let mut r = Reader::new(payload);
    let code = r.get_u8().map_err(wire_err)?;
    let flag = r.get_u8().map_err(wire_err)?;
    if flag > 1 {
        return Err(ServeError::Wire(format!("bad retryable flag {flag:#04x}")));
    }
    let msg = get_string(&mut r)?;
    let decoded = match code {
        1 => ServeError::Snapshot(msg),
        2 => ServeError::Corrupt(msg),
        3 => ServeError::Io(msg),
        4 => ServeError::Pipeline(goggles_core::GogglesError::InvalidInput(msg)),
        5 => ServeError::Registry(msg),
        6 => ServeError::Closed,
        7 => ServeError::Deadline,
        8 => ServeError::Wire(msg),
        9 => ServeError::Overloaded,
        10 => ServeError::InvalidImage(msg),
        c => return Err(ServeError::Wire(format!("unknown error code {c}"))),
    };
    if (flag == 1) != decoded.retryable() {
        return Err(ServeError::Wire(format!(
            "retryable flag {flag} disagrees with error code {code}"
        )));
    }
    Ok(decoded)
}

/// What [`Opcode::StatsReply`] carries: the server's full counter snapshot
/// (histograms included, so the client can derive any percentile) plus the
/// registry version currently serving.
#[derive(Debug, Clone, Copy, PartialEq)]
// goggles-lint: allow(dead-pub): return type of pub RemoteLabeler::stats; external callers reach it through inference
pub struct RemoteStats {
    /// Counter snapshot of the remote service.
    pub stats: ServiceStats,
    /// Version new batches currently resolve on the server.
    pub version: u64,
}

/// Encode a [`RemoteStats`] for [`Opcode::StatsReply`]. The payload is all
/// little-endian `u64`s, in this order:
///
/// ```text
/// version, requests, batches, failed_batches, failed_requests,
/// deadline_expired, cancelled, shed, invalid, worker_restarts, queue_depth,
/// latency:    32 bucket counts, sum
/// batch_size: 32 bucket counts, sum
/// ```
pub(crate) fn encode_stats_reply(remote: &RemoteStats) -> Vec<u8> {
    let s = &remote.stats;
    let mut w = Writer::new();
    for v in [
        remote.version,
        s.requests,
        s.batches,
        s.failed_batches,
        s.failed_requests,
        s.deadline_expired,
        s.cancelled,
        s.shed,
        s.invalid,
        s.worker_restarts,
        s.queue_depth,
    ] {
        w.put_u64(v);
    }
    for h in [&s.latency, &s.batch_size] {
        for &count in &h.counts {
            w.put_u64(count);
        }
        w.put_u64(h.sum);
    }
    w.into_bytes()
}

/// Decode an [`Opcode::StatsReply`] payload (layout on `encode_stats_reply`).
pub fn decode_stats_reply(payload: &[u8]) -> ServeResult<RemoteStats> {
    let mut r = Reader::new(payload);
    let version = r.get_u64().map_err(wire_err)?;
    let mut stats = ServiceStats {
        requests: r.get_u64().map_err(wire_err)?,
        batches: r.get_u64().map_err(wire_err)?,
        failed_batches: r.get_u64().map_err(wire_err)?,
        failed_requests: r.get_u64().map_err(wire_err)?,
        deadline_expired: r.get_u64().map_err(wire_err)?,
        cancelled: r.get_u64().map_err(wire_err)?,
        shed: r.get_u64().map_err(wire_err)?,
        invalid: r.get_u64().map_err(wire_err)?,
        worker_restarts: r.get_u64().map_err(wire_err)?,
        queue_depth: r.get_u64().map_err(wire_err)?,
        ..ServiceStats::default()
    };
    for h in [&mut stats.latency, &mut stats.batch_size] {
        for count in h.counts.iter_mut() {
            *count = r.get_u64().map_err(wire_err)?;
        }
        h.sum = r.get_u64().map_err(wire_err)?;
    }
    if r.remaining() != 0 {
        return Err(ServeError::Wire("trailing bytes after stats reply".into()));
    }
    Ok(RemoteStats { stats, version })
}

/// Encode a registry dump (Prometheus text) for [`Opcode::MetricsReply`].
/// The text is length-prefixed UTF-8, same convention as every string on
/// this wire.
pub fn encode_metrics_reply(text: &str) -> Vec<u8> {
    let mut w = Writer::new();
    put_string(&mut w, text);
    w.into_bytes()
}

/// Decode an [`Opcode::MetricsReply`] payload back into exposition text.
pub fn decode_metrics_reply(payload: &[u8]) -> ServeResult<String> {
    let mut r = Reader::new(payload);
    let text = get_string(&mut r)?;
    if r.remaining() != 0 {
        return Err(ServeError::Wire("trailing bytes after metrics reply".into()));
    }
    Ok(text)
}

/// Encode a server-side snapshot path for [`Opcode::ReloadRequest`].
pub fn encode_reload_request(path: &str) -> Vec<u8> {
    let mut w = Writer::new();
    put_string(&mut w, path);
    w.into_bytes()
}

/// Decode an [`Opcode::ReloadRequest`] payload.
pub fn decode_reload_request(payload: &[u8]) -> ServeResult<String> {
    let mut r = Reader::new(payload);
    let path = get_string(&mut r)?;
    if r.remaining() != 0 {
        return Err(ServeError::Wire("trailing bytes after reload request".into()));
    }
    Ok(path)
}

/// Encode the published version for [`Opcode::ReloadReply`].
pub(crate) fn encode_reload_reply(version: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(version);
    w.into_bytes()
}

/// Decode an [`Opcode::ReloadReply`] payload.
pub fn decode_reload_reply(payload: &[u8]) -> ServeResult<u64> {
    let mut r = Reader::new(payload);
    let version = r.get_u64().map_err(wire_err)?;
    if r.remaining() != 0 {
        return Err(ServeError::Wire("trailing bytes after reload reply".into()));
    }
    Ok(version)
}

/// Encode a training image for [`Opcode::Ingest`]. Same image layout as a
/// label request (shape header + raw f32 pixels) but no deadline — intake
/// is asynchronous by design.
pub fn encode_ingest_request(image: &Image) -> Vec<u8> {
    let (c, h, w) = image.shape();
    let mut wr = Writer::new();
    wr.put_u32(c as u32);
    wr.put_u32(h as u32);
    wr.put_u32(w as u32);
    wr.put_f32_slice_raw(image.tensor().as_slice());
    wr.into_bytes()
}

/// Decode an [`Opcode::Ingest`] payload: the image alone, checked as by
/// [`decode_label_request`].
pub fn decode_ingest_request(payload: &[u8]) -> ServeResult<Image> {
    decode_image(Reader::new(payload))
}

/// Encode the running intake count for [`Opcode::IngestReply`].
pub(crate) fn encode_ingest_reply(accepted: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(accepted);
    w.into_bytes()
}

/// Decode an [`Opcode::IngestReply`] payload.
pub fn decode_ingest_reply(payload: &[u8]) -> ServeResult<u64> {
    let mut r = Reader::new(payload);
    let accepted = r.get_u64().map_err(wire_err)?;
    if r.remaining() != 0 {
        return Err(ServeError::Wire("trailing bytes after ingest reply".into()));
    }
    Ok(accepted)
}

/// Length-prefixed UTF-8 string (u32 length, bounded by the remaining
/// payload before allocation).
fn put_string(w: &mut Writer, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_bytes(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> ServeResult<String> {
    let len = r.get_len_u32(r.remaining()).map_err(wire_err)?;
    let bytes = r.take(len).map_err(wire_err)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ServeError::Wire("string payload is not UTF-8".into()))
}

/// Re-brand a codec-level error ([`ServeError::Snapshot`]) as a wire error:
/// the payload readers share the codec with snapshots (whose errors are
/// `Snapshot`, worded for either use), but the failure domain is the
/// network frame.
fn wire_err(e: ServeError) -> ServeError {
    match e {
        ServeError::Snapshot(msg) => ServeError::Wire(msg),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_stream_read() {
        let payload = b"hello wire".to_vec();
        let bytes = encode_frame(Opcode::LabelRequest, 42, &payload);
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame.opcode, Opcode::LabelRequest);
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.payload, payload);

        // the same bytes through the streaming reader, twice in a row
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&encode_frame(Opcode::StatsRequest, 7, &[]));
        let mut cursor = std::io::Cursor::new(doubled);
        let a = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(a.request_id, 42);
        let b = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(b.opcode, Opcode::StatsRequest);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF between frames");

        // read_frame turns its read buffer into the payload; the result
        // must equal decode_frame's copy for every payload size
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 100, 4096] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 13 + n) as u8).collect();
            let bytes = encode_frame(Opcode::MetricsReply, n as u64, &payload);
            expected.push(decode_frame(&bytes).unwrap().0);
            stream.extend_from_slice(&bytes);
        }
        let mut cursor = std::io::Cursor::new(stream);
        for want in expected {
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), want);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncation_bitflips_and_garbage_opcodes_are_errors() {
        let bytes = encode_frame(Opcode::LabelReply, 3, b"payload");
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut {cut}");
            let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
            if cut == 0 {
                assert!(read_frame(&mut cursor).unwrap().is_none());
            } else {
                assert!(read_frame(&mut cursor).is_err(), "stream cut {cut}");
            }
        }
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(decode_frame(&bad).is_err(), "flip at {pos}");
        }
        // garbage opcode, re-checksummed with the wire checksum so it
        // reaches the opcode check
        let mut garbage = bytes.clone();
        garbage[8] = 0xEE;
        let len = garbage.len();
        let c = xxh64(&garbage[8..len - 8]);
        garbage[len - 8..].copy_from_slice(&c.to_le_bytes());
        match decode_frame(&garbage) {
            Err(ServeError::Wire(msg)) => assert!(msg.contains("opcode"), "{msg}"),
            other => panic!("expected Wire error, got {other:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // 100 payload bytes make the checksummed body (opcode + id +
        // payload) 109 bytes, ≡ 13 (mod 32): three full 32-byte stripes
        // through the four lanes, then one 8-byte word, one 4-byte word and
        // one single byte of tail.
        let payload: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let bytes = encode_frame(Opcode::LabelRequest, 0x0123_4567_89AB_CDEF, &payload);
        assert_eq!((bytes.len() - 16) % 32, 13);
        let body = 8..bytes.len();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                match decode_frame(&bad) {
                    // past the header only the checksum can catch it
                    Err(ServeError::Wire(msg)) if body.contains(&pos) => {
                        assert!(msg.contains("checksum mismatch"), "byte {pos} bit {bit}: {msg}")
                    }
                    Err(ServeError::Wire(_)) => {}
                    other => panic!("byte {pos} bit {bit}: expected Wire error, got {other:?}"),
                }
                assert!(read_frame(&mut std::io::Cursor::new(bad)).is_err(), "{pos}/{bit}");
            }
        }
    }

    #[test]
    fn revision_one_frames_are_refused_as_bad_magic() {
        let mut bytes = encode_frame(Opcode::StatsRequest, 1, &[]);
        bytes[..4].copy_from_slice(b"GWP1");
        match decode_frame(&bytes) {
            Err(ServeError::Wire(msg)) => assert_eq!(msg, "bad frame magic"),
            other => panic!("expected Wire error, got {other:?}"),
        }
        match read_frame(&mut std::io::Cursor::new(bytes)) {
            Err(ServeError::Wire(msg)) => assert_eq!(msg, "bad frame magic"),
            other => panic!("expected Wire error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_label_request_errors_are_worded_for_the_wire() {
        let payload = encode_label_request(&Image::filled(3, 4, 4, 0.5), 9);
        for cut in 0..payload.len() {
            match decode_label_request(&payload[..cut]) {
                Err(ServeError::Wire(msg)) => {
                    assert!(!msg.contains("snapshot"), "cut {cut}: {msg}")
                }
                other => panic!("cut {cut}: expected Wire error, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        let mut bytes = encode_frame(Opcode::StatsRequest, 1, &[]);
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bytes) {
            Err(ServeError::Wire(msg)) => assert!(msg.contains("implausible"), "{msg}"),
            other => panic!("expected Wire error, got {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn label_request_round_trip_is_bit_exact() {
        let mut image = Image::new(3, 4, 5);
        for (i, v) in image.tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *v = i as f32 / 59.0; // 60 pixels spanning [0, 1]
        }
        let payload = encode_label_request(&image, 12_345);
        let decoded = decode_label_request(&payload).unwrap();
        assert_eq!(decoded.deadline_us, 12_345);
        assert_eq!(decoded.image, image);
    }

    #[test]
    fn label_request_rejects_bad_shapes_and_sizes() {
        let image = Image::filled(1, 2, 2, 0.5);
        let good = encode_label_request(&image, 0);
        // truncated pixels
        assert!(decode_label_request(&good[..good.len() - 2]).is_err());
        // trailing garbage
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 4]);
        assert!(decode_label_request(&padded).is_err());
        // zero dimension
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_u32(0);
        w.put_u32(2);
        w.put_u32(2);
        assert!(decode_label_request(&w.into_bytes()).is_err());
        // implausible dimension
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_u32(3);
        w.put_u32(u32::MAX);
        w.put_u32(u32::MAX);
        assert!(decode_label_request(&w.into_bytes()).is_err());
    }

    #[test]
    fn label_reply_round_trip_and_validation() {
        let resp = LabelResponse { label: 1, probs: vec![0.25, 0.75], batch_size: 4, version: 9 };
        let payload = encode_label_reply(&resp);
        assert_eq!(decode_label_reply(&payload).unwrap(), resp);
        // out-of-range label rejected
        let bad = LabelResponse { label: 2, ..resp.clone() };
        assert!(decode_label_reply(&encode_label_reply(&bad)).is_err());
        for cut in 0..payload.len() {
            assert!(decode_label_reply(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn error_reply_round_trips_every_variant() {
        let errors = [
            ServeError::Snapshot("s".into()),
            ServeError::Corrupt("c".into()),
            ServeError::Io("i".into()),
            ServeError::Pipeline(goggles_core::GogglesError::InvalidInput("p".into())),
            ServeError::Registry("r".into()),
            ServeError::Closed,
            ServeError::Deadline,
            ServeError::Wire("w".into()),
            ServeError::Overloaded,
        ];
        for e in errors {
            let decoded = decode_error_reply(&encode_error_reply(&e)).unwrap();
            assert_eq!(error_code(&decoded), error_code(&e), "{e}");
            assert_eq!(decoded.retryable(), e.retryable(), "{e}");
        }
        assert!(decode_error_reply(&[0xFF, 0, 0, 0, 0, 0]).is_err(), "unknown code");
        // a lying retryable flag is rejected, both polarities
        let mut lie = encode_error_reply(&ServeError::Overloaded);
        lie[1] = 0;
        assert!(decode_error_reply(&lie).is_err(), "retryable error flagged non-retryable");
        let mut lie = encode_error_reply(&ServeError::Deadline);
        lie[1] = 1;
        assert!(decode_error_reply(&lie).is_err(), "non-retryable error flagged retryable");
        let mut lie = encode_error_reply(&ServeError::Closed);
        lie[1] = 2;
        assert!(decode_error_reply(&lie).is_err(), "out-of-range flag byte");
    }

    #[test]
    fn stats_reply_round_trips_with_histogram() {
        let mut stats = ServiceStats {
            requests: 10,
            batches: 3,
            failed_batches: 1,
            failed_requests: 2,
            deadline_expired: 3,
            cancelled: 4,
            shed: 5,
            invalid: 6,
            worker_restarts: 7,
            queue_depth: 8,
            ..Default::default()
        };
        stats.latency.counts[goggles_obs::bucket_index(100)] = 1;
        stats.latency.counts[goggles_obs::bucket_index(90_000)] = 1;
        stats.latency.sum = 90_100;
        stats.batch_size.counts[goggles_obs::bucket_index(4)] = 3;
        stats.batch_size.sum = 10;
        let remote = RemoteStats { stats, version: 4 };
        let payload = encode_stats_reply(&remote);
        // 11 scalars, then 32 counts + the sum for each of the two histograms.
        assert_eq!(payload.len(), 8 * (11 + 2 * (32 + 1)));
        let decoded = decode_stats_reply(&payload).unwrap();
        assert_eq!(decoded, remote);
        assert_eq!(decoded.stats.latency.total(), 2);
        assert_eq!(decoded.stats.mean_latency_us(), 45_050.0);
        assert_eq!(decoded.stats.p99_latency_us(), 131_072);
        assert_eq!(decoded.stats.batch_size.sum, 10);
        for cut in 0..payload.len() {
            assert!(decode_stats_reply(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn metrics_reply_round_trips_and_rejects_corruption() {
        let text = "# HELP goggles_requests_total requests\n\
                    # TYPE goggles_requests_total counter\n\
                    goggles_requests_total{result=\"ok\"} 12\n";
        let payload = encode_metrics_reply(text);
        assert_eq!(decode_metrics_reply(&payload).unwrap(), text);
        for cut in 0..payload.len() {
            assert!(decode_metrics_reply(&payload[..cut]).is_err(), "cut {cut}");
        }
        // trailing garbage
        let mut padded = payload.clone();
        padded.extend_from_slice(&[0u8; 3]);
        assert!(decode_metrics_reply(&padded).is_err());
        // non-UTF-8 body
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_bytes(&[0xFF, 0xFE]);
        assert!(decode_metrics_reply(&w.into_bytes()).is_err());
        // and the new opcodes survive the framing layer
        let frame = encode_frame(Opcode::MetricsRequest, 5, &[]);
        assert_eq!(decode_frame(&frame).unwrap().0.opcode, Opcode::MetricsRequest);
        let frame = encode_frame(Opcode::MetricsReply, 6, &payload);
        assert_eq!(decode_frame(&frame).unwrap().0.opcode, Opcode::MetricsReply);
    }

    #[test]
    fn ingest_round_trips_and_rejects_bad_shapes() {
        let mut image = Image::new(3, 4, 5);
        for (i, v) in image.tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *v = i as f32 * 0.0137;
        }
        let payload = encode_ingest_request(&image);
        assert_eq!(decode_ingest_request(&payload).unwrap(), image);
        // truncated pixels / trailing garbage
        assert!(decode_ingest_request(&payload[..payload.len() - 1]).is_err());
        let mut padded = payload.clone();
        padded.extend_from_slice(&[0u8; 4]);
        assert!(decode_ingest_request(&padded).is_err());
        // zero dimension
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u32(2);
        w.put_u32(2);
        assert!(decode_ingest_request(&w.into_bytes()).is_err());
        // reply round trip
        assert_eq!(decode_ingest_reply(&encode_ingest_reply(17)).unwrap(), 17);
        assert!(decode_ingest_reply(&[1, 2]).is_err());
        // new opcodes survive the framing layer
        let frame = encode_frame(Opcode::Ingest, 8, &payload);
        assert_eq!(decode_frame(&frame).unwrap().0.opcode, Opcode::Ingest);
        let frame = encode_frame(Opcode::IngestReply, 9, &encode_ingest_reply(1));
        assert_eq!(decode_frame(&frame).unwrap().0.opcode, Opcode::IngestReply);
    }

    #[test]
    fn reload_round_trips_and_rejects_non_utf8() {
        let payload = encode_reload_request("/tmp/snap_v2.ggl");
        assert_eq!(decode_reload_request(&payload).unwrap(), "/tmp/snap_v2.ggl");
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_bytes(&[0xFF, 0xFE]);
        assert!(decode_reload_request(&w.into_bytes()).is_err());
        assert_eq!(decode_reload_reply(&encode_reload_reply(7)).unwrap(), 7);
        assert!(decode_reload_reply(&[1, 2]).is_err());
    }
}
