//! The transport-agnostic labeling API: the [`Labeler`] trait and the
//! non-blocking [`Ticket`] it hands out.
//!
//! Every way of getting an image labeled — calling a [`FittedLabeler`]
//! in-process, queueing into a [`crate::LabelService`] micro-batcher, or
//! crossing the network through a [`crate::RemoteLabeler`] — exposes the
//! same request lifecycle:
//!
//! ```text
//! submit(Arc<Image>) ─→ Ticket ──poll()/wait()/wait_timeout()──→ LabelResponse
//!        │                 │
//!        │                 └─ drop before the answer = cancel
//!        └─ submit_with_deadline: expired requests answered with
//!           ServeError::Deadline instead of occupying a batch slot
//! ```
//!
//! Callers are written once against `&dyn Labeler` (or a generic bound) and
//! work unchanged whether the labeler lives in-process or behind a TCP
//! connection. The blocking [`Labeler::label`] / [`Labeler::label_all`]
//! entry points are thin wrappers over tickets — `label_all` submits every
//! image *before* awaiting the first answer, which is what feeds the
//! micro-batcher full batches and keeps a remote connection pipelined.

use crate::service::LabelResponse;
use crate::snapshot::FittedLabeler;
use crate::{ServeError, ServeResult};
use goggles_vision::Image;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A pending (or already-resolved) labeling request.
///
/// Obtained from [`Labeler::submit`]. The outcome is delivered exactly
/// once: the first `poll`/`wait`/`wait_timeout` call that observes it
/// consumes it, after which the ticket is *spent* and further calls report
/// [`ServeError::Closed`]. Dropping an unresolved ticket **cancels** the
/// request: a queued request whose ticket is gone is skipped by the
/// micro-batcher instead of being labeled for nobody.
#[derive(Debug)]
pub struct Ticket {
    state: TicketState,
    /// Set on drop while unresolved; the micro-batcher checks it when
    /// assembling batches. `None` for tickets whose submission site has no
    /// queue to cancel from (in-process compute, remote submissions).
    cancel: Option<Arc<AtomicBool>>,
}

#[derive(Debug)]
enum TicketState {
    /// Resolved at submission time (in-process labelers, expired deadlines).
    /// `None` once the outcome has been taken.
    Ready(Option<ServeResult<LabelResponse>>),
    /// In flight: the answer will arrive on this channel.
    Pending(mpsc::Receiver<ServeResult<LabelResponse>>),
}

impl Ticket {
    /// A ticket that is already resolved (in-process labelers answer at
    /// submission time; an expired deadline resolves to `Err(Deadline)`).
    pub(crate) fn ready(outcome: ServeResult<LabelResponse>) -> Self {
        Self { state: TicketState::Ready(Some(outcome)), cancel: None }
    }

    /// A ticket whose answer will arrive on `rx` and whose queued request
    /// can be cancelled through `cancel` (drop-to-cancel).
    pub(crate) fn pending(
        rx: mpsc::Receiver<ServeResult<LabelResponse>>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Self {
        Self { state: TicketState::Pending(rx), cancel }
    }

    /// Non-blocking check: `Some(outcome)` when resolved (the ticket is
    /// then spent), `None` while the request is still in flight.
    pub fn poll(&mut self) -> Option<ServeResult<LabelResponse>> {
        match &mut self.state {
            TicketState::Ready(slot) => Some(slot.take().unwrap_or(Err(ServeError::Closed))),
            TicketState::Pending(rx) => match rx.try_recv() {
                Ok(outcome) => {
                    self.state = TicketState::Ready(None); // spent
                    Some(outcome)
                }
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.state = TicketState::Ready(None);
                    Some(Err(ServeError::Closed))
                }
            },
        }
    }

    /// Block until the request resolves.
    pub fn wait(mut self) -> ServeResult<LabelResponse> {
        match std::mem::replace(&mut self.state, TicketState::Ready(None)) {
            TicketState::Ready(slot) => slot.unwrap_or(Err(ServeError::Closed)),
            TicketState::Pending(rx) => rx.recv().unwrap_or(Err(ServeError::Closed)),
        }
    }

    /// Block up to `timeout` for the request to resolve. `None` means it is
    /// still in flight and the ticket stays usable; `Some(outcome)` spends
    /// the ticket like [`Ticket::poll`].
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<ServeResult<LabelResponse>> {
        match &mut self.state {
            TicketState::Ready(slot) => Some(slot.take().unwrap_or(Err(ServeError::Closed))),
            TicketState::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(outcome) => {
                    self.state = TicketState::Ready(None);
                    Some(outcome)
                }
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.state = TicketState::Ready(None);
                    Some(Err(ServeError::Closed))
                }
            },
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // Drop-to-cancel: a still-queued request whose client is gone is
        // skipped by the batcher. Setting the flag after resolution is
        // harmless — the request already left the queue.
        if let Some(cancel) = &self.cancel {
            cancel.store(true, Ordering::Relaxed);
        }
    }
}

/// The transport-agnostic labeling interface.
///
/// Implemented by the in-process [`FittedLabeler`] (compute at submission),
/// the micro-batching [`crate::LabelService`] (queue + ticket), and the
/// network client [`crate::RemoteLabeler`] (wire frame + pipelined reply).
/// `submit` takes `Arc<Image>` so the hot path never copies pixel data —
/// the service queues the `Arc`, and the wire server decodes a request
/// straight into one.
pub trait Labeler {
    /// Enqueue one image without a deadline. Non-blocking with respect to
    /// labeling (implementations may apply queue backpressure).
    fn submit(&self, image: Arc<Image>) -> ServeResult<Ticket> {
        self.submit_with_deadline(image, None)
    }

    /// Enqueue one image with an optional absolute deadline. A request
    /// whose deadline expires before a worker labels it resolves to
    /// [`ServeError::Deadline`] — it is never labeled and never occupies a
    /// batch slot.
    fn submit_with_deadline(
        &self,
        image: Arc<Image>,
        deadline: Option<Instant>,
    ) -> ServeResult<Ticket>;

    /// Label one image, blocking until the answer arrives — a thin wrapper
    /// over [`Labeler::submit`] + [`Ticket::wait`].
    fn label(&self, image: &Image) -> ServeResult<LabelResponse> {
        self.submit(Arc::new(image.clone()))?.wait()
    }

    /// Label several images; answers come back in input order. All images
    /// are submitted **before** the first answer is awaited, so one caller
    /// feeds the micro-batcher full batches (and keeps a network connection
    /// pipelined) instead of paying one round trip per image.
    fn label_all(&self, images: &[&Image]) -> ServeResult<Vec<LabelResponse>> {
        let tickets: Vec<Ticket> = images
            .iter()
            .map(|img| self.submit(Arc::new((*img).clone())))
            .collect::<ServeResult<_>>()?;
        tickets.into_iter().map(Ticket::wait).collect()
    }
}

impl Labeler for FittedLabeler {
    /// In-process submission: the image is labeled immediately on the
    /// calling thread and the ticket comes back already resolved. Responses
    /// report `version` 0 (no registry behind a bare labeler) and
    /// `batch_size` 1. Pixels outside `[0, 1]` are refused as
    /// [`ServeError::InvalidImage`], as by every other labeler.
    fn submit_with_deadline(
        &self,
        image: Arc<Image>,
        deadline: Option<Instant>,
    ) -> ServeResult<Ticket> {
        crate::check_pixels(&image)?;
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Ticket::ready(Err(ServeError::Deadline)));
        }
        let (label, probs) = self.label_one_checked(&image);
        Ok(Ticket::ready(Ok(LabelResponse { label, probs, batch_size: 1, version: 0 })))
    }

    /// Overrides the default: the synchronous path computes from the
    /// borrowed image directly — no pixel-buffer clone into a throwaway
    /// `Arc`.
    fn label(&self, image: &Image) -> ServeResult<LabelResponse> {
        crate::check_pixels(image)?;
        let (label, probs) = self.label_one_checked(image);
        Ok(LabelResponse { label, probs, batch_size: 1, version: 0 })
    }

    /// Overrides the default for the same reason as [`Labeler::label`].
    fn label_all(&self, images: &[&Image]) -> ServeResult<Vec<LabelResponse>> {
        images.iter().map(|img| Labeler::label(self, img)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(label: usize) -> LabelResponse {
        LabelResponse { label, probs: vec![1.0], batch_size: 1, version: 0 }
    }

    #[test]
    fn ready_ticket_resolves_once_then_reports_spent() {
        let mut t = Ticket::ready(Ok(response(3)));
        match t.poll() {
            Some(Ok(r)) => assert_eq!(r.label, 3),
            other => panic!("expected resolved, got {other:?}"),
        }
        assert!(matches!(t.poll(), Some(Err(ServeError::Closed))), "spent ticket");
        assert!(matches!(t.wait_timeout(Duration::ZERO), Some(Err(ServeError::Closed))));
    }

    #[test]
    fn pending_ticket_polls_none_until_sent_and_wait_blocks() {
        let (tx, rx) = mpsc::channel();
        let mut t = Ticket::pending(rx, None);
        assert!(t.poll().is_none());
        assert!(t.wait_timeout(Duration::from_millis(1)).is_none(), "still in flight");
        tx.send(Ok(response(1))).unwrap();
        match t.wait_timeout(Duration::from_secs(5)) {
            Some(Ok(r)) => assert_eq!(r.label, 1),
            other => panic!("expected resolved, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_channel_resolves_to_closed() {
        let (tx, rx) = mpsc::channel::<ServeResult<LabelResponse>>();
        drop(tx);
        let mut t = Ticket::pending(rx, None);
        assert!(matches!(t.poll(), Some(Err(ServeError::Closed))));
        let (tx2, rx2) = mpsc::channel::<ServeResult<LabelResponse>>();
        drop(tx2);
        assert!(matches!(Ticket::pending(rx2, None).wait(), Err(ServeError::Closed)));
    }

    #[test]
    fn drop_sets_the_cancel_flag() {
        let (_tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let t = Ticket::pending(rx, Some(Arc::clone(&cancel)));
        assert!(!cancel.load(Ordering::Relaxed));
        drop(t);
        assert!(cancel.load(Ordering::Relaxed), "dropping an unresolved ticket cancels");
    }
}
