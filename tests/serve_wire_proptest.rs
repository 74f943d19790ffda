//! Property tests over the network wire protocol, mirroring what
//! `serve_codec_proptest.rs` does for snapshots: truncated frames,
//! bit-flips, oversized length fields, garbage opcodes and pixels outside
//! `[0, 1]` must always come back as `Err` — never a panic, never a hang,
//! never an unbounded allocation — at both the framing layer and the
//! payload decoders.

use goggles::serve::service::LabelResponse;
use goggles::serve::wire::{
    decode_error_reply, decode_frame, decode_label_reply, decode_label_request,
    decode_metrics_reply, decode_reload_reply, decode_reload_request, decode_stats_reply,
    encode_frame, encode_label_request, encode_metrics_reply, encode_reload_request, read_frame,
    Opcode, MAX_FRAME_LEN,
};
use goggles::serve::ServeError;
use goggles_vision::Image;
use proptest::prelude::*;

/// A deterministic well-formed frame to mutate (label request with a real
/// image payload — the largest and most structured request).
fn reference_frame() -> Vec<u8> {
    let mut image = Image::new(3, 8, 8);
    for (i, v) in image.tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *v = 0.5 + 0.5 * (i as f32).sin();
    }
    encode_frame(Opcode::LabelRequest, 77, &encode_label_request(&image, 1_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every truncated prefix fails cleanly in both the slice decoder and
    /// the streaming reader (except the empty prefix, which is a clean
    /// end-of-stream for the streaming reader).
    #[test]
    fn truncated_frames_always_err(cut in 0usize..1_000_000) {
        let bytes = reference_frame();
        let cut = cut % bytes.len();
        prop_assert!(decode_frame(&bytes[..cut]).is_err(), "cut {cut}");
        let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
        if cut == 0 {
            prop_assert!(matches!(read_frame(&mut cursor), Ok(None)));
        } else {
            prop_assert!(read_frame(&mut cursor).is_err(), "stream cut {cut}");
        }
    }

    /// Any single bit flip anywhere in the frame is rejected (magic, length
    /// bounds, or checksum — something always catches it).
    #[test]
    fn bit_flips_always_err(pos in 0usize..1_000_000, bit in 0usize..8) {
        let bytes = reference_frame();
        let mut bad = bytes.clone();
        let pos = pos % bad.len();
        bad[pos] ^= 1 << bit;
        prop_assert!(decode_frame(&bad).is_err(), "flip at {pos} bit {bit}");
    }

    /// Oversized length fields are rejected before any allocation.
    #[test]
    fn oversized_frame_lengths_always_err(huge in (MAX_FRAME_LEN as u32 + 1)..u32::MAX) {
        let mut bytes = reference_frame();
        bytes[4..8].copy_from_slice(&huge.to_le_bytes());
        match decode_frame(&bytes) {
            Err(ServeError::Wire(msg)) => prop_assert!(msg.contains("implausible"), "{msg}"),
            other => panic!("expected Wire error, got {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(bytes);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// Garbage opcode bytes (re-checksummed with the wire checksum so
    /// they reach the opcode check) are rejected, never dispatched. Valid
    /// opcodes stop at 13 (`IngestReply`).
    #[test]
    fn garbage_opcodes_always_err(op in 14u16..256) {
        use goggles::serve::codec::xxh64;
        let mut bytes = reference_frame();
        bytes[8] = op as u8;
        let n = bytes.len();
        let c = xxh64(&bytes[8..n - 8]);
        bytes[n - 8..].copy_from_slice(&c.to_le_bytes());
        match decode_frame(&bytes) {
            Err(ServeError::Wire(msg)) => prop_assert!(msg.contains("opcode"), "{msg}"),
            other => panic!("expected Wire error, got {other:?}"),
        }
    }

    /// Arbitrary byte soup never panics any payload decoder, and whatever
    /// decodes as a label request has exactly the advertised shape.
    #[test]
    fn payload_decoders_never_panic_on_byte_soup(
        bytes in proptest::collection::vec(0u16..256, 0..128),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        if let Ok(req) = decode_label_request(&bytes) {
            let (c, h, w) = req.image.shape();
            prop_assert!(c > 0 && h > 0 && w > 0);
        }
        if let Ok(resp) = decode_label_reply(&bytes) {
            prop_assert!(resp.label < resp.probs.len());
        }
        let _ = decode_error_reply(&bytes);
        let _ = decode_stats_reply(&bytes);
        let _ = decode_metrics_reply(&bytes);
        let _ = decode_reload_request(&bytes);
        let _ = decode_reload_reply(&bytes);
        let _ = decode_frame(&bytes);
    }

    /// Round trip: every encodable (opcode, id, payload) decodes back
    /// identically, including through the streaming reader.
    #[test]
    fn frames_round_trip(id in 0u64..u64::MAX, payload in proptest::collection::vec(0u16..256, 0..64)) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        let bytes = encode_frame(Opcode::StatsReply, id, &payload);
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(frame.opcode, Opcode::StatsReply);
        prop_assert_eq!(frame.request_id, id);
        prop_assert_eq!(frame.payload, payload);
    }

    /// Label replies round trip bit-exactly for arbitrary probability rows
    /// — the property the "remote ≡ in-process" guarantee rests on.
    #[test]
    fn label_replies_round_trip_bit_exactly(
        probs in proptest::collection::vec(0u16..1000, 1..12),
        version in 0u64..1000,
    ) {
        let probs: Vec<f64> = probs.into_iter().map(|p| f64::from(p) / 999.0).collect();
        let label = goggles_tensor::argmax(&probs);
        let resp = LabelResponse { label, probs, batch_size: 3, version };
        let payload = goggles::serve::wire::encode_label_reply(&resp);
        prop_assert_eq!(decode_label_reply(&payload).unwrap(), resp);
    }

    /// Metrics replies carry arbitrary Prometheus text verbatim, and every
    /// truncation of the encoding is rejected rather than misread.
    #[test]
    fn metrics_replies_round_trip_and_reject_truncation(
        chars in proptest::collection::vec(32u16..127, 0..256),
        cut in 0usize..1_000_000,
    ) {
        let text: String = chars.into_iter().map(|c| c as u8 as char).collect();
        let payload = encode_metrics_reply(&text);
        prop_assert_eq!(decode_metrics_reply(&payload).unwrap(), text);
        let cut = cut % payload.len().max(1);
        if cut < payload.len() {
            prop_assert!(decode_metrics_reply(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Reload paths with arbitrary (valid-UTF-8) content round trip.
    #[test]
    fn reload_requests_round_trip(chars in proptest::collection::vec(32u16..127, 0..64)) {
        let path: String = chars.into_iter().map(|c| c as u8 as char).collect();
        let payload = encode_reload_request(&path);
        prop_assert_eq!(decode_reload_request(&payload).unwrap(), path);
    }

    /// Every `ServeError` variant round trips through the wire error reply
    /// with its variant *and* retryable flag intact — the property the
    /// client's `RetryPolicy` relies on to classify remote failures.
    #[test]
    fn error_replies_round_trip_variant_and_retryable_flag(
        variant in 0usize..10,
        chars in proptest::collection::vec(32u16..127, 0..48),
    ) {
        use goggles::serve::wire::encode_error_reply;
        let msg: String = chars.into_iter().map(|c| c as u8 as char).collect();
        let e = match variant {
            0 => ServeError::Snapshot(msg),
            1 => ServeError::Corrupt(msg),
            2 => ServeError::Io(msg),
            3 => ServeError::Pipeline(goggles_core::GogglesError::InvalidInput(msg)),
            4 => ServeError::Registry(msg),
            5 => ServeError::Closed,
            6 => ServeError::Deadline,
            7 => ServeError::Wire(msg),
            8 => ServeError::Overloaded,
            _ => ServeError::InvalidImage(msg),
        };
        let payload = encode_error_reply(&e);
        let decoded = decode_error_reply(&payload).unwrap();
        prop_assert_eq!(std::mem::discriminant(&decoded), std::mem::discriminant(&e));
        prop_assert_eq!(decoded.retryable(), e.retryable());
        // The encoder ships the rendered message; the decoded error must
        // still carry it in full (re-prefixed by its own Display).
        let rendered = e.to_string();
        prop_assert!(decoded.to_string().contains(&rendered));
    }

    /// A forged retryable flag never sneaks through: toggling it (so it
    /// disagrees with the error code) or using any value other than 0/1 is
    /// rejected at decode time.
    #[test]
    fn lying_retryable_flags_always_err(
        variant in 0usize..10,
        junk in 2u16..256,
    ) {
        use goggles::serve::wire::encode_error_reply;
        let e = match variant {
            0 => ServeError::Snapshot("s".into()),
            1 => ServeError::Corrupt("c".into()),
            2 => ServeError::Io("i".into()),
            3 => ServeError::Pipeline(goggles_core::GogglesError::InvalidInput("p".into())),
            4 => ServeError::Registry("r".into()),
            5 => ServeError::Closed,
            6 => ServeError::Deadline,
            7 => ServeError::Wire("w".into()),
            8 => ServeError::Overloaded,
            _ => ServeError::InvalidImage("n".into()),
        };
        let mut toggled = encode_error_reply(&e);
        toggled[1] ^= 1; // flag now disagrees with the variant's retryable()
        prop_assert!(matches!(decode_error_reply(&toggled), Err(ServeError::Wire(_))));
        let mut garbage = encode_error_reply(&e);
        garbage[1] = junk as u8; // not a boolean at all
        prop_assert!(matches!(decode_error_reply(&garbage), Err(ServeError::Wire(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An `Ingest` request round trips shape and pixels bit-exactly: the
    /// trainer's incremental-append guarantee starts at the wire — if the
    /// decoded image differed from what the client sent by even one ULP,
    /// "append ≡ rebuild" would be unprovable.
    #[test]
    fn ingest_requests_round_trip_bit_exactly(
        c in 1usize..4,
        h in 1usize..10,
        w in 1usize..10,
        salt in 0u32..1_000_000,
    ) {
        use goggles::serve::wire::{decode_ingest_request, encode_ingest_request};
        let mut image = Image::new(c, h, w);
        for (i, v) in image.tensor_mut().as_mut_slice().iter_mut().enumerate() {
            let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) as f32;
            *v = 0.5 + 0.5 * x.sin(); // the pixel range [0, 1]
        }
        let decoded = decode_ingest_request(&encode_ingest_request(&image)).unwrap();
        prop_assert_eq!(decoded.shape(), image.shape());
        let sent: Vec<u32> = image.tensor().as_slice().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = decoded.tensor().as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sent, got);
    }

    /// A truncated or padded `Ingest` payload never decodes: the pixel
    /// count must exactly match the shape header.
    #[test]
    fn ingest_requests_reject_length_mismatch(trim in 1usize..12, pad in 1usize..12) {
        use goggles::serve::wire::{decode_ingest_request, encode_ingest_request};
        let image = Image::new(2, 4, 4);
        let encoded = encode_ingest_request(&image);
        let truncated = &encoded[..encoded.len() - trim];
        prop_assert!(matches!(decode_ingest_request(truncated), Err(ServeError::Wire(_))));
        let mut padded = encoded.clone();
        padded.extend(std::iter::repeat_n(0u8, pad));
        prop_assert!(matches!(decode_ingest_request(&padded), Err(ServeError::Wire(_))));
    }

    /// A well-formed label or ingest payload with one pixel outside
    /// `[0, 1]` anywhere — NaN, ±inf, or a finite value just past either
    /// end — decodes to the typed `InvalidImage` error, never to an image
    /// the model would label or train on. `-0.0` is in range.
    #[test]
    fn non_finite_pixels_are_rejected_typed(
        c in 1usize..4,
        h in 1usize..10,
        w in 1usize..10,
        at in 0usize..1_000_000,
        kind in 0usize..7,
        deadline_us in 0u64..1_000_000,
    ) {
        use goggles::serve::wire::{decode_ingest_request, encode_ingest_request};
        let mut image = Image::filled(c, h, w, 0.5);
        let pixels = image.tensor_mut().as_mut_slice();
        let at = at % pixels.len();
        let bad = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            f32::MAX,
            -1e-3,
            1.0 + f32::EPSILON,
        ];
        pixels[at] = bad[kind];
        let label = decode_label_request(&encode_label_request(&image, deadline_us));
        prop_assert!(matches!(label, Err(ServeError::InvalidImage(_))), "{label:?}");
        let ingest = decode_ingest_request(&encode_ingest_request(&image));
        prop_assert!(matches!(ingest, Err(ServeError::InvalidImage(_))), "{ingest:?}");
        image.tensor_mut().as_mut_slice()[at] = -0.0;
        prop_assert!(decode_label_request(&encode_label_request(&image, deadline_us)).is_ok());
        prop_assert!(decode_ingest_request(&encode_ingest_request(&image)).is_ok());
    }

    /// An `IngestReply` is exactly one little-endian u64 — anything longer
    /// or shorter is rejected.
    #[test]
    fn ingest_replies_decode_exactly_eight_bytes(accepted in 0u64..u64::MAX, junk in 1usize..8) {
        use goggles::serve::wire::decode_ingest_reply;
        let payload = accepted.to_le_bytes().to_vec();
        prop_assert_eq!(decode_ingest_reply(&payload).unwrap(), accepted);
        prop_assert!(matches!(decode_ingest_reply(&payload[..8 - junk]), Err(ServeError::Wire(_))));
        let mut long = payload.clone();
        long.push(0);
        prop_assert!(matches!(decode_ingest_reply(&long), Err(ServeError::Wire(_))));
    }
}
