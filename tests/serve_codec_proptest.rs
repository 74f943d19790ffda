//! Property tests over the snapshot codec and container: truncated
//! prefixes, bit-flipped bytes and oversized length fields must always
//! come back as `Err` — never a panic, never an unbounded allocation — for
//! the (single, v1) snapshot format.

use goggles::prelude::*;
use goggles::serve::codec::{fnv1a, Reader, Writer, MAX_SMALL_LEN};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One fitted labeler's snapshot.
fn snapshot() -> &'static Vec<u8> {
    static SNAPSHOT: OnceLock<Vec<u8>> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut cfg = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 8, 4, 77);
        cfg.image_size = 32;
        let ds = generate(&cfg);
        let dev = ds.sample_dev_set(3, 77);
        let gcfg = GogglesConfig { seed: 77, ..GogglesConfig::fast() };
        let (labeler, _) = FittedLabeler::fit(&gcfg, &ds, &dev).expect("fixture fit");
        labeler.save()
    })
}

/// Recompute the trailing FNV-1a checksum after an in-place payload edit,
/// so corruption reaches the *decoder* instead of being caught by the
/// integrity trailer.
fn rechecksum(bytes: &mut [u8]) {
    let n = bytes.len();
    let c = fnv1a(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&c.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every truncated prefix fails cleanly.
    #[test]
    fn truncated_prefixes_always_err(cut in 0usize..1_000_000) {
        let bytes = snapshot();
        let cut = cut % bytes.len();
        prop_assert!(FittedLabeler::load(&bytes[..cut]).is_err(), "cut {cut}");
    }

    /// Any single bit flip anywhere (payload or trailer) fails the
    /// checksum — load errs, never panics.
    #[test]
    fn bit_flips_always_err(pos in 0usize..1_000_000, bit in 0usize..8) {
        let mut bad = snapshot().clone();
        let pos = pos % bad.len();
        bad[pos] ^= 1 << bit;
        prop_assert!(FittedLabeler::load(&bad).is_err(), "flip at {pos} bit {bit}");
    }

    /// Stomping 8 arbitrary bytes into the payload and *re-checksumming*
    /// (a corrupted-but-checksummed artifact) must never panic the loader.
    /// The result may legitimately be Ok when the stomp only lands in
    /// parameter payloads; structural damage must come back as Err.
    #[test]
    fn checksummed_corruption_never_panics(
        pos in 0usize..1_000_000,
        value in 0u64..u64::MAX,
    ) {
        let mut bad = snapshot().clone();
        let payload_end = bad.len() - 8;
        let pos = 12 + pos % (payload_end - 8 - 12); // past magic+version
        bad[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
        rechecksum(&mut bad);
        let _ = FittedLabeler::load(&bad); // must return, not panic/OOM
    }

    /// Oversized length fields at the known structural offsets are
    /// rejected (bounded by `MAX_SMALL_LEN` / the remaining payload), not
    /// trusted into huge allocations.
    #[test]
    fn oversized_length_fields_always_err(huge in (MAX_SMALL_LEN as u64 + 1)..u64::MAX) {
        let v1 = snapshot();
        // v1 structural u64 offsets (format frozen; guarded below):
        // mapping len @118, bank N @142, Z @150, layer count @158,
        // layer-0 rows @166, layer-0 cols @174.
        let n_train = u64::from_le_bytes(v1[142..150].try_into().unwrap());
        prop_assert!(n_train == 16, "offset map drifted: N = {n_train}");
        for offset in [118usize, 142, 150, 158, 166, 174] {
            let mut bad = v1.clone();
            bad[offset..offset + 8].copy_from_slice(&huge.to_le_bytes());
            rechecksum(&mut bad);
            prop_assert!(FittedLabeler::load(&bad).is_err(), "v1 length at {offset}");
        }
    }

    /// The reader primitives never panic on arbitrary byte soup, and
    /// length-prefixed reads never allocate past the buffer.
    #[test]
    fn reader_primitives_never_panic(
        bytes in proptest::collection::vec(0u16..256, 0..96),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut r = Reader::new(&bytes);
        let _ = r.get_u8();
        let _ = r.get_u32();
        let _ = r.get_bool();
        let _ = r.get_len(MAX_SMALL_LEN);
        let _ = r.get_len_u32(MAX_SMALL_LEN);
        let _ = r.get_usize_slice();
        let _ = r.get_f64_slice();
        let _ = r.get_matrix_f64();
        let _ = r.get_matrix_f32();
        let _ = r.get_f32_vec(MAX_SMALL_LEN);
        prop_assert!(r.remaining() <= bytes.len());
    }

    /// An honest length prefix above the sanity cap is rejected by every
    /// `MAX_SMALL_LEN` path even when the payload bytes "exist".
    #[test]
    fn implausible_prefix_lengths_are_capped(extra in 0u64..(1 << 40)) {
        let implausible = MAX_SMALL_LEN as u64 + 1 + extra;
        let mut w = Writer::new();
        w.put_u64(implausible);
        w.put_u32(u32::try_from(implausible.min(u64::from(u32::MAX))).unwrap());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert!(r.get_len(MAX_SMALL_LEN).is_err());
        prop_assert!(r.get_len_u32(MAX_SMALL_LEN).is_err());
    }
}
