//! Pinned fingerprint of a full affinity matrix. Every change to the
//! colmax kernel must keep each output bit-identical, so this test builds
//! `AffinityMatrix::build` on a small deterministic corpus and compares the
//! FNV-1a of every f64 bit against a constant recorded before the packed
//! panel kernel replaced the transposed one.
//!
//! Geometry: `VggConfig::default()` (64×64 input) with Z = 6 and N = 7
//! images, so each layer's bank has 42 prototype rows. 42 is not a
//! multiple of 16 (the tall path's panel block), 8 or 4 (the wide path's
//! prototype tile), so pool1–pool5 all end in a partial block. Patch counts
//! are fixed by the backbone (1024, 256, 64, 16, 4 per layer); patch tails
//! are covered by the kernel's own unit tests.
//!
//! The corpus is drawn with `goggles_vision::draw` primitives, which need
//! only IEEE arithmetic and `sqrt`, so the images are exact on every
//! platform.

use goggles_cnn::{Vgg16, VggConfig};
use goggles_core::prototypes::embed_images;
use goggles_core::AffinityMatrix;
use goggles_vision::{draw, Image};

/// FNV-1a of the little-endian bits of every f64 in `data`.
fn fingerprint(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Seven 64×64 RGB images, each a different arrangement of a disc, a
/// rectangle and a ring on a flat background.
fn corpus() -> Vec<Image> {
    (0..7i32)
        .map(|i| {
            let t = i as f32;
            let mut img = Image::filled(3, 64, 64, 0.1 + 0.05 * t);
            draw::fill_disc(&mut img, 12.0 + 5.0 * t, 40.0 - 3.0 * t, 6.0 + t, &[0.9, 0.2, 0.3]);
            let y0 = 4 * i;
            draw::fill_rect(&mut img, y0, 30, y0 + 14, 58, &[0.1, 0.7, 0.4 + 0.05 * t]);
            draw::fill_ring(&mut img, 44.0, 16.0 + 2.0 * t, 5.0, 9.0, &[0.5, 0.5, 0.95]);
            img
        })
        .collect()
}

/// FNV-1a of the affinity matrix recorded with the previous kernel.
const PINNED: u64 = 0xaed8_a95b_12ee_4ed5;

#[test]
fn affinity_matrix_fingerprint_is_pinned() {
    let net = Vgg16::new(&VggConfig::default(), 2024);
    let images = corpus();
    let refs: Vec<&Image> = images.iter().collect();
    let embeddings = embed_images(&net, &refs, 6, 2, true);
    let am = AffinityMatrix::build(&embeddings, 2);
    assert_eq!(am.data.shape(), (7, 5 * 6 * 7));
    assert!(am.data.as_slice().iter().all(|v| v.is_finite()));
    let got = fingerprint(am.data.as_slice());
    assert_eq!(got, PINNED, "affinity matrix fingerprint {got:#018x} != pinned {PINNED:#018x}");
}
