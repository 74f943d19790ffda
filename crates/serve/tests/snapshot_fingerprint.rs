//! Pinned fingerprint of the v1 snapshot layout. `FittedLabeler::save` must
//! keep writing exactly the same bytes for the same fit, so this test fits a
//! small deterministic corpus, takes the FNV-1a of `save()` and compares it
//! with a constant recorded before the second (v2) snapshot codec was
//! deleted. It also checks that the container refuses any version but 1.
//!
//! Geometry: `GogglesConfig::fast()` (tiny backbone, 32×32 input, Z = 4, so
//! α = 20) on 16 training images, 2 classes, a 4-image dev set.
//!
//! The corpus is drawn with `goggles_vision::draw` primitives, which need
//! only IEEE arithmetic and `sqrt`, so the images are exact on every
//! platform.

use goggles_core::GogglesConfig;
use goggles_datasets::{Dataset, DevSet, TaskKind};
use goggles_serve::{FittedLabeler, ServeError};
use goggles_vision::{draw, Image};

/// FNV-1a, written out here so the pin does not share code with the codec
/// it checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Two families of 32×32 RGB images: discs on a warm background (class 0)
/// and rectangles on a cool one (class 1).
fn image(i: i32) -> (Image, usize) {
    let t = i as f32;
    if i % 2 == 0 {
        let mut img = Image::filled(3, 32, 32, 0.15 + 0.01 * t);
        draw::fill_disc(&mut img, 10.0 + 0.5 * t, 16.0 - 0.25 * t, 5.0 + 0.1 * t, &[0.9, 0.3, 0.2]);
        (img, 0)
    } else {
        let mut img = Image::filled(3, 32, 32, 0.6 - 0.01 * t);
        let y0 = 1 + i / 2;
        draw::fill_rect(&mut img, y0, 4, y0 + 8, 26, &[0.1, 0.4, 0.9 - 0.01 * t]);
        (img, 1)
    }
}

fn fitted() -> FittedLabeler {
    let train = (0..16).map(image).collect();
    let test = (16..20).map(image).collect();
    let ds = Dataset::from_parts(
        "pinned".into(),
        TaskKind::Cub { class_a: 0, class_b: 1 },
        2,
        train,
        test,
    );
    let dev = DevSet { indices: vec![0, 1, 2, 3], labels: vec![0, 1, 0, 1] };
    let config = GogglesConfig { seed: 5, threads: 2, ..GogglesConfig::fast() };
    FittedLabeler::fit(&config, &ds, &dev).expect("fit").0
}

/// FNV-1a of `save()` for [`fitted`], recorded with both snapshot codecs
/// still present.
const PINNED: u64 = 0x28e1_04a5_72d9_59bd;

/// Replace the FNV-1a trailer of an edited snapshot so only the edit, not
/// the checksum, can make `load` refuse it.
fn rechecksum(bytes: &mut [u8]) {
    let n = bytes.len();
    let c = fnv1a(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&c.to_le_bytes());
}

#[test]
fn v1_snapshot_bytes_are_pinned() {
    let labeler = fitted();
    let bytes = labeler.save();
    let got = fnv1a(&bytes);
    assert_eq!(
        got,
        PINNED,
        "snapshot fingerprint {got:#018x} ({} bytes) != pinned {PINNED:#018x}",
        bytes.len()
    );
    assert_eq!(FittedLabeler::load(&bytes).expect("reload"), labeler);
}

#[test]
fn version_2_headers_are_refused() {
    let bytes = fitted().save();
    // magic (8 bytes), then the u32 version
    assert_eq!(&bytes[..8], b"GGLSNAP\x01");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
    // a whole snapshot relabelled as version 2
    let mut relabelled = bytes.clone();
    relabelled[8..12].copy_from_slice(&2u32.to_le_bytes());
    rechecksum(&mut relabelled);
    // a bare version-2 container: header, one flag byte, trailer
    let mut bare = b"GGLSNAP\x01".to_vec();
    bare.extend_from_slice(&2u32.to_le_bytes());
    bare.push(0);
    bare.extend_from_slice(&[0; 8]);
    rechecksum(&mut bare);
    for candidate in [relabelled, bare] {
        match FittedLabeler::load(&candidate) {
            Err(ServeError::Snapshot(msg)) => {
                assert!(msg.contains("unsupported snapshot version 2"), "{msg}")
            }
            other => panic!("expected a Snapshot error, got {other:?}"),
        }
    }
}
