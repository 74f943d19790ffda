//! Pinned fingerprint of a full hierarchical fit. Every change to the
//! base-model EM must keep each fitted parameter bit-identical, so this test
//! fits `HierarchicalModel::fit` on a small deterministic corpus and compares
//! the FNV-1a of every base model's weights, means, variances and
//! responsibilities, plus the ensemble's responsibilities, against a
//! constant recorded before the two-pass EM iteration replaced the
//! three-pass one.
//!
//! Geometry: `VggConfig::default()` (64×64 input) with Z = 6 and N = 23
//! images, so α = 30 base models each fit a 23 × 23 block. 23 % 4 = 3, so
//! every E-step ends in three rows past the last four-row Mahalanobis sweep.
//!
//! The corpus is drawn with `goggles_vision::draw` primitives, which need
//! only IEEE arithmetic and `sqrt`, so the images are exact on every
//! platform.

use goggles_cnn::{Vgg16, VggConfig};
use goggles_core::prototypes::embed_images;
use goggles_core::{AffinityMatrix, HierarchicalModel, HierarchicalOptions};
use goggles_vision::{draw, Image};

/// FNV-1a over the little-endian bits of every f64 fed to it.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, data: &[f64]) {
        for v in data {
            for b in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
}

/// Twenty-three 64×64 RGB images: two families (discs on a warm background,
/// rectangles on a cool one) so the fit has structure to find.
fn corpus() -> Vec<Image> {
    (0..23i32)
        .map(|i| {
            let t = i as f32;
            if i % 2 == 0 {
                let mut img = Image::filled(3, 64, 64, 0.15 + 0.01 * t);
                draw::fill_disc(
                    &mut img,
                    20.0 + t,
                    30.0 - 0.5 * t,
                    8.0 + 0.2 * t,
                    &[0.9, 0.3, 0.2],
                );
                draw::fill_ring(&mut img, 44.0, 40.0, 4.0, 7.0 + 0.1 * t, &[0.8, 0.8, 0.1]);
                img
            } else {
                let mut img = Image::filled(3, 64, 64, 0.55 - 0.01 * t);
                let y0 = 2 + i;
                draw::fill_rect(&mut img, y0, 10, y0 + 12, 50, &[0.1, 0.4, 0.9 - 0.01 * t]);
                draw::fill_rect(&mut img, 6, 6 + i, 20, 18 + i, &[0.2, 0.8, 0.5]);
                img
            }
        })
        .collect()
}

/// FNV-1a of the fit recorded with the three-pass EM iteration.
const PINNED: u64 = 0x0c04_d122_56f0_14d4;

#[test]
fn hierarchical_fit_fingerprint_is_pinned() {
    let net = Vgg16::new(&VggConfig::default(), 2024);
    let images = corpus();
    let refs: Vec<&Image> = images.iter().collect();
    let embeddings = embed_images(&net, &refs, 6, 2, true);
    let am = AffinityMatrix::build(&embeddings, 2);
    assert_eq!(am.data.shape(), (23, 5 * 6 * 23));
    let opts = HierarchicalOptions { threads: 2, seed: 81, ..HierarchicalOptions::default() };
    let model = HierarchicalModel::fit(&am, &opts).expect("fit");
    assert_eq!(model.base_models.len(), 30);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for gmm in &model.base_models {
        h.add(&gmm.weights);
        h.add(gmm.means.as_slice());
        h.add(gmm.variances.as_slice());
        h.add(gmm.responsibilities.as_slice());
    }
    h.add(model.responsibilities.as_slice());
    let got = h.0;
    assert_eq!(got, PINNED, "fit fingerprint {got:#018x} != pinned {PINNED:#018x}");
}
