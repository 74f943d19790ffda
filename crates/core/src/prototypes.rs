//! Prototype extraction (§3.1, Algorithm 1 lines 1–4).
//!
//! For every image and every max-pool layer of the backbone we keep
//!
//! * the full patch table — every spatial column `v^{(h,w)} ∈ R^C` of the
//!   filter map, one row per receptive field, L2-normalized so cosine
//!   similarity reduces to a dot product, and
//! * the **top-Z prototypes** — the spatial columns at the argmax locations
//!   of the Z most-activated channels (2D global max pooling), de-duplicated
//!   by location as the paper prescribes and re-padded to exactly Z rows so
//!   the affinity-function count is a stable `α = 5Z`.

use goggles_cnn::{ConvScratch, Vgg16};
use goggles_tensor::{Matrix, Tensor3};
use goggles_vision::Image;
use std::sync::{Mutex, PoisonError};

/// The caller's own backbone arena for [`embed_images_with`]. A long-lived
/// caller (e.g. a `goggles-serve` labeling worker) holds one, so embedding a
/// request performs no backbone allocations beyond the five returned tap
/// tensors per image. The [`goggles_tensor::pool`] helpers that join its
/// calls embed through their own thread-local arenas
/// ([`goggles_cnn::with_thread_scratch`]).
#[derive(Debug, Default)]
pub struct EmbedScratch {
    /// Locked only by the calling thread: a pool job shares the scratch by
    /// reference, and helpers never touch it.
    arena: Mutex<ConvScratch>,
}

impl EmbedScratch {
    /// An empty scratch; the arena grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`embed_image_with`] through the current participant's arena: a
    /// pool helper's thread-local one, or this scratch's own for any other
    /// thread (the caller). The embedding does not depend on which.
    pub fn embed_image(
        &self,
        net: &Vgg16,
        img: &Image,
        z: usize,
        center_patches: bool,
    ) -> ImageEmbedding {
        if goggles_tensor::pool::on_helper() {
            goggles_cnn::with_thread_scratch(|arena| {
                embed_image_with(net, arena, img, z, center_patches)
            })
        } else {
            let mut arena = self.arena.lock().unwrap_or_else(PoisonError::into_inner);
            embed_image_with(net, &mut arena, img, z, center_patches)
        }
    }
}

/// Per-layer embedding of one image.
#[derive(Debug, Clone)]
// goggles-lint: allow(dead-pub): field type of the pub ImageEmbedding; reached through inference
pub struct LayerEmbedding {
    /// `H·W × C` patch table, rows L2-normalized (zero rows left as-is).
    pub patches: Matrix<f32>,
    /// `Z × C` prototype table, rows L2-normalized.
    pub prototypes: Matrix<f32>,
    /// Spatial location `(h, w)` each prototype was read from (post-dedup
    /// padding repeats the strongest location).
    pub locations: Vec<(usize, usize)>,
}

/// All five layer embeddings of one image.
#[derive(Debug, Clone)]
// goggles-lint: allow(dead-pub): element type of the pub embed_images_with API; external callers use it through inference
pub struct ImageEmbedding {
    /// One entry per max-pool layer, shallow → deep.
    pub layers: Vec<LayerEmbedding>,
}

/// Extract the top-`z` prototypes of a filter map (Algorithm 1 lines 2–3 and
/// the Example 4 procedure):
///
/// 1. rank channels by their global max activation,
/// 2. for each of the top-`z` channels take the argmax location,
/// 3. read the channel-axis vector at that location,
/// 4. drop duplicate locations, then pad by cycling the kept locations so
///    exactly `z` prototypes come back.
///
/// The rows are not L2-normalized: the embedding path centers first, then
/// normalizes.
fn extract_top_z_prototypes_raw(
    map: &Tensor3<f32>,
    z: usize,
) -> (Matrix<f32>, Vec<(usize, usize)>) {
    assert!(z > 0, "need z ≥ 1 prototypes");
    // One pass per channel computing (max, argmax) together — the map is
    // scanned exactly once, instead of a global-max sweep followed by a
    // re-scan of every selected channel. First occurrence wins on ties,
    // scanning row-major.
    let (_, _, width) = map.shape();
    let per_channel: Vec<(f32, usize)> = (0..map.channels())
        .map(|c| {
            let plane = map.channel(c);
            let mut best = 0usize;
            let mut best_v = plane[0];
            for (idx, &v) in plane.iter().enumerate().skip(1) {
                if v > best_v {
                    best = idx;
                    best_v = v;
                }
            }
            (best_v, best)
        })
        .collect();
    let mut order: Vec<usize> = (0..map.channels()).collect();
    order.sort_by(|&a, &b| per_channel[b].0.total_cmp(&per_channel[a].0));
    let z_eff = z.min(map.channels());
    let mut locations: Vec<(usize, usize)> = Vec::with_capacity(z);
    let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::with_capacity(z);
    for &c in order.iter().take(z_eff) {
        let flat = per_channel[c].1;
        if seen.insert(flat) {
            locations.push((flat / width, flat % width));
        }
    }
    // Pad to exactly z by cycling (keeps α fixed across images).
    let unique = locations.len();
    while locations.len() < z {
        let repeat = locations[locations.len() % unique];
        locations.push(repeat);
    }
    let mut protos = Matrix::<f32>::zeros(z, map.channels());
    for (row, &(h, w)) in locations.iter().enumerate() {
        let v = map.spatial_vector(h, w);
        protos.row_mut(row).copy_from_slice(&v);
    }
    (protos, locations)
}

/// Embed one image: all patch tables + top-`z` prototypes per layer.
///
/// `center_patches` subtracts each layer's spatial-mean patch vector from
/// every patch (and prototype) before L2 normalization. With the paper's
/// ImageNet-pretrained backbone this is unnecessary — training makes
/// channels selective, so cosine between raw ReLU vectors is informative.
/// With this reproduction's *surrogate* (random-weight) backbone, raw ReLU
/// patch vectors share a large positive component and `max cos` saturates
/// near 1 for every image pair; removing the per-image mean restores the
/// discriminative geometry the paper's affinity functions rely on
/// (substitution recorded in DESIGN.md §5).
pub fn embed_image(net: &Vgg16, img: &Image, z: usize, center_patches: bool) -> ImageEmbedding {
    embed_image_with(net, &mut ConvScratch::new(), img, z, center_patches)
}

/// [`embed_image`] against a caller-owned backbone scratch arena, so a
/// long-lived worker embeds every image through the same buffers (see
/// [`goggles_cnn::ConvScratch`] for the arena contract).
pub fn embed_image_with(
    net: &Vgg16,
    scratch: &mut ConvScratch,
    img: &Image,
    z: usize,
    center_patches: bool,
) -> ImageEmbedding {
    let taps = net.forward_pool_taps_into(scratch, img);
    embed_from_taps(&taps, z, center_patches)
}

/// Algorithm 1 lines 2–4 without the backbone pass: build the per-layer
/// patch tables and top-`z` prototypes from already-computed pool taps.
/// Exposed so alternative backbone paths (e.g. the retained naive
/// reference the `speedup_bars` test times) share the exact same
/// extraction code.
pub fn embed_from_taps(taps: &[Tensor3<f32>], z: usize, center_patches: bool) -> ImageEmbedding {
    let layers = taps
        .iter()
        .map(|map| {
            let mut patches = map.spatial_vectors_matrix();
            let (mut prototypes, locations) = extract_top_z_prototypes_raw(map, z);
            if center_patches {
                let means = patches.col_means();
                for r in 0..patches.rows() {
                    for (v, &m) in patches.row_mut(r).iter_mut().zip(&means) {
                        *v -= m;
                    }
                }
                for r in 0..prototypes.rows() {
                    for (v, &m) in prototypes.row_mut(r).iter_mut().zip(&means) {
                        *v -= m;
                    }
                }
            }
            patches.l2_normalize_rows();
            prototypes.l2_normalize_rows();
            LayerEmbedding { patches, prototypes, locations }
        })
        .collect();
    ImageEmbedding { layers }
}

/// Embed a batch of images on up to `threads` participants of the
/// process-wide [`goggles_tensor::pool`] (the calling thread and the pool's
/// helpers; `threads` caps them and spawns nothing).
///
/// CNN inference dominates the pipeline cost; the images are independent so
/// this is an embarrassingly parallel map (the paper makes the same
/// observation about its base models in §5.3).
pub fn embed_images(
    net: &Vgg16,
    images: &[&Image],
    z: usize,
    threads: usize,
    center_patches: bool,
) -> Vec<ImageEmbedding> {
    embed_images_with(net, &mut EmbedScratch::new(), images, z, threads, center_patches)
}

/// [`embed_images`] against a caller-owned [`EmbedScratch`]. Participants
/// claim images one at a time; the calling thread embeds through the
/// scratch's arena and each pool helper through its thread-local one, so
/// across calls (when the scratch outlives them) the backbone performs no
/// per-image allocations beyond the returned embeddings. Embedding `i`
/// lands in slot `i`, so results are identical for every thread count and
/// schedule.
pub fn embed_images_with(
    net: &Vgg16,
    scratch: &mut EmbedScratch,
    images: &[&Image],
    z: usize,
    threads: usize,
    center_patches: bool,
) -> Vec<ImageEmbedding> {
    let scratch = &*scratch;
    goggles_tensor::pool::map(images.len(), threads, |i| {
        scratch.embed_image(net, images[i], z, center_patches)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_cnn::VggConfig;
    use goggles_tensor::Tensor3;
    use goggles_vision::draw;

    /// [`extract_top_z_prototypes_raw`] with the rows L2-normalized.
    fn extract_top_z_prototypes(
        map: &Tensor3<f32>,
        z: usize,
    ) -> (Matrix<f32>, Vec<(usize, usize)>) {
        let (mut protos, locations) = extract_top_z_prototypes_raw(map, z);
        protos.l2_normalize_rows();
        (protos, locations)
    }

    fn sample_image(shift: f32) -> Image {
        let mut img = Image::filled(3, 32, 32, 0.3);
        draw::fill_disc(&mut img, 12.0 + shift, 16.0, 6.0, &[0.9, 0.1, 0.2]);
        img
    }

    #[test]
    fn paper_example4_top2() {
        // The worked Example 4 from §3.1.
        let map = Tensor3::from_vec(
            3,
            2,
            2,
            vec![1.0, 0.5, 0.3, 0.6, 0.1, 0.7, 0.4, 0.3, 0.2, 0.9, 0.5, 0.1],
        )
        .unwrap();
        let (protos, locs) = extract_top_z_prototypes(&map, 2);
        assert_eq!(locs, vec![(0, 0), (0, 1)]);
        // v1 = {1, 0.1, 0.2}, v2 = {0.5, 0.7, 0.9} — normalized here.
        let norm1 = (1.0f32 + 0.01 + 0.04).sqrt();
        assert!((protos[(0, 0)] - 1.0 / norm1).abs() < 1e-6);
        let norm2 = (0.25f32 + 0.49 + 0.81).sqrt();
        assert!((protos[(1, 2)] - 0.9 / norm2).abs() < 1e-6);
    }

    #[test]
    fn duplicate_locations_are_deduped_then_padded() {
        // Two channels peaking at the same location -> dedup to 1, pad to 3.
        let map = Tensor3::from_vec(2, 2, 2, vec![5.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0]).unwrap();
        let (protos, locs) = extract_top_z_prototypes(&map, 3);
        assert_eq!(locs, vec![(0, 0), (0, 0), (0, 0)]);
        assert_eq!(protos.rows(), 3);
        assert_eq!(protos.row(0), protos.row(1));
    }

    #[test]
    fn prototypes_are_unit_norm() {
        let net = Vgg16::new(&VggConfig::tiny(), 1);
        let emb = embed_image(&net, &sample_image(0.0), 4, true);
        assert_eq!(emb.layers.len(), 5);
        for layer in &emb.layers {
            assert_eq!(layer.prototypes.rows(), 4);
            for r in 0..layer.prototypes.rows() {
                let n: f32 = layer.prototypes.row(r).iter().map(|v| v * v).sum();
                assert!((n - 1.0).abs() < 1e-4 || n == 0.0, "norm² = {n}");
            }
        }
    }

    #[test]
    fn patch_table_shapes_follow_pool_geometry() {
        let cfg = VggConfig::tiny();
        let net = Vgg16::new(&cfg, 1);
        let emb = embed_image(&net, &sample_image(0.0), 3, true);
        for (b, layer) in emb.layers.iter().enumerate() {
            let s = cfg.pool_size(b);
            assert_eq!(layer.patches.shape(), (s * s, cfg.block_channels[b]));
        }
    }

    #[test]
    fn z_larger_than_channels_is_padded() {
        let map = Tensor3::from_vec(2, 1, 2, vec![3.0, 1.0, 0.5, 2.0]).unwrap();
        let (protos, locs) = extract_top_z_prototypes(&map, 5);
        assert_eq!(protos.rows(), 5);
        assert_eq!(locs.len(), 5);
    }

    #[test]
    fn scratch_reuse_matches_fresh_embedding() {
        let net = Vgg16::new(&VggConfig::tiny(), 5);
        let images: Vec<Image> = (0..5).map(|i| sample_image(i as f32)).collect();
        let refs: Vec<&Image> = images.iter().collect();
        let fresh = embed_images(&net, &refs, 3, 2, true);
        let mut scratch = EmbedScratch::new();
        // Same scratch across two passes and across thread budgets.
        for threads in [1usize, 2, 4] {
            let reused = embed_images_with(&net, &mut scratch, &refs, 3, threads, true);
            for (a, b) in fresh.iter().zip(&reused) {
                for (la, lb) in a.layers.iter().zip(&b.layers) {
                    assert_eq!(la.patches, lb.patches, "threads = {threads}");
                    assert_eq!(la.prototypes, lb.prototypes, "threads = {threads}");
                    assert_eq!(la.locations, lb.locations, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_embedding_matches_serial() {
        let net = Vgg16::new(&VggConfig::tiny(), 2);
        let images: Vec<Image> = (0..6).map(|i| sample_image(i as f32)).collect();
        let refs: Vec<&Image> = images.iter().collect();
        let serial = embed_images(&net, &refs, 3, 1, true);
        let parallel = embed_images(&net, &refs, 3, 4, true);
        for (a, b) in serial.iter().zip(&parallel) {
            for (la, lb) in a.layers.iter().zip(&b.layers) {
                assert_eq!(la.prototypes, lb.prototypes);
                assert_eq!(la.locations, lb.locations);
            }
        }
    }
}
