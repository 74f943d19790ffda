//! Histogram of Oriented Gradients (Dalal & Triggs, 2005).
//!
//! §5.1.5 of the paper compares GOGGLES' prototype-based affinity against an
//! affinity matrix built from pairwise cosine similarity of HOG descriptors.
//! This is a faithful reimplementation: unsigned gradients, 9 orientation
//! bins with linear vote interpolation, 2×2-cell block normalization with
//! L2-Hys clipping.

use crate::filter::sobel_gradients;
use crate::image::Image;

/// HOG extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HogParams {
    /// Square cell size in pixels.
    pub cell_size: usize,
    /// Cells per block edge (blocks are `block_cells × block_cells`).
    pub block_cells: usize,
    /// Number of unsigned orientation bins over `[0, π)`.
    pub bins: usize,
    /// L2-Hys clipping threshold.
    pub clip: f32,
}

impl Default for HogParams {
    fn default() -> Self {
        Self { cell_size: 8, block_cells: 2, bins: 9, clip: 0.2 }
    }
}

/// Compute the HOG descriptor of an image (converted to grayscale first).
///
/// Returns an empty vector when the image is smaller than one block.
pub fn hog_descriptor(img: &Image, params: &HogParams) -> Vec<f32> {
    assert!(params.cell_size > 0 && params.block_cells > 0 && params.bins > 0);
    let gray = img.to_grayscale();
    let (_, h, w) = gray.shape();
    let cells_y = h / params.cell_size;
    let cells_x = w / params.cell_size;
    if cells_y < params.block_cells || cells_x < params.block_cells {
        return Vec::new();
    }
    let (mag, ori) = sobel_gradients(&gray);

    // 1. per-cell orientation histograms with linear interpolation between
    //    the two nearest bins.
    let bins = params.bins;
    let bin_width = std::f32::consts::PI / bins as f32;
    let mut cell_hist = vec![0.0f32; cells_y * cells_x * bins];
    for y in 0..cells_y * params.cell_size {
        let cy = y / params.cell_size;
        for x in 0..cells_x * params.cell_size {
            let cx = x / params.cell_size;
            let idx = y * w + x;
            let m = mag[idx];
            // Skip negligible magnitudes: f32 rounding leaves ~1e-8 residue
            // on flat regions, which block normalization would amplify.
            if m <= 1e-5 {
                continue;
            }
            let pos = ori[idx] / bin_width - 0.5;
            let b0 = pos.floor();
            let frac = pos - b0;
            let bin0 = (b0 as i32).rem_euclid(bins as i32) as usize;
            let bin1 = (bin0 + 1) % bins;
            let base = (cy * cells_x + cx) * bins;
            cell_hist[base + bin0] += m * (1.0 - frac);
            cell_hist[base + bin1] += m * frac;
        }
    }

    // 2. block normalization (L2-Hys) over sliding block windows.
    let bc = params.block_cells;
    let blocks_y = cells_y - bc + 1;
    let blocks_x = cells_x - bc + 1;
    let block_len = bc * bc * bins;
    let mut descriptor = Vec::with_capacity(blocks_y * blocks_x * block_len);
    let mut block = vec![0.0f32; block_len];
    for by in 0..blocks_y {
        for bx in 0..blocks_x {
            block.clear();
            for dy in 0..bc {
                for dx in 0..bc {
                    let base = ((by + dy) * cells_x + (bx + dx)) * bins;
                    block.extend_from_slice(&cell_hist[base..base + bins]);
                }
            }
            // L2 normalize, clip, renormalize (L2-Hys).
            let norm = block.iter().map(|v| v * v).sum::<f32>().sqrt() + 1e-6;
            for v in &mut block {
                *v = (*v / norm).min(params.clip);
            }
            let norm2 = block.iter().map(|v| v * v).sum::<f32>().sqrt() + 1e-6;
            for v in &mut block {
                *v /= norm2;
            }
            descriptor.extend_from_slice(&block);
        }
    }
    descriptor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;
    use goggles_tensor::cosine_similarity;

    fn vertical_edges() -> Image {
        let mut img = Image::new(1, 32, 32);
        draw::fill_stripes(&mut img, 0.0, 8.0, 0.5, &[1.0], 1.0);
        img
    }

    fn horizontal_edges() -> Image {
        let mut img = Image::new(1, 32, 32);
        draw::fill_stripes(&mut img, std::f32::consts::FRAC_PI_2, 8.0, 0.5, &[1.0], 1.0);
        img
    }

    #[test]
    fn descriptor_length_matches_formula() {
        let p = HogParams::default();
        let img = Image::new(1, 32, 32);
        let d = hog_descriptor(&img, &p);
        // 32/8 = 4 cells; (4-1)^2 blocks of 2*2*9
        assert_eq!(d.len(), 9 * 36);
    }

    #[test]
    fn too_small_image_yields_empty() {
        let p = HogParams::default();
        let img = Image::new(1, 8, 8); // one cell only, block needs 2
        assert!(hog_descriptor(&img, &p).is_empty());
    }

    #[test]
    fn flat_image_descriptor_is_zero() {
        let img = Image::filled(1, 32, 32, 0.7);
        let d = hog_descriptor(&img, &HogParams::default());
        assert!(d.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn orientations_distinguish_stripe_direction() {
        let p = HogParams::default();
        let dv = hog_descriptor(&vertical_edges(), &p);
        let dh = hog_descriptor(&horizontal_edges(), &p);
        let dv2 = hog_descriptor(&vertical_edges(), &p);
        let same = cosine_similarity(&dv, &dv2);
        let cross = cosine_similarity(&dv, &dh);
        assert!(same > 0.999, "same = {same}");
        assert!(cross < 0.35, "cross = {cross}");
    }

    #[test]
    fn block_values_are_clipped() {
        let p = HogParams::default();
        let d = hog_descriptor(&vertical_edges(), &p);
        // After L2-Hys the L2 norm of each block is ≤ 1 and every entry is
        // bounded by clip / norm2 which stays well below 1.
        assert!(d.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let max = d.iter().copied().fold(0.0f32, f32::max);
        assert!(max > 0.0);
    }

    #[test]
    fn descriptor_is_translation_tolerant_within_cell() {
        // shifting stripes by a full period leaves descriptor unchanged
        let p = HogParams::default();
        let mut a = Image::new(1, 32, 32);
        draw::fill_stripes(&mut a, 0.0, 8.0, 0.5, &[1.0], 1.0);
        let da = hog_descriptor(&a, &p);
        let db = hog_descriptor(&a.clone(), &p);
        assert_eq!(da, db);
    }
}
