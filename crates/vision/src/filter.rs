//! Image filters: separable Gaussian blur, Sobel gradients and bilinear
//! resize. Sobel feeds the HOG baseline; blur and resize are used by the
//! dataset generators (defocus, scale jitter).

use crate::image::Image;

/// Build a normalized 1-D Gaussian kernel with radius `ceil(3σ)`.
fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    let sigma = sigma.max(1e-3);
    let radius = (3.0 * sigma).ceil() as i32;
    let mut k: Vec<f32> =
        (-radius..=radius).map(|i| (-0.5 * (i as f32 / sigma).powi(2)).exp()).collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Separable Gaussian blur with clamp-to-edge boundary handling.
pub fn gaussian_blur(img: &Image, sigma: f32) -> Image {
    if sigma <= 0.0 {
        return img.clone();
    }
    let kernel = gaussian_kernel(sigma);
    let radius = (kernel.len() / 2) as i32;
    let (c, h, w) = img.shape();
    // horizontal pass
    let mut tmp = Image::new(c, h, w);
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (ki, &kv) in kernel.iter().enumerate() {
                    let sx = (x as i32 + ki as i32 - radius).clamp(0, w as i32 - 1) as usize;
                    acc += kv * img.get(ch, y, sx);
                }
                tmp.set(ch, y, x, acc);
            }
        }
    }
    // vertical pass
    let mut out = Image::new(c, h, w);
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (ki, &kv) in kernel.iter().enumerate() {
                    let sy = (y as i32 + ki as i32 - radius).clamp(0, h as i32 - 1) as usize;
                    acc += kv * tmp.get(ch, sy, x);
                }
                out.set(ch, y, x, acc);
            }
        }
    }
    out
}

/// Sobel gradient magnitudes and orientations of a grayscale image.
///
/// Returns `(magnitude, orientation)` planes of the same `H×W` size;
/// orientation is in `[0, π)` (unsigned gradients, as HOG uses).
pub(crate) fn sobel_gradients(gray: &Image) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(gray.channels(), 1, "sobel_gradients expects a grayscale image");
    let (_, h, w) = gray.shape();
    let mut mag = vec![0.0f32; h * w];
    let mut ori = vec![0.0f32; h * w];
    let at = |y: i32, x: i32| -> f32 {
        let yy = y.clamp(0, h as i32 - 1) as usize;
        let xx = x.clamp(0, w as i32 - 1) as usize;
        gray.get(0, yy, xx)
    };
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            let gx = -at(y - 1, x - 1) - 2.0 * at(y, x - 1) - at(y + 1, x - 1)
                + at(y - 1, x + 1)
                + 2.0 * at(y, x + 1)
                + at(y + 1, x + 1);
            let gy = -at(y - 1, x - 1) - 2.0 * at(y - 1, x) - at(y - 1, x + 1)
                + at(y + 1, x - 1)
                + 2.0 * at(y + 1, x)
                + at(y + 1, x + 1);
            let idx = y as usize * w + x as usize;
            mag[idx] = (gx * gx + gy * gy).sqrt();
            let mut angle = gy.atan2(gx); // [-π, π]
            if angle < 0.0 {
                angle += std::f32::consts::PI; // unsigned orientation [0, π)
            }
            if angle >= std::f32::consts::PI {
                angle -= std::f32::consts::PI;
            }
            ori[idx] = angle;
        }
    }
    (mag, ori)
}

/// Bilinear resize to `(new_h, new_w)`.
pub fn resize_bilinear(img: &Image, new_h: usize, new_w: usize) -> Image {
    assert!(new_h > 0 && new_w > 0);
    let (c, h, w) = img.shape();
    let mut out = Image::new(c, new_h, new_w);
    let sy = h as f32 / new_h as f32;
    let sx = w as f32 / new_w as f32;
    for ch in 0..c {
        for y in 0..new_h {
            // align sample positions with pixel centers
            let fy = ((y as f32 + 0.5) * sy - 0.5).clamp(0.0, h as f32 - 1.0);
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(h - 1);
            let ty = fy - y0 as f32;
            for x in 0..new_w {
                let fx = ((x as f32 + 0.5) * sx - 0.5).clamp(0.0, w as f32 - 1.0);
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(w - 1);
                let tx = fx - x0 as f32;
                let top = img.get(ch, y0, x0) * (1.0 - tx) + img.get(ch, y0, x1) * tx;
                let bot = img.get(ch, y1, x0) * (1.0 - tx) + img.get(ch, y1, x1) * tx;
                out.set(ch, y, x, top * (1.0 - ty) + bot * ty);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;

    #[test]
    fn gaussian_kernel_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        assert!((k.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        let n = k.len();
        for i in 0..n / 2 {
            assert!((k[i] - k[n - 1 - i]).abs() < 1e-6);
        }
    }

    #[test]
    fn blur_preserves_mean_and_reduces_variance() {
        // A one-pixel checkerboard: the highest-frequency pattern there is.
        let mut img = Image::new(1, 32, 32);
        for y in 0..32 {
            for x in 0..32 {
                img.set(0, y, x, ((y + x) % 2) as f32);
            }
        }
        let before_mean = img.mean();
        let blurred = gaussian_blur(&img, 1.2);
        assert!((blurred.mean() - before_mean).abs() < 0.01);
        let var = |im: &Image| {
            let m = im.mean();
            im.tensor().as_slice().iter().map(|v| (v - m) * (v - m)).sum::<f32>()
        };
        assert!(var(&blurred) < 0.2 * var(&img));
    }

    #[test]
    fn blur_sigma_zero_is_identity() {
        let img = Image::filled(2, 4, 4, 0.3);
        assert_eq!(gaussian_blur(&img, 0.0), img);
    }

    #[test]
    fn sobel_on_vertical_edge() {
        // left half dark, right half bright => strong horizontal gradient
        let mut img = Image::new(1, 16, 16);
        draw::fill_rect(&mut img, 0, 8, 16, 16, &[1.0]);
        let (mag, ori) = sobel_gradients(&img);
        // strongest response on the edge column (x = 7..8), orientation ≈ 0
        let idx = 8 * 16 + 7;
        assert!(mag[idx] > 1.0, "edge magnitude = {}", mag[idx]);
        assert!(
            ori[idx] < 0.2 || ori[idx] > std::f32::consts::PI - 0.2,
            "edge orientation = {}",
            ori[idx]
        );
        // interior flat regions: no gradient
        assert_eq!(mag[8 * 16 + 2], 0.0);
    }

    #[test]
    fn sobel_on_horizontal_edge_orientation() {
        let mut img = Image::new(1, 16, 16);
        draw::fill_rect(&mut img, 8, 0, 16, 16, &[1.0]);
        let (mag, ori) = sobel_gradients(&img);
        let idx = 7 * 16 + 8;
        assert!(mag[idx] > 1.0);
        assert!((ori[idx] - std::f32::consts::FRAC_PI_2).abs() < 0.2);
    }

    #[test]
    fn resize_identity_shape() {
        let mut img = Image::new(1, 8, 8);
        draw::fill_disc(&mut img, 4.0, 4.0, 2.0, &[1.0]);
        let same = resize_bilinear(&img, 8, 8);
        assert!(img
            .tensor()
            .as_slice()
            .iter()
            .zip(same.tensor().as_slice())
            .all(|(a, b)| (a - b).abs() < 1e-6));
    }

    #[test]
    fn resize_preserves_mean_roughly() {
        let mut img = Image::new(1, 32, 32);
        draw::fill_disc(&mut img, 16.0, 16.0, 8.0, &[1.0]);
        let down = resize_bilinear(&img, 16, 16);
        let up = resize_bilinear(&img, 64, 64);
        assert!((down.mean() - img.mean()).abs() < 0.03);
        assert!((up.mean() - img.mean()).abs() < 0.03);
    }

    #[test]
    fn resize_constant_image_is_constant() {
        let img = Image::filled(3, 5, 7, 0.42);
        let r = resize_bilinear(&img, 13, 3);
        for v in r.tensor().as_slice() {
            assert!((v - 0.42).abs() < 1e-6);
        }
    }
}
