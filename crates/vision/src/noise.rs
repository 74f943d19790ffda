//! Procedural noise: per-pixel Gaussian noise and smooth multi-octave value
//! noise for natural-looking textures (metal grain for the Surface dataset,
//! tissue texture for the X-ray sets).

use crate::image::Image;
use goggles_tensor::rng::normal;
use rand::Rng;

/// Add i.i.d. Gaussian noise with standard deviation `sigma` to every value.
pub fn add_gaussian_noise<R: Rng + ?Sized>(img: &mut Image, rng: &mut R, sigma: f32) {
    for v in img.tensor_mut().as_mut_slice() {
        *v += sigma * normal(rng) as f32;
    }
}

/// Smooth value noise sampled on a coarse lattice and bilinearly
/// interpolated; `octaves` doublings of frequency are summed with halving
/// amplitude (fractal Brownian-ish texture). Output is in roughly `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct ValueNoise {
    lattice: Vec<f32>,
    size: usize,
}

impl ValueNoise {
    /// Build a lattice of `size × size` random values in `[-1, 1]`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, size: usize) -> Self {
        let size = size.max(2);
        let lattice = (0..size * size).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
        Self { lattice, size }
    }

    /// Sample the (periodic) lattice at continuous coordinates.
    fn sample(&self, y: f32, x: f32) -> f32 {
        let n = self.size;
        let yi = y.floor();
        let xi = x.floor();
        let fy = y - yi;
        let fx = x - xi;
        // smoothstep for C1 continuity
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let wrap = |v: f32| ((v as isize).rem_euclid(n as isize)) as usize;
        let y0 = wrap(yi);
        let y1 = wrap(yi + 1.0);
        let x0 = wrap(xi);
        let x1 = wrap(xi + 1.0);
        let v00 = self.lattice[y0 * n + x0];
        let v01 = self.lattice[y0 * n + x1];
        let v10 = self.lattice[y1 * n + x0];
        let v11 = self.lattice[y1 * n + x1];
        let top = v00 + sx * (v01 - v00);
        let bot = v10 + sx * (v11 - v10);
        top + sy * (bot - top)
    }

    /// Multi-octave fractal sample at pixel coordinates, `frequency` lattice
    /// cells across `scale` pixels.
    pub fn fbm(&self, y: f32, x: f32, base_freq: f32, octaves: usize) -> f32 {
        let mut amp = 1.0f32;
        let mut freq = base_freq;
        let mut total = 0.0f32;
        let mut norm = 0.0f32;
        for _ in 0..octaves.max(1) {
            total += amp * self.sample(y * freq, x * freq);
            norm += amp;
            amp *= 0.5;
            freq *= 2.0;
        }
        total / norm
    }
}

/// Overlay fractal value-noise texture on the image:
/// `pixel += amplitude * fbm(y, x)`, identical across channels.
pub fn add_value_noise_texture<R: Rng + ?Sized>(
    img: &mut Image,
    rng: &mut R,
    base_freq: f32,
    octaves: usize,
    amplitude: f32,
) {
    let vn = ValueNoise::new(rng, 32);
    let (c, h, w) = img.shape();
    for y in 0..h {
        for x in 0..w {
            let t =
                amplitude * vn.fbm(y as f32 / h as f32, x as f32 / w as f32, base_freq, octaves);
            for ch in 0..c {
                let cur = img.get(ch, y, x);
                img.set(ch, y, x, cur + t);
            }
        }
    }
}

/// Directional scratch noise: `count` thin random bright/dark line segments,
/// biased around angle `theta` (radians) with `spread` jitter. Models the
/// machining marks on the Surface dataset's metallic parts.
pub fn add_scratches<R: Rng + ?Sized>(
    img: &mut Image,
    rng: &mut R,
    count: usize,
    theta: f32,
    spread: f32,
    intensity: f32,
) {
    let h = img.height() as f32;
    let w = img.width() as f32;
    let channels = img.channels();
    for _ in 0..count {
        let cy = rng.random::<f32>() * h;
        let cx = rng.random::<f32>() * w;
        let a = theta + (rng.random::<f32>() - 0.5) * 2.0 * spread;
        let len = (0.2 + 0.5 * rng.random::<f32>()) * w;
        let (dy, dx) = (a.sin(), a.cos());
        let sign = if rng.random::<f32>() < 0.5 { -1.0 } else { 1.0 };
        let color = vec![(0.5 + sign * intensity).clamp(0.0, 1.0); channels];
        crate::draw::draw_line(
            img,
            cy - dy * len / 2.0,
            cx - dx * len / 2.0,
            cy + dy * len / 2.0,
            cx + dx * len / 2.0,
            1.0,
            &color,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::std_rng;

    #[test]
    fn gaussian_noise_changes_values_with_zero_mean() {
        let mut img = Image::filled(1, 32, 32, 0.5);
        let mut rng = std_rng(1);
        add_gaussian_noise(&mut img, &mut rng, 0.1);
        let m = img.mean();
        assert!((m - 0.5).abs() < 0.01, "mean drifted: {m}");
        let var: f32 =
            img.tensor().channel(0).iter().map(|v| (v - m) * (v - m)).sum::<f32>() / 1024.0;
        assert!((var - 0.01).abs() < 0.004, "variance = {var}");
    }

    #[test]
    fn value_noise_is_smooth_and_bounded() {
        let mut rng = std_rng(3);
        let vn = ValueNoise::new(&mut rng, 16);
        let mut max_step = 0.0f32;
        let mut prev = vn.fbm(0.0, 0.0, 4.0, 3);
        for i in 1..200 {
            let v = vn.fbm(0.0, i as f32 / 200.0, 4.0, 3);
            assert!((-1.5..=1.5).contains(&v), "out of range: {v}");
            max_step = max_step.max((v - prev).abs());
            prev = v;
        }
        assert!(max_step < 0.3, "noise not smooth: step {max_step}");
    }

    #[test]
    fn value_noise_deterministic_per_seed() {
        let a = {
            let mut rng = std_rng(7);
            ValueNoise::new(&mut rng, 8).fbm(0.3, 0.7, 2.0, 2)
        };
        let b = {
            let mut rng = std_rng(7);
            ValueNoise::new(&mut rng, 8).fbm(0.3, 0.7, 2.0, 2)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn texture_overlay_perturbs_image() {
        let mut img = Image::filled(1, 16, 16, 0.5);
        let mut rng = std_rng(4);
        add_value_noise_texture(&mut img, &mut rng, 4.0, 3, 0.2);
        let distinct = img.tensor().channel(0).iter().filter(|&&v| (v - 0.5).abs() > 1e-4).count();
        assert!(distinct > 128, "texture had little effect: {distinct}");
    }

    #[test]
    fn scratches_paint_lines() {
        let mut img = Image::filled(1, 32, 32, 0.5);
        let mut rng = std_rng(5);
        add_scratches(&mut img, &mut rng, 8, 0.0, 0.2, 0.4);
        let extremes = img.tensor().channel(0).iter().filter(|&&v| (v - 0.5).abs() > 0.2).count();
        assert!(extremes > 20, "no scratch pixels: {extremes}");
    }
}
