//! The [`Image`] type: a thin, semantically named wrapper over
//! [`goggles_tensor::Tensor3<f32>`] in `C×H×W` layout with values nominally
//! in `[0, 1]`.

use goggles_tensor::Tensor3;

/// A dense float image, `channels × height × width`.
///
/// Grayscale images use `channels == 1`; color images use 3 (RGB order by
/// convention). Values are nominally in `[0, 1]` but are not clamped on
/// every write — call [`Image::clamp01`] after compositing.
#[derive(Clone, PartialEq)]
pub struct Image {
    tensor: Tensor3<f32>,
}

impl Image {
    /// A black image of the given shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        assert!(channels > 0 && height > 0 && width > 0, "Image dims must be positive");
        Self { tensor: Tensor3::zeros(channels, height, width) }
    }

    /// A constant-valued image.
    pub fn filled(channels: usize, height: usize, width: usize, value: f32) -> Self {
        let mut img = Self::new(channels, height, width);
        img.tensor.as_mut_slice().fill(value);
        img
    }

    /// Wrap an existing tensor.
    pub fn from_tensor(tensor: Tensor3<f32>) -> Self {
        Self { tensor }
    }

    /// Number of channels.
    #[inline(always)]
    pub fn channels(&self) -> usize {
        self.tensor.channels()
    }

    /// Height in pixels.
    #[inline(always)]
    pub fn height(&self) -> usize {
        self.tensor.height()
    }

    /// Width in pixels.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.tensor.width()
    }

    /// `(C, H, W)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize, usize) {
        self.tensor.shape()
    }

    /// Borrow the underlying tensor.
    #[inline(always)]
    pub fn tensor(&self) -> &Tensor3<f32> {
        &self.tensor
    }

    /// Mutably borrow the underlying tensor.
    #[inline(always)]
    pub fn tensor_mut(&mut self) -> &mut Tensor3<f32> {
        &mut self.tensor
    }

    /// Pixel accessor.
    #[inline(always)]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.tensor.get(c, y, x)
    }

    /// Pixel setter.
    #[inline(always)]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        self.tensor.set(c, y, x, v);
    }

    /// Set all channels at `(y, x)` from a color slice of length `C`.
    pub fn set_pixel(&mut self, y: usize, x: usize, color: &[f32]) {
        assert_eq!(color.len(), self.channels(), "set_pixel: color arity");
        for (c, &v) in color.iter().enumerate() {
            self.tensor.set(c, y, x, v);
        }
    }

    /// Alpha-blend `color` over the pixel at `(y, x)`:
    /// `out = alpha * color + (1 - alpha) * current`.
    pub(crate) fn blend_pixel(&mut self, y: usize, x: usize, color: &[f32], alpha: f32) {
        assert_eq!(color.len(), self.channels(), "blend_pixel: color arity");
        let a = alpha.clamp(0.0, 1.0);
        for (c, &v) in color.iter().enumerate() {
            let cur = self.tensor.get(c, y, x);
            self.tensor.set(c, y, x, a * v + (1.0 - a) * cur);
        }
    }

    /// Clamp every value to `[0, 1]`.
    pub fn clamp01(&mut self) {
        self.tensor.map_in_place(|v| v.clamp(0.0, 1.0));
    }

    /// Mean intensity over all channels and pixels.
    pub fn mean(&self) -> f32 {
        let data = self.tensor.as_slice();
        if data.is_empty() {
            return 0.0;
        }
        data.iter().sum::<f32>() / data.len() as f32
    }

    /// Convert to grayscale: for 3-channel images uses Rec.601 luma weights,
    /// otherwise a plain channel average. Single-channel images are cloned.
    pub(crate) fn to_grayscale(&self) -> Image {
        if self.channels() == 1 {
            return self.clone();
        }
        let (c, h, w) = self.shape();
        let weights: Vec<f32> =
            if c == 3 { vec![0.299, 0.587, 0.114] } else { vec![1.0 / c as f32; c] };
        let mut out = Image::new(1, h, w);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (ch, &wgt) in weights.iter().enumerate() {
                    acc += wgt * self.get(ch, y, x);
                }
                out.set(0, y, x, acc);
            }
        }
        out
    }
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (c, h, w) = self.shape();
        write!(f, "Image({c}x{h}x{w}, mean={:.3})", self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_pixels() {
        let mut img = Image::new(3, 4, 5);
        assert_eq!(img.shape(), (3, 4, 5));
        img.set_pixel(2, 3, &[0.1, 0.2, 0.3]);
        assert_eq!(img.get(1, 2, 3), 0.2);
    }

    #[test]
    fn blend_pixel_interpolates() {
        let mut img = Image::filled(1, 2, 2, 1.0);
        img.blend_pixel(0, 0, &[0.0], 0.25);
        assert!((img.get(0, 0, 0) - 0.75).abs() < 1e-6);
        // alpha is clamped
        img.blend_pixel(0, 1, &[0.0], 2.0);
        assert_eq!(img.get(0, 0, 1), 0.0);
    }

    #[test]
    fn clamp01_bounds_values() {
        let mut img = Image::filled(1, 1, 2, 2.0);
        img.set(0, 0, 1, -1.0);
        img.clamp01();
        assert_eq!(img.get(0, 0, 0), 1.0);
        assert_eq!(img.get(0, 0, 1), 0.0);
    }

    #[test]
    fn grayscale_luma_weights() {
        let mut img = Image::new(3, 1, 1);
        img.set_pixel(0, 0, &[1.0, 0.0, 0.0]);
        let g = img.to_grayscale();
        assert!((g.get(0, 0, 0) - 0.299).abs() < 1e-6);
    }

    #[test]
    fn grayscale_identity_for_single_channel() {
        let img = Image::filled(1, 2, 2, 0.5);
        assert_eq!(img.to_grayscale(), img);
    }

    #[test]
    fn mean_of_filled() {
        assert!((Image::filled(2, 3, 3, 0.25).mean() - 0.25).abs() < 1e-7);
    }
}
