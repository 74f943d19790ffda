//! Rank-3 tensor in `C × H × W` layout.
//!
//! Used for images and CNN filter maps. The channel-major layout matches the
//! paper's prototype extraction: a *prototype* is the vector spanning the
//! channel axis at one spatial location `(h, w)` of a filter map (§3.1).

use crate::scalar::Scalar;
use crate::{Result, TensorError};

/// Dense rank-3 tensor stored as `C` contiguous `H×W` planes.
#[derive(Clone, PartialEq)]
pub struct Tensor3<T: Scalar> {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<T>,
}

impl<T: Scalar> Tensor3<T> {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self { channels, height, width, data: vec![T::ZERO; channels * height * width] }
    }

    /// Build from a `C*H*W`-length vector in channel-major order.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != channels * height * width {
            return Err(TensorError::ShapeMismatch(format!(
                "Tensor3::from_vec: {} elements for shape {channels}x{height}x{width}",
                data.len()
            )));
        }
        Ok(Self { channels, height, width, data })
    }

    /// Number of channels `C`.
    #[inline(always)]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height `H`.
    #[inline(always)]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width `W`.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(C, H, W)` triple.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Flat immutable storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The `H×W` plane of channel `c` as a slice.
    #[inline(always)]
    pub fn channel(&self, c: usize) -> &[T] {
        debug_assert!(c < self.channels);
        let plane = self.height * self.width;
        &self.data[c * plane..(c + 1) * plane]
    }

    /// The `H×W` plane of channel `c` as a mutable slice.
    #[inline(always)]
    pub fn channel_mut(&mut self, c: usize) -> &mut [T] {
        debug_assert!(c < self.channels);
        let plane = self.height * self.width;
        &mut self.data[c * plane..(c + 1) * plane]
    }

    /// Element accessor.
    #[inline(always)]
    pub fn get(&self, c: usize, h: usize, w: usize) -> T {
        debug_assert!(c < self.channels && h < self.height && w < self.width);
        self.data[(c * self.height + h) * self.width + w]
    }

    /// Element setter.
    #[inline(always)]
    pub fn set(&mut self, c: usize, h: usize, w: usize, v: T) {
        debug_assert!(c < self.channels && h < self.height && w < self.width);
        self.data[(c * self.height + h) * self.width + w] = v;
    }

    /// The channel-axis vector at spatial position `(h, w)` — a *prototype*
    /// in the paper's terminology (length `C`).
    pub fn spatial_vector(&self, h: usize, w: usize) -> Vec<T> {
        assert!(h < self.height && w < self.width);
        let plane = self.height * self.width;
        let offset = h * self.width + w;
        (0..self.channels).map(|c| self.data[c * plane + offset]).collect()
    }

    /// Elementwise in-place map.
    pub fn map_in_place(&mut self, f: impl Fn(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Flatten all spatial vectors into a `(H*W) × C` matrix whose row
    /// `h*W + w` is [`Self::spatial_vector`]`(h, w)`. This is the patch table
    /// the affinity computation consumes (one row per receptive field).
    pub fn spatial_vectors_matrix(&self) -> crate::Matrix<T> {
        let hw = self.height * self.width;
        let mut m = crate::Matrix::zeros(hw, self.channels);
        let plane = hw;
        for c in 0..self.channels {
            let ch = &self.data[c * plane..(c + 1) * plane];
            for (pos, &v) in ch.iter().enumerate() {
                m[(pos, c)] = v;
            }
        }
        m
    }
}

impl<T: Scalar> std::fmt::Debug for Tensor3<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor3({}x{}x{})", self.channels, self.height, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 channels of 2x2: ch0 = [[1,2],[3,4]], ch1 = [[5,6],[7,8]].
    fn sample() -> Tensor3<f32> {
        Tensor3::from_vec(2, 2, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]).unwrap()
    }

    #[test]
    fn shape_and_accessors() {
        let t = sample();
        assert_eq!(t.shape(), (2, 2, 2));
        assert_eq!(t.get(0, 1, 0), 3.0);
        assert_eq!(t.get(1, 0, 1), 6.0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor3::<f32>::from_vec(2, 2, 2, vec![0.0; 7]).is_err());
    }

    #[test]
    fn spatial_vector_spans_channels() {
        let t = sample();
        assert_eq!(t.spatial_vector(0, 1), vec![2.0, 6.0]);
        assert_eq!(t.spatial_vector(1, 1), vec![4.0, 8.0]);
    }

    #[test]
    fn spatial_vectors_matrix_layout() {
        let t = sample();
        let m = t.spatial_vectors_matrix();
        assert_eq!(m.shape(), (4, 2));
        // row of position (h=1, w=0) is index 2
        assert_eq!(m.row(2), &[3.0, 7.0]);
    }

    #[test]
    fn paper_example4_top2_prototypes() {
        // Example 4 of the paper: 3 channels of 2x2. The top-2 channels by
        // global max are C1 (1.0 at (0,0)) and C3 (0.9 at (0,1)); the
        // prototypes are the channel-axis vectors at those locations.
        let t = Tensor3::from_vec(
            3,
            2,
            2,
            vec![1.0, 0.5, 0.3, 0.6, 0.1, 0.7, 0.4, 0.3, 0.2, 0.9, 0.5, 0.1],
        )
        .unwrap();
        assert_eq!(t.spatial_vector(0, 0), vec![1.0, 0.1, 0.2]);
        assert_eq!(t.spatial_vector(0, 1), vec![0.5, 0.7, 0.9]);
    }
}
