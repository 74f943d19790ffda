//! CNN building blocks: same-padding 3×3 convolution, ReLU, 2×2 max-pool
//! and a dense layer. Inference only — the backbone is frozen in every
//! experiment of the paper (and in the end-model protocol only FC heads are
//! trained, which `goggles-endmodel` implements separately).
//!
//! # The im2col lowering
//!
//! [`Conv2d::forward`] does not loop over pixels. A stride-1 zero-padded
//! convolution is a matrix product in disguise (conv layers are just big
//! GEMMs — Gong et al.'s observation): lower the `C×H×W` input into the
//! `(C·k²) × (H·W)` patch panel whose column `y·W + x` stacks the receptive
//! field of output position `(y, x)`
//! ([`goggles_tensor::im2col_3x3`]), and the layer's whole arithmetic
//! collapses to
//!
//! ```text
//! out[out_c × H·W] = relu(weights[out_c × C·k²] · panel + bias)
//! ```
//!
//! which [`goggles_tensor::gemm_bias_relu_f32`] computes with register
//! tiling, panel packing and the bias+ReLU epilogue fused into the output
//! write. 1×1 kernels skip the lowering entirely (the input *is* the
//! panel); kernels other than 1 and 3 fall back to the scalar reference.
//! The scalar path is retained as [`Conv2d::forward_naive`] — it is the
//! semantic ground truth the property tests compare against (agreement
//! within `1e-5`; the two paths group the same `k` additions differently).
//!
//! # The scratch-arena contract
//!
//! Every buffer the fast path needs lives in one caller-owned
//! [`ConvScratch`]: the im2col panel, the GEMM packing buffer and a pair
//! of ping-pong activation planes. The arena grows to the largest layer it
//! has seen and is never shrunk or cleared — feeding it through a whole
//! network (`Vgg16::forward_pool_taps_into`) performs **zero per-layer
//! allocations** after warm-up, and reusing one arena across calls is
//! bit-deterministic (outputs never depend on previous contents: every
//! scratch byte consumed is written first). Hold one arena per worker
//! thread; they are cheap when idle and must not be shared concurrently.

use goggles_tensor::rng::normal;
use goggles_tensor::{gemm_bias_relu_f32, im2col_3x3, GemmScratch, Matrix, Tensor3};
use rand::Rng;

/// Reusable workspace of the im2col convolution path: the patch panel, the
/// GEMM packing buffer and two ping-pong activation buffers (used by
/// `Vgg16` to chain layers without allocating). See the module docs for
/// the arena contract.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    /// `(C·9) × (H·W)` im2col patch panel of the current layer.
    pub(crate) col: Vec<f32>,
    /// Packed-`A` workspace of the blocked GEMM.
    pub(crate) gemm: GemmScratch,
    /// Ping-pong activation buffers for chained forward passes.
    pub(crate) act: [Vec<f32>; 2],
}

impl ConvScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// 2-D convolution with stride 1 and zero same-padding.
///
/// Weight layout is `[out_c][in_c][kh][kw]` flattened; this keeps the inner
/// accumulation loop contiguous over the kernel window.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
}

impl Conv2d {
    /// He-initialized convolution (`σ = √(2 / fan_in)`), deterministic given
    /// the caller's RNG state. Bias starts at a small positive value so ReLU
    /// units are born alive.
    pub fn new_he_init<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
    ) -> Self {
        assert!(kernel % 2 == 1, "Conv2d requires an odd kernel for same padding");
        let fan_in = (in_channels * kernel * kernel) as f64;
        let sigma = (2.0 / fan_in).sqrt();
        let weight = (0..out_channels * in_channels * kernel * kernel)
            .map(|_| (normal(rng) * sigma) as f32)
            .collect();
        let bias = vec![0.01f32; out_channels];
        Self { in_channels, out_channels, kernel, weight, bias }
    }

    /// Construct from explicit parameters (for tests and serialization).
    pub fn from_parts(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(weight.len(), out_channels * in_channels * kernel * kernel);
        assert_eq!(bias.len(), out_channels);
        Self { in_channels, out_channels, kernel, weight, bias }
    }

    /// Output channel count.
    pub(crate) fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Forward pass; `input` must have `in_channels` channels. Output has
    /// the same spatial size (stride 1, zero padding `k/2`). Runs the
    /// im2col + blocked-GEMM fast path with a throwaway scratch — hot loops
    /// should hold a [`ConvScratch`] and call [`Conv2d::forward_into`].
    pub fn forward(&self, input: &Tensor3<f32>) -> Tensor3<f32> {
        let (_, h, w) = input.shape();
        let mut out = Tensor3::zeros(self.out_channels, h, w);
        self.forward_into(
            input.as_slice(),
            h,
            w,
            &mut ConvScratch::default(),
            false,
            out.as_mut_slice(),
        );
        out
    }

    /// Im2col + blocked-GEMM forward pass into a caller-owned output slice,
    /// with the bias (and, when `relu` is set, the ReLU) fused into the
    /// output write. `input` is a `in_channels × h × w` channel-major
    /// slice; `out` must hold `out_channels · h · w` values and is fully
    /// overwritten. All buffers come from `scratch` (see the module docs
    /// for the arena contract).
    pub fn forward_into(
        &self,
        input: &[f32],
        h: usize,
        w: usize,
        scratch: &mut ConvScratch,
        relu: bool,
        out: &mut [f32],
    ) {
        self.forward_cols(input, h, w, &mut scratch.col, &mut scratch.gemm, relu, out);
    }

    /// [`Conv2d::forward_into`] against explicitly split scratch parts, so
    /// `Vgg16` can read the input from the same arena's activation buffers
    /// while lowering into `col`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_cols(
        &self,
        input: &[f32],
        h: usize,
        w: usize,
        col: &mut Vec<f32>,
        gemm: &mut GemmScratch,
        relu: bool,
        out: &mut [f32],
    ) {
        assert_eq!(input.len(), self.in_channels * h * w, "Conv2d: input shape mismatch");
        assert_eq!(out.len(), self.out_channels * h * w, "Conv2d: output shape mismatch");
        let n = h * w;
        match self.kernel {
            1 => {
                // A 1×1 convolution needs no lowering: the input already is
                // the `C × H·W` panel.
                gemm_bias_relu_f32(
                    gemm,
                    &self.weight,
                    input,
                    self.out_channels,
                    self.in_channels,
                    n,
                    &self.bias,
                    relu,
                    out,
                );
            }
            3 => {
                im2col_3x3(input, self.in_channels, h, w, col);
                gemm_bias_relu_f32(
                    gemm,
                    &self.weight,
                    col,
                    self.out_channels,
                    self.in_channels * 9,
                    n,
                    &self.bias,
                    relu,
                    out,
                );
            }
            _ => {
                // Odd kernels other than 1 and 3 are not on any hot path;
                // run the scalar reference and fuse the epilogue manually.
                let mut owned = Tensor3::zeros(self.in_channels, h, w);
                owned.as_mut_slice().copy_from_slice(input);
                let res = self.forward_naive(&owned);
                for (d, &v) in out.iter_mut().zip(res.as_slice()) {
                    *d = if relu && v < 0.0 { 0.0 } else { v };
                }
            }
        }
    }

    /// Scalar reference forward pass — the original 6-deep loop nest with
    /// per-pixel bounds checks, kept as the semantic ground truth for the
    /// property tests and the embedding speedup bar. Same contract as
    /// [`Conv2d::forward`]; the two agree within `1e-5` (they group the
    /// per-output additions differently).
    pub fn forward_naive(&self, input: &Tensor3<f32>) -> Tensor3<f32> {
        assert_eq!(input.channels(), self.in_channels, "Conv2d: channel mismatch");
        let (_, h, w) = input.shape();
        let k = self.kernel;
        let pad = (k / 2) as i32;
        let mut out = Tensor3::zeros(self.out_channels, h, w);
        let kk = k * k;
        let in_stride = self.in_channels * kk;
        for oc in 0..self.out_channels {
            let w_oc = &self.weight[oc * in_stride..(oc + 1) * in_stride];
            let bias = self.bias[oc];
            let out_plane = out.channel_mut(oc);
            for ic in 0..self.in_channels {
                let w_ic = &w_oc[ic * kk..(ic + 1) * kk];
                let in_plane = input.channel(ic);
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = 0.0f32;
                        for ky in 0..k {
                            let sy = y as i32 + ky as i32 - pad;
                            if sy < 0 || sy >= h as i32 {
                                continue;
                            }
                            let in_row = &in_plane[sy as usize * w..(sy as usize + 1) * w];
                            let w_row = &w_ic[ky * k..(ky + 1) * k];
                            for (kx, &wv) in w_row.iter().enumerate() {
                                let sx = x as i32 + kx as i32 - pad;
                                if sx < 0 || sx >= w as i32 {
                                    continue;
                                }
                                acc += wv * in_row[sx as usize];
                            }
                        }
                        out_plane[y * w + x] += acc;
                    }
                }
            }
            // Add bias once per output location.
            for v in out.channel_mut(oc) {
                *v += bias;
            }
        }
        out
    }
}

/// In-place ReLU.
pub(crate) fn relu_in_place(t: &mut Tensor3<f32>) {
    for v in t.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// 2×2 max pooling with stride 2 (odd trailing rows/cols are dropped, as in
/// the standard VGG definition).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaxPool2d;

impl MaxPool2d {
    /// Forward pass; halves each spatial dimension (floor).
    pub fn forward(&self, input: &Tensor3<f32>) -> Tensor3<f32> {
        let (c, h, w) = input.shape();
        let oh = h / 2;
        let ow = w / 2;
        assert!(oh > 0 && ow > 0, "MaxPool2d: input {h}x{w} too small");
        let mut out = Tensor3::zeros(c, oh, ow);
        self.forward_into(input.as_slice(), c, h, w, out.as_mut_slice());
        out
    }

    /// Pool a `c × h × w` channel-major slice directly into a caller-owned
    /// `c × (h/2) × (w/2)` output slice — this is how `Vgg16` writes each
    /// block's pool output straight into its tap tensor without an
    /// intermediate clone.
    pub fn forward_into(&self, input: &[f32], c: usize, h: usize, w: usize, out: &mut [f32]) {
        let oh = h / 2;
        let ow = w / 2;
        assert!(oh > 0 && ow > 0, "MaxPool2d: input {h}x{w} too small");
        assert_eq!(input.len(), c * h * w, "MaxPool2d: input shape mismatch");
        assert_eq!(out.len(), c * oh * ow, "MaxPool2d: output shape mismatch");
        for ch in 0..c {
            let plane = &input[ch * h * w..(ch + 1) * h * w];
            let out_plane = &mut out[ch * oh * ow..(ch + 1) * oh * ow];
            for y in 0..oh {
                let r0 = &plane[(2 * y) * w..(2 * y) * w + w];
                let r1 = &plane[(2 * y + 1) * w..(2 * y + 1) * w + w];
                for x in 0..ow {
                    let m = r0[2 * x].max(r0[2 * x + 1]).max(r1[2 * x]).max(r1[2 * x + 1]);
                    out_plane[y * ow + x] = m;
                }
            }
        }
    }
}

/// Dense layer `y = W x + b` with `W: out × in`.
#[derive(Debug, Clone)]
// goggles-lint: allow(dead-pub): the VGG classifier-head layer type, API-symmetric with the exported Conv2d; constructed via vgg.rs and unit tests
pub struct Linear {
    weight: Matrix<f32>,
    bias: Vec<f32>,
}

impl Linear {
    /// He-initialized dense layer.
    pub fn new_he_init<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        let sigma = (2.0 / in_dim as f64).sqrt();
        let weight = Matrix::from_fn(out_dim, in_dim, |_, _| (normal(rng) * sigma) as f32);
        Self { weight, bias: vec![0.0; out_dim] }
    }

    /// Construct from explicit parameters.
    pub fn from_parts(weight: Matrix<f32>, bias: Vec<f32>) -> Self {
        assert_eq!(weight.rows(), bias.len());
        Self { weight, bias }
    }

    /// Output dimension.
    // goggles-lint: allow(dead-pub): accessor symmetric with in_dim; layer-shape introspection API
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Input dimension.
    pub(crate) fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim(), "Linear: dim mismatch");
        let mut y = self.weight.matvec(x);
        for (v, &b) in y.iter_mut().zip(&self.bias) {
            *v += b;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::std_rng;

    #[test]
    fn conv_identity_kernel_passes_through() {
        // 1x1 kernel with weight 1, bias 0 == identity
        let conv = Conv2d::from_parts(1, 1, 1, vec![1.0], vec![0.0]);
        let input = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = conv.forward(&input);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv_box_kernel_sums_neighbourhood() {
        // 3x3 all-ones kernel on a delta image: spreads the delta over 3x3
        let conv = Conv2d::from_parts(1, 1, 3, vec![1.0; 9], vec![0.0]);
        let mut input = Tensor3::zeros(1, 5, 5);
        input.set(0, 2, 2, 1.0);
        let out = conv.forward(&input);
        for y in 0..5 {
            for x in 0..5 {
                let expect = if (1..=3).contains(&y) && (1..=3).contains(&x) { 1.0 } else { 0.0 };
                assert_eq!(out.get(0, y, x), expect, "at ({y},{x})");
            }
        }
    }

    #[test]
    fn conv_zero_padding_at_borders() {
        let conv = Conv2d::from_parts(1, 1, 3, vec![1.0; 9], vec![0.0]);
        let input = Tensor3::from_vec(1, 2, 2, vec![1.0; 4]).unwrap();
        let out = conv.forward(&input);
        // each output = sum of in-bounds ones; corners see 4 pixels
        assert_eq!(out.get(0, 0, 0), 4.0);
    }

    #[test]
    fn conv_multi_channel_accumulates() {
        // two input channels, kernel picks each with weight 1 (1x1)
        let conv = Conv2d::from_parts(2, 1, 1, vec![1.0, 1.0], vec![0.5]);
        let input = Tensor3::from_vec(2, 1, 1, vec![2.0, 3.0]).unwrap();
        let out = conv.forward(&input);
        assert_eq!(out.get(0, 0, 0), 5.5);
    }

    #[test]
    fn conv_bias_applied_once_per_location() {
        let conv = Conv2d::from_parts(1, 1, 3, vec![0.0; 9], vec![1.25]);
        let input = Tensor3::zeros(1, 4, 4);
        let out = conv.forward(&input);
        assert!(out.as_slice().iter().all(|&v| v == 1.25));
    }

    #[test]
    fn he_init_statistics() {
        let mut rng = std_rng(0);
        let conv = Conv2d::new_he_init(&mut rng, 16, 32, 3);
        let n = conv.weight.len() as f64;
        let mean: f64 = conv.weight.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var: f64 = conv.weight.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        let expect = 2.0 / (16.0 * 9.0);
        assert!(mean.abs() < 0.005, "mean = {mean}");
        assert!((var - expect).abs() / expect < 0.15, "var = {var}, expect = {expect}");
    }

    #[test]
    fn gemm_path_matches_naive_reference() {
        let mut rng = std_rng(11);
        for &(in_c, out_c, h, w) in &[(1usize, 1usize, 4usize, 4usize), (3, 5, 6, 7), (8, 4, 5, 3)]
        {
            let conv = Conv2d::new_he_init(&mut rng, in_c, out_c, 3);
            let input = Tensor3::from_vec(
                in_c,
                h,
                w,
                (0..in_c * h * w).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.1).collect(),
            )
            .unwrap();
            let fast = conv.forward(&input);
            let naive = conv.forward_naive(&input);
            for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert!((a - b).abs() < 1e-5, "{in_c}x{out_c} {h}x{w}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_into_fuses_relu() {
        let mut rng = std_rng(3);
        let conv = Conv2d::new_he_init(&mut rng, 2, 3, 3);
        let input: Vec<f32> = (0..2 * 4 * 4).map(|i| (i as f32 - 16.0) * 0.3).collect();
        let mut scratch = ConvScratch::new();
        let mut fused = vec![0.0f32; 3 * 4 * 4];
        conv.forward_into(&input, 4, 4, &mut scratch, true, &mut fused);
        let mut plain = vec![0.0f32; 3 * 4 * 4];
        conv.forward_into(&input, 4, 4, &mut scratch, false, &mut plain);
        assert!(plain.iter().any(|&v| v < 0.0), "test input should produce negatives");
        for (f, p) in fused.iter().zip(&plain) {
            assert_eq!(*f, p.max(0.0));
        }
    }

    #[test]
    fn maxpool_forward_into_matches_forward() {
        let input = Tensor3::from_vec(
            2,
            4,
            6,
            (0..2 * 4 * 6).map(|i| ((i * 13 % 7) as f32) - 3.0).collect(),
        )
        .unwrap();
        let owned = MaxPool2d.forward(&input);
        let mut flat = vec![0.0f32; 2 * 2 * 3];
        MaxPool2d.forward_into(input.as_slice(), 2, 4, 6, &mut flat);
        assert_eq!(owned.as_slice(), &flat[..]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor3::from_vec(1, 1, 4, vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        relu_in_place(&mut t);
        assert_eq!(t.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn maxpool_halves_and_takes_max() {
        let input = Tensor3::from_vec(
            1,
            4,
            4,
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, 7.0,
            ],
        )
        .unwrap();
        let out = MaxPool2d.forward(&input);
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.as_slice(), &[6.0, 8.0, 9.0, 7.0]);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let input = Tensor3::zeros(2, 5, 7);
        let out = MaxPool2d.forward(&input);
        assert_eq!(out.shape(), (2, 2, 3));
    }

    #[test]
    fn linear_affine_map() {
        let w = Matrix::from_rows(&[&[1.0f32, 2.0], &[0.0, -1.0]]);
        let lin = Linear::from_parts(w, vec![0.5, 1.0]);
        let y = lin.forward(&[3.0, 4.0]);
        assert_eq!(y, vec![11.5, -3.0]);
        assert_eq!(lin.in_dim(), 2);
        assert_eq!(lin.out_dim(), 2);
    }

    #[test]
    fn layers_are_deterministic_per_seed() {
        let a = {
            let mut rng = std_rng(9);
            Conv2d::new_he_init(&mut rng, 3, 4, 3).weight
        };
        let b = {
            let mut rng = std_rng(9);
            Conv2d::new_he_init(&mut rng, 3, 4, 3).weight
        };
        assert_eq!(a, b);
    }
}
