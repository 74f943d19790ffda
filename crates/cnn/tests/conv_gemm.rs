//! Property tests (vendored proptest shim) of the tiled-GEMM convolution
//! path — the embedding hot path. The convolution must equal the
//! `im2col_3x3` + `gemm_bias_relu_f32` oracle bit for bit and agree with
//! the retained scalar reference (`Conv2d::forward_naive`) within 1e-5 on
//! random shapes and channel widths, and the whole trunk
//! (`Vgg16::forward_pool_taps_into`) must be bit-deterministic across
//! scratch-arena reuse, arena history, and thread counts.

use goggles_cnn::{Conv2d, ConvScratch, Vgg16, VggConfig};
use goggles_tensor::rng::{normal, std_rng};
use goggles_tensor::{gemm_bias_relu_f32, im2col_3x3, GemmScratch, Tensor3};
use goggles_vision::{draw, Image};
use proptest::prelude::*;

/// Deterministic random tensor with values in roughly ±3.
fn random_tensor(c: usize, h: usize, w: usize, seed: u64) -> Tensor3<f32> {
    let mut rng = std_rng(seed);
    Tensor3::from_vec(c, h, w, (0..c * h * w).map(|_| normal(&mut rng) as f32).collect())
        .expect("shape")
}

fn textured_image(shift: f32) -> Image {
    let mut img = Image::filled(3, 32, 32, 0.4);
    draw::fill_disc(&mut img, 10.0 + shift, 12.0, 6.0, &[0.9, 0.2, 0.1]);
    draw::fill_rect(&mut img, 20, 4, 28, 30, &[0.1, 0.6, 0.9]);
    img
}

fn tap_bits(taps: &[Tensor3<f32>]) -> Vec<u32> {
    taps.iter().flat_map(|t| t.as_slice().iter().map(|v| v.to_bits())).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A He-initialized `in_c → out_c` convolution with a random bias, and
/// `Conv2d::forward` of `input` against the oracle: `gemm_bias_relu_f32`
/// over the same weights and the `im2col_3x3` panel (3×3) or the input
/// itself (1×1), without ReLU.
fn conv_and_oracle(
    in_c: usize,
    out_c: usize,
    kernel: usize,
    input: &Tensor3<f32>,
    seed: u64,
) -> (Conv2d, Vec<f32>) {
    let mut rng = std_rng(seed);
    let k = in_c * kernel * kernel;
    let sigma = (2.0 / k as f64).sqrt();
    let weight: Vec<f32> = (0..out_c * k).map(|_| (normal(&mut rng) * sigma) as f32).collect();
    let bias: Vec<f32> = (0..out_c).map(|_| normal(&mut rng) as f32 * 0.1).collect();
    let (_, h, w) = input.shape();
    let mut col = Vec::new();
    let panel = if kernel == 3 {
        im2col_3x3(input.as_slice(), in_c, h, w, &mut col);
        &col
    } else {
        input.as_slice()
    };
    let mut oracle = vec![0.0f32; out_c * h * w];
    let mut scratch = GemmScratch::default();
    gemm_bias_relu_f32(&mut scratch, &weight, panel, out_c, k, h * w, &bias, false, &mut oracle);
    (Conv2d::from_parts(in_c, out_c, kernel, weight, bias), oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tiled-GEMM convolution ≡ the im2col + GEMM oracle bit for bit,
    /// and ≡ the scalar reference within 1e-5, on random shapes and channel
    /// widths (3×3 kernels, the backbone case).
    #[test]
    fn gemm_conv_matches_naive_3x3(
        in_c in 1usize..9,
        out_c in 1usize..12,
        h in 1usize..12,
        w in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let input = random_tensor(in_c, h, w, seed ^ 0xC04);
        let (conv, oracle) = conv_and_oracle(in_c, out_c, 3, &input, seed);
        let fast = conv.forward(&input);
        prop_assert_eq!(bits(fast.as_slice()), bits(&oracle), "in_c={} out_c={} {}x{}", in_c, out_c, h, w);
        let naive = conv.forward_naive(&input);
        prop_assert_eq!(fast.shape(), naive.shape());
        for (i, (a, b)) in fast.as_slice().iter().zip(naive.as_slice()).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-5,
                "in_c={in_c} out_c={out_c} {h}x{w} i={i}: gemm {a} vs naive {b}"
            );
        }
    }

    /// The 1×1 kernel (input read in place, no lowering) also matches, the
    /// oracle being the GEMM on the input itself.
    #[test]
    fn gemm_conv_matches_naive_1x1(
        in_c in 1usize..10,
        out_c in 1usize..10,
        h in 1usize..10,
        w in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let input = random_tensor(in_c, h, w, seed ^ 0x1A1);
        let (conv, oracle) = conv_and_oracle(in_c, out_c, 1, &input, seed);
        let fast = conv.forward(&input);
        prop_assert_eq!(bits(fast.as_slice()), bits(&oracle));
        let naive = conv.forward_naive(&input);
        for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// `forward_into` with a reused, history-laden arena is bit-identical
    /// to a fresh-arena run — no scratch byte leaks into the output — as
    /// the arena's layer shrinks and then grows again.
    #[test]
    fn arena_reuse_is_bit_identical_per_layer(
        in_c in 1usize..6,
        out_c in 1usize..8,
        h in 2usize..10,
        w in 2usize..10,
        seed in 0u64..1_000,
    ) {
        let mut rng = std_rng(seed);
        let conv = Conv2d::new_he_init(&mut rng, in_c, out_c, 3);
        let input = random_tensor(in_c, h, w, seed ^ 0xA2E);
        // Dirty the arena on an unrelated, larger problem first.
        let mut arena = ConvScratch::new();
        let big = Conv2d::new_he_init(&mut rng, 7, 9, 3);
        let big_in = random_tensor(7, 13, 13, seed ^ 0xB16);
        let mut sink = vec![0.0f32; 9 * 13 * 13];
        big.forward_into(big_in.as_slice(), 13, 13, &mut arena, true, &mut sink);

        let mut reused = vec![0.0f32; out_c * h * w];
        conv.forward_into(input.as_slice(), h, w, &mut arena, true, &mut reused);
        let mut fresh = vec![0.0f32; out_c * h * w];
        conv.forward_into(input.as_slice(), h, w, &mut ConvScratch::new(), true, &mut fresh);
        prop_assert_eq!(bits(&reused), bits(&fresh));
        let mut regrown = vec![0.0f32; 9 * 13 * 13];
        big.forward_into(big_in.as_slice(), 13, 13, &mut arena, true, &mut regrown);
        prop_assert_eq!(bits(&regrown), bits(&sink));
    }
}

#[test]
fn trunk_is_bit_deterministic_across_arena_reuse() {
    let net = Vgg16::new(&VggConfig::tiny(), 7);
    let images: Vec<Image> = (0..3).map(|i| textured_image(i as f32)).collect();
    // Reference: throwaway arena per call (what `forward_pool_taps` does).
    let reference: Vec<Vec<u32>> =
        images.iter().map(|i| tap_bits(&net.forward_pool_taps(i))).collect();
    // One arena reused across all images, twice over.
    let mut arena = ConvScratch::new();
    for _round in 0..2 {
        for (img, expect) in images.iter().zip(&reference) {
            let taps = net.forward_pool_taps_into(&mut arena, img);
            assert_eq!(&tap_bits(&taps), expect, "arena reuse changed trunk bits");
        }
    }
}

#[test]
fn trunk_agrees_with_naive_reference_within_tolerance() {
    let net = Vgg16::new(&VggConfig::tiny(), 11);
    for i in 0..3 {
        let img = textured_image(i as f32);
        let fast = net.forward_pool_taps(&img);
        let naive = net.forward_pool_taps_naive(&img);
        assert_eq!(fast.len(), naive.len());
        for (b, (f, n)) in fast.iter().zip(&naive).enumerate() {
            assert_eq!(f.shape(), n.shape());
            for (a, r) in f.as_slice().iter().zip(n.as_slice()) {
                assert!((a - r).abs() < 1e-5, "block {b}: {a} vs {r}");
            }
        }
    }
}

#[test]
fn logits_batch_is_identical_for_every_thread_count() {
    let net = Vgg16::new(&VggConfig::tiny(), 3);
    let images: Vec<Image> = (0..6).map(|i| textured_image(i as f32 * 0.7)).collect();
    let serial = net.logits_batch_threaded(&images, 1);
    for threads in [2usize, 3, 4, 8] {
        let parallel = net.logits_batch_threaded(&images, threads);
        assert_eq!(
            serial.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "threads = {threads}"
        );
    }
    // And the auto-budget convenience wrapper agrees too.
    let auto = net.logits_batch(&images);
    assert_eq!(auto.as_slice(), serial.as_slice());
}
