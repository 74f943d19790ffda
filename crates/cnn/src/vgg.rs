//! The VGG-16 backbone (Simonyan & Zisserman, 2014) at configurable width,
//! with taps at the five max-pooling layers — the exact surface the paper's
//! affinity functions consume — plus the "logits" feature head the
//! Snuba/Logits baselines use (§5.1.2, §5.1.5).

use crate::layers::{relu_in_place, Conv2d, ConvScratch, Linear, MaxPool2d};
use goggles_tensor::rng::std_rng;
use goggles_tensor::Tensor3;
use goggles_vision::Image;

/// Configuration of the surrogate VGG-16.
#[derive(Debug, Clone, PartialEq)]
pub struct VggConfig {
    /// Input channel count (3 for RGB; grayscale images are broadcast).
    pub input_channels: usize,
    /// Channel widths of the five convolutional blocks. The canonical VGG-16
    /// is `[64, 128, 256, 512, 512]`; the default here is 1/8 of that, which
    /// keeps full-dataset evaluation CPU-friendly while preserving topology.
    pub block_channels: [usize; 5],
    /// Spatial input size (square). VGG-16 uses 224; the reproduction
    /// defaults to 64 so that the pool-5 map is 2×2 (DESIGN.md §5).
    pub input_size: usize,
    /// Widths of the two hidden fully-connected layers (VGG: 4096, 4096).
    pub fc_dims: [usize; 2],
    /// Output ("logits") dimension (VGG: 1000 ImageNet classes).
    pub logits_dim: usize,
}

impl Default for VggConfig {
    fn default() -> Self {
        Self {
            input_channels: 3,
            block_channels: [8, 16, 32, 64, 64],
            input_size: 64,
            fc_dims: [128, 128],
            logits_dim: 100,
        }
    }
}

impl VggConfig {
    /// A very small configuration for fast unit tests (32×32 input).
    pub fn tiny() -> Self {
        Self {
            input_channels: 3,
            block_channels: [4, 8, 8, 16, 16],
            input_size: 32,
            fc_dims: [32, 32],
            logits_dim: 16,
        }
    }

    /// Number of convolution layers per block — fixed by the VGG-16 paper.
    pub const CONVS_PER_BLOCK: [usize; 5] = [2, 2, 3, 3, 3];

    /// Spatial size of the pool-`i` output (0-based block index).
    pub fn pool_size(&self, block: usize) -> usize {
        assert!(block < 5);
        self.input_size >> (block + 1)
    }

    /// Flattened feature length after pool-5 (input to the first FC layer).
    pub(crate) fn flattened_len(&self) -> usize {
        let s = self.pool_size(4);
        self.block_channels[4] * s * s
    }

    /// Estimated flops of one forward pass (2 flops per multiply-add),
    /// counting the 13 3×3 convolutions at their block resolutions plus the
    /// three dense layers. Pooling, bias and ReLU sweeps are omitted — they
    /// are linear in the activation count and vanish next to the products.
    /// The observability layer divides GEMM throughput by this to report
    /// effective GFLOP/s per image.
    pub fn forward_flops_per_image(&self) -> u64 {
        let mut flops = 0u64;
        let mut in_c = self.input_channels as u64;
        for (b, &out_c) in self.block_channels.iter().enumerate() {
            // Convolutions run at the block's input resolution; the 2× pool
            // comes after the block.
            let s = (self.input_size >> b) as u64;
            for _ in 0..Self::CONVS_PER_BLOCK[b] {
                flops += 2 * 9 * in_c * (out_c as u64) * s * s;
                in_c = out_c as u64;
            }
        }
        let dims = [
            self.flattened_len() as u64,
            self.fc_dims[0] as u64,
            self.fc_dims[1] as u64,
            self.logits_dim as u64,
        ];
        for pair in dims.windows(2) {
            flops += 2 * pair[0] * pair[1];
        }
        flops
    }
}

/// The VGG-16 network: 13 convolutions in 5 max-pooled blocks + 3 dense
/// layers, with deterministic seeded weights.
#[derive(Debug, Clone)]
pub struct Vgg16 {
    config: VggConfig,
    blocks: Vec<Vec<Conv2d>>,
    fc: [Linear; 3],
}

impl Vgg16 {
    /// Build the network with He-initialized weights drawn from `seed`.
    ///
    /// The same `(config, seed)` pair always produces the same network, so
    /// every pipeline in the workspace shares one frozen backbone exactly as
    /// the paper shares one pretrained VGG-16 across all datasets.
    pub fn new(config: &VggConfig, seed: u64) -> Self {
        assert!(config.input_size >= 32, "input_size must be ≥ 32 for five 2x pools");
        assert!(
            config.input_size.is_power_of_two(),
            "input_size must be a power of two so pool maps stay aligned"
        );
        let mut rng = std_rng(seed);
        let mut blocks = Vec::with_capacity(5);
        let mut in_c = config.input_channels;
        for (b, &out_c) in config.block_channels.iter().enumerate() {
            let mut layers = Vec::with_capacity(VggConfig::CONVS_PER_BLOCK[b]);
            for _ in 0..VggConfig::CONVS_PER_BLOCK[b] {
                layers.push(Conv2d::new_he_init(&mut rng, in_c, out_c, 3));
                in_c = out_c;
            }
            blocks.push(layers);
        }
        let fc = [
            Linear::new_he_init(&mut rng, config.flattened_len(), config.fc_dims[0]),
            Linear::new_he_init(&mut rng, config.fc_dims[0], config.fc_dims[1]),
            Linear::new_he_init(&mut rng, config.fc_dims[1], config.logits_dim),
        ];
        Self { config: config.clone(), blocks, fc }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &VggConfig {
        &self.config
    }

    /// Estimated flops of one forward pass — see
    /// [`VggConfig::forward_flops_per_image`].
    pub fn forward_flops_per_image(&self) -> u64 {
        self.config.forward_flops_per_image()
    }

    /// Normalize an arbitrary image into the network's input tensor:
    /// grayscale is broadcast to the input channel count, spatial size is
    /// bilinearly resized to `input_size`, and values are shifted/scaled by
    /// **fixed** constants — the analogue of VGG's dataset-mean subtraction.
    /// (Per-image standardization would erase cross-image color statistics,
    /// which are a primary class signal on color datasets.)
    pub(crate) fn prepare_input(&self, img: &Image) -> Tensor3<f32> {
        let mut buf = Vec::new();
        self.prepare_input_into(img, &mut buf);
        let s = self.config.input_size;
        Tensor3::from_vec(self.config.input_channels, s, s, buf)
            .expect("prepare_input: geometry invariant")
    }

    /// [`Vgg16::prepare_input`] into a caller-owned buffer (resized to
    /// `input_channels · s²`). The image is only borrowed until a copy is
    /// genuinely needed: a matching-geometry image is normalized in one
    /// pass straight into `out`, a mismatched spatial size goes through one
    /// bilinear resize (on the *source* channel count — a grayscale image
    /// is resized once, not three times), and channel broadcast happens
    /// during the final write.
    pub(crate) fn prepare_input_into(&self, img: &Image, out: &mut Vec<f32>) {
        let s = self.config.input_size;
        let cin = self.config.input_channels;
        assert!(
            img.channels() == cin || img.channels() == 1,
            "prepare_input: channel count mismatch"
        );
        let resized_storage;
        let src: &Tensor3<f32> = if img.height() != s || img.width() != s {
            resized_storage = goggles_vision::filter::resize_bilinear(img, s, s);
            resized_storage.tensor()
        } else {
            img.tensor()
        };
        out.resize(cin * s * s, 0.0);
        // Fixed affine normalization: mean 0.45, std 0.25 (≈ ImageNet
        // statistics in [0,1] units).
        let norm = |v: f32| (v - 0.45) * 4.0;
        if src.channels() == cin {
            for (d, &v) in out.iter_mut().zip(src.as_slice()) {
                *d = norm(v);
            }
        } else {
            // Broadcast the single grayscale plane to every input channel.
            let plane = s * s;
            let (first, rest) = out.split_at_mut(plane);
            for (d, &v) in first.iter_mut().zip(src.as_slice()) {
                *d = norm(v);
            }
            for chunk in rest.chunks_exact_mut(plane) {
                chunk.copy_from_slice(first);
            }
        }
    }

    /// Run the convolutional trunk and return the filter map after **each**
    /// of the five max-pool layers (the paper's Algorithm 1, line 1).
    ///
    /// Runs the tiled-GEMM fast path with a throwaway arena —
    /// hot loops should hold a [`ConvScratch`] and call
    /// [`Vgg16::forward_pool_taps_into`]. The pre-GEMM scalar path is
    /// retained as [`Vgg16::forward_pool_taps_naive`].
    pub fn forward_pool_taps(&self, img: &Image) -> Vec<Tensor3<f32>> {
        self.forward_pool_taps_into(&mut ConvScratch::new(), img)
    }

    /// [`Vgg16::forward_pool_taps`] against a caller-owned scratch arena:
    /// the 13 convolutions ping-pong between the arena's two activation
    /// buffers (each through [`goggles_tensor::conv_bias_relu_f32`]
    /// against its pre-packed weights, the arena's tile buffer reused layer
    /// to layer, bias + ReLU fused into the output write), and each block's
    /// 2×2 pool writes **directly into the returned tap tensor** — the five
    /// taps are the only per-call allocations once the arena has warmed up.
    ///
    /// Bit-deterministic: the same `(network, image)` pair produces
    /// bit-identical taps for any arena history and any thread's arena.
    pub fn forward_pool_taps_into(
        &self,
        scratch: &mut ConvScratch,
        img: &Image,
    ) -> Vec<Tensor3<f32>> {
        let ConvScratch { col, act } = scratch;
        let [ping, pong] = act;
        self.prepare_input_into(img, ping);
        let mut c = self.config.input_channels;
        let mut h = self.config.input_size;
        let mut w = h;
        // `flip == false` ⇒ the current activation lives in `ping`.
        let mut flip = false;
        let mut taps = Vec::with_capacity(5);
        for block in &self.blocks {
            for conv in block {
                let out_c = conv.out_channels();
                let (src, dst) = if flip { (&*pong, &mut *ping) } else { (&*ping, &mut *pong) };
                if dst.len() < out_c * h * w {
                    dst.resize(out_c * h * w, 0.0);
                }
                conv.forward_cols(&src[..c * h * w], h, w, col, true, &mut dst[..out_c * h * w]);
                c = out_c;
                flip = !flip;
            }
            let (oh, ow) = (h / 2, w / 2);
            let mut tap = Tensor3::zeros(c, oh, ow);
            let src = if flip { &*pong } else { &*ping };
            MaxPool2d.forward_into(&src[..c * h * w], c, h, w, tap.as_mut_slice());
            // Stage the pooled map back into the current buffer as the next
            // block's input (a ~KiB memcpy; the taps Vec may reallocate, so
            // the next conv cannot borrow the tap directly while later taps
            // are pushed).
            let dst = if flip { &mut *pong } else { &mut *ping };
            dst[..c * oh * ow].copy_from_slice(tap.as_slice());
            taps.push(tap);
            h = oh;
            w = ow;
        }
        taps
    }

    /// Scalar reference trunk — the original per-pixel convolution loop
    /// ([`Conv2d::forward_naive`]) with per-layer tensor allocation. Kept
    /// as the semantic ground truth for the property tests and the
    /// embedding speedup bar (`goggles-core`'s `speedup_bars` test); agrees
    /// with the fast path within `1e-5` per tap value.
    pub fn forward_pool_taps_naive(&self, img: &Image) -> Vec<Tensor3<f32>> {
        let mut x = self.prepare_input(img);
        let mut taps = Vec::with_capacity(5);
        for block in &self.blocks {
            for conv in block {
                x = conv.forward_naive(&x);
                relu_in_place(&mut x);
            }
            x = MaxPool2d.forward(&x);
            taps.push(x.clone());
        }
        taps
    }

    /// Full forward pass to the logits feature vector (the representation
    /// the Snuba-primitives and "Logits" baselines consume).
    pub fn logits(&self, img: &Image) -> Vec<f32> {
        self.logits_with(&mut ConvScratch::new(), img)
    }

    /// [`Vgg16::logits`] against a caller-owned scratch arena (see
    /// [`Vgg16::forward_pool_taps_into`]).
    pub(crate) fn logits_with(&self, scratch: &mut ConvScratch, img: &Image) -> Vec<f32> {
        let taps = self.forward_pool_taps_into(scratch, img);
        let last = taps.last().expect("five taps");
        let mut x: Vec<f32> = last.as_slice().to_vec();
        for (i, layer) in self.fc.iter().enumerate() {
            x = layer.forward(&x);
            // ReLU between dense layers but not after the logits output.
            if i < 2 {
                for v in &mut x {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
        x
    }

    /// Convenience: logits for a batch of images as an `n × logits_dim`
    /// row-major matrix, fanned out across the machine's available
    /// parallelism (see [`Vgg16::logits_batch_threaded`] for an explicit
    /// budget).
    pub fn logits_batch(&self, imgs: &[Image]) -> goggles_tensor::Matrix<f32> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.logits_batch_threaded(imgs, threads)
    }

    /// Batch logits on up to `threads` participants of the process-wide
    /// [`goggles_tensor::pool`]: the calling thread and the pool's helpers
    /// claim images one at a time, each runs it through its thread's own
    /// [`ConvScratch`] (see [`crate::with_thread_scratch`]) and writes only
    /// that image's output row, so the result is identical for every thread
    /// count and schedule. `threads` caps the participants; it spawns
    /// nothing.
    pub fn logits_batch_threaded(
        &self,
        imgs: &[Image],
        threads: usize,
    ) -> goggles_tensor::Matrix<f32> {
        let ld = self.config.logits_dim;
        let mut out = goggles_tensor::Matrix::zeros(imgs.len(), ld);
        if imgs.is_empty() || ld == 0 {
            return out;
        }
        goggles_tensor::pool::for_each_chunk_mut(out.as_mut_slice(), ld, threads, |i, row| {
            let logits = crate::with_thread_scratch(|scratch| self.logits_with(scratch, &imgs[i]));
            row.copy_from_slice(&logits);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_vision::draw;

    fn test_net() -> Vgg16 {
        Vgg16::new(&VggConfig::tiny(), 7)
    }

    #[test]
    fn forward_flops_match_hand_count_on_tiny_config() {
        let cfg = VggConfig::tiny();
        // Block 0 at 32×32: 3→4 then 4→4.
        let mut expected = 2 * 9 * (3 * 4 + 4 * 4) * 32 * 32;
        // Block 1 at 16×16: 4→8, 8→8.
        expected += 2 * 9 * (4 * 8 + 8 * 8) * 16 * 16;
        // Block 2 at 8×8: 8→8 ×3.
        expected += 2 * 9 * (3 * 8 * 8) * 8 * 8;
        // Block 3 at 4×4: 8→16, then 16→16 ×2.
        expected += 2 * 9 * (8 * 16 + 2 * 16 * 16) * 4 * 4;
        // Block 4 at 2×2: 16→16 ×3.
        expected += 2 * 9 * (3 * 16 * 16) * 2 * 2;
        // FC: flattened(16·1·1=16)→32→32→16.
        expected += 2 * (16 * 32 + 32 * 32 + 32 * 16);
        assert_eq!(cfg.forward_flops_per_image(), expected as u64);
        assert_eq!(test_net().forward_flops_per_image(), expected as u64);
    }

    fn textured_image(seed_shift: f32) -> Image {
        let mut img = Image::filled(3, 32, 32, 0.4);
        draw::fill_disc(&mut img, 10.0 + seed_shift, 12.0, 6.0, &[0.9, 0.2, 0.1]);
        draw::fill_rect(&mut img, 20, 4, 28, 30, &[0.1, 0.6, 0.9]);
        img
    }

    #[test]
    fn pool_taps_have_expected_shapes() {
        let net = test_net();
        let taps = net.forward_pool_taps(&textured_image(0.0));
        let cfg = VggConfig::tiny();
        assert_eq!(taps.len(), 5);
        for (b, tap) in taps.iter().enumerate() {
            let s = cfg.pool_size(b);
            assert_eq!(tap.shape(), (cfg.block_channels[b], s, s), "block {b}");
        }
    }

    #[test]
    fn logits_have_configured_dim_and_are_finite() {
        let net = test_net();
        let l = net.logits(&textured_image(0.0));
        assert_eq!(l.len(), VggConfig::tiny().logits_dim);
        assert!(l.iter().all(|v| v.is_finite()));
        // not all dead
        assert!(l.iter().any(|&v| v.abs() > 1e-6));
    }

    #[test]
    fn network_is_deterministic() {
        let a = test_net().logits(&textured_image(0.0));
        let b = test_net().logits(&textured_image(0.0));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_networks() {
        let a = Vgg16::new(&VggConfig::tiny(), 1).logits(&textured_image(0.0));
        let b = Vgg16::new(&VggConfig::tiny(), 2).logits(&textured_image(0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn similar_images_have_closer_logits_than_dissimilar() {
        let net = test_net();
        let a = net.logits(&textured_image(0.0));
        let a2 = net.logits(&textured_image(1.0)); // slightly shifted disc
        let mut other = Image::filled(3, 32, 32, 0.4);
        draw::fill_stripes(&mut other, 0.8, 5.0, 0.5, &[0.2, 0.9, 0.3], 1.0);
        let b = net.logits(&other);
        let sim = |x: &[f32], y: &[f32]| goggles_tensor::cosine_similarity(x, y);
        assert!(
            sim(&a, &a2) > sim(&a, &b),
            "near pair {} should beat far pair {}",
            sim(&a, &a2),
            sim(&a, &b)
        );
    }

    #[test]
    fn grayscale_input_is_broadcast() {
        let net = test_net();
        let gray = Image::filled(1, 40, 40, 0.5); // also exercises resize
        let taps = net.forward_pool_taps(&gray);
        assert_eq!(taps[0].channels(), VggConfig::tiny().block_channels[0]);
    }

    #[test]
    fn activations_do_not_explode_or_vanish() {
        let net = test_net();
        let taps = net.forward_pool_taps(&textured_image(0.0));
        for (b, tap) in taps.iter().enumerate() {
            let mx = tap.as_slice().iter().copied().fold(0.0f32, f32::max);
            assert!(mx.is_finite() && mx < 1e4, "block {b} max {mx}");
            assert!(mx > 1e-6, "block {b} is dead (max {mx})");
        }
    }

    #[test]
    fn flattened_len_matches_tap5() {
        let cfg = VggConfig::tiny();
        let net = Vgg16::new(&cfg, 3);
        let taps = net.forward_pool_taps(&textured_image(0.0));
        assert_eq!(taps[4].as_slice().len(), cfg.flattened_len());
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_input_rejected() {
        let cfg = VggConfig { input_size: 48, ..VggConfig::tiny() };
        let _ = Vgg16::new(&cfg, 0);
    }

    #[test]
    fn logits_batch_stacks_rows() {
        let net = test_net();
        let imgs = vec![textured_image(0.0), textured_image(2.0)];
        let m = net.logits_batch(&imgs);
        assert_eq!(m.shape(), (2, VggConfig::tiny().logits_dim));
        assert_eq!(m.row(0), net.logits(&imgs[0]).as_slice());
    }
}
