//! Linear algebra needed by the GOGGLES inference stack:
//!
//! * the fused matmul + column-max kernel behind every affinity function
//!   (Equation 2 reduces `f_L^z` to a patch×prototype product followed by a
//!   max over patches — [`colmax_matmul_panel_f32`] is the serving hot
//!   path),
//! * cyclic Jacobi symmetric eigendecomposition (exact, for moderate sizes),
//! * Cholesky factorization + triangular solves + log-determinant
//!   (full-covariance GMM baseline),
//! * PCA (Snuba's primitive extraction projects VGG logits onto the top-10
//!   principal components, §5.1.2),
//! * orthogonal-iteration truncated eigenbasis (spectral co-clustering
//!   baseline needs leading singular vectors of a large rectangular matrix).

// goggles-lint: allow-file(index): register-tiled kernels index with loop bounds derived from
// the same dimensions that size the buffers; rewriting every access through `get` would obscure
// the tiling structure and defeat bounds-check elision in the hot loops.

use crate::matrix::Matrix;
use crate::rng;
use crate::{Result, TensorError};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide count of GEMM runs: one per non-empty
/// [`conv_bias_relu_f32`] or [`gemm_bias_relu_f32`] call. Two relaxed
/// adds per call — noise next to the `2·m·k·n` flops of any real
/// product — but enough for the observability layer to attribute embedding
/// throughput to the kernel.
static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);

/// Process-wide multiply-add flop count (`2·m·k·n` per GEMM call).
static GEMM_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Number of GEMM calls since process start.
pub fn gemm_call_count() -> u64 {
    GEMM_CALLS.load(Ordering::Relaxed)
}

/// Total `2·m·k·n` flops pushed through the GEMM kernel since process start.
pub fn gemm_flop_count() -> u64 {
    GEMM_FLOPS.load(Ordering::Relaxed)
}

/// The instruction sets the GEMM and colmax kernels have copies for,
/// narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Isa {
    Portable,
    Avx2,
    Avx512,
}

/// The widest kernel copy the running CPU supports, probed on the first
/// call. `Avx512` needs every feature the AVX-512 copies are compiled for:
/// `avx512f` and the features it implies (AVX2, FMA, F16C). No copy calls
/// `mul_add`, and Rust never contracts a multiply and an add, so the FMA
/// units stay unused and every copy rounds the same way.
fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::is_x86_feature_detected as has;
            if has!("avx512f") && has!("avx2") && has!("fma") && has!("f16c") {
                return Isa::Avx512;
            }
            if has!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    })
}

/// Independent accumulator lanes of each dot product on the wide colmax
/// path: channel `c` adds into lane `c mod 8`, and the per-lane sums are
/// combined in a fixed tree (`reduce_lanes`), so the result is
/// deterministic.
const DOT_LANES: usize = 8;

/// Prototypes per lane accumulator of the portable wide path: a quarter of
/// a panel block, so the `DOT_LANES` accumulators are eight 128-bit
/// registers of the SSE2 baseline.
const WIDE_NR: usize = 4;

/// Prototypes per lane accumulator of the AVX2 wide path: half a panel
/// block, so the `DOT_LANES` accumulators are eight 256-bit registers,
/// which leaves room for the broadcast patch value and the prototype load
/// of a channel step.
const WIDE_NR_AVX2: usize = 8;

/// Patches per register tile of the tall colmax path.
const TALL_MR: usize = 4;

/// Prototypes per block of the packed [`ColmaxPanel`], and columns per
/// register tile of the AVX2 and AVX-512 tall paths. In the AVX2 copy the
/// `TALL_MR × TALL_NB` accumulators are eight 256-bit registers, which
/// leaves room for the two prototype loads and the broadcast weight of a
/// channel step. In the AVX-512 copy a tile row is one 512-bit register,
/// and two patch tiles run per channel step, so the accumulators are again
/// eight registers and each prototype load feeds eight multiplies.
const TALL_NB: usize = 16;

/// Columns per register tile of the portable tall path: half a panel
/// block, so `TALL_MR × TALL_NR` accumulators are eight 128-bit registers
/// of the SSE2 baseline. A portable 4×16 tile would spill.
const TALL_NR: usize = 8;

/// Reusable workspace of [`colmax_matmul_panel_f32`]: the patch panel
/// re-packed tile-major for the tall path. Keep one per thread and it grows
/// once to the largest layer geometry, after which the kernel never
/// allocates.
#[derive(Debug, Default, Clone)]
pub struct ColmaxScratch {
    /// `ceil(m / TALL_MR) · TALL_MR × cols` copy of the patch panel: tile
    /// `t` holds patches `[t·MR, (t+1)·MR)` interleaved as `[c][mr]`, the
    /// rows past `m` repeating patch `m − 1`.
    a_pack: Vec<f32>,
}

/// Fused `A·Bᵀ` + column max over the rows of `A`:
/// `out[j] = max_i Σ_c a[i·cols + c] · b[j·cols + c]`, with `a` an `m×cols`
/// row-major panel (a patch table) and `b` a `(out.len())×cols` row-major
/// table (stacked prototypes). When `m == 0` every output is
/// `f32::NEG_INFINITY` (the max of an empty set).
///
/// A one-off call: it builds a [`ColmaxPanel`] and runs
/// [`colmax_matmul_panel_f32`]. Callers that query one table repeatedly
/// should build the panel once.
///
/// # Panics
/// Panics if `cols == 0`, `a.len()` is not a multiple of `cols`, or
/// `b.len() != out.len() * cols`.
pub fn colmax_matmul_f32(a: &[f32], b: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(
        b.len(),
        out.len() * cols,
        "colmax_matmul_f32: b.len() {} != out.len() {} * cols {cols}",
        b.len(),
        out.len()
    );
    let panel = ColmaxPanel::new(b, cols);
    colmax_matmul_panel_f32(&mut ColmaxScratch::default(), a, b, &panel, 0, out);
}

/// A prototype table packed once and cached **across requests**, in the
/// block-major layout both paths of [`colmax_matmul_panel_f32`] read: the
/// kernel takes every prototype value from the panel.
///
/// The table is cut into blocks of `TALL_NB` (16) consecutive prototypes.
/// Each block is stored as `cols × 16` contiguous floats, channel-major:
/// one channel of all 16 prototypes is one 64-byte row, so a register tile
/// reads every channel step as one contiguous load, and the panel is walked
/// strictly forward. The last block is zero-padded past `rows`; the kernel
/// discards those outputs. The prototype table of a frozen bank never
/// changes between requests, so the per-request hot path neither packs nor
/// allocates on the prototype side.
#[derive(Debug, Clone, PartialEq)]
pub struct ColmaxPanel {
    /// `ceil(rows / 16)` blocks of `cols × 16`:
    /// `packed[(j / 16)·cols·16 + c·16 + j % 16] = b[j·cols + c]`, zero for
    /// `j ≥ rows`.
    packed: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl ColmaxPanel {
    /// Pack a row-major `b` (`rows × cols`, with `rows` inferred from the
    /// slice length) into the cached block-major layout.
    ///
    /// # Panics
    /// Panics if `cols == 0` or `b.len()` is not a multiple of `cols`.
    pub fn new(b: &[f32], cols: usize) -> Self {
        assert!(cols > 0, "ColmaxPanel::new: cols must be ≥ 1");
        assert_eq!(b.len() % cols, 0, "ColmaxPanel::new: b.len() not a multiple of cols");
        let rows = b.len() / cols;
        let mut packed = vec![0.0f32; rows.div_ceil(TALL_NB) * cols * TALL_NB];
        for (block, protos) in packed.chunks_exact_mut(cols * TALL_NB).zip(b.chunks(cols * TALL_NB))
        {
            for (jj, row) in protos.chunks_exact(cols).enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    block[c * TALL_NB + jj] = v;
                }
            }
        }
        Self { packed, rows, cols }
    }

    /// Prototype rows in the cached table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Channels per prototype row.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Fused matmul + column max over rows `[lo, lo + out.len())` of a
/// prototype table packed in `panel`:
/// `out[jj] = max_i Σ_c a[i·cols + c] · b[(lo + jj)·cols + c]` — Equation 2
/// of the paper vectorized over all prototypes at once, the affinity hot
/// path. `b` is the same row-major table the panel was built from; both
/// paths read the prototypes from the panel only, and `b` is only checked
/// against the panel's geometry. When `m == 0` every output is
/// `f32::NEG_INFINITY` (the max of an empty set).
///
/// Two code paths, picked by panel shape:
///
/// * **Tall panels** (`m ≥ 2·cols`, the shallow backbone layers: hundreds
///   of patches, few channels): a register-tiled micro-kernel over the
///   panel's 16-prototype blocks. A `TALL_MR × 16` (patch × prototype)
///   accumulator tile stays in registers across the channel loop, which
///   walks the packed patches and the block in lockstep as fixed-size
///   arrays, so nothing in it is bounds-checked. The tile's four patch sums
///   per prototype are reduced by a tree max and folded into 16 running
///   maxima that stay in registers across all patches. Each sum runs `c`
///   ascending from the first product (not from `0.0`). A request whose
///   rows do not start or end on a block boundary computes the covering
///   blocks and stores only the requested outputs.
/// * **Wide panels** (the deep layers: few patches, hundreds of channels):
///   one patch of the row-major `a` at a time against a run of prototypes
///   of a panel block, with the lanes across prototypes. `DOT_LANES`
///   accumulators, one per `c mod 8`, each as wide as the run, start at
///   `0.0` and take `c` ascending; the channels past the last multiple of
///   8 sum into a tail from `0.0`. The lanes and the tail are then reduced
///   by a fixed tree, seven vertical adds and one more for the tail per
///   run, and each patch folds into the running maxima in ascending order.
///
/// **ISA dispatch.** The tall path is compiled three times and the wide
/// path twice; a probe run once per process picks the widest copy the CPU
/// supports. The tall path runs each block portable as two 4×8 halves,
/// under AVX2 as one 4×16 tile, and under AVX-512 as one 4×16 tile per
/// 512-bit row with two patch tiles per channel step, each folded into the
/// maxima in patch order. The wide path runs a block as four 4-prototype
/// quarters portable and as two 8-prototype halves under AVX2, also on
/// AVX-512 CPUs: compiled for AVX-512 at 16 prototypes per lane
/// accumulator, it ran at 3.2 GFLOP/s, about 9× slower. No copy
/// contracts a multiply-add, and tile shape does not change any output's
/// summation or max order, so the copies are bit-identical.
///
/// **Bit-exact maxima.** Patches reach each running maximum in ascending
/// order, and a later patch replaces it only when strictly greater: ties
/// (such as `+0.0` against `-0.0`) keep the earlier patch, and a NaN sum
/// never replaces it. The tall path's tree max keeps that rule, so every
/// output equals the sequential fold over patches bit for bit.
///
/// Deterministic and shard-stable: `out[jj]` depends only on prototype
/// `lo + jj` and on `a` (never on tile alignment), so computing a sub-range
/// of rows is bit-identical to slicing the full result.
///
/// # Panics
/// Panics if `b` disagrees with the panel geometry, `a.len()` is not a
/// multiple of the panel's `cols`, or the requested row range
/// `[lo, lo + out.len())` exceeds the table.
pub fn colmax_matmul_panel_f32(
    scratch: &mut ColmaxScratch,
    a: &[f32],
    b: &[f32],
    panel: &ColmaxPanel,
    lo: usize,
    out: &mut [f32],
) {
    let cols = panel.cols;
    assert_eq!(
        b.len(),
        panel.rows * cols,
        "colmax_matmul_panel_f32: b.len() {} != panel {}×{cols}",
        b.len(),
        panel.rows
    );
    assert_eq!(
        a.len() % cols,
        0,
        "colmax_matmul_panel_f32: a.len() {} not a multiple of cols {cols}",
        a.len()
    );
    assert!(
        lo + out.len() <= panel.rows,
        "colmax_matmul_panel_f32: rows [{lo}, {}) exceed the {}-row panel",
        lo + out.len(),
        panel.rows
    );
    out.fill(f32::NEG_INFINITY);
    if a.is_empty() || out.is_empty() {
        return;
    }
    let tall = a.len() / cols >= 2 * cols;
    let a_pack: &[f32] = if tall { pack_patches(&mut scratch.a_pack, a, cols) } else { &[] };
    match (isa(), tall) {
        // SAFETY: `isa()` returns `Avx512` only when the running CPU has
        // every feature the callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, true) => unsafe { colmax_tall_avx512(a_pack, panel, lo, out) },
        // SAFETY: `isa()` returns `Avx2` only when the running CPU has AVX2.
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => unsafe { colmax_tall_avx2(a_pack, panel, lo, out) },
        // SAFETY: `isa()` returns `Avx2` or `Avx512` only when the running
        // CPU has AVX2.
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2 | Isa::Avx512, false) => unsafe { colmax_wide_avx2(a, panel, lo, out) },
        (_, true) => colmax_tall_portable(a_pack, panel, lo, out),
        (_, false) => colmax_wide_portable(a, panel, lo, out),
    }
}

/// Re-pack the non-empty `m × cols` patch panel `a` tile-major into `pack`
/// (layout of [`ColmaxScratch::a_pack`]) and return the packed prefix. The
/// last tile repeats patch `m − 1` in its spare rows: a repeated patch
/// cannot change a running max, so every tile runs full.
fn pack_patches<'p>(pack: &'p mut Vec<f32>, a: &[f32], cols: usize) -> &'p [f32] {
    let m = a.len() / cols;
    let len = m.div_ceil(TALL_MR) * TALL_MR * cols;
    if pack.len() < len {
        pack.resize(len, 0.0);
    }
    let pack = &mut pack[..len];
    for (t, tile) in pack.chunks_exact_mut(TALL_MR * cols).enumerate() {
        for mr in 0..TALL_MR {
            let row = (t * TALL_MR + mr).min(m - 1);
            for (c, &v) in a[row * cols..(row + 1) * cols].iter().enumerate() {
                tile[c * TALL_MR + mr] = v;
            }
        }
    }
    pack
}

/// Tall path, portable copy: each panel block runs as two 4×8 halves.
fn colmax_tall_portable(a_pack: &[f32], panel: &ColmaxPanel, lo: usize, out: &mut [f32]) {
    let tiles = a_pack.as_chunks::<TALL_MR>().0;
    colmax_blocks(panel, lo, out, |block| {
        let left = block_half_max::<TALL_NR, 0>(tiles, block);
        let right = block_half_max::<TALL_NR, TALL_NR>(tiles, block);
        std::array::from_fn(|j| if j < TALL_NR { left[j] } else { right[j - TALL_NR] })
    });
}

/// Tall path compiled with AVX2 enabled: each panel block runs as one 4×16
/// tile, every accumulator row two 256-bit registers. FMA stays off, so
/// every multiply and add rounds exactly as in the portable copy.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers check `isa()` first; the body is safe code.
unsafe fn colmax_tall_avx2(a_pack: &[f32], panel: &ColmaxPanel, lo: usize, out: &mut [f32]) {
    let tiles = a_pack.as_chunks::<TALL_MR>().0;
    colmax_blocks(panel, lo, out, |block| block_half_max::<TALL_NB, 0>(tiles, block));
}

/// Tall path compiled with AVX-512 enabled: each panel block runs as one
/// 4×16 tile, every accumulator row one 512-bit register, two patch tiles
/// per channel step ([`block_pair_max`]). No multiply-add is fused, so
/// every multiply and add rounds exactly as in the portable copy.
///
/// # Safety
/// The running CPU must support AVX-512F and the features it implies.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: callers check `isa()` first; the body is safe code.
unsafe fn colmax_tall_avx512(a_pack: &[f32], panel: &ColmaxPanel, lo: usize, out: &mut [f32]) {
    let tiles = a_pack.as_chunks::<TALL_MR>().0;
    colmax_blocks(panel, lo, out, |block| block_pair_max(tiles, block));
}

/// Wide path, portable copy: each panel block runs as four 4-prototype
/// quarters.
fn colmax_wide_portable(a: &[f32], panel: &ColmaxPanel, lo: usize, out: &mut [f32]) {
    colmax_blocks(panel, lo, out, |block| {
        let q = [
            wide_run_max::<WIDE_NR, 0>(a, block),
            wide_run_max::<WIDE_NR, WIDE_NR>(a, block),
            wide_run_max::<WIDE_NR, { 2 * WIDE_NR }>(a, block),
            wide_run_max::<WIDE_NR, { 3 * WIDE_NR }>(a, block),
        ];
        std::array::from_fn(|j| q[j / WIDE_NR][j % WIDE_NR])
    });
}

/// Wide path compiled with AVX2 enabled: each panel block runs as two
/// 8-prototype halves, every lane accumulator one 256-bit register. FMA
/// stays off, so every multiply and add rounds exactly as in the portable
/// copy.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers check `isa()` first; the body is safe code.
unsafe fn colmax_wide_avx2(a: &[f32], panel: &ColmaxPanel, lo: usize, out: &mut [f32]) {
    colmax_blocks(panel, lo, out, |block| {
        let left = wide_run_max::<WIDE_NR_AVX2, 0>(a, block);
        let right = wide_run_max::<WIDE_NR_AVX2, WIDE_NR_AVX2>(a, block);
        std::array::from_fn(|j| if j < WIDE_NR_AVX2 { left[j] } else { right[j - WIDE_NR_AVX2] })
    });
}

/// The block loop of both paths, inlined into each ISA's copy: for each
/// panel block that overlaps rows `[lo, lo + out.len())`, take the 16
/// maxima from `block_max` and store the requested ones. `block_max` gets
/// the block as `[c][jj]` arrays.
#[inline(always)]
fn colmax_blocks(
    panel: &ColmaxPanel,
    lo: usize,
    out: &mut [f32],
    block_max: impl Fn(&[[f32; TALL_NB]]) -> [f32; TALL_NB],
) {
    let cols = panel.cols;
    let hi = lo + out.len();
    let blocks = panel.packed.as_chunks::<TALL_NB>().0.chunks_exact(cols);
    for (k, block) in blocks.enumerate().take(hi.div_ceil(TALL_NB)).skip(lo / TALL_NB) {
        let best = block_max(block);
        let (j0, j1) = ((k * TALL_NB).max(lo), ((k + 1) * TALL_NB).min(hi));
        out[j0 - lo..j1 - lo].copy_from_slice(&best[j0 - k * TALL_NB..j1 - k * TALL_NB]);
    }
}

/// Maxima over all patches for prototypes `[OFF, OFF + NR)` of one panel
/// block: walk the packed patch tiles in order, sum each `TALL_MR × NR`
/// tile in [`tall_tile`], and fold it into `NR` running maxima with
/// [`fold_tile`].
#[inline(always)]
fn block_half_max<const NR: usize, const OFF: usize>(
    tiles: &[[f32; TALL_MR]],
    block: &[[f32; TALL_NB]],
) -> [f32; NR] {
    let mut best = [f32::NEG_INFINITY; NR];
    for tile in tiles.chunks_exact(block.len()) {
        fold_tile(&mut best, &tall_tile::<NR, OFF>(tile, block));
    }
    best
}

/// Maxima over all patches for the 16 prototypes of one panel block, two
/// patch tiles per channel step: [`tall_tile_pair`] sums both tiles, which
/// fold into the running maxima one after the other with [`fold_tile`], so
/// patches reach them in the order [`block_half_max`] feeds them. An odd
/// last tile runs alone in [`tall_tile`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn block_pair_max(tiles: &[[f32; TALL_MR]], block: &[[f32; TALL_NB]]) -> [f32; TALL_NB] {
    let mut best = [f32::NEG_INFINITY; TALL_NB];
    let mut pairs = tiles.chunks_exact(2 * block.len());
    for pair in &mut pairs {
        let [first, second] = tall_tile_pair(pair.split_at(block.len()), block);
        fold_tile(&mut best, &first);
        fold_tile(&mut best, &second);
    }
    let last = pairs.remainder();
    if !last.is_empty() {
        fold_tile(&mut best, &tall_tile::<TALL_NB, 0>(last, block));
    }
    best
}

/// [`tall_tile`] over the whole block for two patch tiles at once: both
/// tiles' `TALL_MR × 16` sums, each over `c` ascending from the first
/// product, with one prototype load per channel step shared by the two.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn tall_tile_pair(
    (t0, t1): (&[[f32; TALL_MR]], &[[f32; TALL_MR]]),
    block: &[[f32; TALL_NB]],
) -> [[[f32; TALL_NB]; TALL_MR]; 2] {
    let b0 = &block[0];
    // `array::from_fn`, not `b0.map`: the map became an out-of-line call
    // outside the AVX-512 copy, and pool1 ran 3× slower.
    let first =
        |w: &[f32; TALL_MR]| std::array::from_fn(|mr| std::array::from_fn(|jj| w[mr] * b0[jj]));
    let mut acc = [first(&t0[0]), first(&t1[0])];
    for ((w0, w1), bc) in t0[1..].iter().zip(&t1[1..]).zip(&block[1..]) {
        for mr in 0..TALL_MR {
            for jj in 0..TALL_NB {
                acc[0][mr][jj] += w0[mr] * bc[jj];
                acc[1][mr][jj] += w1[mr] * bc[jj];
            }
        }
    }
    acc
}

/// The `TALL_MR × NR` sums of one patch tile against prototypes
/// `[OFF, OFF + NR)` of a block, each over `c` ascending from the first
/// product. Patches and block are walked in lockstep as fixed-size arrays,
/// so every index is a constant and nothing is bounds-checked. The
/// accumulators are returned by value, which keeps them in registers for
/// the whole channel loop.
#[inline(always)]
fn tall_tile<const NR: usize, const OFF: usize>(
    tile: &[[f32; TALL_MR]],
    block: &[[f32; TALL_NB]],
) -> [[f32; NR]; TALL_MR] {
    let (w0, b0) = (&tile[0], &block[0]);
    let mut acc: [[f32; NR]; TALL_MR] = std::array::from_fn(|mr| {
        let w = w0[mr];
        std::array::from_fn(|jj| w * b0[OFF + jj])
    });
    for (w, bc) in tile[1..].iter().zip(&block[1..]) {
        for mr in 0..TALL_MR {
            for jj in 0..NR {
                acc[mr][jj] += w[mr] * bc[OFF + jj];
            }
        }
    }
    acc
}

/// Fold one tile's `TALL_MR` patch sums per prototype into the running
/// maxima as a tree: `max(max(s0, s1), max(s2, s3))`, then `best`, where
/// each step keeps its left (earlier) operand unless the right one is
/// strictly greater. The result is the sequential fold
/// `best = if s > best { s } else { best }` over `s0..s3` bit for bit —
/// ties between `+0.0` and `-0.0` keep the earlier patch, and a NaN sum never
/// wins — while `best` waits on one step per tile instead of four.
#[inline(always)]
fn fold_tile<const NR: usize>(best: &mut [f32; NR], acc: &[[f32; NR]; TALL_MR]) {
    for (jj, bv) in best.iter_mut().enumerate() {
        // A NaN on the left of a step would win it. As -∞ it wins nothing,
        // as in the sequential fold; a NaN on the right already loses, so
        // neither m01 nor m23 can be NaN.
        let m01 = max_left(nan_to_neg_inf(acc[0][jj]), acc[1][jj]);
        let m23 = max_left(nan_to_neg_inf(acc[2][jj]), acc[3][jj]);
        *bv = max_left(*bv, max_left(m01, m23));
    }
}

/// The earlier of two maxima: `right` only if it is strictly greater.
#[inline(always)]
fn max_left(left: f32, right: f32) -> f32 {
    if right > left {
        right
    } else {
        left
    }
}

/// `x`, or `-∞` if `x` is NaN.
#[inline(always)]
fn nan_to_neg_inf(x: f32) -> f32 {
    max_left(f32::NEG_INFINITY, x)
}

/// Maxima over all patches of the row-major `a` (`m × cols`) for
/// prototypes `[OFF, OFF + NR)` of one panel block. Each patch's `NR` sums
/// keep the order of a lone multi-lane dot product: the `DOT_LANES` lane
/// sums of [`lane_sums`] over the bulk, a tail over the last `cols mod 8`
/// channels from `0.0`, then [`reduce_lanes`]' tree, run vertically across
/// the `NR` prototypes. Patches fold into the running maxima in ascending
/// order with [`max_left`].
#[inline(always)]
fn wide_run_max<const NR: usize, const OFF: usize>(
    a: &[f32],
    block: &[[f32; TALL_NB]],
) -> [f32; NR] {
    let (bulk, tail_block) = block.as_chunks::<DOT_LANES>();
    let mut best = [f32::NEG_INFINITY; NR];
    for patch in a.chunks_exact(block.len()) {
        let (x, tail_x) = patch.as_chunks::<DOT_LANES>();
        let acc = lane_sums::<NR, OFF>(x, bulk);
        let mut tail = [0.0f32; NR];
        for (&xv, bc) in tail_x.iter().zip(tail_block) {
            for jj in 0..NR {
                tail[jj] += xv * bc[OFF + jj];
            }
        }
        for jj in 0..NR {
            let lanes: [f32; DOT_LANES] = std::array::from_fn(|l| acc[l][jj]);
            best[jj] = max_left(best[jj], reduce_lanes(&lanes, tail[jj]));
        }
    }
    best
}

/// The lane sums of one patch against prototypes `[OFF, OFF + NR)` of a
/// block: lane `l` of prototype `jj` sums `x[k][l] · b[k][l][OFF + jj]`
/// over the chunks `k` ascending, from `0.0`. The `DOT_LANES` accumulators
/// are independent add chains. Each step builds the next accumulators by
/// value from the previous ones: written as an in-place nested loop, LLVM
/// kept them in memory and the loop ran several times slower.
#[inline(always)]
fn lane_sums<const NR: usize, const OFF: usize>(
    x: &[[f32; DOT_LANES]],
    b: &[[[f32; TALL_NB]; DOT_LANES]],
) -> [[f32; NR]; DOT_LANES] {
    let mut acc = [[0.0f32; NR]; DOT_LANES];
    for (x, b) in x.iter().zip(b) {
        acc = std::array::from_fn(|l| std::array::from_fn(|jj| acc[l][jj] + x[l] * b[l][OFF + jj]));
    }
    acc
}

/// The fixed reduction tree of a multi-lane dot product: pairwise over the
/// lanes, then the scalar tail.
#[inline(always)]
fn reduce_lanes(acc: &[f32; DOT_LANES], tail: f32) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Output rows per register tile of the GEMM (the `MR` of a classic
/// BLIS-style micro-kernel).
const GEMM_MR: usize = 4;

/// Output columns per register tile of the portable GEMM copy. `GEMM_MR ×
/// GEMM_NB` f32 accumulators live in registers across the whole `k` loop:
/// 4×8 = 32 lanes is eight 128-bit accumulators, which leaves the 16 SSE
/// registers of the baseline x86-64 target room for the broadcast and load
/// operands. A portable 4×16 tile spills: over the nine distinct layer
/// geometries of the default backbone it ran at 0.89× the speed of 4×8.
const GEMM_NB: usize = 8;

/// Output columns per register tile of the AVX2 GEMM copy: 4×16 = 64 lanes
/// is eight 256-bit accumulators, the register budget of the portable tile
/// at twice the width. On the same geometries it ran 1.9× faster than the
/// portable 4×8 tile and 1.2× faster than an AVX2 4×8 tile; a 4×24 tile
/// spills and ran at 0.41×. The AVX-512 copy runs the columns past the last
/// multiple of [`GEMM_NB_AVX512`] at this width, each accumulator row one
/// 512-bit register.
#[cfg(target_arch = "x86_64")]
const GEMM_NB_AVX2: usize = 16;

/// Output columns per register tile of the AVX-512 GEMM copy: 4×32 = 128
/// lanes is eight 512-bit accumulators, the register budget of the other
/// tiles at twice the AVX2 width. It takes only whole 32-column tiles: a
/// partial 4×32 tile keeps its accumulators in memory, and on the `n = 16`
/// conv5 layers it ran about 10× slower than a 16-column tile.
#[cfg(target_arch = "x86_64")]
const GEMM_NB_AVX512: usize = 32;

/// Reusable workspace of [`gemm_bias_relu_f32`]: the `A` panel re-packed so
/// each register tile reads its `GEMM_MR` operands contiguously. Keep one
/// per thread; it grows once to the largest geometry, after which the
/// kernel never allocates.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    /// `ceil(m / GEMM_MR) · GEMM_MR × k` packed copy of `a`, tile-major:
    /// block `i` holds rows `[i·MR, (i+1)·MR)` interleaved as `[kk][mr]`
    /// (tail rows zero-filled).
    a_pack: Vec<f32>,
}

/// Blocked row-major single-precision GEMM with a fused epilogue:
/// `out = relu?(a·b + bias)` with `a: m×k`, `b: k×n`, `out: m×n`, all
/// row-major, where `bias` (length `m`) is broadcast along each output row
/// and `relu` clamps negatives to zero in the same pass.
///
/// With [`im2col_3x3`] this is the **oracle and replay pair** of the
/// backbone's convolutions, not their production path: a same-padded 3×3
/// convolution is exactly this product with `a` the `[out_c][in_c·9]`
/// weight table and `b` the im2col patch panel, and
/// [`conv_bias_relu_f32`] computes it bit for bit without building the
/// panel or re-packing the weights. Tests compare the conv against this
/// pair, and the benchmark replays it per layer. Both run one tile loop:
///
/// * **Panel packing** — `a` is re-packed on every call into
///   [`GemmScratch`] so the micro-kernel's `GEMM_MR` row operands sit
///   contiguously (`[kk][mr]` order), turning the strided weight reads
///   into sequential loads. `b` is read in place.
/// * **Register tiling** — for each column tile of `b`, every `GEMM_MR`-row
///   block of `a` computes its output tile with all accumulators in
///   registers; each accumulator sums its `k` terms in ascending-`kk` order
///   from `0.0`, so the result is bit-deterministic (same inputs ⇒ same
///   bits, any call pattern).
/// * **ISA dispatch** — the tile loop is compiled three times: portable
///   with 4×8 tiles, for AVX2 with 4×16 tiles, and for AVX-512 with 4×32
///   tiles over the columns up to the last multiple of 32 and 4×16 tiles
///   (one 512-bit register per row) past it, so the `n = 16` conv5 layers
///   run 16-column tiles. A probe run once per process picks the widest
///   copy the CPU supports. No copy contracts a multiply-add, and neither
///   tile width nor loop order changes any output's summation order, so
///   the copies are bit-identical.
///
/// # Panics
/// Panics if `a.len() != m·k`, `b.len() != k·n`, `out.len() != m·n`, or
/// `bias.len() != m`.
// A GEMM-with-epilogue signature is inherently wide: three panels, three
// dimensions, and the epilogue operands.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_relu_f32(
    scratch: &mut GemmScratch,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_bias_relu_f32: a.len() != m*k");
    assert_eq!(b.len(), k * n, "gemm_bias_relu_f32: b.len() != k*n");
    assert_eq!(out.len(), m * n, "gemm_bias_relu_f32: out.len() != m*n");
    assert_eq!(bias.len(), m, "gemm_bias_relu_f32: bias.len() != m");
    let a_pack = pack_rows(&mut scratch.a_pack, a, m, k);
    let gemm = Gemm { a_pack, b: BTiles::Panel(b), m, k, n, bias, relu };
    // A panel `b` is read in place, so the tile buffer stays empty.
    gemm_run(&gemm, &mut Vec::new(), out);
}

/// The frozen weights and bias of a stride-1, same-padded 1×1 or 3×3
/// convolution, packed once for [`conv_bias_relu_f32`]: the
/// `[out_c][in_c][ky][kx]` weight table is stored in the tile-major layout
/// the GEMM tile loop reads, so no call packs it again.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConv {
    /// `ceil(out_c / GEMM_MR)` blocks of `GEMM_MR × in_c·kernel²`, in the
    /// layout of [`GemmScratch::a_pack`].
    packed: Vec<f32>,
    /// One value per output channel.
    bias: Vec<f32>,
    in_channels: usize,
    kernel: usize,
}

impl PackedConv {
    /// Pack a row-major `[out_c][in_c][kernel][kernel]` weight table, with
    /// `out_c = bias.len()`.
    ///
    /// # Panics
    /// Panics if `kernel` is not 1 or 3, or if
    /// `weight.len() != bias.len() · in_channels · kernel²`.
    pub fn new(weight: &[f32], bias: &[f32], in_channels: usize, kernel: usize) -> Self {
        assert!(kernel == 1 || kernel == 3, "PackedConv::new: kernel {kernel} is not 1 or 3");
        let (m, k) = (bias.len(), in_channels * kernel * kernel);
        assert_eq!(weight.len(), m * k, "PackedConv::new: weight.len() != out_c·in_c·kernel²");
        let mut packed = Vec::new();
        pack_rows(&mut packed, weight, m, k);
        Self { packed, bias: bias.to_vec(), in_channels, kernel }
    }

    /// The row-major `[out_c][in_c][kernel][kernel]` weight table, unpacked
    /// into a new vector: the inverse of [`PackedConv::new`].
    pub fn weights(&self) -> Vec<f32> {
        let k = self.in_channels * self.kernel * self.kernel;
        (0..self.bias.len() * k)
            .map(|i| {
                let (row, kk) = (i / k, i % k);
                self.packed[(row / GEMM_MR * k + kk) * GEMM_MR + row % GEMM_MR]
            })
            .collect()
    }

    /// The bias, one value per output channel.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }
}

/// A stride-1, same-padded 1×1 or 3×3 convolution with the bias and, when
/// `relu` is set, the ReLU fused into the output write: the production
/// conv path of the backbone. `input` is an `in_c × height × width`
/// channel-major map; `out` (`out_c × height × width`) is fully
/// overwritten.
///
/// It is the product `weights · panel` of [`gemm_bias_relu_f32`], where
/// `panel` is the input itself for a 1×1 kernel and the [`im2col_3x3`]
/// patch panel for a 3×3 kernel, run by the same tile loop against the
/// weights [`PackedConv`] packed once. The 3×3 panel is never built: the
/// loop walks the output positions in its column tiles, packs each tile's
/// `in_c·9 × NB` slice of the panel straight from the input planes into
/// `tile`, and runs every 4-row block of the packed weights over it while
/// it is in cache. `tile` grows to the largest layer's `in_c·9 · NB` floats
/// and is then reused; no value in it is read before the call writes it.
///
/// Bit-identical to [`im2col_3x3`] + [`gemm_bias_relu_f32`] with the same
/// weights, in every ISA copy: a packed tile holds exactly the panel's
/// values, padding zeros included, every output sums the same unfused
/// products in ascending `kk` order from `0.0` and goes through the same
/// epilogue, and tile width and loop order change no output's summation
/// order. Counts as one GEMM call of `2·out_c·in_c·kernel²·height·width`
/// flops.
///
/// # Panics
/// Panics if `input.len() != in_c·height·width` or
/// `out.len() != out_c·height·width`.
pub fn conv_bias_relu_f32(
    tile: &mut Vec<f32>,
    conv: &PackedConv,
    input: &[f32],
    height: usize,
    width: usize,
    relu: bool,
    out: &mut [f32],
) {
    let (m, n) = (conv.bias.len(), height * width);
    assert_eq!(input.len(), conv.in_channels * n, "conv_bias_relu_f32: input shape mismatch");
    assert_eq!(out.len(), m * n, "conv_bias_relu_f32: output shape mismatch");
    let b = match conv.kernel {
        1 => BTiles::Panel(input),
        _ => BTiles::Patches(PatchMap { input, height, width }),
    };
    let k = conv.in_channels * conv.kernel * conv.kernel;
    let gemm = Gemm { a_pack: &conv.packed, b, m, k, n, bias: &conv.bias, relu };
    gemm_run(&gemm, tile, out);
}

/// One product of the GEMM tile loop: `out = relu?(A·B + bias)`, with `A`
/// (`m × k`) packed by [`pack_rows`] and `B` (`k × n`) delivered one column
/// tile at a time by `b`.
struct Gemm<'a> {
    a_pack: &'a [f32],
    b: BTiles<'a>,
    m: usize,
    k: usize,
    n: usize,
    bias: &'a [f32],
    relu: bool,
}

/// Where the tile loop reads a column tile's `k` rows of `B`.
#[derive(Clone, Copy)]
enum BTiles<'a> {
    /// A row-major `k × n` panel, read in place.
    Panel(&'a [f32]),
    /// The patch panel of a `(k / 9)`-channel map with `n = height · width`
    /// positions: each column tile is packed from the planes by
    /// [`pack_patch_tile`].
    Patches(PatchMap<'a>),
}

/// A `C × height × width` channel-major map whose same-padded 3×3 patch
/// panel ([`im2col_3x3`]) is `B`, packed one column tile at a time.
#[derive(Clone, Copy)]
struct PatchMap<'a> {
    input: &'a [f32],
    height: usize,
    width: usize,
}

/// Count the product, then run it through the widest tile-loop copy the
/// CPU supports. `tile` is the packing buffer of [`BTiles::Patches`].
fn gemm_run(gemm: &Gemm<'_>, tile: &mut Vec<f32>, out: &mut [f32]) {
    let (m, k, n) = (gemm.m, gemm.k, gemm.n);
    if m == 0 || n == 0 {
        return;
    }
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
    GEMM_FLOPS.fetch_add(2 * (m as u64) * (k as u64) * (n as u64), Ordering::Relaxed);
    match isa() {
        // SAFETY: `isa()` returns `Avx512` only when the running CPU has
        // every feature the callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { gemm_tiles_avx512(gemm, tile, out) },
        // SAFETY: `isa()` returns `Avx2` only when the running CPU has AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { gemm_tiles_avx2(gemm, tile, out) },
        _ => gemm_tiles::<GEMM_NB>(gemm, 0..n, tile, out),
    }
}

/// Re-pack the `m × k` row-major `a` tile-major into `pack` (layout of
/// [`GemmScratch::a_pack`]) and return the packed prefix: block `i`,
/// `[kk * GEMM_MR + mr] = a[(i·MR + mr)·k + kk]`, rows past `m` zero.
fn pack_rows<'p>(pack: &'p mut Vec<f32>, a: &[f32], m: usize, k: usize) -> &'p [f32] {
    let m_blocks = m.div_ceil(GEMM_MR);
    let len = m_blocks * GEMM_MR * k;
    if pack.len() < len {
        pack.resize(len, 0.0);
    }
    let pack = &mut pack[..len];
    for i in 0..m_blocks {
        let block = &mut pack[i * GEMM_MR * k..(i + 1) * GEMM_MR * k];
        for mr in 0..GEMM_MR {
            let row = i * GEMM_MR + mr;
            if row < m {
                for (kk, &v) in a[row * k..(row + 1) * k].iter().enumerate() {
                    block[kk * GEMM_MR + mr] = v;
                }
            } else {
                for kk in 0..k {
                    block[kk * GEMM_MR + mr] = 0.0;
                }
            }
        }
    }
    pack
}

/// [`gemm_tiles`] compiled with AVX2 enabled at 4×16 tiles: each
/// accumulator row of the tile becomes two 256-bit registers. No
/// multiply-add is fused, so every multiply and add rounds exactly as in
/// the portable copy.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers check `isa()` first; the body is safe code.
unsafe fn gemm_tiles_avx2(gemm: &Gemm<'_>, tile: &mut Vec<f32>, out: &mut [f32]) {
    gemm_tiles::<GEMM_NB_AVX2>(gemm, 0..gemm.n, tile, out);
}

/// [`gemm_tiles`] compiled with AVX-512 enabled: 4×32 tiles over the
/// columns up to the last multiple of 32, each accumulator row two 512-bit
/// registers, then 4×16 tiles, one register per row, over the rest. No
/// multiply-add is fused, so every multiply and add rounds exactly as in
/// the portable copy.
///
/// # Safety
/// The running CPU must support AVX-512F and the features it implies.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: callers check `isa()` first; the body is safe code.
unsafe fn gemm_tiles_avx512(gemm: &Gemm<'_>, tile: &mut Vec<f32>, out: &mut [f32]) {
    let whole = gemm.n - gemm.n % GEMM_NB_AVX512;
    gemm_tiles::<GEMM_NB_AVX512>(gemm, 0..whole, tile, out);
    gemm_tiles::<GEMM_NB_AVX2>(gemm, whole..gemm.n, tile, out);
}

/// Register-tiled GEMM over a packed `A`, inlined into each ISA's copy
/// (called directly at `NB = GEMM_NB`, it is the portable copy): for each
/// `NB`-column tile of output columns `cols` (a sub-range of `0..n`), take
/// the tile's rows of `B` (in place, or packed into `tile`), then for each
/// `GEMM_MR`-row block sum the output tile in [`gemm_tile`] and apply the
/// bias + ReLU epilogue as it is stored.
#[inline(always)]
fn gemm_tiles<const NB: usize>(
    gemm: &Gemm<'_>,
    cols: Range<usize>,
    tile: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (m, k, n) = (gemm.m, gemm.k, gemm.n);
    let mut j0 = cols.start;
    while j0 < cols.end {
        let nb = NB.min(cols.end - j0);
        // `b` holds the tile's `k` rows at stride `stride`, the tile's
        // first column at offset `off` of each.
        let (b, stride, off) = match gemm.b {
            BTiles::Panel(b) => (b, n, j0),
            BTiles::Patches(map) => (pack_patch_tile::<NB>(tile, map, j0, nb), nb, 0),
        };
        for i in 0..m.div_ceil(GEMM_MR) {
            let block = &gemm.a_pack[i * GEMM_MR * k..(i + 1) * GEMM_MR * k];
            let acc = gemm_tile::<NB>(block, b, stride, off, nb);
            for (mr, acc) in acc.iter().enumerate().take(m - i * GEMM_MR) {
                let row = i * GEMM_MR + mr;
                let add = gemm.bias[row];
                let dst = &mut out[row * n + j0..row * n + j0 + nb];
                for (d, &v) in dst.iter_mut().zip(&acc[..nb]) {
                    let y = v + add;
                    *d = if gemm.relu && y < 0.0 { 0.0 } else { y };
                }
            }
        }
        j0 += nb;
    }
}

/// Pack columns `[j0, j0 + nb)` (`nb ≤ NB`) of the same-padded 3×3 patch
/// panel of `map` into `tile` and return the packed prefix:
/// `tile[r·nb + jj] = panel[r][j0 + jj]` for the `C·9` panel rows
/// `r = ic·9 + ky·3 + kx`, the values [`im2col_3x3`] writes, padding zeros
/// included. The tile's output positions are walked one output row at a
/// time, so a tile may start and end mid-row and span several rows.
#[inline(always)]
fn pack_patch_tile<'t, const NB: usize>(
    tile: &'t mut Vec<f32>,
    map: PatchMap<'_>,
    j0: usize,
    nb: usize,
) -> &'t [f32] {
    let len = map.input.len() / (map.height * map.width) * 9 * nb;
    if tile.len() < len {
        tile.resize(len, 0.0);
    }
    let tile = &mut tile[..len];
    let (mut y, mut x0, mut jj) = (j0 / map.width, j0 % map.width, 0);
    while jj < nb {
        let run = (map.width - x0).min(nb - jj);
        let dst = &mut tile[jj..];
        // A run as wide as the tile, or half or a quarter of it (the rows of
        // the power-of-two maps of the backbone), gets constant lengths, so
        // each copy is a few vector moves instead of a `memcpy` call. On the
        // default backbone that cut the packing from about a third of the
        // trunk's conv time to under a tenth (2-vCPU Xeon, AVX-512 copy).
        match run {
            r if r == NB => pack_run(map, dst, nb, y, x0, NB),
            r if r == NB / 2 => pack_run(map, dst, nb, y, x0, NB / 2),
            r if r == NB / 4 => pack_run(map, dst, nb, y, x0, NB / 4),
            _ => pack_run(map, dst, nb, y, x0, run),
        }
        (y, x0, jj) = (y + 1, 0, jj + run);
    }
    tile
}

/// Pack positions `[x0, x0 + run)` of output row `y` into columns
/// `[0, run)` of the tile rows `tile[r·stride..]`.
#[inline(always)]
fn pack_run(map: PatchMap<'_>, tile: &mut [f32], stride: usize, y: usize, x0: usize, run: usize) {
    let (height, width) = (map.height, map.width);
    let x1 = x0 + run;
    for (ic, src) in map.input.chunks_exact(height * width).enumerate() {
        for ky in 0..3 {
            // Source row index is y + ky - 1; `sy` is that plus one so the
            // bounds check stays in unsigned arithmetic.
            let sy = y + ky;
            let srow = (1..=height).contains(&sy).then(|| &src[(sy - 1) * width..sy * width]);
            for kx in 0..3 {
                let dst = &mut tile[(ic * 9 + ky * 3 + kx) * stride..][..run];
                let Some(srow) = srow else {
                    dst.fill(0.0);
                    continue;
                };
                // Output column x reads source column x + kx - 1.
                match kx {
                    0 if x0 == 0 => {
                        dst[0] = 0.0;
                        dst[1..].copy_from_slice(&srow[..x1 - 1]);
                    }
                    0 => dst.copy_from_slice(&srow[x0 - 1..x1 - 1]),
                    1 => dst.copy_from_slice(&srow[x0..x1]),
                    _ if x1 == width => {
                        dst[run - 1] = 0.0;
                        dst[..run - 1].copy_from_slice(&srow[x0 + 1..]);
                    }
                    _ => dst.copy_from_slice(&srow[x0 + 1..x1 + 1]),
                }
            }
        }
    }
}

/// The `GEMM_MR × nb` products of one packed row block and the tile of `B`
/// whose `k` rows lie in `b` at stride `stride`, columns `[off, off + nb)`
/// of each (`nb ≤ NB`), each summed over `kk` ascending from `0.0`. The
/// accumulators are a local returned by value, which lets them stay in
/// registers for the whole `k` loop instead of being stored back to the
/// stack on every step.
#[inline(always)]
fn gemm_tile<const NB: usize>(
    block: &[f32],
    b: &[f32],
    stride: usize,
    off: usize,
    nb: usize,
) -> [[f32; NB]; GEMM_MR] {
    let mut acc = [[0.0f32; NB]; GEMM_MR];
    let steps = block.chunks_exact(GEMM_MR).zip(b.chunks_exact(stride));
    if nb == NB {
        // Full-width tile: fixed trip counts, so every accumulator is a
        // register.
        for (a_col, b_row) in steps {
            let b_row = &b_row[off..off + NB];
            for mr in 0..GEMM_MR {
                let av = a_col[mr];
                for jj in 0..NB {
                    acc[mr][jj] += av * b_row[jj];
                }
            }
        }
    } else {
        for (a_col, b_row) in steps {
            for mr in 0..GEMM_MR {
                let av = a_col[mr];
                for (jj, &bv) in b_row[off..off + nb].iter().enumerate() {
                    acc[mr][jj] += av * bv;
                }
            }
        }
    }
    acc
}

/// Lower a `C×H×W` channel-major map into the **same-padded 3×3 patch
/// panel**: a `(C·9) × (H·W)` row-major matrix whose row `ic·9 + ky·3 + kx`
/// holds, for every output position `(y, x)` (column `y·W + x`), the input
/// value at `(ic, y + ky - 1, x + kx - 1)` — or `0` where that falls
/// outside the map. A stride-1 zero-padded 3×3 convolution is then exactly
/// `weights · panel` (see [`gemm_bias_relu_f32`]), with the weight table's
/// `[out_c][in_c][ky][kx]` layout matching the panel's row order.
///
/// With [`gemm_bias_relu_f32`] this is the oracle and replay pair of the
/// backbone's convolutions, not their production path:
/// [`conv_bias_relu_f32`] packs the same values one column tile at a time
/// and never builds the whole panel, and tests compare it against this
/// pair bit for bit.
///
/// The panel is written into the caller-owned `out` buffer (resized to
/// `C·9·H·W`; contents fully overwritten). Every row is a shifted copy of
/// a channel plane row — `9·C·H·W` writes.
///
/// # Panics
/// Panics if `input.len() != channels·height·width` or any dimension is 0.
pub fn im2col_3x3(input: &[f32], channels: usize, height: usize, width: usize, out: &mut Vec<f32>) {
    assert!(channels > 0 && height > 0 && width > 0, "im2col_3x3: empty input");
    assert_eq!(input.len(), channels * height * width, "im2col_3x3: input shape mismatch");
    let plane = height * width;
    out.resize(channels * 9 * plane, 0.0);
    for ic in 0..channels {
        let src = &input[ic * plane..(ic + 1) * plane];
        for ky in 0..3 {
            for kx in 0..3 {
                let dst = &mut out[(ic * 9 + ky * 3 + kx) * plane..][..plane];
                for y in 0..height {
                    let drow = &mut dst[y * width..(y + 1) * width];
                    // Source row index is y + ky - 1; `sy` is that plus one
                    // so the bounds check stays in unsigned arithmetic.
                    let sy = y + ky;
                    if sy < 1 || sy > height {
                        drow.fill(0.0);
                        continue;
                    }
                    let srow = &src[(sy - 1) * width..sy * width];
                    match kx {
                        0 => {
                            drow[0] = 0.0;
                            drow[1..].copy_from_slice(&srow[..width - 1]);
                        }
                        1 => drow.copy_from_slice(srow),
                        _ => {
                            drow[width - 1] = 0.0;
                            drow[..width - 1].copy_from_slice(&srow[1..]);
                        }
                    }
                }
            }
        }
    }
}

/// Reference scalar implementation of [`colmax_matmul_f32`]: plain
/// sequential dot products, one running maximum per output — the shape of
/// the pre-blocking affinity hot path. Kept (and exported) so property
/// tests can cross-check the blocked kernel against the original
/// semantics.
pub fn colmax_matmul_naive_f32(a: &[f32], b: &[f32], cols: usize, out: &mut [f32]) {
    assert!(cols > 0, "colmax_matmul_naive_f32: cols must be ≥ 1");
    assert_eq!(a.len() % cols, 0, "colmax_matmul_naive_f32: a.len() not a multiple of cols");
    assert_eq!(b.len(), out.len() * cols, "colmax_matmul_naive_f32: b/out shape mismatch");
    out.fill(f32::NEG_INFINITY);
    for a_row in a.chunks_exact(cols) {
        for (o, b_row) in out.iter_mut().zip(b.chunks_exact(cols)) {
            let mut dot = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                dot += x * y;
            }
            if dot > *o {
                *o = dot;
            }
        }
    }
}

/// Result of a symmetric eigendecomposition: `a = V diag(λ) Vᵀ` with
/// eigenvalues sorted in **descending** order and eigenvectors as columns of
/// `vectors` (i.e. `vectors.col(k)` pairs with `values[k]`).
#[derive(Debug, Clone)]
// goggles-lint: allow(dead-pub): return type of pub `orthogonal_iteration`: external callers destructure it without naming it
pub struct EighResult {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, aligned with `values`.
    pub vectors: Matrix<f64>,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Runs sweeps of Givens rotations until the off-diagonal Frobenius mass
/// drops below `1e-12` times the matrix norm (or 100 sweeps). For the sizes
/// this workspace uses (≤ a few hundred) this is fast and extremely robust.
pub(crate) fn jacobi_eigh(a: &Matrix<f64>) -> Result<EighResult> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if n == 0 {
        return Err(TensorError::Empty("jacobi_eigh on 0x0 matrix".into()));
    }
    let mut m = a.clone();
    let mut v = Matrix::<f64>::identity(n);
    let norm = m.frobenius_norm().max(1e-300);
    let tol = 1e-12 * norm;

    for _sweep in 0..100 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate rotations into v.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].total_cmp(&m[(i, i)]));
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    Ok(EighResult { values, vectors })
}

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = a`.
///
/// Fails with [`TensorError::Numerical`] if `a` is not positive definite
/// (within a small tolerance); callers that fit covariance matrices should
/// add ridge regularization before calling.
pub fn cholesky(a: &Matrix<f64>) -> Result<Matrix<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let mut l = Matrix::<f64>::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    // goggles-lint: allow(alloc-hot): numerical-failure return path; the factorization aborts here
                    return Err(TensorError::Numerical(format!(
                        "cholesky: non-positive pivot {sum:.3e} at {i}"
                    )));
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solve `L x = b` for lower-triangular `L` (forward substitution).
pub fn solve_lower_triangular(l: &Matrix<f64>, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    debug_assert_eq!(b.len(), n);
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Principal component analysis fit on the rows of a data matrix.
///
/// This mirrors what the Snuba comparison in the paper does with the VGG-16
/// logits: project 1000-dimensional features onto the top-k principal
/// components to obtain dense "primitives" (§5.1.2).
#[derive(Debug, Clone)]
pub struct Pca {
    /// Feature means subtracted before projection (length = input dim).
    pub mean: Vec<f64>,
    /// Projection matrix, `input_dim × k` (columns are components).
    pub components: Matrix<f64>,
    /// Eigenvalues (explained variance) of the retained components.
    pub explained_variance: Vec<f64>,
}

impl Pca {
    /// Fit a `k`-component PCA on the rows of `data` (`n × d`).
    ///
    /// `k` is clamped to `min(n, d)`. Uses the exact Jacobi decomposition of
    /// the `d × d` covariance, so it is intended for `d` up to ~1000.
    pub fn fit(data: &Matrix<f64>, k: usize) -> Result<Self> {
        let n = data.rows();
        let d = data.cols();
        if n == 0 || d == 0 {
            return Err(TensorError::Empty("Pca::fit on empty data".into()));
        }
        let k = k.min(d).min(n).max(1);
        let mean = data.col_means();
        // covariance = centeredᵀ centered / n
        let mut cov = Matrix::<f64>::zeros(d, d);
        for row in data.rows_iter() {
            for i in 0..d {
                let di = row[i] - mean[i];
                if di == 0.0 {
                    continue;
                }
                for j in i..d {
                    cov[(i, j)] += di * (row[j] - mean[j]);
                }
            }
        }
        let inv_n = 1.0 / n as f64;
        for i in 0..d {
            for j in i..d {
                let v = cov[(i, j)] * inv_n;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        let eig = jacobi_eigh(&cov)?;
        let components = eig.vectors.col_block(0, k);
        let explained_variance = eig.values[..k].to_vec();
        Ok(Self { mean, components, explained_variance })
    }

    /// Project the rows of `data` into the component space (`n × k`).
    pub fn transform(&self, data: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(data.cols(), self.mean.len(), "Pca::transform: dim mismatch");
        let k = self.components.cols();
        let mut out = Matrix::zeros(data.rows(), k);
        for (i, row) in data.rows_iter().enumerate() {
            for c in 0..k {
                let mut acc = 0.0;
                for (j, &x) in row.iter().enumerate() {
                    acc += (x - self.mean[j]) * self.components[(j, c)];
                }
                out[(i, c)] = acc;
            }
        }
        out
    }
}

/// Top-`k` eigenpairs of a symmetric PSD matrix by orthogonal (subspace)
/// iteration with QR re-orthogonalization. Suitable when the matrix is big
/// enough that full Jacobi would be wasteful but only a few leading
/// directions are needed (spectral co-clustering).
pub fn orthogonal_iteration(
    a: &Matrix<f64>,
    k: usize,
    iters: usize,
    seed: u64,
) -> Result<EighResult> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if n == 0 || k == 0 {
        return Err(TensorError::Empty("orthogonal_iteration needs n > 0 and k > 0".into()));
    }
    let k = k.min(n);
    let mut rng = rng::std_rng(seed);
    // n × k random start, orthonormalized.
    let mut q = Matrix::from_fn(n, k, |_, _| rng::normal(&mut rng));
    gram_schmidt_columns(&mut q);
    for _ in 0..iters.max(1) {
        let mut z = a.matmul(&q);
        gram_schmidt_columns(&mut z);
        q = z;
    }
    // Rayleigh quotients as eigenvalue estimates.
    let aq = a.matmul(&q);
    let mut values = Vec::with_capacity(k);
    for c in 0..k {
        let mut lambda = 0.0;
        for r in 0..n {
            lambda += q[(r, c)] * aq[(r, c)];
        }
        values.push(lambda);
    }
    // Sort descending by |value| pairing columns.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| values[j].total_cmp(&values[i]));
    let sorted_values: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let mut vectors = Matrix::zeros(n, k);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_c)] = q[(r, old_c)];
        }
    }
    Ok(EighResult { values: sorted_values, vectors })
}

/// In-place modified Gram–Schmidt on the columns of `q`. Columns that
/// collapse to (numerical) zero are re-randomized deterministically from
/// their index so the basis stays full-rank.
fn gram_schmidt_columns(q: &mut Matrix<f64>) {
    let (n, k) = q.shape();
    for c in 0..k {
        for prev in 0..c {
            let mut dot = 0.0;
            for r in 0..n {
                dot += q[(r, c)] * q[(r, prev)];
            }
            for r in 0..n {
                let sub = dot * q[(r, prev)];
                q[(r, c)] -= sub;
            }
        }
        let mut norm = 0.0;
        for r in 0..n {
            norm += q[(r, c)] * q[(r, c)];
        }
        norm = norm.sqrt();
        if norm <= 1e-12 {
            // Deterministic re-seed keyed by the column index.
            let mut rng = rng::std_rng(0x9E37_79B9 ^ (c as u64));
            for r in 0..n {
                q[(r, c)] = rng::normal(&mut rng);
            }
            let mut n2 = 0.0;
            for r in 0..n {
                n2 += q[(r, c)] * q[(r, c)];
            }
            norm = n2.sqrt();
        }
        let inv = 1.0 / norm;
        for r in 0..n {
            q[(r, c)] *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix<f64> {
        // A known symmetric positive definite matrix.
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]])
    }

    #[test]
    fn gemm_counters_advance_by_call_and_flops() {
        // Counters are process-global and tests run in parallel, so assert
        // monotone growth by at least each call's contribution.
        let calls_before = gemm_call_count();
        let flops_before = gemm_flop_count();
        let (m, k, n) = (3, 4, 5);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut out = vec![0.0f32; m * n];
        gemm_f32(&mut GemmScratch::default(), &a, &b, m, k, n, &mut out);
        assert!(gemm_call_count() > calls_before);
        assert!(gemm_flop_count() >= flops_before + 2 * (m * k * n) as u64);
        // A conv counts as one call of 2·out_c·in_c·kernel²·h·w flops, for
        // either kernel.
        for kernel in [1, 3] {
            let (in_c, out_c, h, w) = (2, 3, 4, 5);
            let conv =
                PackedConv::new(&vec![1.0; out_c * in_c * kernel * kernel], &[0.0; 3], 2, kernel);
            let mut out = vec![0.0f32; out_c * h * w];
            let (calls, flops) = (gemm_call_count(), gemm_flop_count());
            conv_bias_relu_f32(&mut Vec::new(), &conv, &[1.0; 2 * 4 * 5], h, w, false, &mut out);
            assert!(gemm_call_count() > calls);
            assert!(
                gemm_flop_count() >= flops + 2 * (out_c * in_c * kernel * kernel * h * w) as u64
            );
        }
        // Empty products are not counted.
        let calls = gemm_call_count();
        gemm_f32(&mut GemmScratch::default(), &[], &b[..0], 0, 0, 0, &mut []);
        assert!(gemm_call_count() >= calls);
    }

    #[test]
    fn colmax_matmul_small_exact() {
        // 2 patches × 2 dims against 3 prototypes; maxima picked per column.
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 0.0, 0.0, 1.0, 0.5, 0.5];
        let mut out = [0.0f32; 3];
        colmax_matmul_f32(&a, &b, 2, &mut out);
        assert_eq!(out, [1.0, 1.0, 0.5]);
        let mut naive = [0.0f32; 3];
        colmax_matmul_naive_f32(&a, &b, 2, &mut naive);
        assert_eq!(out, naive);
    }

    #[test]
    fn colmax_matmul_empty_panel_is_neg_infinity() {
        let mut out = [0.0f32; 2];
        colmax_matmul_f32(&[], &[1.0, 2.0, 3.0, 4.0], 2, &mut out);
        assert!(out.iter().all(|v| *v == f32::NEG_INFINITY));
    }

    #[test]
    fn colmax_matmul_matches_naive_on_awkward_shapes() {
        // Shapes chosen to exercise tile and lane remainders: cols not a
        // multiple of DOT_LANES, rows not a multiple of WIDE_NR.
        let mut rng = rng::std_rng(42);
        for &(m, n, cols) in &[(1usize, 1usize, 1usize), (3, 7, 5), (9, 17, 13), (16, 33, 8)] {
            let a: Vec<f32> = (0..m * cols).map(|_| rng::normal(&mut rng) as f32).collect();
            let b: Vec<f32> = (0..n * cols).map(|_| rng::normal(&mut rng) as f32).collect();
            let mut blocked = vec![0.0f32; n];
            let mut naive = vec![0.0f32; n];
            colmax_matmul_f32(&a, &b, cols, &mut blocked);
            colmax_matmul_naive_f32(&a, &b, cols, &mut naive);
            for (x, y) in blocked.iter().zip(&naive) {
                assert!((x - y).abs() < 1e-5, "m={m} n={n} cols={cols}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn colmax_matmul_is_shard_stable() {
        // Computing a sub-range of b's rows must be bit-identical to the
        // matching slice of the full result (the sharding contract).
        let mut rng = rng::std_rng(7);
        let (m, n, cols) = (5usize, 21usize, 11usize);
        let a: Vec<f32> = (0..m * cols).map(|_| rng::normal(&mut rng) as f32).collect();
        let b: Vec<f32> = (0..n * cols).map(|_| rng::normal(&mut rng) as f32).collect();
        let mut full = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut full);
        for &(lo, hi) in &[(0usize, 4usize), (3, 17), (13, 21), (0, 21)] {
            let mut part = vec![0.0f32; hi - lo];
            colmax_matmul_f32(&a, &b[lo * cols..hi * cols], cols, &mut part);
            assert_eq!(part, full[lo..hi], "shard [{lo}, {hi})");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `(m, rows, cols)` shapes for the colmax kernel tests: tall (`m ≥
    /// 2·cols`) and wide, with `m % TALL_MR ≠ 0`, `rows % TALL_NB ≠ 0`,
    /// `rows % WIDE_NR ≠ 0`, `rows % WIDE_NR_AVX2 ≠ 0` and `cols % DOT_LANES ≠ 0`
    /// tails, patch counts with an odd number of `TALL_MR`-patch tiles (the
    /// AVX-512 tall path's lone last tile), single patches and single
    /// channels (where `tall_panel`'s planted zero prototypes make every
    /// sum a signed zero, so the maxima depend on the order patches fold
    /// in), and the label-dataset layer geometries at a reduced prototype
    /// count.
    const COLMAX_SHAPES: [(usize, usize, usize); 19] = [
        (64, 24, 8),
        (37, 29, 5),
        (130, 17, 16),
        (5, 3, 1),
        (1, 8, 1),
        (6, 40, 64),
        (2, 9, 33),
        (16, 3072, 64),
        (1024, 42, 8),
        (256, 45, 16),
        (64, 47, 32),
        (4, 43, 64),
        (7, 21, 61),
        (3, 5, 100),
        (12, 33, 4),
        (18, 48, 7),
        (1028, 65, 8),
        (68, 31, 32),
        (40, 20, 1),
    ];

    /// Whether the kernel probe picked `want` or a wider copy, so the `want`
    /// copies may run. Without it, say on stderr that `test` skipped its
    /// `want` half, so a log shows whether two ISAs were compared.
    fn isa_or_skip(test: &str, want: Isa) -> bool {
        let found = isa() >= want;
        if !found {
            eprintln!("{test}: no {want:?} on this CPU, {want:?} half skipped");
        }
        found
    }

    /// Random `rows × cols` panel with planted signed zeros, so the tests
    /// see `-0.0` sums and ties between `+0.0` and `-0.0` maxima.
    fn tall_panel(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| match i % 13 {
                3 => 0.0,
                7 => -0.0,
                _ => rng::normal(rng) as f32,
            })
            .collect()
    }

    /// Row offsets for the sub-range tests: block-aligned and not.
    fn los(rows: usize) -> Vec<usize> {
        let mut los: Vec<usize> = [0, 1, 5, 15, 16, 17, 33, rows / 2, rows - 1]
            .into_iter()
            .filter(|&lo| lo < rows)
            .collect();
        los.dedup();
        los
    }

    #[test]
    fn tall_kernel_sums_in_naive_order() {
        // The tall kernel adds the channels in the naive kernel's order, so
        // away from signed zeros (where the naive sum starts at +0.0) the
        // two agree bit for bit.
        let mut rng = rng::std_rng(3);
        for &(m, rows, cols) in &COLMAX_SHAPES {
            let a: Vec<f32> = (0..m * cols).map(|_| rng::normal(&mut rng) as f32).collect();
            let b: Vec<f32> = (0..rows * cols).map(|_| rng::normal(&mut rng) as f32).collect();
            let panel = ColmaxPanel::new(&b, cols);
            let mut pack = Vec::new();
            let mut tall = vec![0.0f32; rows];
            colmax_tall_portable(pack_patches(&mut pack, &a, cols), &panel, 0, &mut tall);
            let mut naive = vec![0.0f32; rows];
            colmax_matmul_naive_f32(&a, &b, cols, &mut naive);
            assert_eq!(bits(&tall), bits(&naive), "m={m} rows={rows} cols={cols}");
        }
    }

    /// Sequential fold of the single-channel sums `a[i] · b[j]` over the
    /// patches: the maxima every kernel path must reproduce bit for bit.
    fn sequential_colmax(a: &[f32], b: &[f32]) -> Vec<f32> {
        b.iter()
            .map(|&bj| {
                let mut best = f32::NEG_INFINITY;
                for &ai in a {
                    let s = ai * bj;
                    if s > best {
                        best = s;
                    }
                }
                best
            })
            .collect()
    }

    #[test]
    fn tall_path_keeps_signed_zeros() {
        // Two patches, one channel, so the tall path runs. A sum starts from
        // its first product, not from +0.0, so an all-(-0.0) sum stays -0.0.
        let mut out = [0.0f32; 1];
        colmax_matmul_f32(&[1.0, 1.0], &[-0.0], 1, &mut out);
        assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
        // Patches are visited in order: -0.0 then +0.0 is a tie that keeps
        // the first.
        colmax_matmul_f32(&[-1.0, 1.0], &[0.0], 1, &mut out);
        assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
        // Every sign pattern of up to 10 patches against prototypes +0.0
        // and -0.0: all sums are zeros, so every max is a tie and the first
        // patch must win, inside one 4-patch tile and across tiles. A third
        // prototype of 1.0 makes the sums ±1, ties between equal values.
        // Patches of NaN give NaN sums, which never win.
        let b = [0.0f32, -0.0, 1.0];
        for m in 2..=10usize {
            for pattern in 0..3u32.pow(m as u32) {
                let a: Vec<f32> = (0..m)
                    .map(|i| match pattern / 3u32.pow(i as u32) % 3 {
                        0 => 1.0,
                        1 => -1.0,
                        _ if m <= 6 => f32::NAN,
                        _ => 1.0,
                    })
                    .collect();
                let expect = sequential_colmax(&a, &b);
                let mut got = [0.0f32; 3];
                colmax_matmul_f32(&a, &b, 1, &mut got);
                assert_eq!(bits(&got), bits(&expect), "m={m} a={a:?}");
                let panel = ColmaxPanel::new(&b, 1);
                let packed = pack_patches(&mut Vec::new(), &a, 1).to_vec();
                colmax_tall_portable(&packed, &panel, 0, &mut got);
                assert_eq!(bits(&got), bits(&expect), "portable m={m} a={a:?}");
            }
        }
    }

    /// A tall-path copy against the portable one on every `COLMAX_SHAPES`
    /// entry and row sub-range, bit for bit; the portable sub-ranges also
    /// against the full portable result.
    #[cfg(target_arch = "x86_64")]
    fn assert_tall_copy_matches_portable(
        seed: u64,
        copy: impl Fn(&[f32], &ColmaxPanel, usize, &mut [f32]),
    ) {
        let mut rng = rng::std_rng(seed);
        let mut pack = Vec::new();
        for &(m, rows, cols) in &COLMAX_SHAPES {
            let a = tall_panel(&mut rng, m, cols);
            let b = tall_panel(&mut rng, rows, cols);
            let panel = ColmaxPanel::new(&b, cols);
            let packed = pack_patches(&mut pack, &a, cols);
            let mut full = vec![0.0f32; rows];
            colmax_tall_portable(packed, &panel, 0, &mut full);
            for lo in los(rows) {
                for len in [rows - lo, (rows - lo).min(11), (rows - lo).min(16), 1] {
                    let mut portable = vec![0.0f32; len];
                    colmax_tall_portable(packed, &panel, lo, &mut portable);
                    let mut got = vec![0.0f32; len];
                    copy(packed, &panel, lo, &mut got);
                    let what = format!("m={m} rows={rows} cols={cols} lo={lo} len={len}");
                    assert_eq!(bits(&portable), bits(&got), "{what}");
                    assert_eq!(bits(&portable), bits(&full[lo..lo + len]), "{what}");
                }
            }
        }
    }

    #[test]
    fn avx2_tall_kernel_is_bit_identical_to_portable() {
        if !isa_or_skip("avx2_tall_kernel_is_bit_identical_to_portable", Isa::Avx2) {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        assert_tall_copy_matches_portable(11, |a_pack, panel, lo, out| {
            // SAFETY: AVX2 support was detected at the top of the test.
            unsafe { colmax_tall_avx2(a_pack, panel, lo, out) }
        });
    }

    #[test]
    fn avx512_tall_kernel_is_bit_identical_to_portable() {
        if !isa_or_skip("avx512_tall_kernel_is_bit_identical_to_portable", Isa::Avx512) {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        assert_tall_copy_matches_portable(23, |a_pack, panel, lo, out| {
            // SAFETY: AVX-512 support was detected at the top of the test.
            unsafe { colmax_tall_avx512(a_pack, panel, lo, out) }
        });
    }

    /// The multi-lane dot product of the previous wide kernel:
    /// `DOT_LANES` lanes from `0.0` over the bulk, a scalar tail from
    /// `0.0`, and [`reduce_lanes`].
    fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
        let bulk = x.len() - x.len() % DOT_LANES;
        let mut acc = [0.0f32; DOT_LANES];
        for (xc, yc) in x[..bulk].chunks_exact(DOT_LANES).zip(y[..bulk].chunks_exact(DOT_LANES)) {
            for l in 0..DOT_LANES {
                acc[l] += xc[l] * yc[l];
            }
        }
        let mut tail = 0.0f32;
        for (&xv, &yv) in x[bulk..].iter().zip(&y[bulk..]) {
            tail += xv * yv;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    }

    /// The previous wide kernel: one `dot_lanes` at a time, patches folded
    /// into each prototype's running max in ascending order.
    fn wide_reference(a: &[f32], b: &[f32], cols: usize) -> Vec<f32> {
        b.chunks_exact(cols)
            .map(|b_row| {
                let mut best = f32::NEG_INFINITY;
                for a_row in a.chunks_exact(cols) {
                    let d = dot_lanes(a_row, b_row);
                    if d > best {
                        best = d;
                    }
                }
                best
            })
            .collect()
    }

    #[test]
    fn wide_runs_equal_per_pair_dot_lanes() {
        // One patch against every run of a 16-prototype block, at both run
        // widths: each sum is the lone multi-lane dot product bit for bit.
        let mut rng = rng::std_rng(17);
        for cols in [1usize, 7, 8, 9, 16, 33, 64, 100] {
            let x = tall_panel(&mut rng, 1, cols);
            let y = tall_panel(&mut rng, TALL_NB, cols);
            let panel = ColmaxPanel::new(&y, cols);
            let block = &panel.packed.as_chunks::<TALL_NB>().0[..cols];
            let runs: [&[f32]; 6] = [
                &wide_run_max::<WIDE_NR, 0>(&x, block),
                &wide_run_max::<WIDE_NR, WIDE_NR>(&x, block),
                &wide_run_max::<WIDE_NR, { 2 * WIDE_NR }>(&x, block),
                &wide_run_max::<WIDE_NR, { 3 * WIDE_NR }>(&x, block),
                &wide_run_max::<WIDE_NR_AVX2, 0>(&x, block),
                &wide_run_max::<WIDE_NR_AVX2, WIDE_NR_AVX2>(&x, block),
            ];
            let expect: Vec<f32> = y.chunks_exact(cols).map(|row| dot_lanes(&x, row)).collect();
            assert_eq!(bits(&runs[..4].concat()), bits(&expect), "cols={cols} NR={WIDE_NR}");
            assert_eq!(bits(&runs[4..].concat()), bits(&expect), "cols={cols} NR={WIDE_NR_AVX2}");
        }
    }

    #[test]
    fn wide_kernel_is_bit_identical_to_single_dot_reference() {
        // Portable and (where the CPU has it) AVX2 copies of the wide path
        // against the previous one-dot-at-a-time kernel, on every row
        // sub-range: shapes cover cols % 8 ≠ 0 and rows % 4 ≠ 0, and the
        // planted signed zeros give -0.0 products and ±0 ties.
        let mut rng = rng::std_rng(19);
        let avx2 = isa_or_skip("wide_kernel_is_bit_identical_to_single_dot_reference", Isa::Avx2);
        for &(m, rows, cols) in &COLMAX_SHAPES {
            let a = tall_panel(&mut rng, m, cols);
            let b = tall_panel(&mut rng, rows, cols);
            let panel = ColmaxPanel::new(&b, cols);
            let reference = wide_reference(&a, &b, cols);
            for lo in los(rows) {
                for len in [rows - lo, (rows - lo).min(3), (rows - lo).min(5), 1] {
                    let what = format!("m={m} rows={rows} cols={cols} lo={lo} len={len}");
                    let mut portable = vec![0.0f32; len];
                    colmax_wide_portable(&a, &panel, lo, &mut portable);
                    assert_eq!(bits(&portable), bits(&reference[lo..lo + len]), "{what}");
                    #[cfg(target_arch = "x86_64")]
                    if avx2 {
                        let mut avx2 = vec![0.0f32; len];
                        // SAFETY: AVX2 support was detected above the loop.
                        unsafe { colmax_wide_avx2(&a, &panel, lo, &mut avx2) };
                        assert_eq!(bits(&avx2), bits(&portable), "avx2 {what}");
                    }
                }
            }
        }
    }

    /// Plain triple-loop reference for the GEMM tests.
    fn gemm_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        c
    }

    /// Plain `out = a · b` through the production kernel: a zero bias and
    /// no ReLU. The sums start from `+0.0`, so adding a `+0.0` bias changes
    /// no bit.
    fn gemm_f32(
        scratch: &mut GemmScratch,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        gemm_bias_relu_f32(scratch, a, b, m, k, n, &vec![0.0; m], false, out);
    }

    #[test]
    fn gemm_small_exact() {
        // 2×3 · 3×2 with integer values: exact in f32.
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0f32, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        gemm_f32(&mut GemmScratch::default(), &a, &b, 2, 3, 2, &mut out);
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_matches_reference_on_awkward_shapes() {
        // Shapes exercising the MR tail, every tail of the tile widths
        // (8 portable, 16 AVX2, 32 AVX-512), k = 0, and the backbone's
        // trunk geometries. Each output sums its k products in ascending order
        // from 0.0, as the reference does, so they agree bit for bit.
        let mut rng = rng::std_rng(99);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 9, 8),
            (5, 27, 13),
            (6, 1, 20),
            (8, 72, 33),
            (2, 0, 5),
            (5, 11, 1),
            (5, 11, 15),
            (5, 11, 16),
            (5, 11, 17),
            (5, 11, 31),
            (5, 11, 32),
            (5, 11, 33),
            (5, 11, 48),
            (5, 11, 63),
            (8, 27, 4096),
            (32, 288, 256),
            (64, 576, 64),
            (64, 576, 16),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng::normal(&mut rng) as f32).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng::normal(&mut rng) as f32).collect();
            let mut out = vec![f32::NAN; m * n];
            gemm_f32(&mut GemmScratch::default(), &a, &b, m, k, n, &mut out);
            let reference = gemm_reference(&a, &b, m, k, n);
            assert_eq!(bits(&out), bits(&reference), "m={m} k={k} n={n}");
        }
    }

    /// The `(m, k, n)` grid of the GEMM copy tests: every `GEMM_MR` tail,
    /// `k = 0`, and every tail of the 8-, 16- and 32-column tiles.
    #[cfg(target_arch = "x86_64")]
    fn gemm_grid() -> impl Iterator<Item = (usize, usize, usize)> {
        [1usize, 3, 4, 5, 64].into_iter().flat_map(|m| {
            [0usize, 1, 27, 576].into_iter().flat_map(move |k| {
                [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 63, 65, 4096].map(|n| (m, k, n))
            })
        })
    }

    /// The `(channels, out_channels, height, width)` grid of the 3×3 conv
    /// tests: widths 1–13, so column tiles of 8, 16 and 32 positions span
    /// several output rows and start and end mid-row, and widths 16, 31, 32
    /// and 64, so whole tiles and half tiles fit in one row; `channels · 9`
    /// up to 576; every `GEMM_MR` tail of the output channels.
    fn conv_grid() -> impl Iterator<Item = (usize, usize, usize, usize)> {
        [1usize, 3, 8, 64].into_iter().flat_map(|c| {
            [1usize, 5, 8, 13].into_iter().flat_map(move |m| {
                [1usize, 2, 5, 9].into_iter().flat_map(move |h| {
                    (1usize..=13).chain([16, 31, 32, 64]).map(move |w| (c, m, h, w))
                })
            })
        })
    }

    /// A GEMM tile-loop copy against the portable one, bit for bit, with
    /// and without bias and ReLU: on [`gemm_grid`] with `B` read in place,
    /// and on [`conv_grid`] with `B` the 3×3 patch panel packed per tile.
    #[cfg(target_arch = "x86_64")]
    fn assert_gemm_copy_matches_portable(
        seed: u64,
        copy: impl Fn(&Gemm<'_>, &mut Vec<f32>, &mut [f32]),
    ) {
        let mut rng = rng::std_rng(seed);
        let mut pack = Vec::new();
        let (mut tile, mut portable_tile) = (Vec::new(), Vec::new());
        let panels = gemm_grid().map(|(m, k, n)| (m, k, n, None));
        let patches = conv_grid().map(|(c, m, h, w)| (m, 9 * c, h * w, Some((h, w))));
        for (m, k, n, map) in panels.chain(patches) {
            let a = tall_panel(&mut rng, m, k);
            let b = tall_panel(&mut rng, k, n);
            let b_tiles = match map {
                None => BTiles::Panel(&b),
                Some((height, width)) => {
                    BTiles::Patches(PatchMap { input: &b[..k / 9 * n], height, width })
                }
            };
            let a_pack = pack_rows(&mut pack, &a, m, k);
            let unbiased = vec![0.0f32; m];
            let biased: Vec<f32> = (0..m).map(|_| rng::normal(&mut rng) as f32).collect();
            for (with_bias, bias) in [(false, &unbiased), (true, &biased)] {
                for relu in [false, true] {
                    let gemm = Gemm { a_pack, b: b_tiles, m, k, n, bias, relu };
                    let mut portable = vec![f32::NAN; m * n];
                    gemm_tiles::<GEMM_NB>(&gemm, 0..n, &mut portable_tile, &mut portable);
                    let mut got = vec![f32::NAN; m * n];
                    copy(&gemm, &mut tile, &mut got);
                    let what =
                        format!("m={m} k={k} n={n} map={map:?} bias={with_bias} relu={relu}");
                    assert_eq!(bits(&portable), bits(&got), "{what}");
                }
            }
        }
    }

    #[test]
    fn avx2_gemm_is_bit_identical_to_portable() {
        if !isa_or_skip("avx2_gemm_is_bit_identical_to_portable", Isa::Avx2) {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        assert_gemm_copy_matches_portable(13, |gemm, tile, out| {
            // SAFETY: AVX2 support was detected at the top of the test.
            unsafe { gemm_tiles_avx2(gemm, tile, out) }
        });
    }

    #[test]
    fn avx512_gemm_is_bit_identical_to_portable() {
        if !isa_or_skip("avx512_gemm_is_bit_identical_to_portable", Isa::Avx512) {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        assert_gemm_copy_matches_portable(29, |gemm, tile, out| {
            // SAFETY: AVX-512 support was detected at the top of the test.
            unsafe { gemm_tiles_avx512(gemm, tile, out) }
        });
    }

    #[test]
    fn conv_is_bit_identical_to_im2col_gemm_oracle() {
        // The conv entry against `im2col_3x3` + `gemm_bias_relu_f32` (3×3)
        // and against `gemm_bias_relu_f32` on the input itself (1×1), both
        // through the dispatched copy, and the portable tile loop over
        // per-tile patches against it over the im2col panel. One tile
        // buffer, NaN-filled to start, serves every layer of the grid as
        // it grows and shrinks, so a stale value read would show.
        let mut rng = rng::std_rng(31);
        let mut tile = vec![f32::NAN; 32 * 9 * 64];
        let (mut col, mut scratch, mut portable_tile) =
            (Vec::new(), GemmScratch::default(), Vec::new());
        for (c, m, h, w) in conv_grid() {
            let n = h * w;
            let input = tall_panel(&mut rng, c, n);
            let bias: Vec<f32> = (0..m).map(|_| rng::normal(&mut rng) as f32).collect();
            for kernel in [1, 3] {
                let k = c * kernel * kernel;
                let weight = tall_panel(&mut rng, m, k);
                let conv = PackedConv::new(&weight, &bias, c, kernel);
                assert_eq!(conv.weights(), weight, "unpacked weights");
                let b: &[f32] = if kernel == 1 {
                    &input
                } else {
                    im2col_3x3(&input, c, h, w, &mut col);
                    &col
                };
                for relu in [false, true] {
                    let what = format!("c={c} m={m} {h}x{w} kernel={kernel} relu={relu}");
                    let mut oracle = vec![f32::NAN; m * n];
                    gemm_bias_relu_f32(&mut scratch, &weight, b, m, k, n, &bias, relu, &mut oracle);
                    let mut got = vec![f32::NAN; m * n];
                    conv_bias_relu_f32(&mut tile, &conv, &input, h, w, relu, &mut got);
                    assert_eq!(bits(&got), bits(&oracle), "{what}");
                    if kernel == 1 {
                        continue;
                    }
                    let a_pack = &conv.packed;
                    let panel = Gemm { a_pack, b: BTiles::Panel(b), m, k, n, bias: &bias, relu };
                    let patches = BTiles::Patches(PatchMap { input: &input, height: h, width: w });
                    let per_tile = Gemm { b: patches, ..panel };
                    let mut from_panel = vec![f32::NAN; m * n];
                    gemm_tiles::<GEMM_NB>(&panel, 0..n, &mut Vec::new(), &mut from_panel);
                    let mut from_tiles = vec![f32::NAN; m * n];
                    gemm_tiles::<GEMM_NB>(&per_tile, 0..n, &mut portable_tile, &mut from_tiles);
                    assert_eq!(bits(&from_tiles), bits(&from_panel), "portable {what}");
                }
            }
        }
    }

    #[test]
    fn gemm_scratch_reuse_is_bit_identical() {
        let mut rng = rng::std_rng(5);
        let (m, k, n) = (7usize, 20usize, 19usize);
        let a: Vec<f32> = (0..m * k).map(|_| rng::normal(&mut rng) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng::normal(&mut rng) as f32).collect();
        let mut scratch = GemmScratch::default();
        // Grow the scratch on a larger problem first, then reuse.
        let big: Vec<f32> = (0..16 * 40).map(|_| rng::normal(&mut rng) as f32).collect();
        let bigb: Vec<f32> = (0..40 * 24).map(|_| rng::normal(&mut rng) as f32).collect();
        let mut sink = vec![0.0f32; 16 * 24];
        gemm_f32(&mut scratch, &big, &bigb, 16, 40, 24, &mut sink);
        let mut first = vec![0.0f32; m * n];
        let mut second = vec![0.0f32; m * n];
        gemm_f32(&mut scratch, &a, &b, m, k, n, &mut first);
        gemm_f32(&mut scratch, &a, &b, m, k, n, &mut second);
        let fresh = {
            let mut out = vec![0.0f32; m * n];
            gemm_f32(&mut GemmScratch::default(), &a, &b, m, k, n, &mut out);
            out
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(bits(&first), bits(&fresh));
    }

    #[test]
    fn gemm_bias_relu_epilogue() {
        // 1×2 · 2×3 = [5, 7, 9]; bias -6 then ReLU clamps two entries.
        let a = [1.0f32, 1.0];
        let b = [2.0f32, 3.0, 4.0, 3.0, 4.0, 5.0];
        let mut out = [0.0f32; 3];
        gemm_bias_relu_f32(&mut GemmScratch::default(), &a, &b, 1, 2, 3, &[-6.0], true, &mut out);
        assert_eq!(out, [0.0, 1.0, 3.0]);
        // Without relu the negatives pass through.
        gemm_bias_relu_f32(&mut GemmScratch::default(), &a, &b, 1, 2, 3, &[-6.0], false, &mut out);
        assert_eq!(out, [-1.0, 1.0, 3.0]);
    }

    #[test]
    fn im2col_3x3_center_and_borders() {
        // One 2×2 channel [[1,2],[3,4]]: check the center row (ky=1,kx=1)
        // is the identity and a corner-shift row zero-pads correctly.
        let input = [1.0f32, 2.0, 3.0, 4.0];
        let mut panel = Vec::new();
        im2col_3x3(&input, 1, 2, 2, &mut panel);
        assert_eq!(panel.len(), 9 * 4);
        // Row 4 = (ky=1, kx=1): the untouched plane.
        assert_eq!(&panel[4 * 4..5 * 4], &input);
        // Row 0 = (ky=0, kx=0): input shifted down-right, top row and left
        // column zero.
        assert_eq!(&panel[0..4], &[0.0, 0.0, 0.0, 1.0]);
        // Row 8 = (ky=2, kx=2): shifted up-left, bottom row and right
        // column zero.
        assert_eq!(&panel[8 * 4..9 * 4], &[4.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn im2col_gemm_equals_direct_conv_sum() {
        // 3×3 all-ones kernel over a delta image via im2col+gemm spreads
        // the delta over its 3×3 neighbourhood (cf. the Conv2d box test).
        let mut input = vec![0.0f32; 25];
        input[2 * 5 + 2] = 1.0;
        let mut panel = Vec::new();
        im2col_3x3(&input, 1, 5, 5, &mut panel);
        let weights = [1.0f32; 9];
        let mut out = vec![0.0f32; 25];
        gemm_f32(&mut GemmScratch::default(), &weights, &panel, 1, 9, 25, &mut out);
        for y in 0..5 {
            for x in 0..5 {
                let expect = if (1..=3).contains(&y) && (1..=3).contains(&x) { 1.0 } else { 0.0 };
                assert_eq!(out[y * 5 + x], expect, "at ({y},{x})");
            }
        }
    }

    #[test]
    fn im2col_handles_width_one() {
        let input = [1.0f32, 2.0, 3.0];
        let mut panel = Vec::new();
        im2col_3x3(&input, 1, 3, 1, &mut panel);
        // kx=0 and kx=2 rows are entirely zero-padded at width 1.
        assert_eq!(&panel[3 * 3..4 * 3], &[0.0, 0.0, 0.0]); // ky=1, kx=0
        assert_eq!(&panel[4 * 3..5 * 3], &[1.0, 2.0, 3.0]); // ky=1, kx=1 (identity)
        assert_eq!(&panel[3..2 * 3], &[0.0, 1.0, 2.0]); // ky=0, kx=1 (shift down)
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let a = spd3();
        let eig = jacobi_eigh(&a).unwrap();
        // V diag(λ) Vᵀ == a
        let n = 3;
        let mut recon = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += eig.vectors[(i, k)] * eig.values[k] * eig.vectors[(j, k)];
                }
                recon[(i, j)] = s;
            }
        }
        assert!(a.max_abs_diff(&recon) < 1e-9);
    }

    #[test]
    fn jacobi_eigenvalues_sorted_descending() {
        let eig = jacobi_eigh(&spd3()).unwrap();
        assert!(eig.values.windows(2).all(|w| w[0] >= w[1]));
        // trace preserved
        let trace: f64 = eig.values.iter().sum();
        assert!((trace - 9.0).abs() < 1e-9);
    }

    #[test]
    fn jacobi_diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_rows(&[&[5.0, 0.0], &[0.0, 2.0]]);
        let eig = jacobi_eigh(&a).unwrap();
        assert!((eig.values[0] - 5.0).abs() < 1e-12);
        assert!((eig.values[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_rejects_rectangular() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(jacobi_eigh(&a), Err(TensorError::NotSquare { .. })));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let recon = l.matmul(&l.transpose());
        assert!(a.max_abs_diff(&recon) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn solve_lower_triangular_roundtrip() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = solve_lower_triangular(&l, &b);
        let back = l.matvec(&x);
        for (bb, xb) in b.iter().zip(back.iter()) {
            assert!((bb - xb).abs() < 1e-12);
        }
    }

    #[test]
    fn pca_recovers_dominant_direction() {
        // Points spread along (1, 1)/√2 with tiny orthogonal noise.
        let mut rows = Vec::new();
        let mut rng = crate::rng::std_rng(1);
        for _ in 0..200 {
            let t = crate::rng::normal(&mut rng) * 5.0;
            let e = crate::rng::normal(&mut rng) * 0.05;
            rows.push(vec![t + e, t - e]);
        }
        let data = Matrix::from_fn(200, 2, |i, j| rows[i][j]);
        let pca = Pca::fit(&data, 1).unwrap();
        let c = pca.components.col(0);
        let dir = (c[0].abs() - c[1].abs()).abs();
        assert!(dir < 0.05, "component not along diagonal: {c:?}");
        assert!(pca.explained_variance[0] > 10.0);
        let z = pca.transform(&data);
        assert_eq!(z.shape(), (200, 1));
    }

    #[test]
    fn pca_transform_centers_data() {
        let data = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let pca = Pca::fit(&data, 2).unwrap();
        let z = pca.transform(&data);
        // projected data must be centered
        let means = z.col_means();
        for m in means {
            assert!(m.abs() < 1e-9);
        }
    }

    #[test]
    fn orthogonal_iteration_matches_jacobi_leading_pair() {
        let a = spd3();
        let full = jacobi_eigh(&a).unwrap();
        let top = orthogonal_iteration(&a, 2, 200, 7).unwrap();
        assert!((top.values[0] - full.values[0]).abs() < 1e-6);
        assert!((top.values[1] - full.values[1]).abs() < 1e-6);
        // eigenvector alignment up to sign
        for k in 0..2 {
            let mut dot = 0.0;
            for r in 0..3 {
                dot += top.vectors[(r, k)] * full.vectors[(r, k)];
            }
            assert!(dot.abs() > 0.999, "k={k} dot={dot}");
        }
    }

    #[test]
    fn orthogonal_iteration_columns_are_orthonormal() {
        let a = spd3();
        let top = orthogonal_iteration(&a, 3, 100, 3).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mut dot = 0.0;
                for r in 0..3 {
                    dot += top.vectors[(r, i)] * top.vectors[(r, j)];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8);
            }
        }
    }
}
