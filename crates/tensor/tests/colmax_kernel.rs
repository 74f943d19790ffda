//! Property tests (vendored proptest shim) of the fused matmul + column-max
//! kernel — the affinity hot path. The kernel must agree with the naive
//! scalar kernel within 1e-5 on random shapes, be bit-deterministic, and be
//! shard-stable (computing any sub-range of prototype rows matches the
//! corresponding slice of the full result). The ranges reach full
//! `4 × 16` register tiles of the tall path (two 16-prototype panel blocks)
//! together with patch and prototype tails, and full `2 × 4` tiles of the
//! wide path (`m < 2·cols`) with their tails.

use goggles_tensor::rng::{normal, std_rng};
use goggles_tensor::{
    colmax_matmul_f32, colmax_matmul_naive_f32, colmax_matmul_panel_f32, ColmaxPanel, ColmaxScratch,
};
use proptest::prelude::*;

/// Deterministic random panel of `rows × cols` f32 values in roughly ±3.
fn random_panel(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = std_rng(seed);
    (0..rows * cols).map(|_| normal(&mut rng) as f32).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel ≡ naive scalar kernel within 1e-5 on random shapes.
    #[test]
    fn blocked_matches_naive(
        m in 0usize..96,
        n in 1usize..48,
        cols in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0xB17);
        let mut blocked = vec![0.0f32; n];
        let mut naive = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut blocked);
        colmax_matmul_naive_f32(&a, &b, cols, &mut naive);
        for (j, (x, y)) in blocked.iter().zip(&naive).enumerate() {
            if m == 0 {
                prop_assert!(*x == f32::NEG_INFINITY && *y == f32::NEG_INFINITY);
            } else {
                prop_assert!(
                    (x - y).abs() < 1e-5,
                    "m={m} n={n} cols={cols} j={j}: blocked {x} vs naive {y}"
                );
            }
        }
    }

    /// Same inputs ⇒ bit-identical outputs, and any shard of the prototype
    /// rows is bit-identical to the matching slice of the full result.
    #[test]
    fn blocked_is_deterministic_and_shard_stable(
        m in 1usize..96,
        n in 1usize..48,
        cols in 1usize..24,
        cut in 0usize..48,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0x5EED);
        let mut first = vec![0.0f32; n];
        let mut second = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut first);
        colmax_matmul_f32(&a, &b, cols, &mut second);
        prop_assert_eq!(bits(&first), bits(&second));
        // Shard at an arbitrary row boundary: both halves, recomputed
        // independently, must reproduce the full result bit-for-bit.
        let cut = cut % (n + 1);
        let mut lo = vec![0.0f32; cut];
        let mut hi = vec![0.0f32; n - cut];
        colmax_matmul_f32(&a, &b[..cut * cols], cols, &mut lo);
        colmax_matmul_f32(&a, &b[cut * cols..], cols, &mut hi);
        lo.extend_from_slice(&hi);
        prop_assert_eq!(bits(&lo), bits(&first), "cut at {}", cut);
    }

    /// The panel kernel over any row shard `[lo, hi)` of a cached table
    /// matches the naive kernel on those rows within 1e-5, and is
    /// bit-identical to the matching slice of the full-table call — the
    /// contract that lets a frozen bank pack its prototypes once and serve
    /// every later request (and any shard of one) from the cache.
    #[test]
    fn panel_kernel_matches_naive_on_every_shard(
        m in 0usize..96,
        n in 1usize..48,
        cols in 1usize..24,
        lo in 0usize..48,
        span in 0usize..48,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0x9A7E1);
        let panel = ColmaxPanel::new(&b, cols);
        prop_assert_eq!(panel.rows(), n);
        prop_assert_eq!(panel.cols(), cols);
        let mut scratch = ColmaxScratch::default();
        let mut full = vec![0.0f32; n];
        colmax_matmul_panel_f32(&mut scratch, &a, &b, &panel, 0, &mut full);
        let lo = lo % n;
        let hi = (lo + 1 + span % n).min(n);
        let mut shard = vec![0.0f32; hi - lo];
        colmax_matmul_panel_f32(&mut scratch, &a, &b, &panel, lo, &mut shard);
        prop_assert_eq!(
            bits(&shard),
            bits(&full[lo..hi]),
            "shard [{}, {}) of {} rows, m={} cols={}", lo, hi, n, m, cols
        );
        let mut naive = vec![0.0f32; hi - lo];
        colmax_matmul_naive_f32(&a, &b[lo * cols..hi * cols], cols, &mut naive);
        for (x, y) in shard.iter().zip(&naive) {
            prop_assert!(
                (m == 0 && *x == f32::NEG_INFINITY && *y == f32::NEG_INFINITY)
                    || (x - y).abs() < 1e-5,
                "shard [{}, {}): {} vs naive {}", lo, hi, x, y
            );
        }
    }

    /// A scratch grown on a larger panel and reused is bit-identical to a
    /// fresh one — callers that loop over many queries can keep one
    /// `ColmaxScratch` hot without perturbing results.
    #[test]
    fn warm_scratch_matches_fresh_scratch(
        m in 0usize..96,
        n in 1usize..40,
        cols in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0x5C2A7C4);
        let panel = ColmaxPanel::new(&b, cols);
        let mut fresh = vec![0.0f32; n];
        colmax_matmul_panel_f32(&mut ColmaxScratch::default(), &a, &b, &panel, 0, &mut fresh);
        let mut scratch = ColmaxScratch::default();
        let big = random_panel(128, cols, seed ^ 0xB16);
        let mut sink = vec![0.0f32; n];
        colmax_matmul_panel_f32(&mut scratch, &big, &b, &panel, 0, &mut sink);
        let mut warm = vec![0.0f32; n];
        colmax_matmul_panel_f32(&mut scratch, &a, &b, &panel, 0, &mut warm);
        prop_assert_eq!(bits(&warm), bits(&fresh));
    }
}
