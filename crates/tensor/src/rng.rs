//! Deterministic random sampling helpers.
//!
//! The offline dependency set ships `rand` but not `rand_distr`, so normal
//! variates are generated with the Box–Muller transform here. Every consumer
//! in the workspace seeds an explicit [`rand::rngs::StdRng`] so experiments
//! are reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Construct the workspace-standard RNG from a seed.
pub fn std_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One standard-normal variate via the Box–Muller transform.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 from (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample `k` distinct indices from `0..n` uniformly at random
/// (partial Fisher–Yates; `O(n)` memory, `O(k)` swaps).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} of {n} without replacement");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Sample an index from an (unnormalized, non-negative) weight vector.
/// Falls back to uniform if all weights are zero.
///
/// # Panics
/// Panics on an empty slice.
pub fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "sample_weighted on empty weights");
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.random_range(0..weights.len());
    }
    let mut t = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        t -= w;
        if t <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_rng_is_deterministic() {
        let a: Vec<f64> = {
            let mut r = std_rng(7);
            (0..8).map(|_| r.random::<f64>()).collect()
        };
        let b: Vec<f64> = {
            let mut r = std_rng(7);
            (0..8).map(|_| r.random::<f64>()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = std_rng(42);
        let xs: Vec<f64> = (0..20_000).map(|_| 1.5 + 2.0 * normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.5).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn sample_without_replacement_distinct_and_in_range() {
        let mut rng = std_rng(9);
        let s = sample_without_replacement(&mut rng, 50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_without_replacement_full_is_permutation() {
        let mut rng = std_rng(11);
        let mut s = sample_without_replacement(&mut rng, 10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn sample_without_replacement_rejects_oversized_k() {
        let mut rng = std_rng(0);
        let _ = sample_without_replacement(&mut rng, 3, 4);
    }

    #[test]
    fn sample_weighted_respects_mass() {
        let mut rng = std_rng(5);
        let mut counts = [0usize; 3];
        for _ in 0..6000 {
            counts[sample_weighted(&mut rng, &[0.0, 1.0, 3.0])] += 1;
        }
        assert_eq!(counts[0], 0);
        // roughly 1:3 split
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn sample_weighted_zero_mass_is_uniform() {
        let mut rng = std_rng(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[sample_weighted(&mut rng, &[0.0; 4])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
