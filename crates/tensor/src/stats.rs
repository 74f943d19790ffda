//! Statistics helpers used by the EM models and by the figure harnesses:
//! log-sum-exp, argmax, mean, histograms, ROC-AUC and cosine similarity.

use crate::scalar::Scalar;

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Returns `-inf` for an empty slice (the sum of zero terms).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        // All entries are -inf (or the slice is empty): the sum is 0.
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// Index of the maximum element (first occurrence on ties).
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax<T: Scalar>(xs: &[T]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean<T: Scalar>(xs: &[T]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|v| v.to_f64()).sum::<f64>() / xs.len() as f64
}

/// Fixed-width histogram over `[lo, hi]` with `bins` buckets.
///
/// Values outside the range are clamped into the edge buckets, which is the
/// behaviour the Figure 2 affinity-distribution plots need (cosine scores can
/// brush against ±1 exactly).
pub fn histogram<T: Scalar>(xs: &[T], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0 && hi > lo, "histogram needs bins > 0 and hi > lo");
    let mut counts = vec![0usize; bins];
    let w = (hi - lo) / bins as f64;
    for v in xs {
        let mut b = ((v.to_f64() - lo) / w).floor() as isize;
        b = b.clamp(0, bins as isize - 1);
        counts[b as usize] += 1;
    }
    counts
}

/// Area under the ROC curve of `pos` (scores of positive pairs) against
/// `neg`: the probability that a random positive scores above a random
/// negative, with ties counting one half. Used to rank affinity functions by
/// separation quality (Example 2 / Figure 2 of the paper).
///
/// Returns 0.5 when either side is empty.
pub fn auc<T: Scalar>(pos: &[T], neg: &[T]) -> f64 {
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    // Rank-based computation (Mann–Whitney U) in O((p+n) log (p+n)).
    let mut all: Vec<(f64, bool)> = pos
        .iter()
        .map(|v| (v.to_f64(), true))
        .chain(neg.iter().map(|v| (v.to_f64(), false)))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Assign average ranks to tie groups.
    let n = all.len();
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && all[j + 1].0 == all[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0; // 1-based
        for item in &all[i..=j] {
            if item.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let p = pos.len() as f64;
    let q = neg.len() as f64;
    (rank_sum_pos - p * (p + 1.0) / 2.0) / (p * q)
}

/// Cosine similarity of two equally-long vectors (Equation 3 of the paper).
/// Returns 0 when either vector is all-zero.
#[inline]
pub fn cosine_similarity<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = T::ZERO;
    let mut na = T::ZERO;
    let mut nb = T::ZERO;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.to_f64().sqrt() * nb.to_f64().sqrt();
    if denom == 0.0 {
        0.0
    } else {
        dot.to_f64() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_on_small_values() {
        let xs = [0.1, -0.5, 1.2];
        let naive: f64 = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_magnitudes() {
        let xs = [-1000.0, -1000.0];
        let got = log_sum_exp(&xs);
        assert!((got - (-1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0f64, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert_eq!(mean::<f64>(&[]), 0.0);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let h = histogram(&[-5.0f64, 0.05, 0.95, 5.0], 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 2]);
    }

    #[test]
    fn auc_perfect_and_random() {
        assert!((auc(&[2.0f64, 3.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((auc(&[0.0f64, 1.0], &[0.0, 1.0]) - 0.5).abs() < 1e-12);
        assert_eq!(auc::<f64>(&[], &[1.0]), 0.5);
    }

    #[test]
    fn auc_handles_ties_as_half() {
        // single positive ties the single negative -> 0.5
        assert!((auc(&[1.0f64], &[1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0f64, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0f64, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0f64, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0f64, 0.0], &[1.0, 1.0]), 0.0);
    }
}
