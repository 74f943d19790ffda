//! Development-set size theory (§4.4, Theorem 1, Figure 7).
//!
//! Model: labeling accuracy is `η`; a dev example of class `k'` lands in the
//! correct cluster with probability `η` and in each of the `K−1` wrong
//! clusters with probability `ρ = (1−η)/(K−1)`. (The paper prints
//! `ρ = η/(K−1)` — a typo, since probabilities must sum to 1; DESIGN.md §5
//! records the erratum.) With `d` dev examples per class, class `k'` maps
//! correctly when its correct-cluster count **strictly** exceeds every other
//! cluster's count (Equation 18, ties excluded → a lower bound), and the
//! full mapping is correct with probability at least `∏_k P_l_{k'}`
//! (Theorem 1).
//!
//! Two implementations are provided: an exact enumerator (small `d·K`, used
//! for cross-checking) and the polynomial dynamic program the paper sketches
//! (Equations 22–23), which conditions on the correct-cluster count and
//! counts bounded compositions of the remainder.

/// `P_l_{k'}`: lower bound on the probability one class maps correctly,
/// computed by dynamic programming.
///
/// Conditions on the correct-cluster count `t`:
/// `Σ_t C(d,t) η^t (1−η)^{d−t} · P(all K−1 noise clusters < t | d−t trials)`,
/// where the inner factor is a bounded-occupancy multinomial probability
/// computed by a DP over clusters (`O(K d²)` per `t`).
///
/// # Panics
/// Panics unless `0 < eta < 1`, `k ≥ 2`, `d ≥ 1`.
pub fn p_class_correct(eta: f64, k: usize, d: usize) -> f64 {
    validate(eta, k, d);
    let m = k - 1; // noise clusters
    let mut total = 0.0f64;
    for t in 1..=d {
        let log_binom = ln_choose(d, t);
        let log_head = log_binom + t as f64 * eta.ln() + (d - t) as f64 * (1.0 - eta).ln();
        // P(every noise cluster count ≤ t-1 | d-t uniform trials over m).
        let tail = bounded_occupancy_prob(d - t, m, t - 1);
        total += log_head.exp() * tail;
    }
    total.min(1.0)
}

/// Exact enumeration of Equation 18 (multinomial over all count vectors).
/// Exponential in `K`; intended for tests and tiny instances.
pub fn p_class_correct_brute_force(eta: f64, k: usize, d: usize) -> f64 {
    validate(eta, k, d);
    let rho = (1.0 - eta) / (k - 1) as f64;
    let mut total = 0.0;
    // Enumerate counts of the K-1 noise clusters; the correct-cluster count
    // is the remainder.
    let mut counts = vec![0usize; k - 1];
    enumerate(&mut counts, 0, d, &mut |noise_counts: &[usize]| {
        let noise_sum: usize = noise_counts.iter().sum();
        let t = d - noise_sum;
        let max_noise = noise_counts.iter().copied().max().unwrap_or(0);
        if t <= max_noise {
            return; // not a strict winner
        }
        // multinomial probability
        let mut logp = ln_factorial(d) - ln_factorial(t);
        for &c in noise_counts {
            logp -= ln_factorial(c);
        }
        logp += t as f64 * eta.ln();
        logp += noise_sum as f64 * rho.ln();
        total += logp.exp();
    });
    total
}

/// Lower bound on the probability that **all** K classes map correctly
/// (Theorem 1, independence assumption).
pub fn p_mapping_correct(eta: f64, k: usize, d: usize) -> f64 {
    p_class_correct(eta, k, d).powi(k as i32)
}

/// Smallest per-class dev-set size `d*` whose Theorem-1 bound reaches
/// probability `p`, and the total size `m* = K·d*`. Returns `None` if no
/// `d ≤ max_d` suffices (e.g. η too close to chance).
pub fn min_dev_set_size(eta: f64, k: usize, p: f64, max_d: usize) -> Option<(usize, usize)> {
    assert!((0.0..1.0).contains(&p), "p must be in [0, 1)");
    (1..=max_d).find(|&d| p_mapping_correct(eta, k, d) >= p).map(|d| (d, k * d))
}

/// Probability that `trials` uniform throws into `m` bins leave **every**
/// bin with at most `cap` items — DP over bins using log-space binomial
/// convolution, `O(m · trials²)` worst case but tiny in practice.
fn bounded_occupancy_prob(trials: usize, m: usize, cap: usize) -> f64 {
    if trials == 0 {
        return 1.0;
    }
    if m == 0 {
        return 0.0; // items but nowhere to put them (cannot happen: k ≥ 2)
    }
    if cap >= trials {
        return 1.0;
    }
    if (cap + 1) * m < trials + 1 {
        // pigeonhole: some bin must exceed cap
        return 0.0;
    }
    // ways[j][r] = #ordered ways to place r labeled items into the first j
    // bins with each bin ≤ cap  (multinomial counting: Σ r!/(∏ c_i!)).
    // Work with w[j][r] = ways / r! to keep numbers small:
    // w[j][r] = Σ_{c=0..min(cap,r)} w[j-1][r-c] / c!.
    let mut w = vec![0.0f64; trials + 1];
    w[0] = 1.0;
    let inv_fact: Vec<f64> = {
        let mut v = vec![1.0f64; cap + 1];
        for c in 1..=cap {
            v[c] = v[c - 1] / c as f64;
        }
        v
    };
    for _ in 0..m {
        let mut next = vec![0.0f64; trials + 1];
        for r in 0..=trials {
            let mut acc = 0.0;
            for c in 0..=cap.min(r) {
                acc += w[r - c] * inv_fact[c];
            }
            next[r] = acc;
        }
        w = next;
    }
    // P = ways / m^trials = w[trials] · trials! / m^trials.
    let logp = w[trials].max(0.0).ln() + ln_factorial(trials) - trials as f64 * (m as f64).ln();
    logp.exp().clamp(0.0, 1.0)
}

fn validate(eta: f64, k: usize, d: usize) {
    assert!(eta > 0.0 && eta < 1.0, "eta must be in (0, 1), got {eta}");
    assert!(k >= 2, "need at least 2 classes");
    assert!(d >= 1, "need at least 1 dev example per class");
}

fn enumerate(counts: &mut Vec<usize>, idx: usize, remaining: usize, f: &mut impl FnMut(&[usize])) {
    if idx == counts.len() {
        f(counts);
        return;
    }
    for c in 0..=remaining {
        counts[idx] = c;
        enumerate(counts, idx + 1, remaining - c, f);
    }
    counts[idx] = 0;
}

fn ln_factorial(n: usize) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

fn ln_choose(n: usize, k: usize) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k2_reduces_to_binomial_majority() {
        // K=2: correct iff t > d - t, i.e. a strict binomial majority.
        let eta: f64 = 0.8;
        for d in [1usize, 3, 5, 10] {
            let expect: f64 = ((d / 2 + 1)..=d)
                .map(|t| {
                    (ln_choose(d, t) + (t as f64) * eta.ln() + ((d - t) as f64) * (0.2f64).ln())
                        .exp()
                })
                .sum();
            let got = p_class_correct(eta, 2, d);
            assert!((got - expect).abs() < 1e-10, "d={d}: {got} vs {expect}");
        }
    }

    #[test]
    fn dp_matches_brute_force() {
        for &k in &[2usize, 3, 4] {
            for &d in &[1usize, 2, 3, 5, 7] {
                for &eta in &[0.5f64, 0.7, 0.9] {
                    let dp = p_class_correct(eta, k, d);
                    let bf = p_class_correct_brute_force(eta, k, d);
                    assert!((dp - bf).abs() < 1e-9, "k={k} d={d} eta={eta}: dp {dp} vs brute {bf}");
                }
            }
        }
    }

    #[test]
    fn monotone_in_eta() {
        let ps: Vec<f64> =
            [0.55, 0.65, 0.75, 0.85, 0.95].iter().map(|&eta| p_class_correct(eta, 2, 9)).collect();
        assert!(ps.windows(2).all(|w| w[1] > w[0]), "{ps:?}");
    }

    #[test]
    fn single_perfect_cluster_example() {
        // §4.4: "we only need one labeled example" when clustering is
        // perfect — with η → 1, d = 1 already maps correctly a.s.
        let p = p_mapping_correct(0.999, 2, 1);
        assert!(p > 0.99, "p = {p}");
    }

    #[test]
    fn figure7_shape_eta08_k2() {
        // Paper: "when η = 0.8, only about 20 examples are required to
        // produce the correct cluster-class mapping with probability close
        // to 1" (20 total = 10 per class for K=2).
        let curve: Vec<f64> = (1..=30).map(|d| p_mapping_correct(0.8, 2, d)).collect();
        let at = |d: usize| curve[d - 1];
        assert!(at(1) < 0.9);
        // d = 10 per class = 20 total examples: "close to 1" per the paper.
        assert!(at(10) > 0.9, "P(d=10) = {}", at(10));
        assert!(at(25) > 0.98, "P(d=25) = {}", at(25));
        // Largely increasing in d (odd/even majority parity causes small
        // local plateaus, so compare 2 steps apart).
        for w in curve.windows(3) {
            assert!(w[2] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn min_dev_set_size_matches_curve() {
        let (d_star, m_star) = min_dev_set_size(0.8, 2, 0.95, 50).unwrap();
        assert_eq!(m_star, 2 * d_star);
        assert!(p_mapping_correct(0.8, 2, d_star) >= 0.95);
        if d_star > 1 {
            assert!(p_mapping_correct(0.8, 2, d_star - 1) < 0.95);
        }
        // Hopeless accuracy never reaches the bar.
        assert!(min_dev_set_size(0.51, 4, 0.999, 5).is_none());
    }

    #[test]
    fn mapping_bound_is_class_bound_to_the_k() {
        // Theorem 1's independence assumption: P(correct) = P_class^K, so
        // the joint bound can never exceed the per-class bound.
        for &k in &[2usize, 3, 4] {
            let pc = p_class_correct(0.75, k, 6);
            let pm = p_mapping_correct(0.75, k, 6);
            assert!((pm - pc.powi(k as i32)).abs() < 1e-12);
            assert!(pm <= pc + 1e-12);
        }
    }

    #[test]
    fn splitting_noise_across_more_clusters_helps_per_class() {
        // At fixed d per class the per-class bound *increases* with K: the
        // (1-η) error mass splits across K-1 clusters, so the correct
        // cluster wins a strict majority more easily.
        let p2 = p_class_correct(0.75, 2, 6);
        let p4 = p_class_correct(0.75, 4, 6);
        assert!(p4 > p2, "{p4} vs {p2}");
    }

    #[test]
    fn bounded_occupancy_edge_cases() {
        assert_eq!(bounded_occupancy_prob(0, 3, 0), 1.0);
        // 4 items, 3 bins, cap 1 → pigeonhole impossible
        assert_eq!(bounded_occupancy_prob(4, 3, 1), 0.0);
        // cap ≥ trials is always satisfied
        assert_eq!(bounded_occupancy_prob(3, 2, 3), 1.0);
        // 2 items, 2 bins, cap 1: both in different bins = 2/4
        assert!((bounded_occupancy_prob(2, 2, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_eta_one() {
        let _ = p_class_correct(1.0, 2, 5);
    }
}
