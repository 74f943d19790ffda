//! Multivariate-Bernoulli mixture — the paper's **ensemble model**.
//!
//! §4.1: after converting the concatenated label-prediction matrix LP to
//! one-hot form, "Multivariate Bernoulli distribution is a natural fit for
//! modeling P(s′_i | θ′_k)" (Equation 7). The M-step is Equation 11. The
//! Bernoulli parameters `b_{k,l}` effectively learn the *accuracy of each
//! affinity function*, which is how the ensemble distinguishes good affinity
//! functions from bad ones.

use crate::em::{
    e_step_from_log_joint, hard_labels, relative_improvement, update_weights, EmOptions, FitStats,
};
use crate::kmeans::KMeans;
use crate::{ModelError, Result};
use goggles_tensor::Matrix;

/// Clamp for Bernoulli parameters: keeps every `log b` / `log (1-b)` finite.
const B_EPS: f64 = 1e-4;

/// Fitted multivariate-Bernoulli mixture.
#[derive(Debug, Clone)]
pub struct BernoulliMixture {
    /// Mixture weights π_k.
    pub weights: Vec<f64>,
    /// Bernoulli parameters `b_{k,l} = P(s′[l] = 1 | y = k)`, `k × d`.
    pub probs: Matrix<f64>,
    /// Posterior responsibilities on the training data, `n × k`.
    pub responsibilities: Matrix<f64>,
    /// Fit diagnostics.
    pub stats: FitStats,
}

impl BernoulliMixture {
    /// Fit a `k`-component Bernoulli mixture on binary rows (values are
    /// treated as probabilities of a 1; hard 0/1 inputs are the intended
    /// use, matching the paper's one-hot LP).
    pub fn fit(data: &Matrix<f64>, k: usize, opts: &EmOptions, seed: u64) -> Result<Self> {
        if data.rows() == 0 || data.cols() == 0 {
            return Err(ModelError::EmptyInput);
        }
        if k == 0 {
            return Err(ModelError::InvalidParameter("k must be ≥ 1".into()));
        }
        if data.rows() < k {
            return Err(ModelError::TooFewSamples { samples: data.rows(), components: k });
        }
        if data.as_slice().iter().any(|&v| !(0.0..=1.0).contains(&v)) {
            return Err(ModelError::InvalidParameter(
                "BernoulliMixture expects values in [0, 1]".into(),
            ));
        }
        let mut best: Option<BernoulliMixture> = None;
        for r in 0..opts.restarts.max(1) {
            let rs = seed.wrapping_add((r as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let fit = Self::fit_once(data, k, opts, rs)?;
            if best.as_ref().is_none_or(|b| fit.stats.log_likelihood > b.stats.log_likelihood) {
                best = Some(fit);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    fn fit_once(data: &Matrix<f64>, k: usize, opts: &EmOptions, seed: u64) -> Result<Self> {
        let n = data.rows();
        // init: k-means on the binary rows gives a sane hard partition
        let km = KMeans::fit(data, k, 1, seed)?;
        let mut resp = Matrix::<f64>::zeros(n, k);
        for (i, &lbl) in km.labels.iter().enumerate() {
            resp[(i, lbl)] = 1.0;
        }
        let mut weights = vec![1.0 / k as f64; k];
        let mut probs = Matrix::<f64>::zeros(k, data.cols());
        m_step(data, &resp, &mut weights, &mut probs);
        em_loop(data, opts, weights, probs, resp)
    }

    /// Warm-start EM from the given parameters: no k-means init, no
    /// restarts, no RNG. The E-step runs first, so the fit can only match
    /// or improve the starting likelihood, and the result depends on the
    /// starting parameters alone.
    pub fn fit_from(
        data: &Matrix<f64>,
        weights: &[f64],
        probs: &Matrix<f64>,
        opts: &EmOptions,
    ) -> Result<Self> {
        let k = weights.len();
        if data.rows() == 0 || data.cols() == 0 {
            return Err(ModelError::EmptyInput);
        }
        if k == 0 {
            return Err(ModelError::InvalidParameter("k must be ≥ 1".into()));
        }
        if data.rows() < k {
            return Err(ModelError::TooFewSamples { samples: data.rows(), components: k });
        }
        if probs.shape() != (k, data.cols()) {
            return Err(ModelError::InvalidParameter(format!(
                "warm-start probs shape {:?} incompatible with k={k}, d={}",
                probs.shape(),
                data.cols()
            )));
        }
        let resp = Matrix::<f64>::zeros(data.rows(), k);
        em_loop(data, opts, weights.to_vec(), probs.clone(), resp)
    }

    /// Posterior `P(y = k | s′)` for new binary rows.
    pub fn predict_proba(&self, data: &Matrix<f64>) -> Matrix<f64> {
        let n = data.rows();
        let k = self.weights.len();
        let mut log_joint = Matrix::<f64>::zeros(n, k);
        fill_log_joint(data, &self.weights, &self.probs, &mut log_joint);
        let mut resp = Matrix::<f64>::zeros(n, k);
        let _ = e_step_from_log_joint(&log_joint, &mut resp);
        resp
    }

    /// Hard labels on the training data.
    pub fn train_labels(&self) -> Vec<usize> {
        hard_labels(&self.responsibilities)
    }
}

/// Shared EM loop: alternate E-step (Equation 8) and M-step (Equation 11)
/// from the given starting parameters until convergence.
fn em_loop(
    data: &Matrix<f64>,
    opts: &EmOptions,
    mut weights: Vec<f64>,
    mut probs: Matrix<f64>,
    mut resp: Matrix<f64>,
) -> Result<BernoulliMixture> {
    let mut log_joint = Matrix::<f64>::zeros(data.rows(), weights.len());
    let mut prev_ll = f64::NEG_INFINITY;
    let mut ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    for it in 0..opts.max_iters {
        iterations = it + 1;
        fill_log_joint(data, &weights, &probs, &mut log_joint);
        ll = e_step_from_log_joint(&log_joint, &mut resp);
        if !ll.is_finite() {
            return Err(ModelError::Numerical(format!("log-likelihood became {ll}")));
        }
        if relative_improvement(prev_ll, ll) < opts.tol {
            converged = true;
            break;
        }
        prev_ll = ll;
        m_step(data, &resp, &mut weights, &mut probs);
    }
    Ok(BernoulliMixture {
        weights,
        probs,
        responsibilities: resp,
        stats: FitStats { log_likelihood: ll, iterations, converged },
    })
}

/// `log_joint[i,k] = log π_k + Σ_l [ s log b + (1-s) log(1-b) ]`
/// (log of Equation 7 plus the prior).
fn fill_log_joint(data: &Matrix<f64>, weights: &[f64], probs: &Matrix<f64>, out: &mut Matrix<f64>) {
    let k = weights.len();
    // Precompute log b and log (1-b).
    let log_b = probs.map(|v| v.clamp(B_EPS, 1.0 - B_EPS).ln());
    let log_1mb = probs.map(|v| (1.0 - v.clamp(B_EPS, 1.0 - B_EPS)).ln());
    for (i, row) in data.rows_iter().enumerate() {
        for c in 0..k {
            let lb = log_b.row(c);
            let l1 = log_1mb.row(c);
            let mut acc = weights[c].ln();
            for ((&s, &b1), &b0) in row.iter().zip(lb).zip(l1) {
                acc += s * b1 + (1.0 - s) * b0;
            }
            out[(i, c)] = acc;
        }
    }
}

/// Equation 11: `b_{k,l} = (Σ_i γ_{ik} s′_i[l]) / N_k`, clamped away from
/// {0, 1} so the log-densities stay finite.
fn m_step(data: &Matrix<f64>, resp: &Matrix<f64>, weights: &mut [f64], probs: &mut Matrix<f64>) {
    let k = weights.len();
    let (w, nk) = update_weights(resp);
    weights.copy_from_slice(&w);
    for c in 0..k {
        probs.row_mut(c).fill(0.0);
    }
    for (i, row) in data.rows_iter().enumerate() {
        for c in 0..k {
            let g = resp[(i, c)];
            if g == 0.0 {
                continue;
            }
            for (p, &s) in probs.row_mut(c).iter_mut().zip(row) {
                *p += g * s;
            }
        }
    }
    for c in 0..k {
        let inv = 1.0 / nk[c].max(1e-12);
        for p in probs.row_mut(c) {
            *p = (*p * inv).clamp(B_EPS, 1.0 - B_EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::std_rng;
    use rand::Rng;

    /// Binary data from two Bernoulli profiles with per-bit flip noise.
    fn binary_blobs(n_per: usize, d: usize, flip: f64, seed: u64) -> (Matrix<f64>, Vec<usize>) {
        let mut rng = std_rng(seed);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for cls in 0..2usize {
            for _ in 0..n_per {
                let row: Vec<f64> = (0..d)
                    .map(|j| {
                        // class 0: first half on; class 1: second half on
                        let ideal = if (j < d / 2) == (cls == 0) { 1.0 } else { 0.0 };
                        if rng.random::<f64>() < flip {
                            1.0 - ideal
                        } else {
                            ideal
                        }
                    })
                    .collect();
                rows.push(row);
                truth.push(cls);
            }
        }
        (Matrix::from_fn(rows.len(), d, |i, j| rows[i][j]), truth)
    }

    fn binary_accuracy(labels: &[usize], truth: &[usize]) -> f64 {
        let same =
            labels.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
        same.max(1.0 - same)
    }

    #[test]
    fn recovers_two_binary_profiles() {
        let (data, truth) = binary_blobs(60, 10, 0.1, 1);
        let bm = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        assert!(binary_accuracy(&bm.train_labels(), &truth) > 0.97);
    }

    #[test]
    fn learned_probs_match_flip_rate() {
        let (data, _) = binary_blobs(300, 8, 0.15, 2);
        let bm = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        // Every b should be close to 0.15 or 0.85.
        for c in 0..2 {
            for &b in bm.probs.row(c) {
                let dist = (b - 0.15).abs().min((b - 0.85).abs());
                assert!(dist < 0.07, "b = {b}");
            }
        }
    }

    #[test]
    fn handles_pure_noise_gracefully() {
        let mut rng = std_rng(3);
        let data = Matrix::from_fn(80, 6, |_, _| if rng.random::<f64>() < 0.5 { 0.0 } else { 1.0 });
        let bm = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        assert!(bm.stats.log_likelihood.is_finite());
        // probs near 0.5
        let avg: f64 = bm.probs.as_slice().iter().sum::<f64>() / bm.probs.len() as f64;
        assert!((avg - 0.5).abs() < 0.15, "avg prob = {avg}");
    }

    #[test]
    fn probs_stay_clamped() {
        // Perfectly separable data would drive b to 0/1 without clamping.
        let (data, _) = binary_blobs(40, 6, 0.0, 4);
        let bm = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        for &b in bm.probs.as_slice() {
            assert!((B_EPS..=1.0 - B_EPS).contains(&b));
        }
        assert!(bm.stats.log_likelihood.is_finite());
    }

    #[test]
    fn rejects_out_of_range_values() {
        let data = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        assert!(matches!(
            BernoulliMixture::fit(&data, 2, &EmOptions::default(), 0),
            Err(ModelError::InvalidParameter(_))
        ));
    }

    #[test]
    fn predict_proba_consistent_with_training() {
        let (data, _) = binary_blobs(50, 10, 0.05, 5);
        let bm = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        let rep = bm.predict_proba(&data);
        // Posterior recomputed on training data ≈ stored responsibilities.
        let diff = rep.max_abs_diff(&bm.responsibilities);
        assert!(diff < 1e-8, "diff = {diff}");
    }

    #[test]
    fn warm_start_matches_or_improves_and_is_deterministic() {
        let (data, _) = binary_blobs(50, 8, 0.1, 8);
        let cold = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 3).unwrap();
        let warm =
            BernoulliMixture::fit_from(&data, &cold.weights, &cold.probs, &EmOptions::default())
                .unwrap();
        assert!(warm.stats.log_likelihood >= cold.stats.log_likelihood - 1e-9);
        assert!(warm.stats.converged && warm.stats.iterations <= 3, "{:?}", warm.stats);
        let again =
            BernoulliMixture::fit_from(&data, &cold.weights, &cold.probs, &EmOptions::default())
                .unwrap();
        assert_eq!(warm.stats.log_likelihood, again.stats.log_likelihood);
        assert_eq!(warm.probs.as_slice(), again.probs.as_slice());
    }

    #[test]
    fn warm_start_rejects_mismatched_shapes() {
        let (data, _) = binary_blobs(30, 6, 0.1, 9);
        let fit = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        let bad = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            BernoulliMixture::fit_from(&data, &fit.weights, &bad, &EmOptions::default()),
            Err(ModelError::InvalidParameter(_))
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let (data, _) = binary_blobs(40, 8, 0.1, 7);
        let a = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 9).unwrap();
        let b = BernoulliMixture::fit(&data, 2, &EmOptions::default(), 9).unwrap();
        assert_eq!(a.train_labels(), b.train_labels());
    }
}
