//! Gaussian mixture with **full covariance** — the naive model the paper
//! argues against in §4 ("a naive invocation of GMM on our affinity matrix A
//! is problematic") and the `GMM` baseline column of Table 1.
//!
//! Log-densities are evaluated through a Cholesky factorization of each
//! covariance; a ridge (shrinkage toward the diagonal) keeps factorization
//! feasible when features outnumber samples — exactly the high-dimensional
//! failure mode the paper describes (citing [7, 30]).

use crate::em::{
    e_step_from_log_joint, hard_labels, relative_improvement, update_weights, EmOptions, FitStats,
};
use crate::kmeans::KMeans;
use crate::{ModelError, Result};
use goggles_tensor::{cholesky, solve_lower_triangular, Matrix};

const LOG_TAU: f64 = 1.837_877_066_409_345_5; // ln(2π)

/// Fitted full-covariance Gaussian mixture.
#[derive(Debug, Clone)]
pub struct FullGmm {
    /// Mixture weights π_k.
    pub weights: Vec<f64>,
    /// Component means, `k × d`.
    pub means: Matrix<f64>,
    /// Cholesky factors `L_k` of each component covariance (`Σ_k = L Lᵀ`).
    pub chol_factors: Vec<Matrix<f64>>,
    /// Posterior responsibilities on the training data, `n × k`.
    pub responsibilities: Matrix<f64>,
    /// Fit diagnostics.
    pub stats: FitStats,
    /// Ridge actually used (may exceed the requested floor if the base
    /// covariance was badly conditioned).
    pub ridge: f64,
}

impl FullGmm {
    /// Fit a `k`-component full-covariance GMM with EM.
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
        let mut best: Option<FullGmm> = None;
        for r in 0..opts.restarts.max(1) {
            let rs = seed.wrapping_add((r as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            match Self::fit_once(data, k, opts, rs) {
                Ok(fit) => {
                    if best
                        .as_ref()
                        .is_none_or(|b| fit.stats.log_likelihood > b.stats.log_likelihood)
                    {
                        best = Some(fit);
                    }
                }
                Err(_) if best.is_some() => {} // another restart already succeeded
                Err(e) if r + 1 == opts.restarts.max(1) && best.is_none() => return Err(e),
                Err(_) => {}
            }
        }
        best.ok_or_else(|| ModelError::Numerical("all restarts failed".into()))
    }

    fn fit_once(data: &Matrix<f64>, k: usize, opts: &EmOptions, seed: u64) -> Result<Self> {
        let n = data.rows();
        let d = data.cols();
        let km = KMeans::fit(data, k, 1, seed)?;
        let mut resp = Matrix::<f64>::zeros(n, k);
        for (i, &lbl) in km.labels.iter().enumerate() {
            resp[(i, lbl)] = 1.0;
        }
        let mut weights = vec![1.0 / k as f64; k];
        let mut means = Matrix::<f64>::zeros(k, d);
        let mut ridge_used = opts.var_floor;
        let mut chols = m_step_full(data, &resp, &mut weights, &mut means, opts, &mut ridge_used)?;

        let mut log_joint = Matrix::<f64>::zeros(n, k);
        let mut prev_ll = f64::NEG_INFINITY;
        let mut ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..opts.max_iters {
            iterations = it + 1;
            fill_log_joint_full(data, &weights, &means, &chols, &mut log_joint);
            ll = e_step_from_log_joint(&log_joint, &mut resp);
            if !ll.is_finite() {
                return Err(ModelError::Numerical(format!("log-likelihood became {ll}")));
            }
            if relative_improvement(prev_ll, ll) < opts.tol {
                converged = true;
                break;
            }
            prev_ll = ll;
            chols = m_step_full(data, &resp, &mut weights, &mut means, opts, &mut ridge_used)?;
        }
        Ok(Self {
            weights,
            means,
            chol_factors: chols,
            responsibilities: resp,
            stats: FitStats { log_likelihood: ll, iterations, converged },
            ridge: ridge_used,
        })
    }

    /// Posterior class probabilities for new rows.
    pub fn predict_proba(&self, data: &Matrix<f64>) -> Matrix<f64> {
        let n = data.rows();
        let k = self.weights.len();
        let mut log_joint = Matrix::<f64>::zeros(n, k);
        fill_log_joint_full(data, &self.weights, &self.means, &self.chol_factors, &mut log_joint);
        let mut resp = Matrix::<f64>::zeros(n, k);
        let _ = e_step_from_log_joint(&log_joint, &mut resp);
        resp
    }

    /// Hard labels on the training data.
    pub fn train_labels(&self) -> Vec<usize> {
        hard_labels(&self.responsibilities)
    }
}

/// Full-covariance M-step; returns the per-component Cholesky factors.
/// Escalates the ridge (×10 up to 1e3× the floor) until factorization
/// succeeds, recording the final value in `ridge_used`.
fn m_step_full(
    data: &Matrix<f64>,
    resp: &Matrix<f64>,
    weights: &mut [f64],
    means: &mut Matrix<f64>,
    opts: &EmOptions,
    ridge_used: &mut f64,
) -> Result<Vec<Matrix<f64>>> {
    let d = data.cols();
    let k = weights.len();
    let (w, nk) = update_weights(resp);
    weights.copy_from_slice(&w);
    for c in 0..k {
        means.row_mut(c).fill(0.0);
    }
    for (i, row) in data.rows_iter().enumerate() {
        for c in 0..k {
            let g = resp[(i, c)];
            if g == 0.0 {
                continue;
            }
            for (m, &x) in means.row_mut(c).iter_mut().zip(row) {
                *m += g * x;
            }
        }
    }
    for c in 0..k {
        let inv = 1.0 / nk[c].max(1e-12);
        for m in means.row_mut(c) {
            *m *= inv;
        }
    }
    let mut chols = Vec::with_capacity(k);
    for c in 0..k {
        let mut cov = Matrix::<f64>::zeros(d, d);
        let mu = means.row(c).to_vec();
        for (i, row) in data.rows_iter().enumerate() {
            let g = resp[(i, c)];
            if g == 0.0 {
                continue;
            }
            for a in 0..d {
                let da = row[a] - mu[a];
                if da == 0.0 {
                    continue;
                }
                for b in a..d {
                    cov[(a, b)] += g * da * (row[b] - mu[b]);
                }
            }
        }
        let inv = 1.0 / nk[c].max(1e-12);
        for a in 0..d {
            for b in a..d {
                let v = cov[(a, b)] * inv;
                cov[(a, b)] = v;
                cov[(b, a)] = v;
            }
        }
        // Ridge escalation until positive definite.
        let mut ridge = (*ridge_used).max(opts.var_floor);
        let chol = loop {
            let mut reg = cov.clone();
            for a in 0..d {
                reg[(a, a)] += ridge;
            }
            match cholesky(&reg) {
                Ok(l) => break l,
                Err(_) if ridge < opts.var_floor * 1e6 => ridge *= 10.0,
                Err(e) => {
                    return Err(ModelError::Numerical(format!(
                        "covariance of component {c} not PD even with ridge {ridge:.1e}: {e}"
                    )))
                }
            }
        };
        *ridge_used = ridge.max(*ridge_used);
        chols.push(chol);
    }
    Ok(chols)
}

/// `log_joint[i,c] = log π_c + log N(x_i | μ_c, Σ_c)` via Cholesky solves.
fn fill_log_joint_full(
    data: &Matrix<f64>,
    weights: &[f64],
    means: &Matrix<f64>,
    chols: &[Matrix<f64>],
    out: &mut Matrix<f64>,
) {
    let d = data.cols();
    let k = weights.len();
    // log-normalizer: log π - ½ d ln 2π - Σ ln L_ii
    let mut log_norm = vec![0.0f64; k];
    for c in 0..k {
        let log_det_half: f64 = (0..d).map(|i| chols[c][(i, i)].ln()).sum();
        log_norm[c] = weights[c].ln() - 0.5 * d as f64 * LOG_TAU - log_det_half;
    }
    let mut diff = vec![0.0f64; d];
    for (i, row) in data.rows_iter().enumerate() {
        for c in 0..k {
            let mu = means.row(c);
            for ((dst, &x), &m) in diff.iter_mut().zip(row).zip(mu) {
                *dst = x - m;
            }
            let z = solve_lower_triangular(&chols[c], &diff);
            let maha: f64 = z.iter().map(|v| v * v).sum();
            out[(i, c)] = log_norm[c] - 0.5 * maha;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::{normal, std_rng};

    /// Two correlated Gaussian blobs (diagonal GMM would model them less
    /// faithfully; full GMM should recover the correlation).
    fn correlated_blobs(n_per: usize, seed: u64) -> (Matrix<f64>, Vec<usize>) {
        let mut rng = std_rng(seed);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (center, lbl) in [(-3.0f64, 0usize), (3.0, 1)] {
            for _ in 0..n_per {
                let a = normal(&mut rng);
                let b = normal(&mut rng);
                // strong correlation: y ≈ x
                rows.push([center + a, center + 0.9 * a + 0.3 * b]);
                truth.push(lbl);
            }
        }
        (Matrix::from_fn(rows.len(), 2, |i, j| rows[i][j]), truth)
    }

    fn binary_accuracy(labels: &[usize], truth: &[usize]) -> f64 {
        let same =
            labels.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
        same.max(1.0 - same)
    }

    #[test]
    fn separates_correlated_blobs() {
        let (data, truth) = correlated_blobs(80, 1);
        let gmm = FullGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        assert!(binary_accuracy(&gmm.train_labels(), &truth) > 0.98);
    }

    #[test]
    fn covariance_captures_correlation() {
        let (data, _) = correlated_blobs(400, 2);
        let gmm = FullGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        for c in 0..2 {
            let l = &gmm.chol_factors[c];
            // Σ = L Lᵀ; off-diagonal Σ_01 should be strongly positive (~0.9)
            let cov01 = l[(1, 0)] * l[(0, 0)];
            assert!(cov01 > 0.5, "component {c} cov01 = {cov01}");
        }
    }

    #[test]
    fn full_beats_diagonal_likelihood_on_correlated_data() {
        let (data, _) = correlated_blobs(150, 3);
        let full = FullGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        let diag = crate::DiagonalGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        assert!(
            full.stats.log_likelihood > diag.stats.log_likelihood,
            "full {} ≤ diag {}",
            full.stats.log_likelihood,
            diag.stats.log_likelihood
        );
    }

    #[test]
    fn survives_high_dimensional_degenerate_input() {
        // d > n: the regime the paper says breaks naive GMM. The ridge must
        // keep the fit alive (even if the model is meaningless).
        let data = Matrix::from_fn(10, 30, |i, j| ((i * 31 + j * 7) % 13) as f64 / 13.0);
        let gmm = FullGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        assert!(gmm.stats.log_likelihood.is_finite());
        assert!(gmm.ridge >= 1e-6);
    }

    #[test]
    fn predict_proba_rows_normalized() {
        let (data, _) = correlated_blobs(50, 4);
        let gmm = FullGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        let p = gmm.predict_proba(&data);
        for i in 0..p.rows() {
            assert!((p.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (data, _) = correlated_blobs(60, 6);
        let a = FullGmm::fit(&data, 2, &EmOptions::default(), 3).unwrap();
        let b = FullGmm::fit(&data, 2, &EmOptions::default(), 3).unwrap();
        assert_eq!(a.train_labels(), b.train_labels());
    }
}
