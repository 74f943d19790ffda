//! Shared expectation–maximization machinery: options, convergence
//! bookkeeping and the log-domain E-step common to every mixture model in
//! this crate (Equation 8 of the paper).

use goggles_tensor::{log_sum_exp, Matrix};

/// Options shared by the EM-fit models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmOptions {
    /// Maximum EM iterations per restart.
    pub max_iters: usize,
    /// Convergence threshold on the relative log-likelihood improvement.
    pub tol: f64,
    /// Number of random restarts; the fit with the best final
    /// log-likelihood wins.
    pub restarts: usize,
    /// Floor applied to Gaussian variances (and eigenvalue ridge for full
    /// covariances).
    pub var_floor: f64,
}

impl Default for EmOptions {
    fn default() -> Self {
        Self { max_iters: 100, tol: 1e-6, restarts: 3, var_floor: 1e-6 }
    }
}

/// Fit diagnostics returned alongside fitted models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitStats {
    /// Final (per-dataset, not per-sample) log-likelihood.
    pub log_likelihood: f64,
    /// EM iterations consumed by the winning restart.
    pub iterations: usize,
    /// Whether the winning restart converged before `max_iters`.
    pub converged: bool,
}

/// Log-domain E-step: given per-sample per-component **log joint**
/// probabilities `log π_k + log p(x_i | θ_k)` in `log_joint` (n × K), fill
/// `resp` with posteriors γ_{ik} (Equation 8) and return the data
/// log-likelihood `Σ_i log Σ_k exp(log_joint[i,k])`.
pub(crate) fn e_step_from_log_joint(log_joint: &Matrix<f64>, resp: &mut Matrix<f64>) -> f64 {
    assert_eq!(log_joint.shape(), resp.shape());
    let mut total = 0.0;
    for i in 0..log_joint.rows() {
        total += posterior_row(log_joint.row(i), resp.row_mut(i));
    }
    total
}

/// One row of the E-step: write the posteriors γ_{i·} of one sample's log
/// joint row into `resp` and return the row's `log Σ_k exp(log_joint[k])`.
/// A row whose normalizer is not finite gets uniform responsibility.
pub(crate) fn posterior_row(log_joint: &[f64], resp: &mut [f64]) -> f64 {
    let lse = log_sum_exp(log_joint);
    if lse.is_finite() {
        for (g, &lj) in resp.iter_mut().zip(log_joint) {
            *g = (lj - lse).exp();
        }
    } else {
        // Degenerate sample: uniform responsibility keeps EM moving.
        resp.fill(1.0 / log_joint.len() as f64);
    }
    lse
}

/// Convert soft responsibilities (n × K) into hard cluster labels by
/// per-row argmax.
pub fn hard_labels(resp: &Matrix<f64>) -> Vec<usize> {
    (0..resp.rows()).map(|i| goggles_tensor::argmax(resp.row(i))).collect()
}

/// Mixture weights from responsibilities: `π_k = N_k / N` with
/// `N_k = Σ_i γ_{ik}` (first line of Equations 10 and 11). A tiny floor
/// keeps empty components alive so later log π terms stay finite.
pub(crate) fn update_weights(resp: &Matrix<f64>) -> (Vec<f64>, Vec<f64>) {
    let mut nk = vec![0.0f64; resp.cols()];
    for i in 0..resp.rows() {
        for (acc, &g) in nk.iter_mut().zip(resp.row(i)) {
            *acc += g;
        }
    }
    (weights_from_counts(&nk, resp.rows()), nk)
}

/// `π_k = max(N_k / n, 1e-10)`, renormalized: the weight half of
/// [`update_weights`] for callers that accumulate `N_k` themselves.
pub(crate) fn weights_from_counts(nk: &[f64], n: usize) -> Vec<f64> {
    let mut weights: Vec<f64> = nk.iter().map(|&v| (v / n as f64).max(1e-10)).collect();
    // renormalize after flooring
    let s: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= s;
    }
    weights
}

/// Relative improvement used for the convergence check; robust to
/// near-zero likelihoods.
pub(crate) fn relative_improvement(prev: f64, cur: f64) -> f64 {
    if !prev.is_finite() {
        return f64::INFINITY;
    }
    (cur - prev).abs() / prev.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_step_normalizes_rows() {
        let log_joint = Matrix::from_rows(&[&[0.0, (2.0f64).ln()], &[-1.0, -1.0]]);
        let mut resp = Matrix::zeros(2, 2);
        let ll = e_step_from_log_joint(&log_joint, &mut resp);
        assert!((resp[(0, 0)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((resp[(0, 1)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((resp[(1, 0)] - 0.5).abs() < 1e-12);
        let expect = (1.0f64 + 2.0).ln() + (-1.0 + 2.0f64.ln());
        assert!((ll - expect).abs() < 1e-12);
    }

    #[test]
    fn e_step_handles_all_neg_inf_row() {
        let log_joint = Matrix::from_rows(&[&[f64::NEG_INFINITY, f64::NEG_INFINITY], &[0.0, 0.0]]);
        let mut resp = Matrix::zeros(2, 2);
        let _ = e_step_from_log_joint(&log_joint, &mut resp);
        assert_eq!(resp.row(0), &[0.5, 0.5]);
    }

    #[test]
    fn hard_labels_argmax() {
        let resp = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.5, 0.5]]);
        assert_eq!(hard_labels(&resp), vec![0, 1, 0]);
    }

    #[test]
    fn update_weights_sums_to_one() {
        let resp = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let (w, nk) = update_weights(&resp);
        assert!((w[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(nk, vec![2.0, 1.0]);
    }

    #[test]
    fn update_weights_floors_empty_components() {
        let resp = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
        let (w, _) = update_weights(&resp);
        assert!(w[1] > 0.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_improvement_handles_infinite_prev() {
        assert_eq!(relative_improvement(f64::NEG_INFINITY, -5.0), f64::INFINITY);
        assert!((relative_improvement(-100.0, -99.0) - 0.01).abs() < 1e-12);
    }
}
