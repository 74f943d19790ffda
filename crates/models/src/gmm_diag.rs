//! Gaussian mixture with **diagonal covariance** — the paper's base model.
//!
//! §4.1: "Instead of using the full covariance matrix Σ_k that models the
//! correlations between all pairs of columns in A_f, we use the diagonal
//! covariance matrix, which reduces the number of parameters significantly."
//! The M-step updates are Equation 10; the E-step is Equation 8.
//!
//! # The two-pass iteration
//!
//! Each EM iteration reads the data twice:
//!
//! 1. **E-step + mean sums** (`e_step_with_sums`). In row order, compute
//!    the row's log joint with the current parameters, its posteriors γ
//!    and `log Σ exp`, then add γ into `N_k` and `γ·x` into the `k × d`
//!    mean sums. The log joint is computed four rows at a time
//!    (`log_joint_rows`): one sweep over `μ_c` and `σ²_c` feeds four
//!    independent add chains instead of one, and each row's sum keeps its
//!    column order and operations, so it is bit-identical to a one-row
//!    loop. The last `n mod 4` rows run one at a time.
//! 2. **Variance pass** (`m_step`), after the convergence check: the
//!    weights come from `N_k`, the means are `sums / N_k`, and one more
//!    sweep accumulates `γ·(x − μ)²`.
//!
//! Every accumulation runs in the same row order with the same operations
//! as a straightforward three-pass implementation (E-step, means pass,
//! variances pass), which the tests keep as a bit-exact oracle.
//!
//! # Absorbed tiny-γ terms
//!
//! Rows far from a component have γ far below 1e-290, and their `γ·x` or
//! `γ·dx·dx` products are subnormal: each one costs a microcode assist yet
//! cannot change an accumulator of ordinary size. `Moments::add_row` and
//! the variance pass skip such a row for component `c` only when the skip
//! is provably exact:
//!
//! * every product is below `2⁻¹⁰⁰⁰` in magnitude. Rounding is monotone,
//!   so `|fl(γ·x_j)| ≤ fl(γ·xmax)` with `xmax = max |x|` over the data,
//!   and `|fl(fl(γ·dx_j)·dx_j)| ≤ fl(fl(γ·b)·b)` with
//!   `b = fl(xmax + max_j |μ_cj|) ≥ |fl(x_j − μ_cj)|`; the bound is that
//!   right-hand side, evaluated with the same operations;
//! * every accumulator of the row has `|acc| ≥ 2⁻⁹⁴⁵`. Adding `p` to such
//!   an `acc` rounds back to `acc` whenever `|p|` is below half the gap
//!   next to `acc`: at least `2⁻⁹⁴⁵⁻⁵³ = 2⁻⁹⁹⁸` above it and, when `acc`
//!   is a power of two, `2⁻⁹⁹⁹` below it. `2⁻¹⁰⁰⁰` clears both with a
//!   factor of two to spare.
//!
//! So each skipped add would have returned `acc` unchanged. `xmax` and the
//! mean bound propagate NaN, and NaN or ±∞ fail the `<` test, so data with
//! NaN or ±∞ never skips. No floating-point control state (FTZ/DAZ) is
//! touched.

use crate::em::{
    hard_labels, posterior_row, relative_improvement, weights_from_counts, EmOptions, FitStats,
};
use crate::kmeans::KMeans;
use crate::{ModelError, Result};
use goggles_tensor::Matrix;

const LOG_TAU: f64 = 1.837_877_066_409_345_5; // ln(2π)

/// Rows per sweep of [`log_joint_rows`] in the E-step.
const ROW_BLOCK: usize = 4;

/// `2⁻¹⁰⁰⁰`: a product below this cannot change an accumulator that is at
/// least [`ABSORBING_ACC`] in magnitude (see the module docs).
const TINY_PRODUCT: f64 = f64::from_bits((1023 - 1000) << 52);

/// `2⁻⁹⁴⁵`: an accumulator at least this large in magnitude absorbs every
/// product below [`TINY_PRODUCT`].
const ABSORBING_ACC: f64 = f64::from_bits((1023 - 945) << 52);

/// Fitted diagonal-covariance Gaussian mixture.
///
/// Fitting runs EM in two passes over the data per iteration — a fused
/// E-step and mean-sum pass, then a variance pass — with results
/// bit-identical to the textbook three-pass iteration (see the module docs).
#[derive(Debug, Clone)]
pub struct DiagonalGmm {
    /// Mixture weights π_k.
    pub weights: Vec<f64>,
    /// Component means, `k × d`.
    pub means: Matrix<f64>,
    /// Component **variances** (diagonal of Σ_k), `k × d`.
    pub variances: Matrix<f64>,
    /// Posterior responsibilities γ on the training data, `n × k`, from the
    /// final E-step.
    pub responsibilities: Matrix<f64>,
    /// Fit diagnostics.
    pub stats: FitStats,
}

impl DiagonalGmm {
    /// Fit a `k`-component diagonal GMM on the rows of `data`.
    ///
    /// Each restart initializes responsibilities from a k-means++ partition
    /// and runs EM until the relative log-likelihood improvement drops below
    /// `opts.tol`. The restart with the best final likelihood wins.
    pub fn fit(data: &Matrix<f64>, k: usize, opts: &EmOptions, seed: u64) -> Result<Self> {
        validate(data, k)?;
        let mut best: Option<DiagonalGmm> = None;
        for r in 0..opts.restarts.max(1) {
            let rs = seed.wrapping_add((r as u64).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95));
            let fit = Self::fit_once(data, k, opts, rs)?;
            if best.as_ref().is_none_or(|b| fit.stats.log_likelihood > b.stats.log_likelihood) {
                best = Some(fit);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    fn fit_once(data: &Matrix<f64>, k: usize, opts: &EmOptions, seed: u64) -> Result<Self> {
        let xmax = abs_max(data.as_slice());
        // --- init from k-means hard partition ---
        let km = KMeans::fit(data, k, 1, seed)?;
        let mut resp = Matrix::<f64>::zeros(data.rows(), k);
        for (i, &lbl) in km.labels.iter().enumerate() {
            resp[(i, lbl)] = 1.0;
        }
        let mut moments = Moments::new(k, data.cols());
        for (i, row) in data.rows_iter().enumerate() {
            moments.add_row(row, resp.row(i), xmax);
        }
        let mut params = Params::zeros(k, data.cols());
        m_step(data, &resp, &moments, xmax, opts.var_floor, &mut params);
        em_loop(data, opts, xmax, params, resp)
    }

    /// Warm-start EM from the given parameters: no k-means init, no
    /// restarts, no RNG at all. The E-step runs first, so the returned fit
    /// is at least as likely as the starting point, and the whole path is
    /// deterministic in the parameters alone — the property the trainer's
    /// cross-thread-count determinism tests rely on.
    pub fn fit_from(
        data: &Matrix<f64>,
        weights: &[f64],
        means: &Matrix<f64>,
        variances: &Matrix<f64>,
        opts: &EmOptions,
    ) -> Result<Self> {
        let k = weights.len();
        validate(data, k)?;
        if means.shape() != (k, data.cols()) || variances.shape() != (k, data.cols()) {
            return Err(ModelError::InvalidParameter(format!(
                "warm-start shapes {:?}/{:?} incompatible with k={k}, d={}",
                means.shape(),
                variances.shape(),
                data.cols()
            )));
        }
        let params = Params {
            weights: weights.to_vec(),
            means: means.clone(),
            variances: variances.clone(),
        };
        let resp = Matrix::<f64>::zeros(data.rows(), k);
        em_loop(data, opts, abs_max(data.as_slice()), params, resp)
    }

    /// Posterior `P(y = k | x)` for each row of `data` (n × k).
    pub fn predict_proba(&self, data: &Matrix<f64>) -> Matrix<f64> {
        let mut resp = Matrix::<f64>::zeros(data.rows(), self.weights.len());
        for_each_log_joint(data, &self.weights, &self.means, &self.variances, |i, lj| {
            posterior_row(lj, resp.row_mut(i));
        });
        resp
    }

    /// Hard labels on the training data.
    pub fn train_labels(&self) -> Vec<usize> {
        hard_labels(&self.responsibilities)
    }
}

/// The mixture parameters EM iterates on.
struct Params {
    weights: Vec<f64>,
    means: Matrix<f64>,
    variances: Matrix<f64>,
}

impl Params {
    fn zeros(k: usize, d: usize) -> Self {
        Self { weights: vec![0.0; k], means: Matrix::zeros(k, d), variances: Matrix::zeros(k, d) }
    }
}

/// The first half of Equation 10's sufficient statistics, accumulated in
/// row order: `N_k = Σ_i γ_ik` and the unnormalized means `Σ_i γ_ik x_i`.
struct Moments {
    nk: Vec<f64>,
    sums: Matrix<f64>,
}

impl Moments {
    fn new(k: usize, d: usize) -> Self {
        Self { nk: vec![0.0; k], sums: Matrix::zeros(k, d) }
    }

    fn clear(&mut self) {
        self.nk.fill(0.0);
        self.sums.as_mut_slice().fill(0.0);
    }

    /// Add one row `x` with posteriors `gamma`. Components with `γ = 0`
    /// and components whose every product would be absorbed (module docs)
    /// add nothing to the sums; `xmax` is `max |x|` over the whole data.
    fn add_row(&mut self, x: &[f64], gamma: &[f64], xmax: f64) {
        for (c, &g) in gamma.iter().enumerate() {
            self.nk[c] += g;
            if g == 0.0 {
                continue;
            }
            let acc = self.sums.row_mut(c);
            if g * xmax < TINY_PRODUCT && absorbs(acc) {
                continue;
            }
            for (s, &xj) in acc.iter_mut().zip(x) {
                *s += g * xj;
            }
        }
    }
}

/// Whether every accumulator in `acc` is at least [`ABSORBING_ACC`] in
/// magnitude (false for NaN).
fn absorbs(acc: &[f64]) -> bool {
    acc.iter().all(|a| a.abs() >= ABSORBING_ACC)
}

/// `max |x|` over `xs`, or NaN if any entry is NaN.
fn abs_max(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |m: f64, &x| {
        if x.abs() > m {
            x.abs()
        } else if x.is_nan() {
            x
        } else {
            m
        }
    })
}

/// Shared EM loop: alternate the fused E-step (Equation 8) + mean-sum pass
/// and the rest of the M-step (Equation 10) from the given starting
/// parameters until the relative log-likelihood improvement drops below
/// `opts.tol`. `xmax` is `max |x|` over `data`.
fn em_loop(
    data: &Matrix<f64>,
    opts: &EmOptions,
    xmax: f64,
    mut params: Params,
    mut resp: Matrix<f64>,
) -> Result<DiagonalGmm> {
    let mut moments = Moments::new(params.weights.len(), data.cols());
    let mut prev_ll = f64::NEG_INFINITY;
    let mut ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    for it in 0..opts.max_iters {
        iterations = it + 1;
        ll = e_step_with_sums(data, &params, xmax, &mut resp, &mut moments);
        if !ll.is_finite() {
            return Err(ModelError::Numerical(format!("log-likelihood became {ll}")));
        }
        if relative_improvement(prev_ll, ll) < opts.tol {
            converged = true;
            break;
        }
        prev_ll = ll;
        m_step(data, &resp, &moments, xmax, opts.var_floor, &mut params);
    }
    Ok(DiagonalGmm {
        weights: params.weights,
        means: params.means,
        variances: params.variances,
        responsibilities: resp,
        stats: FitStats { log_likelihood: ll, iterations, converged },
    })
}

fn validate(data: &Matrix<f64>, k: usize) -> Result<()> {
    if data.rows() == 0 || data.cols() == 0 {
        return Err(ModelError::EmptyInput);
    }
    if k == 0 {
        return Err(ModelError::InvalidParameter("k must be ≥ 1".into()));
    }
    if data.rows() < k {
        return Err(ModelError::TooFewSamples { samples: data.rows(), components: k });
    }
    Ok(())
}

/// Per-component `log π_k − ½ Σ_j (ln 2π + ln σ²_kj)`.
fn log_normalizers(weights: &[f64], variances: &Matrix<f64>) -> Vec<f64> {
    weights
        .iter()
        .enumerate()
        .map(|(c, &w)| {
            let mut acc = 0.0;
            for &v in variances.row(c) {
                acc += LOG_TAU + v.ln();
            }
            w.ln() - 0.5 * acc
        })
        .collect()
}

/// Call `visit(i, log_joint_i)` for every row `i` of `data` in order, where
/// `log_joint_i[c] = log π_c + log N(x_i | μ_c, diag σ²_c)` (the input of
/// Equation 8). Rows go through [`log_joint_rows`] [`ROW_BLOCK`] at a time;
/// the last `n mod ROW_BLOCK` rows go one at a time, so a short input (the
/// one-row fold-in of a served image) computes no padding rows.
fn for_each_log_joint(
    data: &Matrix<f64>,
    weights: &[f64],
    means: &Matrix<f64>,
    variances: &Matrix<f64>,
    mut visit: impl FnMut(usize, &[f64]),
) {
    let n = data.rows();
    let k = weights.len();
    let log_norm = log_normalizers(weights, variances);
    let mut log_joint = vec![0.0f64; ROW_BLOCK * k];
    let blocked = n - n % ROW_BLOCK;
    for start in (0..blocked).step_by(ROW_BLOCK) {
        let rows = std::array::from_fn(|r| data.row(start + r));
        log_joint_rows::<ROW_BLOCK>(rows, means, variances, &log_norm, &mut log_joint);
        for (r, lj) in log_joint.chunks_exact(k).enumerate() {
            visit(start + r, lj);
        }
    }
    for i in blocked..n {
        log_joint_rows([data.row(i)], means, variances, &log_norm, &mut log_joint);
        visit(i, &log_joint[..k]);
    }
}

/// `out[r·k + c] = log π_c + log N(x_r | μ_c, diag σ²_c)` for the `R` rows
/// `x_r` in `rows`. Each row's Mahalanobis sum runs in column order with
/// the same operations whatever `R` is, so every `R` gives the same bits;
/// the rows only share the sweep over `μ_c` and `σ²_c`, which gives the
/// adds `R` independent chains instead of one.
fn log_joint_rows<const R: usize>(
    rows: [&[f64]; R],
    means: &Matrix<f64>,
    variances: &Matrix<f64>,
    log_norm: &[f64],
    out: &mut [f64],
) {
    let d = means.cols();
    let k = log_norm.len();
    let rows = rows.map(|x| &x[..d]);
    for c in 0..k {
        let mu = &means.row(c)[..d];
        let var = &variances.row(c)[..d];
        let mut maha = [0.0f64; R];
        for j in 0..d {
            let (m, v) = (mu[j], var[j]);
            for (acc, x) in maha.iter_mut().zip(rows) {
                let dx = x[j] - m;
                *acc += dx * dx / v;
            }
        }
        for (r, &acc) in maha.iter().enumerate() {
            out[r * k + c] = log_norm[c] - 0.5 * acc;
        }
    }
}

/// The fused first pass of an EM iteration: the E-step (Equation 8) with
/// `params` into `resp`, and the mean sums of the following M-step into
/// `moments`, row by row. Returns the data log-likelihood.
fn e_step_with_sums(
    data: &Matrix<f64>,
    params: &Params,
    xmax: f64,
    resp: &mut Matrix<f64>,
    moments: &mut Moments,
) -> f64 {
    moments.clear();
    let mut ll = 0.0;
    for_each_log_joint(data, &params.weights, &params.means, &params.variances, |i, lj| {
        ll += posterior_row(lj, resp.row_mut(i));
        moments.add_row(data.row(i), resp.row(i), xmax);
    });
    ll
}

/// Equation 10 from the first pass's `moments`: π from `N_k` (as
/// [`crate::em::update_weights`] computes it), `μ = sums / N_k`, then the
/// variance pass `σ² = Σ_i γ_ik (x_i − μ_k)² / N_k`, floored at
/// `var_floor`. Components with `γ = 0` or whose products would all be
/// absorbed (module docs) are skipped.
fn m_step(
    data: &Matrix<f64>,
    resp: &Matrix<f64>,
    moments: &Moments,
    xmax: f64,
    var_floor: f64,
    params: &mut Params,
) {
    let d = data.cols();
    let k = params.weights.len();
    let nk = &moments.nk;
    params.weights = weights_from_counts(nk, data.rows());
    for c in 0..k {
        let inv = 1.0 / nk[c].max(1e-12);
        for (m, &s) in params.means.row_mut(c).iter_mut().zip(moments.sums.row(c)) {
            *m = s * inv;
        }
    }
    // b_c = xmax + max_j |μ_cj| bounds every |x_j − μ_cj|.
    let bounds: Vec<f64> = (0..k).map(|c| xmax + abs_max(params.means.row(c))).collect();
    let variances = &mut params.variances;
    variances.as_mut_slice().fill(0.0);
    for (i, row) in data.rows_iter().enumerate() {
        let g = resp.row(i);
        for c in 0..k {
            let gc = g[c];
            if gc == 0.0 {
                continue;
            }
            let var_row = variances.row_mut(c);
            if gc * bounds[c] * bounds[c] < TINY_PRODUCT && absorbs(var_row) {
                continue;
            }
            let mu = params.means.row(c);
            // Manual index loop keeps a single pass over the row.
            for j in 0..d {
                let dx = row[j] - mu[j];
                var_row[j] += gc * dx * dx;
            }
        }
    }
    for c in 0..k {
        let inv = 1.0 / nk[c].max(1e-12);
        for v in variances.row_mut(c) {
            *v = (*v * inv).max(var_floor);
        }
    }
}

/// The three-pass EM iteration the two-pass one replaced — E-step over a
/// full log-joint matrix, then one pass for the means and one for the
/// variances — kept as the bit-exact oracle for the tests.
#[cfg(test)]
mod reference {
    use super::{validate, DiagonalGmm, LOG_TAU};
    use crate::em::{e_step_from_log_joint, relative_improvement, update_weights};
    use crate::em::{EmOptions, FitStats};
    use crate::kmeans::KMeans;
    use crate::{ModelError, Result};
    use goggles_tensor::Matrix;

    pub(super) fn fit(
        data: &Matrix<f64>,
        k: usize,
        opts: &EmOptions,
        seed: u64,
    ) -> Result<DiagonalGmm> {
        validate(data, k)?;
        let mut best: Option<DiagonalGmm> = None;
        for r in 0..opts.restarts.max(1) {
            let rs = seed.wrapping_add((r as u64).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95));
            let km = KMeans::fit(data, k, 1, rs)?;
            let mut resp = Matrix::<f64>::zeros(data.rows(), k);
            for (i, &lbl) in km.labels.iter().enumerate() {
                resp[(i, lbl)] = 1.0;
            }
            let mut weights = vec![1.0 / k as f64; k];
            let mut means = Matrix::<f64>::zeros(k, data.cols());
            let mut variances = Matrix::<f64>::zeros(k, data.cols());
            m_step(data, &resp, &mut weights, &mut means, &mut variances, opts.var_floor);
            let fit = em_loop(data, opts, weights, means, variances, resp)?;
            if best.as_ref().is_none_or(|b| fit.stats.log_likelihood > b.stats.log_likelihood) {
                best = Some(fit);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    pub(super) fn fit_from(
        data: &Matrix<f64>,
        weights: &[f64],
        means: &Matrix<f64>,
        variances: &Matrix<f64>,
        opts: &EmOptions,
    ) -> Result<DiagonalGmm> {
        validate(data, weights.len())?;
        let resp = Matrix::<f64>::zeros(data.rows(), weights.len());
        em_loop(data, opts, weights.to_vec(), means.clone(), variances.clone(), resp)
    }

    pub(super) fn predict_proba(gmm: &DiagonalGmm, data: &Matrix<f64>) -> Matrix<f64> {
        let k = gmm.weights.len();
        let mut log_joint = Matrix::<f64>::zeros(data.rows(), k);
        fill_log_joint(data, &gmm.weights, &gmm.means, &gmm.variances, &mut log_joint);
        let mut resp = Matrix::<f64>::zeros(data.rows(), k);
        let _ = e_step_from_log_joint(&log_joint, &mut resp);
        resp
    }

    fn em_loop(
        data: &Matrix<f64>,
        opts: &EmOptions,
        mut weights: Vec<f64>,
        mut means: Matrix<f64>,
        mut variances: Matrix<f64>,
        mut resp: Matrix<f64>,
    ) -> Result<DiagonalGmm> {
        let mut log_joint = Matrix::<f64>::zeros(data.rows(), weights.len());
        let mut prev_ll = f64::NEG_INFINITY;
        let mut ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..opts.max_iters {
            iterations = it + 1;
            fill_log_joint(data, &weights, &means, &variances, &mut log_joint);
            ll = e_step_from_log_joint(&log_joint, &mut resp);
            if !ll.is_finite() {
                return Err(ModelError::Numerical(format!("log-likelihood became {ll}")));
            }
            if relative_improvement(prev_ll, ll) < opts.tol {
                converged = true;
                break;
            }
            prev_ll = ll;
            m_step(data, &resp, &mut weights, &mut means, &mut variances, opts.var_floor);
        }
        Ok(DiagonalGmm {
            weights,
            means,
            variances,
            responsibilities: resp,
            stats: FitStats { log_likelihood: ll, iterations, converged },
        })
    }

    fn fill_log_joint(
        data: &Matrix<f64>,
        weights: &[f64],
        means: &Matrix<f64>,
        variances: &Matrix<f64>,
        out: &mut Matrix<f64>,
    ) {
        let k = weights.len();
        let mut log_norm = vec![0.0f64; k];
        for (c, ln) in log_norm.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &v in variances.row(c) {
                acc += LOG_TAU + v.ln();
            }
            *ln = weights[c].ln() - 0.5 * acc;
        }
        for (i, row) in data.rows_iter().enumerate() {
            let out_row = out.row_mut(i);
            for c in 0..k {
                let mu = means.row(c);
                let var = variances.row(c);
                let mut maha = 0.0;
                for ((&x, &m), &v) in row.iter().zip(mu).zip(var) {
                    let dsq = (x - m) * (x - m);
                    maha += dsq / v;
                }
                out_row[c] = log_norm[c] - 0.5 * maha;
            }
        }
    }

    fn m_step(
        data: &Matrix<f64>,
        resp: &Matrix<f64>,
        weights: &mut [f64],
        means: &mut Matrix<f64>,
        variances: &mut Matrix<f64>,
        var_floor: f64,
    ) {
        let d = data.cols();
        let k = weights.len();
        let (w, nk) = update_weights(resp);
        weights.copy_from_slice(&w);
        for c in 0..k {
            means.row_mut(c).fill(0.0);
        }
        for (i, row) in data.rows_iter().enumerate() {
            let g = resp.row(i);
            for c in 0..k {
                let gc = g[c];
                if gc == 0.0 {
                    continue;
                }
                for (m, &x) in means.row_mut(c).iter_mut().zip(row) {
                    *m += gc * x;
                }
            }
        }
        for c in 0..k {
            let inv = 1.0 / nk[c].max(1e-12);
            for m in means.row_mut(c) {
                *m *= inv;
            }
        }
        for c in 0..k {
            variances.row_mut(c).fill(0.0);
        }
        for (i, row) in data.rows_iter().enumerate() {
            let g = resp.row(i);
            for c in 0..k {
                let gc = g[c];
                if gc == 0.0 {
                    continue;
                }
                let mu = means.row(c);
                let var_row = variances.row_mut(c);
                for j in 0..d {
                    let dx = row[j] - mu[j];
                    var_row[j] += gc * dx * dx;
                }
            }
        }
        for c in 0..k {
            let inv = 1.0 / nk[c].max(1e-12);
            for v in variances.row_mut(c) {
                *v = (*v * inv).max(var_floor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::{normal, std_rng};

    fn gaussian_blobs(n_per: usize, sep: f64, seed: u64) -> (Matrix<f64>, Vec<usize>) {
        let mut rng = std_rng(seed);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (c, lbl) in [(-sep, 0usize), (sep, 1)] {
            for _ in 0..n_per {
                rows.push([c + normal(&mut rng), c + 0.5 * normal(&mut rng)]);
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
    fn recovers_separated_components() {
        let (data, truth) = gaussian_blobs(100, 4.0, 1);
        let gmm = DiagonalGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        assert!(binary_accuracy(&gmm.train_labels(), &truth) > 0.99);
        // means close to ±4
        let m0 = gmm.means[(0, 0)];
        let m1 = gmm.means[(1, 0)];
        assert!((m0.abs() - 4.0).abs() < 0.5 && (m1.abs() - 4.0).abs() < 0.5);
        assert!(m0.signum() != m1.signum());
    }

    #[test]
    fn recovers_anisotropic_variances() {
        let (data, _) = gaussian_blobs(400, 5.0, 2);
        let gmm = DiagonalGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        for c in 0..2 {
            // dim 0 has σ=1, dim 1 has σ=0.5 → var 1.0 vs 0.25
            assert!((gmm.variances[(c, 0)] - 1.0).abs() < 0.3, "{:?}", gmm.variances);
            assert!((gmm.variances[(c, 1)] - 0.25).abs() < 0.12, "{:?}", gmm.variances);
        }
    }

    #[test]
    fn log_likelihood_is_monotone_over_iterations() {
        // EM guarantees non-decreasing likelihood; verify via two fits with
        // different iteration caps sharing the same seed and single restart.
        let (data, _) = gaussian_blobs(60, 2.0, 3);
        let short = DiagonalGmm::fit(
            &data,
            2,
            &EmOptions { max_iters: 2, restarts: 1, ..EmOptions::default() },
            9,
        )
        .unwrap();
        let long = DiagonalGmm::fit(
            &data,
            2,
            &EmOptions { max_iters: 50, restarts: 1, ..EmOptions::default() },
            9,
        )
        .unwrap();
        assert!(long.stats.log_likelihood >= short.stats.log_likelihood - 1e-9);
    }

    #[test]
    fn responsibilities_rows_sum_to_one() {
        let (data, _) = gaussian_blobs(40, 3.0, 4);
        let gmm = DiagonalGmm::fit(&data, 3, &EmOptions::default(), 1).unwrap();
        for i in 0..data.rows() {
            let s: f64 = gmm.responsibilities.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        let probs = gmm.predict_proba(&data);
        for i in 0..data.rows() {
            let s: f64 = probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn variance_floor_protects_degenerate_dims() {
        // Second dimension is constant: naive variance would be 0.
        let data = Matrix::from_fn(20, 2, |i, j| if j == 0 { i as f64 } else { 3.0 });
        let gmm = DiagonalGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        for c in 0..2 {
            assert!(gmm.variances[(c, 1)] >= 1e-6);
        }
        assert!(gmm.stats.log_likelihood.is_finite());
    }

    #[test]
    fn deterministic_per_seed() {
        let (data, _) = gaussian_blobs(50, 2.0, 5);
        let a = DiagonalGmm::fit(&data, 2, &EmOptions::default(), 11).unwrap();
        let b = DiagonalGmm::fit(&data, 2, &EmOptions::default(), 11).unwrap();
        assert_eq!(a.train_labels(), b.train_labels());
        assert_eq!(a.stats.log_likelihood, b.stats.log_likelihood);
    }

    #[test]
    fn warm_start_matches_or_improves_and_is_deterministic() {
        let (data, _) = gaussian_blobs(60, 3.0, 8);
        let cold = DiagonalGmm::fit(&data, 2, &EmOptions::default(), 7).unwrap();
        let warm = DiagonalGmm::fit_from(
            &data,
            &cold.weights,
            &cold.means,
            &cold.variances,
            &EmOptions::default(),
        )
        .unwrap();
        assert!(warm.stats.log_likelihood >= cold.stats.log_likelihood - 1e-9);
        // Warm restart from a converged fit should terminate almost at once.
        assert!(warm.stats.converged && warm.stats.iterations <= 3, "{:?}", warm.stats);
        let again = DiagonalGmm::fit_from(
            &data,
            &cold.weights,
            &cold.means,
            &cold.variances,
            &EmOptions::default(),
        )
        .unwrap();
        assert_eq!(warm.stats.log_likelihood, again.stats.log_likelihood);
        assert_eq!(warm.means.as_slice(), again.means.as_slice());
    }

    #[test]
    fn warm_start_rejects_mismatched_shapes() {
        let (data, _) = gaussian_blobs(30, 2.0, 9);
        let fit = DiagonalGmm::fit(&data, 2, &EmOptions::default(), 0).unwrap();
        let bad = Matrix::<f64>::zeros(2, 5);
        assert!(matches!(
            DiagonalGmm::fit_from(&data, &fit.weights, &bad, &fit.variances, &EmOptions::default()),
            Err(ModelError::InvalidParameter(_))
        ));
    }

    #[test]
    fn input_validation() {
        let empty = Matrix::<f64>::zeros(0, 3);
        assert!(matches!(
            DiagonalGmm::fit(&empty, 2, &EmOptions::default(), 0),
            Err(ModelError::EmptyInput)
        ));
        let tiny = Matrix::<f64>::zeros(1, 3);
        assert!(matches!(
            DiagonalGmm::fit(&tiny, 2, &EmOptions::default(), 0),
            Err(ModelError::TooFewSamples { .. })
        ));
    }

    // ---- bit-exact oracle: the two-pass iteration against `reference` ----

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_fit(got: &Result<DiagonalGmm>, want: &Result<DiagonalGmm>, case: &str) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(bits(&g.weights), bits(&w.weights), "{case}: weights");
                assert_eq!(bits(g.means.as_slice()), bits(w.means.as_slice()), "{case}: means");
                assert_eq!(
                    bits(g.variances.as_slice()),
                    bits(w.variances.as_slice()),
                    "{case}: variances"
                );
                assert_eq!(
                    bits(g.responsibilities.as_slice()),
                    bits(w.responsibilities.as_slice()),
                    "{case}: responsibilities"
                );
                assert_eq!(
                    g.stats.log_likelihood.to_bits(),
                    w.stats.log_likelihood.to_bits(),
                    "{case}: log-likelihood"
                );
                assert_eq!(g.stats.iterations, w.stats.iterations, "{case}: iterations");
                assert_eq!(g.stats.converged, w.stats.converged, "{case}: converged");
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "{case}: error"),
            _ => panic!("{case}: got {:?}, reference {:?}", got.is_ok(), want.is_ok()),
        }
    }

    /// `sizes[c]` rows around `centers[c]` in 5 dimensions, σ = 1 on the
    /// first and σ = 0.3 on the rest, in cluster order.
    fn blobs(sizes: &[usize], centers: &[f64], seed: u64) -> Matrix<f64> {
        let mut rng = std_rng(seed);
        let mut rows = Vec::new();
        for (&size, &c) in sizes.iter().zip(centers) {
            for _ in 0..size {
                let row: Vec<f64> = (0..5)
                    .map(|j| if j == 0 { c + normal(&mut rng) } else { 0.3 * normal(&mut rng) })
                    .collect();
                rows.push(row);
            }
        }
        Matrix::from_fn(rows.len(), 5, |i, j| rows[i][j])
    }

    /// Clusters 36 apart along one axis: each row's γ for the far
    /// component spreads over roughly e⁻⁵⁰⁰ … e⁻⁹⁰⁰, i.e. ordinary tiny
    /// normals, values whose products fall below the absorption bound,
    /// subnormals and exact zeros.
    const FAR: [f64; 3] = [-18.0, 18.0, 54.0];

    fn oracle_cases() -> Vec<(String, Matrix<f64>, usize)> {
        let mut cases = Vec::new();
        for (k, size_sets) in [
            (2, vec![vec![20, 20], vec![20, 21], vec![21, 21], vec![21, 22]]),
            (3, vec![vec![13, 14, 14], vec![14, 14, 14], vec![14, 14, 15], vec![15, 15, 15]]),
        ] {
            for (s, sizes) in size_sets.iter().enumerate() {
                let data = blobs(sizes, &FAR[..k], 40 + s as u64);
                cases.push((format!("k={k} n={}", data.rows()), data, k));
            }
        }
        cases
    }

    #[test]
    fn cold_fit_is_bit_identical_to_three_pass_reference() {
        let opts = EmOptions { restarts: 2, ..EmOptions::default() };
        let (mut tiny, mut subnormal, mut zero) = (0, 0, 0);
        for (case, data, k) in oracle_cases() {
            let want = reference::fit(&data, k, &opts, 5);
            assert_same_fit(&DiagonalGmm::fit(&data, k, &opts, 5), &want, &case);
            let xmax = abs_max(data.as_slice());
            for &g in want.unwrap().responsibilities.as_slice() {
                tiny += usize::from(g > 0.0 && g * xmax < TINY_PRODUCT);
                subnormal += usize::from(g.is_subnormal());
                zero += usize::from(g == 0.0);
            }
        }
        // The cases reach the absorption skip, subnormal γ and γ = 0.
        assert!(tiny > 0 && subnormal > 0 && zero > 0, "{tiny} {subnormal} {zero}");
    }

    #[test]
    fn warm_fit_and_predict_are_bit_identical_to_reference() {
        let opts = EmOptions::default();
        for (case, data, k) in oracle_cases() {
            let cold = reference::fit(&data, k, &opts, 9).unwrap();
            // Start away from the optimum so the warm fit iterates.
            let means = Matrix::from_fn(k, 5, |c, j| 0.8 * cold.means[(c, j)] + 0.1);
            let variances = Matrix::from_fn(k, 5, |c, j| 1.5 * cold.variances[(c, j)]);
            let weights = vec![1.0 / k as f64; k];
            assert_same_fit(
                &DiagonalGmm::fit_from(&data, &weights, &means, &variances, &opts),
                &reference::fit_from(&data, &weights, &means, &variances, &opts),
                &format!("warm {case}"),
            );
            // Every tail length past the four-row sweeps.
            for rows in 1..=9 {
                let held_out = Matrix::from_fn(rows, 5, |i, j| data[(3 * i % data.rows(), j)]);
                assert_eq!(
                    bits(cold.predict_proba(&held_out).as_slice()),
                    bits(reference::predict_proba(&cold, &held_out).as_slice()),
                    "predict {case} rows={rows}"
                );
            }
        }
    }

    #[test]
    fn non_finite_data_fails_like_reference() {
        let opts = EmOptions::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (case, mut data, k) in oracle_cases().into_iter().take(3) {
                let case = format!("{case} with {bad}");
                let means = Matrix::from_fn(k, 5, |c, _| FAR[c]);
                let variances = Matrix::from_fn(k, 5, |_, _| 1.0);
                let weights = vec![1.0 / k as f64; k];
                let mid = data.rows() / 2;
                data[(mid, 3)] = bad;
                assert_same_fit(
                    &DiagonalGmm::fit(&data, k, &opts, 1),
                    &reference::fit(&data, k, &opts, 1),
                    &case,
                );
                assert_same_fit(
                    &DiagonalGmm::fit_from(&data, &weights, &means, &variances, &opts),
                    &reference::fit_from(&data, &weights, &means, &variances, &opts),
                    &format!("warm {case}"),
                );
            }
        }
    }

    /// Two clusters of rows in 3 dimensions, A (10 rows) then B (13), with
    /// column 1 equal to `tiny` in A and 1 in B, and warm-start parameters
    /// under which each B row's γ_A is about `e^-depth` (± e³). A's mean sum
    /// in column 1 is then about `10·tiny` when B's rows add `γ_A·1`.
    fn tiny_sum_case(tiny: f64, depth: f64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        let mut rng = std_rng(77);
        let data = Matrix::from_fn(23, 3, |i, j| {
            let a = i < 10;
            match j {
                0 => (if a { 0.1 } else { 1.0 }) + 0.002 * normal(&mut rng),
                1 => {
                    if a {
                        tiny
                    } else {
                        1.0
                    }
                }
                _ => 0.5 + 0.1 * normal(&mut rng),
            }
        });
        let means = Matrix::from_rows(&[&[0.1, tiny, 0.5], &[1.0, 1.0, 0.5]]);
        // Column 0 separates the clusters by 0.9: 0.81 / (2 v) = depth.
        let v0 = 0.81 / (2.0 * depth);
        let variances = Matrix::from_rows(&[&[v0, 1e3, 1.0], &[v0, 1e3, 1.0]]);
        (data, means, variances)
    }

    /// Products near the absorption bound against accumulators near the
    /// absorbing magnitude: each case fails if its constant is loosened.
    /// One iteration keeps the first M-step's means in the result.
    ///
    /// * `1e-300`, depth 708: A's column-1 sum is about 1e-299, far below
    ///   2⁻⁹⁴⁵, and every `γ_A·1` (≈ e⁻⁷⁰⁸, below 2⁻¹⁰⁰⁰) changes it.
    /// * `1e-284`, depth 676: the sum is about 1e-283, above 2⁻⁹⁴⁵, and the
    ///   products (≈ e⁻⁶⁷⁶, between 2⁻⁹⁹³ and 2⁻⁹⁶⁰) are above the bound and
    ///   change it too.
    #[test]
    fn near_bound_products_and_small_accumulators_are_not_skipped() {
        let weights = [0.5, 0.5];
        for (tiny, depth) in [(1e-300, 708.0), (1e-284, 676.0)] {
            let (data, means, variances) = tiny_sum_case(tiny, depth);
            for max_iters in [1, 2, 100] {
                let opts = EmOptions { max_iters, ..EmOptions::default() };
                assert_same_fit(
                    &DiagonalGmm::fit_from(&data, &weights, &means, &variances, &opts),
                    &reference::fit_from(&data, &weights, &means, &variances, &opts),
                    &format!("tiny={tiny:e} max_iters={max_iters}"),
                );
            }
            // Every B row's γ_A lands in the intended band.
            let one = EmOptions { max_iters: 1, ..EmOptions::default() };
            let fit = reference::fit_from(&data, &weights, &means, &variances, &one).unwrap();
            for i in 10..23 {
                let g = fit.responsibilities[(i, 0)];
                assert!((-depth - 12.0..-depth + 12.0).contains(&g.ln()), "row {i}: γ_A = {g:e}");
            }
        }
    }

    #[test]
    fn absorption_constants_are_the_documented_powers_of_two() {
        assert_eq!(TINY_PRODUCT, 2f64.powi(-1000));
        assert_eq!(ABSORBING_ACC, 2f64.powi(-945));
        assert!(abs_max(&[1.0, f64::NAN, -3.0]).is_nan());
        assert_eq!(abs_max(&[1.0, -3.0, 2.0]), 3.0);
        assert_eq!(abs_max(&[f64::NEG_INFINITY, 2.0]), f64::INFINITY);
    }
}
