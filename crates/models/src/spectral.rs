//! Spectral co-clustering (Dhillon, "Co-clustering documents and words using
//! bipartite spectral graph partitioning", KDD 2001) — the `Spectral`
//! baseline column of Table 1.
//!
//! Given a non-negative relation matrix `A (n × m)` the algorithm:
//! 1. normalizes `An = D₁^{-1/2} A D₂^{-1/2}`,
//! 2. takes the `ℓ = ⌈log₂ k⌉ + 1` leading singular vector pairs of `An`
//!    (dropping the trivial first pair),
//! 3. embeds rows as `D₁^{-1/2} U` and columns as `D₂^{-1/2} V`,
//! 4. runs k-means on the stacked embedding and reads off row labels.
//!
//! Singular vectors are obtained from the eigen-decomposition of the smaller
//! Gram matrix (`An Anᵀ` or `Anᵀ An`) via orthogonal iteration, so the
//! routine stays `O(min(n, m)² · max(n, m))` — important because GOGGLES
//! feeds it the full `N × αN` affinity matrix.

use crate::kmeans::KMeans;
use crate::{ModelError, Result};
use goggles_tensor::{orthogonal_iteration, Matrix};

/// Fitted spectral co-clustering model.
#[derive(Debug, Clone)]
pub struct SpectralCoclustering {
    /// Cluster label per row of the input matrix.
    pub row_labels: Vec<usize>,
    /// Cluster label per column of the input matrix.
    pub col_labels: Vec<usize>,
    /// Number of clusters.
    pub k: usize,
}

impl SpectralCoclustering {
    /// Co-cluster `a` (entries must be non-negative; GOGGLES shifts cosine
    /// affinities into `[0, 1]` before calling) into `k` biclusters.
    pub fn fit(a: &Matrix<f64>, k: usize, seed: u64) -> Result<Self> {
        let n = a.rows();
        let m = a.cols();
        if n == 0 || m == 0 {
            return Err(ModelError::EmptyInput);
        }
        if k < 2 {
            return Err(ModelError::InvalidParameter("spectral needs k ≥ 2".into()));
        }
        if n < k {
            return Err(ModelError::TooFewSamples { samples: n, components: k });
        }
        if a.as_slice().iter().any(|&v| v < 0.0) {
            return Err(ModelError::InvalidParameter(
                "spectral co-clustering requires non-negative entries".into(),
            ));
        }
        // Degree vectors (ε-floored so empty rows/cols stay finite).
        let mut d1 = vec![0.0f64; n];
        for (i, row) in a.rows_iter().enumerate() {
            d1[i] = row.iter().sum::<f64>().max(1e-12);
        }
        let mut d2 = vec![0.0f64; m];
        for row in a.rows_iter() {
            for (j, &v) in row.iter().enumerate() {
                d2[j] += v;
            }
        }
        for v in &mut d2 {
            *v = v.max(1e-12);
        }
        let inv_sqrt_d1: Vec<f64> = d1.iter().map(|&v| 1.0 / v.sqrt()).collect();
        let inv_sqrt_d2: Vec<f64> = d2.iter().map(|&v| 1.0 / v.sqrt()).collect();
        // An = D1^-1/2 A D2^-1/2
        let mut an = a.clone();
        for i in 0..n {
            let ri = inv_sqrt_d1[i];
            for (j, v) in an.row_mut(i).iter_mut().enumerate() {
                *v *= ri * inv_sqrt_d2[j];
            }
        }
        // ℓ = ceil(log2 k) + 1 singular pairs (first is trivial).
        let l = (k as f64).log2().ceil() as usize + 1;
        let (u, v) = leading_singular_pairs(&an, l, seed)?;
        // Drop the first (trivial) pair; embed rows and columns.
        let dims = l - 1;
        let mut row_embed = Matrix::<f64>::zeros(n, dims);
        for i in 0..n {
            for t in 0..dims {
                row_embed[(i, t)] = inv_sqrt_d1[i] * u[(i, t + 1)];
            }
        }
        let mut col_embed = Matrix::<f64>::zeros(m, dims);
        for j in 0..m {
            for t in 0..dims {
                col_embed[(j, t)] = inv_sqrt_d2[j] * v[(j, t + 1)];
            }
        }
        // K-means on the stacked embedding (rows first, then columns).
        let mut stacked = row_embed;
        stacked.append_rows(&col_embed).expect("equal dims");
        let km = KMeans::fit(&stacked, k, 5, seed)?;
        let row_labels = km.labels[..n].to_vec();
        let col_labels = km.labels[n..].to_vec();
        Ok(Self { row_labels, col_labels, k })
    }
}

/// Leading `l` singular pairs `(U, V)` of a rectangular matrix via the
/// eigendecomposition of the smaller Gram matrix.
fn leading_singular_pairs(
    an: &Matrix<f64>,
    l: usize,
    seed: u64,
) -> Result<(Matrix<f64>, Matrix<f64>)> {
    let n = an.rows();
    let m = an.cols();
    let l = l.min(n).min(m).max(1);
    let iters = 60;
    if m <= n {
        // eig of Anᵀ An (m × m) gives V; U = An V / σ.
        let gram = an.transpose().matmul(an);
        let eig = orthogonal_iteration(&gram, l, iters, seed)
            .map_err(|e| ModelError::Numerical(format!("orthogonal iteration: {e}")))?;
        let v = eig.vectors;
        let av = an.matmul(&v);
        let mut u = Matrix::<f64>::zeros(n, l);
        for t in 0..l {
            let sigma = eig.values[t].max(0.0).sqrt().max(1e-12);
            for i in 0..n {
                u[(i, t)] = av[(i, t)] / sigma;
            }
        }
        Ok((u, v))
    } else {
        // eig of An Anᵀ (n × n) gives U; V = Anᵀ U / σ.
        let gram = an.matmul(&an.transpose());
        let eig = orthogonal_iteration(&gram, l, iters, seed)
            .map_err(|e| ModelError::Numerical(format!("orthogonal iteration: {e}")))?;
        let u = eig.vectors;
        let atu = an.transpose().matmul(&u);
        let mut v = Matrix::<f64>::zeros(m, l);
        for t in 0..l {
            let sigma = eig.values[t].max(0.0).sqrt().max(1e-12);
            for j in 0..m {
                v[(j, t)] = atu[(j, t)] / sigma;
            }
        }
        Ok((u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::std_rng;
    use rand::Rng;

    /// Block-diagonal bipartite graph with noise: rows 0..n1 connect to
    /// cols 0..m1, the rest to the rest.
    fn block_matrix(n1: usize, n2: usize, m1: usize, m2: usize, seed: u64) -> Matrix<f64> {
        let mut rng = std_rng(seed);
        Matrix::from_fn(n1 + n2, m1 + m2, |i, j| {
            let in_block = (i < n1) == (j < m1);
            let base = if in_block { 0.8 } else { 0.05 };
            (base + 0.1 * rng.random::<f64>()).max(0.0)
        })
    }

    fn binary_accuracy(labels: &[usize], truth: &[usize]) -> f64 {
        let same =
            labels.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
        same.max(1.0 - same)
    }

    #[test]
    fn recovers_block_structure_rows_and_cols() {
        let sc = SpectralCoclustering::fit(&block_matrix(20, 20, 30, 30, 1), 2, 0).unwrap();
        let row_truth: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let col_truth: Vec<usize> = (0..60).map(|j| usize::from(j >= 30)).collect();
        assert!(binary_accuracy(&sc.row_labels, &row_truth) > 0.95);
        assert!(binary_accuracy(&sc.col_labels, &col_truth) > 0.95);
    }

    #[test]
    fn works_when_rows_exceed_cols() {
        let sc = SpectralCoclustering::fit(&block_matrix(40, 40, 5, 5, 2), 2, 0).unwrap();
        let row_truth: Vec<usize> = (0..80).map(|i| usize::from(i >= 40)).collect();
        assert!(binary_accuracy(&sc.row_labels, &row_truth) > 0.9);
    }

    #[test]
    fn rejects_negative_entries() {
        let a = Matrix::from_rows(&[&[1.0, -0.1], &[0.3, 0.2]]);
        assert!(matches!(
            SpectralCoclustering::fit(&a, 2, 0),
            Err(ModelError::InvalidParameter(_))
        ));
    }

    #[test]
    fn rejects_k_less_than_two() {
        let a = Matrix::filled(4, 4, 1.0);
        assert!(SpectralCoclustering::fit(&a, 1, 0).is_err());
    }

    #[test]
    fn survives_empty_rows() {
        let mut a = block_matrix(10, 10, 10, 10, 3);
        for v in a.row_mut(0) {
            *v = 0.0;
        }
        let sc = SpectralCoclustering::fit(&a, 2, 0).unwrap();
        assert_eq!(sc.row_labels.len(), 20);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = block_matrix(15, 15, 20, 20, 4);
        let x = SpectralCoclustering::fit(&a, 2, 9).unwrap();
        let y = SpectralCoclustering::fit(&a, 2, 9).unwrap();
        assert_eq!(x.row_labels, y.row_labels);
    }
}
