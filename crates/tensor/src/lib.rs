//! # goggles-tensor
//!
//! Dense numeric substrate for the GOGGLES reproduction: row-major matrices
//! and small tensors, the linear algebra the paper's inference needs
//! (the fused matmul + column-max affinity kernel, symmetric
//! eigendecomposition, Cholesky, PCA, truncated SVD), statistics helpers
//! (log-sum-exp, histograms, AUC) and deterministic random sampling.
//!
//! Everything is implemented from scratch on top of `std` + `rand`; there is
//! no BLAS/LAPACK dependency. The matrix kernels use the `ikj` loop order and
//! preallocated buffers so release builds auto-vectorize well (see the Rust
//! Performance Book guidance on iterators and bounds checks).
//!
//! ```
//! use goggles_tensor::Matrix;
//! let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::<f64>::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

pub mod linalg;
pub mod matrix;
pub mod pool;
pub mod rng;
pub mod scalar;
pub mod stats;
pub mod tensor3;

pub use linalg::EighResult;
pub use linalg::{
    cholesky, colmax_matmul_f32, colmax_matmul_naive_f32, colmax_matmul_panel_f32,
    conv_bias_relu_f32, gemm_bias_relu_f32, gemm_call_count, gemm_flop_count, im2col_3x3,
    orthogonal_iteration, solve_lower_triangular, ColmaxPanel, ColmaxScratch, GemmScratch,
    PackedConv, Pca,
};
pub use matrix::Matrix;
pub use rng::{normal, sample_weighted, sample_without_replacement, std_rng};
pub use scalar::Scalar;
pub use stats::{argmax, auc, cosine_similarity, histogram, log_sum_exp, mean};
pub use tensor3::Tensor3;

/// Errors produced by tensor and linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
// goggles-lint: allow(dead-pub): error type of the pub tensor API: external callers name it only through `?`/inference
pub enum TensorError {
    /// Two operands had incompatible shapes. The payload carries a
    /// human-readable description of the mismatch.
    ShapeMismatch(String),
    /// A routine that requires a square matrix received a rectangular one.
    NotSquare { rows: usize, cols: usize },
    /// Numerical failure, e.g. Cholesky on a non-positive-definite matrix.
    Numerical(String),
    /// An empty input where at least one element is required.
    Empty(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::NotSquare { rows, cols } => {
                write!(f, "expected square matrix, got {rows}x{cols}")
            }
            TensorError::Numerical(msg) => write!(f, "numerical error: {msg}"),
            TensorError::Empty(msg) => write!(f, "empty input: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
