//! Row-major dense matrix used throughout the workspace.
//!
//! The affinity matrix `A ∈ R^{N×αN}` of the paper, label-prediction blocks,
//! CNN weight matrices and feature tables are all instances of [`Matrix`].

use crate::scalar::Scalar;
use crate::{Result, TensorError};

/// Dense row-major matrix over an [`Scalar`] element type.
///
/// Storage is a single `Vec<T>` of length `rows * cols`; row `i` occupies
/// `data[i*cols .. (i+1)*cols]`. Rows are exposed as slices so hot loops can
/// iterate without bounds checks.
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// The identity matrix of size `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a row-major `Vec`; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch(format!(
                "from_vec: {} elements cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Build from row slices; all rows must have equal length.
    ///
    /// # Panics
    /// Panics if the rows are ragged. Intended for literals in tests/docs.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged row");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Build with a generator closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<T> {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the cache-friendly `ikj` loop order over row slices, which LLVM
    /// vectorizes in release builds. Shapes must agree.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[T]) -> Vec<T> {
        assert_eq!(self.cols, v.len(), "matvec: {}x{} * {}", self.rows, self.cols, v.len());
        self.rows_iter().map(|row| row.iter().zip(v.iter()).map(|(&a, &b)| a * b).sum()).collect()
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(T) -> T) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Elementwise in-place map.
    pub fn map_in_place(&mut self, f: impl Fn(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise combination of two equally-shaped matrices.
    pub(crate) fn zip_with(&self, other: &Self, f: impl Fn(T, T) -> T) -> Result<Self> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch(format!(
                "zip_with: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> T {
        self.data.iter().copied().sum()
    }

    /// Frobenius norm.
    pub(crate) fn frobenius_norm(&self) -> T {
        self.data.iter().map(|&v| v * v).sum::<T>().sqrt()
    }

    /// Per-column means; empty matrix yields an empty vector.
    pub fn col_means(&self) -> Vec<T> {
        if self.rows == 0 {
            return vec![T::ZERO; self.cols];
        }
        let inv_n = T::ONE / T::from_f64(self.rows as f64);
        let mut means = vec![T::ZERO; self.cols];
        for row in self.rows_iter() {
            for (m, &v) in means.iter_mut().zip(row.iter()) {
                *m += v;
            }
        }
        for m in &mut means {
            *m *= inv_n;
        }
        means
    }

    /// Per-column (population) variances.
    pub fn col_variances(&self) -> Vec<T> {
        let means = self.col_means();
        if self.rows == 0 {
            return vec![T::ZERO; self.cols];
        }
        let inv_n = T::ONE / T::from_f64(self.rows as f64);
        let mut vars = vec![T::ZERO; self.cols];
        for row in self.rows_iter() {
            for ((vv, &v), &m) in vars.iter_mut().zip(row.iter()).zip(means.iter()) {
                let d = v - m;
                *vv += d * d;
            }
        }
        for v in &mut vars {
            *v *= inv_n;
        }
        vars
    }

    /// L2-normalize each row in place. Zero rows are left untouched.
    pub fn l2_normalize_rows(&mut self) {
        let cols = self.cols;
        for row in self.data.chunks_exact_mut(cols.max(1)) {
            let norm = row.iter().map(|&v| v * v).sum::<T>().sqrt();
            if norm > T::ZERO {
                let inv = T::ONE / norm;
                for v in row {
                    *v *= inv;
                }
            }
        }
    }

    /// Append the rows of `other` below `self`'s, in place. The column
    /// counts must match; on a mismatch `self` is left untouched.
    pub fn append_rows(&mut self, other: &Self) -> Result<()> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "append_rows: {} vs {} cols",
                self.cols, other.cols
            )));
        }
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
        Ok(())
    }

    /// Copy of the column block `[col_start, col_end)`.
    pub fn col_block(&self, col_start: usize, col_end: usize) -> Self {
        assert!(col_start <= col_end && col_end <= self.cols);
        let cols = col_end - col_start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(&self.row(i)[col_start..col_end]);
        }
        Self { rows: self.rows, cols, data }
    }

    /// Copy of the rows selected by `indices`, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self { rows: indices.len(), cols: self.cols, data }
    }

    /// Maximum absolute elementwise difference against `other`.
    pub fn max_abs_diff(&self, other: &Self) -> T {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(T::ZERO, |acc, v| acc.maximum(v))
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(10);
            for j in 0..cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols > 10 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f64> {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0f64; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0f64; 4]).is_ok());
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_indexing() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = sample();
        let v = vec![1.0, 0.5, -1.0];
        let got = m.matvec(&v);
        assert_eq!(got, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn col_means_and_variances() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        assert_eq!(m.col_means(), vec![2.0, 10.0]);
        assert_eq!(m.col_variances(), vec![1.0, 0.0]);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let mut m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        m.l2_normalize_rows();
        assert!((m.row(0).iter().map(|v| v * v).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(m.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn stacking_round_trip() {
        let m = sample();
        let mut v = m.clone();
        v.append_rows(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.select_rows(&[0, 1]), m);
        assert_eq!(v.select_rows(&[2, 3]), m);
    }

    #[test]
    fn stacking_shape_errors() {
        let m = sample();
        let mut v = m.clone();
        assert!(v.append_rows(&m.transpose()).is_err());
        assert_eq!(v, m, "a refused append leaves the matrix untouched");
    }

    #[test]
    fn select_rows_reorders() {
        let m = sample();
        let r = m.select_rows(&[1, 0]);
        assert_eq!(r.row(0), m.row(1));
        assert_eq!(r.row(1), m.row(0));
    }

    #[test]
    fn zip_with_add_sub() {
        let m = sample();
        let s = m.add(&m).unwrap().sub(&m).unwrap();
        assert_eq!(s, m);
    }
}
