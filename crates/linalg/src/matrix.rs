use std::fmt;
use std::ops::{Index, IndexMut};

use crate::view::{self, MatMut, MatRef};
use crate::{Cholesky, LinalgError, Lu, Qr, Result, Vector};

/// A dense row-major matrix of `f64` values.
///
/// The BMF design matrices `G` (eq. 9) are tall-and-thin at the early stage
/// and short-and-wide at the late stage (K ≪ M). `Matrix` stores elements in
/// row-major order so building `G` one simulated sample (row) at a time is
/// contiguous, and provides the Gram products (`GᵀG`, `GAGᵀ`) that the MAP
/// solvers need.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let g = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, -1.0]])?;
/// let x = Vector::from(vec![1.0, 1.0, 1.0]);
/// let y = g.matvec(&x)?;
/// assert_eq!(y.as_slice(), &[3.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the diagonal.
    ///
    /// ```
    /// let d = bmf_linalg::Matrix::from_diagonal(&[1.0, 2.0]);
    /// assert_eq!(d[(1, 1)], 2.0);
    /// assert_eq!(d[(0, 1)], 0.0);
    /// ```
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from a generator function over `(row, col)` indices.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when rows have unequal
    /// lengths, or [`LinalgError::Empty`] when no rows are given.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let first = rows.first().ok_or(LinalgError::Empty { op: "from_rows" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (i, cols),
                    rhs: (i, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from an owned row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len() != rows *
    /// cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_row_major",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the row-major storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Reshapes to `rows × cols` with every element zero, reusing the
    /// existing buffer when its capacity suffices.
    ///
    /// This is the workspace primitive: repeated solves of varying shape
    /// reuse one `Matrix` without reallocating once it has grown to the
    /// largest shape seen.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Borrows the matrix as an immutable [`MatRef`] view.
    pub fn as_view(&self) -> MatRef<'_> {
        MatRef::from_matrix(self)
    }

    /// Borrows the matrix as a mutable [`MatMut`] view.
    pub fn as_view_mut(&mut self) -> MatMut<'_> {
        MatMut::from_matrix(self)
    }

    /// Borrows the given rows, in order, as a [`MatRef`] view (view row
    /// `i` reads `self.row(rows[i])`) — no elements are copied.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn rows_view<'a>(&'a self, rows: &'a [usize]) -> MatRef<'a> {
        self.as_view().select_rows(rows)
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics when `j >= self.ncols()`.
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Copies the diagonal into a new [`Vector`].
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() !=
    /// self.ncols()`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        let mut out = vec![0.0; self.rows];
        view::matvec_into(self.as_view(), x.as_slice(), &mut out)?;
        Ok(Vector::from(out))
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// Computed without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() !=
    /// self.nrows()`.
    pub fn matvec_transpose(&self, x: &Vector) -> Result<Vector> {
        let mut out = vec![0.0; self.cols];
        view::matvec_transpose_into(self.as_view(), x.as_slice(), &mut out)?;
        Ok(Vector::from(out))
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the cache-friendly i-k-j loop order on row-major storage.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, other.cols);
        view::matmul_into(self.as_view(), other.as_view(), out.as_view_mut())?;
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (always square, symmetric PSD).
    ///
    /// This is the `GᵀG` term of the MAP posterior covariance (eq. 28/31).
    pub fn gram(&self) -> Matrix {
        let m = self.cols;
        let mut out = Matrix::zeros(m, m);
        view::gram_into(self.as_view(), out.as_view_mut())
            // bmf-lint: allow(panic-reachability) -- shape mismatch is impossible: out is allocated two lines up with matching dims
            .unwrap_or_else(|_| unreachable!("output allocated with matching shape"));
        out
    }

    /// Outer Gram matrix `self * D * selfᵀ` for diagonal `D` given by
    /// `diag` (K × K output for a K × M input).
    ///
    /// This is the `G·A⁻¹·Gᵀ` kernel of the fast solver (eq. 53/56): it
    /// never forms an M × M intermediate.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `diag.len() !=
    /// self.ncols()`.
    pub fn outer_gram_diag(&self, diag: &[f64]) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, self.rows);
        view::outer_gram_diag_into(self.as_view(), diag, out.as_view_mut())?;
        Ok(out)
    }

    /// Returns `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        // Clone-as-output: the owned wrappers in this file copy the input
        // into the result buffer and update it in place.
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(out)
    }

    /// Returns `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
        Ok(out)
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(alpha);
        out
    }

    /// Adds `diag[i]` to each diagonal element in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices and
    /// [`LinalgError::DimensionMismatch`] when `diag.len() != n`.
    pub fn add_diagonal_mut(&mut self, diag: &[f64]) -> Result<()> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if diag.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "add_diagonal_mut",
                lhs: self.shape(),
                rhs: (diag.len(), 1),
            });
        }
        for (i, &d) in diag.iter().enumerate() {
            self.data[i * self.cols + i] += d;
        }
        Ok(())
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns `true` when the matrix is symmetric within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Cholesky factorization of an SPD matrix; see [`Cholesky`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is
    /// non-positive, or [`LinalgError::NotSquare`].
    pub fn cholesky(&self) -> Result<Cholesky> {
        Cholesky::new(self)
    }

    /// Partially pivoted LU factorization; see [`Lu`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] or [`LinalgError::NotSquare`].
    pub fn lu(&self) -> Result<Lu> {
        Lu::new(self)
    }

    /// Householder QR factorization; see [`Qr`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty matrix.
    pub fn qr(&self) -> Result<Qr> {
        Qr::new(self)
    }

    /// Extracts the sub-matrix given by the selected column indices.
    ///
    /// Used by OMP to assemble the active-set design matrix.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, indices.len(), |i, j| self[(i, indices[j])])
    }
}

impl Default for Matrix {
    /// An empty 0 × 0 matrix (the initial state of workspace buffers).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let r = Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]);
        assert!(matches!(r, Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn from_row_major_validates_length() {
        assert!(Matrix::from_row_major(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_row_major(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let x = Vector::from(vec![1.0, -2.0, 3.0]);
        let y = Matrix::identity(3).matvec(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let y = sample().matvec(&Vector::from(vec![1.0, 1.0, 1.0])).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn matvec_transpose_agrees_with_explicit_transpose() {
        let m = sample();
        let x = Vector::from(vec![1.0, -1.0]);
        let a = m.matvec_transpose(&x).unwrap();
        let b = m.transpose().matvec(&x).unwrap();
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn gram_equals_explicit_product() {
        let m = sample();
        let g = m.gram();
        let e = m.transpose().matmul(&m).unwrap();
        assert!(g.sub(&e).unwrap().norm_frobenius() < 1e-12);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn outer_gram_diag_equals_explicit_product() {
        let m = sample();
        let d = [2.0, 0.5, 1.0];
        let fast = m.outer_gram_diag(&d).unwrap();
        let explicit = m
            .matmul(&Matrix::from_diagonal(&d))
            .unwrap()
            .matmul(&m.transpose())
            .unwrap();
        assert!(fast.sub(&explicit).unwrap().norm_frobenius() < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_sub_scale() {
        let m = sample();
        let two = m.add(&m).unwrap();
        assert_eq!(two, m.scaled(2.0));
        assert_eq!(two.sub(&m).unwrap(), m);
    }

    #[test]
    fn add_diagonal() {
        let mut m = Matrix::identity(2);
        m.add_diagonal_mut(&[1.0, 2.0]).unwrap();
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(1, 1)], 3.0);
        assert!(Matrix::zeros(2, 3).add_diagonal_mut(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn col_and_diagonal_extraction() {
        let m = sample();
        assert_eq!(m.col(1).as_slice(), &[2.0, 5.0]);
        assert_eq!(m.diagonal().as_slice(), &[1.0, 5.0]);
    }

    #[test]
    fn select_columns_reorders() {
        let m = sample();
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn symmetric_detection() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        assert!(!sample().is_symmetric(0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        sample().row(5);
    }
}
