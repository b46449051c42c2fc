//! Forward and backward substitution for triangular systems.
//!
//! One in-place kernel per direction, each over a borrowed [`MatRef`]
//! factor (dense, strided or row-subset): [`solve_lower`] and
//! [`solve_lower_transpose`]. They are the inner
//! sweeps of [`crate::Cholesky`], [`crate::GrowingCholesky`], [`crate::Qr`]
//! and [`crate::ladder_solve_in_place`]; an owned matrix passes its
//! [`crate::Matrix::as_view`]. Only the relevant triangle of the factor is
//! read, so a packed factor stored in a full square matrix works
//! unchanged.

use crate::view::MatRef;
use crate::{LinalgError, Result};

/// Pivots with magnitude below this threshold are treated as exact zeros.
const PIVOT_TOL: f64 = 1e-300;

fn check_square(l: MatRef<'_>, len: usize, op: &'static str) -> Result<()> {
    let (r, c) = l.shape();
    if r != c {
        return Err(LinalgError::NotSquare { rows: r, cols: c });
    }
    if len != r {
        return Err(LinalgError::DimensionMismatch {
            op,
            lhs: (r, c),
            rhs: (len, 1),
        });
    }
    Ok(())
}

/// Solves `L x = b` in place (forward substitution), where `L` is lower
/// triangular: `x` holds `b` on entry and the solution on return, and
/// nothing is allocated.
///
/// Only the lower triangle of `l` (including the diagonal) is read.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] when a diagonal entry is (numerically)
/// zero, [`LinalgError::NotSquare`] or [`LinalgError::DimensionMismatch`] on
/// shape violations. On error `x` may hold partially substituted values.
///
/// ```
/// use bmf_linalg::{solve_lower, Matrix};
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]])?;
/// let mut x = [4.0, 11.0];
/// solve_lower(l.as_view(), &mut x)?;
/// assert_eq!(x, [2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve_lower(l: MatRef<'_>, x: &mut [f64]) -> Result<()> {
    check_square(l, x.len(), "solve_lower")?;
    let n = x.len();
    for i in 0..n {
        let row = l.row(i);
        let mut s = x[i];
        for j in 0..i {
            s -= row[j] * x[j];
        }
        let d = row[i];
        if d.abs() < PIVOT_TOL {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = s / d;
    }
    Ok(())
}

/// Solves `Lᵀ x = b` in place reading only the lower triangle of `l`,
/// allocating nothing.
///
/// This avoids materializing the transpose when completing a Cholesky solve
/// (`L Lᵀ x = b` ⇒ forward then transposed-forward substitution).
///
/// # Errors
///
/// Same conditions as [`solve_lower`].
pub fn solve_lower_transpose(l: MatRef<'_>, x: &mut [f64]) -> Result<()> {
    check_square(l, x.len(), "solve_lower_transpose")?;
    let n = x.len();
    for i in (0..n).rev() {
        // Lᵀ[i][j] = L[j][i]; only j >= i contribute.
        let mut s = x[i];
        for (j, &xj) in x.iter().enumerate().skip(i + 1) {
            s -= l.row(j)[i] * xj;
        }
        let d = l.row(i)[i];
        if d.abs() < PIVOT_TOL {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = s / d;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, Vector};

    /// Backward substitution `U x = b`, reading only the upper triangle:
    /// the explicit-transpose reference for [`solve_lower_transpose`].
    fn solve_upper(u: MatRef<'_>, x: &mut [f64]) -> Result<()> {
        check_square(u, x.len(), "solve_upper")?;
        let n = x.len();
        for i in (0..n).rev() {
            let row = u.row(i);
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= row[j] * x[j];
            }
            let d = row[i];
            if d.abs() < PIVOT_TOL {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = s / d;
        }
        Ok(())
    }

    type Kernel = fn(MatRef<'_>, &mut [f64]) -> Result<()>;

    /// Runs `kernel` on a copy of `b` against the dense view of `m`.
    fn solved(kernel: Kernel, m: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        kernel(m.as_view(), &mut x)?;
        Ok(x)
    }

    #[test]
    fn lower_solve_roundtrip() {
        let l =
            Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 1.5, 0.0], &[-1.0, 0.5, 3.0]]).unwrap();
        let x_true = Vector::from(vec![1.0, -2.0, 0.5]);
        let b = l.matvec(&x_true).unwrap();
        let x = solved(solve_lower, &l, b.as_slice()).unwrap();
        for (a, t) in x.iter().zip(x_true.iter()) {
            assert!((a - t).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_solve_roundtrip() {
        let u =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[0.0, 1.5, 0.5], &[0.0, 0.0, 3.0]]).unwrap();
        let x_true = Vector::from(vec![0.3, 2.0, -1.0]);
        let b = u.matvec(&x_true).unwrap();
        let x = solved(solve_upper, &u, b.as_slice()).unwrap();
        for (a, t) in x.iter().zip(x_true.iter()) {
            assert!((a - t).abs() < 1e-12);
        }
    }

    #[test]
    fn lower_transpose_matches_explicit_transpose() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 1.5]]).unwrap();
        let b = [1.0, 2.0];
        let a = solved(solve_lower_transpose, &l, &b).unwrap();
        let e = solved(solve_upper, &l.transpose(), &b).unwrap();
        for (u, v) in a.iter().zip(e.iter()) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn zero_pivot_is_singular() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        assert!(matches!(
            solved(solve_lower, &l, &[0.0; 2]),
            Err(LinalgError::Singular { pivot: 0 })
        ));
    }

    #[test]
    fn shape_validation() {
        let l = Matrix::zeros(2, 3);
        assert!(solved(solve_lower, &l, &[0.0; 2]).is_err());
        let sq = Matrix::identity(2);
        assert!(solved(solve_upper, &sq, &[0.0; 3]).is_err());
    }

    #[test]
    fn upper_triangle_ignored_by_lower_solve() {
        // Garbage above the diagonal must not affect the result.
        let l = Matrix::from_rows(&[&[2.0, 999.0], &[1.0, 3.0]]).unwrap();
        let x = solved(solve_lower, &l, &[4.0, 11.0]).unwrap();
        assert_eq!(x, [2.0, 3.0]);
    }
}
