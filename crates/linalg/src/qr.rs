use crate::triangular::solve_upper;
use crate::{LinalgError, Matrix, Result, Vector};

/// Householder QR factorization `A = Q R` for `m × n` matrices with `m ≥ n`.
///
/// QR is the numerically robust way to solve the *overdetermined* design
/// systems of the paper's baselines: classical least-squares fitting (eq. 6)
/// and the active-set refits inside orthogonal matching pursuit. It avoids
/// forming the normal equations `GᵀG`, whose condition number is squared.
///
/// The factorization stores the Householder reflectors in the strict lower
/// trapezoid of the working matrix plus a separate vector of scalar
/// coefficients, LAPACK-`dgeqrf` style; `Q` is only ever applied, never
/// materialized.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// // Fit y = a + b t through three points in least squares.
/// let g = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let y = Vector::from(vec![1.0, 3.0, 5.0]);
/// let coeffs = g.qr()?.solve_least_squares(&y)?;
/// assert!((coeffs[0] - 1.0).abs() < 1e-12); // intercept
/// assert!((coeffs[1] - 2.0).abs() < 1e-12); // slope
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed reflectors (below diagonal) and R (upper triangle).
    qr: Matrix,
    /// Householder scalars τ, one per reflector.
    tau: Vec<f64>,
}

impl Qr {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] when `a` has zero rows or columns.
    /// * [`LinalgError::DimensionMismatch`] when `a` has more columns than
    ///   rows (the factorization targets overdetermined systems).
    /// * [`LinalgError::NonFinite`] when `a` contains NaN or ±∞.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty { op: "qr" });
        }
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                op: "qr (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { op: "qr" });
        }
        // Clone-as-output: the copy becomes the owned factor storage.
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector annihilating qr[k+1.., k].
            let mut norm2 = 0.0;
            for i in k..m {
                norm2 += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm2.sqrt();
            if crate::fp::is_exact_zero(norm) {
                tau[k] = 0.0;
                continue;
            }
            let alpha = qr[(k, k)];
            let beta = -alpha.signum() * norm;
            // v = x - beta e1, normalized so v[0] = 1.
            let v0 = alpha - beta;
            tau[k] = -v0 / beta;
            let inv_v0 = 1.0 / v0;
            for i in (k + 1)..m {
                qr[(i, k)] *= inv_v0;
            }
            qr[(k, k)] = beta;
            // Apply the reflector to the trailing columns:
            // A := (I - tau v vᵀ) A.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= tau[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr { qr, tau })
    }

    /// Number of rows of the factorized matrix.
    pub fn nrows(&self) -> usize {
        self.qr.nrows()
    }

    /// Number of columns of the factorized matrix.
    pub fn ncols(&self) -> usize {
        self.qr.ncols()
    }

    /// Applies `Qᵀ` to `b` in place.
    fn apply_q_transpose(&self, b: &mut Vector) {
        let (m, n) = self.qr.shape();
        for k in 0..n {
            if crate::fp::is_exact_zero(self.tau[k]) {
                continue;
            }
            let mut s = b[k];
            for i in (k + 1)..m {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.tau[k];
            b[k] -= s;
            for i in (k + 1)..m {
                b[i] -= s * self.qr[(i, k)];
            }
        }
    }

    /// Copies out the upper-triangular factor `R` (n × n).
    pub fn r(&self) -> Matrix {
        let n = self.qr.ncols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when `b.len() != A.nrows()`.
    /// * [`LinalgError::Singular`] when `A` is (numerically) rank deficient.
    pub fn solve_least_squares(&self, b: &Vector) -> Result<Vector> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr solve_least_squares",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut qtb = b.clone();
        self.apply_q_transpose(&mut qtb);
        let mut x = Vector::from(&qtb.as_slice()[..n]);
        solve_upper(self.r().as_view(), x.as_mut_slice())?;
        Ok(x)
    }

    /// Squared residual `‖A x − b‖₂²` of the least-squares solution, read
    /// directly from the tail of `Qᵀ b` without recomputing the fit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() !=
    /// A.nrows()`.
    pub fn residual_norm2_squared(&self, b: &Vector) -> Result<f64> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr residual",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut qtb = b.clone();
        self.apply_q_transpose(&mut qtb);
        Ok(qtb.as_slice()[n..].iter().map(|x| x * x).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_matches_gram_cholesky() {
        // |R| should equal the Cholesky factor of AᵀA up to column signs.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let r = a.qr().unwrap().r();
        let gram = a.gram();
        let l = gram.cholesky().unwrap();
        let lt = l.factor().transpose();
        for i in 0..2 {
            for j in 0..2 {
                assert!((r[(i, j)].abs() - lt[(i, j)].abs()).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn exact_system_is_solved_exactly() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[0.0, 0.0]]).unwrap();
        let x_true = Vector::from(vec![1.5, -2.0]);
        let b = a.matvec(&x_true).unwrap();
        let x = a.qr().unwrap().solve_least_squares(&b).unwrap();
        for (u, v) in x.iter().zip(x_true.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Matrix::from_rows(&[
            &[1.0, 0.5, 0.2],
            &[1.0, -1.0, 0.3],
            &[1.0, 2.0, -0.7],
            &[1.0, 0.1, 0.9],
            &[1.0, -0.4, 0.4],
        ])
        .unwrap();
        let b = Vector::from(vec![1.0, 2.0, 0.5, -1.0, 0.3]);
        let x_qr = a.qr().unwrap().solve_least_squares(&b).unwrap();
        // Normal equations via Cholesky.
        let gram = a.gram();
        let rhs = a.matvec_transpose(&b).unwrap();
        let x_ne = gram.cholesky().unwrap().solve(&rhs).unwrap();
        for (u, v) in x_qr.iter().zip(x_ne.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn residual_matches_explicit_computation() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = Vector::from(vec![0.0, 1.0, 0.0]);
        let qr = a.qr().unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        let r = a.matvec(&x).unwrap().sub(&b).unwrap();
        let explicit = r.dot(&r).unwrap();
        let fast = qr.residual_norm2_squared(&b).unwrap();
        assert!((explicit - fast).abs() < 1e-12);
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(Matrix::zeros(2, 3).qr().is_err());
    }

    #[test]
    fn rank_deficient_detected_at_solve() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let qr = a.qr().unwrap();
        assert!(matches!(
            qr.solve_least_squares(&Vector::from(vec![1.0, 2.0, 3.0])),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn square_orthogonal_input() {
        // QR of an orthogonal-ish matrix still solves correctly.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a
            .qr()
            .unwrap()
            .solve_least_squares(&Vector::from(vec![5.0, 7.0]))
            .unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }
}
