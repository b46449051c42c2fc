use crate::{LinalgError, Matrix, Result, Vector};

/// LU factorization with partial (row) pivoting: `P A = L U`.
///
/// Used by the mini-SPICE modified-nodal-analysis solver in `bmf-circuits`,
/// whose conductance matrices are square but not symmetric (voltage-source
/// stamps break symmetry).
///
/// # Example
///
/// ```
/// use bmf_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]])?; // needs pivoting
/// let lu = a.lu()?;
/// let x = lu.solve(&Vector::from(vec![2.0, 4.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed factors: strictly-lower part holds L (unit diagonal implied),
    /// upper part holds U.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinant computation.
    sign: f64,
}

/// Relative pivot threshold: a pivot smaller than this times the largest
/// absolute entry of the matrix is treated as zero.
const REL_PIVOT_TOL: f64 = 1e-14;

impl Lu {
    /// Factorizes the square matrix `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] when `a` is not square.
    /// * [`LinalgError::Singular`] when no acceptable pivot exists in some
    ///   column.
    /// * [`LinalgError::NonFinite`] when `a` contains NaN or ±∞.
    pub fn new(a: &Matrix) -> Result<Self> {
        // Clone-as-output: the copy becomes the owned factor storage.
        let mut lu = a.clone();
        let mut perm = Vec::new();
        let sign = lu_factor_in_place(&mut lu, &mut perm)?;
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs
    /// from the factor dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        lu_solve_into(&self.lu, &self.perm, b.as_slice(), &mut x)?;
        Ok(Vector::from(x))
    }

    /// Determinant of `A`, as `sign · Π U[i][i]`.
    pub fn det(&self) -> f64 {
        (0..self.dim()).fold(self.sign, |acc, i| acc * self.lu[(i, i)])
    }
}

/// Pivots per panel of [`lu_factor_in_place`]'s blocked elimination.
const PANEL: usize = 16;

/// Columns per strip of the deferred trailing update: one strip of one
/// row stays in registers while every pivot of a panel is applied to it.
const STRIP: usize = 16;

/// Overwrites the square matrix `a` with its packed LU factors
/// (strictly-lower `L` with implied unit diagonal, upper `U`), fills
/// `perm` with the row permutation, and returns its sign — allocating
/// nothing beyond growing `perm` to dimension `n` once.
///
/// Bit-identical to [`Lu::new`] on the same input, and to the unblocked
/// indexed elimination: the factorization runs in panels of `PANEL`
/// pivots, eliminating within the panel's columns pivot by pivot and
/// then applying the panel's pivots to the columns right of it, one row
/// strip at a time in pivot order; the last panel takes the whole
/// remainder once fewer than `PANEL` + `STRIP` columns are left.
/// Every element still receives the same `x -= m·u` updates in the same
/// order (an exactly-zero multiplier skips its whole row update, as
/// before), so pivots, `perm`, the sign and the factors are unchanged.
///
/// # Errors
///
/// Same conditions as [`Lu::new`]. On error `a` holds the partially
/// eliminated matrix of the unblocked elimination at the failing pivot
/// (the panel's pending updates are applied before returning).
pub fn lu_factor_in_place(a: &mut Matrix, perm: &mut Vec<usize>) -> Result<f64> {
    let (n, c) = a.shape();
    if n != c {
        return Err(LinalgError::NotSquare { rows: n, cols: c });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite { op: "lu" });
    }
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f64, |m, x| m.max(x.abs()))
        .max(1.0);
    let tol = REL_PIVOT_TOL * scale;

    perm.clear();
    perm.extend(0..n);
    let mut sign = 1.0;

    let data = a.as_mut_slice();
    let mut k0 = 0;
    while k0 < n {
        // Deferral pays only with a full strip right of the panel.
        let end = if n - k0 < PANEL + STRIP {
            n
        } else {
            k0 + PANEL
        };
        for k in k0..end {
            // Find pivot row.
            let mut p = k;
            let mut best = data[k * n + k].abs();
            for i in (k + 1)..n {
                let v = data[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < tol {
                // The columns right of the panel still owe pivots k0..k.
                update_trailing(data, n, k0, k, end);
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                // Whole rows: a row's deferred updates travel with the
                // multipliers stored in it.
                let (upper, lower) = data.split_at_mut(p * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, p);
                sign = -sign;
            }
            // Eliminate below the pivot within the panel's columns, one
            // contiguous row slice at a time; the columns right of the
            // panel wait for `update_trailing`.
            let (top, below) = data.split_at_mut((k + 1) * n);
            let pivot_row = &top[k * n..];
            let pivot = pivot_row[k];
            let u = &pivot_row[k + 1..end];
            for row in below.chunks_exact_mut(n) {
                let m = row[k] / pivot;
                row[k] = m;
                if crate::fp::is_exact_zero(m) {
                    continue;
                }
                for (x, &ukj) in row[k + 1..end].iter_mut().zip(u) {
                    *x -= m * ukj;
                }
            }
        }
        update_trailing(data, n, k0, end, end);
        k0 = end;
    }
    Ok(sign)
}

/// Applies the eliminations of the already factored pivots `k0..k1` to
/// columns `c0..n` of every row below each pivot: row by row downwards,
/// and within a row strip by strip, each strip taking the pivots in
/// order. Rows are visited top to bottom, so a pivot row has received
/// all of the panel's earlier pivots before it serves as `u`; each
/// element thus sees exactly the `x -= m·u` sequence of the unblocked
/// elimination.
fn update_trailing(data: &mut [f64], n: usize, k0: usize, k1: usize, c0: usize) {
    if k0 >= k1 || c0 >= n {
        return;
    }
    for i in (k0 + 1)..n {
        let (above, rest) = data.split_at_mut(i * n);
        let (mults, tail) = rest[..n].split_at_mut(c0);
        let last = k1.min(i);
        let mut strips = tail.chunks_exact_mut(STRIP);
        let mut col = c0;
        for strip in &mut strips {
            let mut acc = [0.0f64; STRIP];
            acc.copy_from_slice(strip);
            for p in k0..last {
                let m = mults[p];
                if crate::fp::is_exact_zero(m) {
                    continue;
                }
                let u = &above[p * n + col..p * n + col + STRIP];
                for (x, &upj) in acc.iter_mut().zip(u) {
                    *x -= m * upj;
                }
            }
            strip.copy_from_slice(&acc);
            col += STRIP;
        }
        let rem = strips.into_remainder();
        for p in k0..last {
            let m = mults[p];
            if crate::fp::is_exact_zero(m) {
                continue;
            }
            for (x, &upj) in rem.iter_mut().zip(&above[p * n + col..(p + 1) * n]) {
                *x -= m * upj;
            }
        }
    }
}

/// Solves `A x = b` against factors produced by [`lu_factor_in_place`],
/// writing the solution into the caller buffer `x` (fully overwritten).
///
/// Bit-identical to [`Lu::solve`].
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `b`, `x`, or `perm`
/// do not match the factor dimension.
pub fn lu_solve_into(lu: &Matrix, perm: &[usize], b: &[f64], x: &mut [f64]) -> Result<()> {
    let n = lu.nrows();
    if b.len() != n || perm.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lu solve",
            lhs: (n, n),
            rhs: (b.len(), 1),
        });
    }
    if x.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lu solve (out)",
            lhs: (n, n),
            rhs: (x.len(), 1),
        });
    }
    // Apply permutation, then forward substitution with unit-lower L.
    for (i, o) in x.iter_mut().enumerate() {
        *o = b[perm[i]];
    }
    for i in 0..n {
        let mut s = x[i];
        for j in 0..i {
            s -= lu[(i, j)] * x[j];
        }
        x[i] = s;
    }
    // Backward substitution with U.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= lu[(i, j)] * x[j];
        }
        x[i] = s / lu[(i, i)];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let b = Vector::from(vec![8.0, -11.0, -3.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        // Known solution: x = (2, 3, -1).
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a
            .lu()
            .unwrap()
            .solve(&Vector::from(vec![3.0, 5.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[5.0, 3.0]);
    }

    #[test]
    fn det_matches_closed_form() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((a.lu().unwrap().det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_tracks_permutations() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((a.lu().unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            Lu::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
