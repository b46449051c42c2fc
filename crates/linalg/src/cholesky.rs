use crate::triangular::{solve_lower, solve_lower_transpose};
use crate::view::MatRef;
use crate::{LinalgError, Matrix, Result, Vector};

/// Overwrites the square matrix `a` with its lower Cholesky factor `L`
/// (upper triangle zeroed), allocating nothing: row by row, through the
/// one row kernel that [`GrowingCholesky::push_row`] grows a factor by.
///
/// # Errors
///
/// Same conditions as [`Cholesky::new`]. On error `a` holds a partially
/// factorized mix of `L` values and original entries.
pub fn cholesky_in_place(a: &mut Matrix) -> Result<()> {
    let (n, c) = a.shape();
    if n != c {
        return Err(LinalgError::NotSquare { rows: n, cols: c });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite { op: "cholesky" });
    }
    let data = a.as_mut_slice();
    for i in 0..n {
        let (done, rest) = data.split_at_mut(i * n);
        let (row, diag_and_upper) = rest[..n].split_at_mut(i);
        let l = MatRef::strided(done, i, i, n)?;
        diag_and_upper[0] = cholesky_row_in_place(l, row, diag_and_upper[0])?;
        diag_and_upper[1..].fill(0.0);
    }
    Ok(())
}

/// Row `i` of a Cholesky factorization, in place. On entry `l` holds the
/// factor's rows `0..i` (only their lower triangle is read), `row` holds
/// `A[i, 0..i]` and `d` is `A[i][i]`; on exit `row` holds `L[i, 0..i]`
/// and the return is `L[i][i]`. First the forward substitution against
/// the rows above (`s = a[i][j]; s -= L[i][k]·L[j][k] …; s / L[j][j]`),
/// then the diagonal as a running subtraction from the corner. Θ(i²).
///
/// [`cholesky_in_place`] is this kernel's loop over the rows and
/// [`GrowingCholesky::push_row`] calls it once per row, so a grown factor
/// equals a fresh factorization of the bordered matrix by construction.
///
/// # Errors
///
/// [`LinalgError::NotPositiveDefinite`] when the pivot is ≤ 0; `row` then
/// holds the substituted row.
fn cholesky_row_in_place(l: MatRef<'_>, row: &mut [f64], d: f64) -> Result<f64> {
    for j in 0..row.len() {
        let lrow = l.row(j);
        let mut s = row[j];
        for (r, lk) in row[..j].iter().zip(lrow) {
            s -= r * lk;
        }
        row[j] = s / lrow[j];
    }
    let mut s = d;
    for v in row.iter() {
        s -= v * v;
    }
    if s <= 0.0 {
        return Err(LinalgError::NotPositiveDefinite {
            pivot: row.len(),
            value: s,
        });
    }
    Ok(s.sqrt())
}

/// A Cholesky factorization that grows one row/column at a time without
/// per-step allocation.
///
/// The factor lives in one flat buffer with row stride equal to the
/// current *capacity*, so absorbing a new sample factors the new row
/// into pre-zeroed space in place, with the row kernel of
/// [`cholesky_in_place`]; the buffer is re-laid-out only when the
/// dimension outgrows the capacity (capacity doubling, amortized Θ(1)
/// reallocations). With [`GrowingCholesky::reserve`] called up front,
/// steady-state growth performs **zero** heap allocations.
///
/// The stored factor is bit-identical to [`cholesky_in_place`] applied to
/// the full bordered matrix, and [`GrowingCholesky::solve_in_place`] is
/// bit-identical to [`Cholesky::solve_in_place`] on that factor — this is
/// what lets the sequential BMF estimator reproduce batch fast-solver
/// results exactly, sample by sample.
#[derive(Debug, Clone, Default)]
pub struct GrowingCholesky {
    /// `cap × cap` row-major storage, zero outside the leading `n × n`
    /// lower triangle.
    data: Vec<f64>,
    /// Current factor dimension.
    n: usize,
    /// Row stride of `data` (and its square root of length).
    cap: usize,
}

impl GrowingCholesky {
    /// Creates an empty (0-dimensional) factorization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current factor dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// `true` when no row has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grows the backing buffer so the factor can reach `dim` rows
    /// without further allocation.
    pub fn reserve(&mut self, dim: usize) {
        if dim > self.cap {
            self.relayout(dim);
        }
    }

    /// Borrows the current `n × n` factor as a strided view (row stride =
    /// capacity). The upper triangle reads as exact zeros, matching the
    /// owned [`Cholesky::factor`] convention.
    pub fn factor_view(&self) -> Result<MatRef<'_>> {
        MatRef::strided(&self.data, self.n, self.n, self.cap.max(1))
    }

    /// Absorbs one bordering row/column: if the current factor is of `A`,
    /// the factor becomes that of `[[A, w], [wᵀ, d]]`, in Θ(n²) with no
    /// allocation while within capacity.
    ///
    /// On error the factor is untouched (the rejected row only ever wrote
    /// into the unused row-`n` slot).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when `w.len()` differs from
    ///   the factor dimension.
    /// * [`LinalgError::NonFinite`] when `w` or `d` contain NaN or ±∞ —
    ///   screened up front so contaminated inputs are not misreported as a
    ///   loss of positive definiteness.
    /// * [`LinalgError::NotPositiveDefinite`] when the extended matrix is
    ///   not positive definite.
    pub fn push_row(&mut self, w: &[f64], d: f64) -> Result<()> {
        let n = self.n;
        if w.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky extend",
                lhs: (n, n),
                rhs: (w.len(), 1),
            });
        }
        if !d.is_finite() || w.iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite {
                op: "cholesky extend",
            });
        }
        if n == self.cap {
            self.relayout((self.cap * 2).max(4));
        }
        let cap = self.cap;
        // Split so the existing factor (rows 0..n) is borrowed immutably
        // while row n is written: row n starts exactly at n * cap.
        let (head, tail) = self.data.split_at_mut(n * cap);
        let (row, diag) = tail[..=n].split_at_mut(n);
        row.copy_from_slice(w);
        let l = MatRef::strided(head, n, n, cap.max(1))?;
        diag[0] = cholesky_row_in_place(l, row, d)?;
        self.n = n + 1;
        Ok(())
    }

    /// Solves `A x = b` in place against the grown factor, allocating
    /// nothing — bit-identical to [`Cholesky::solve_in_place`] (same
    /// forward / transposed-forward substitutions, same pivot tolerance).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len()` differs
    /// from the factor dimension, [`LinalgError::Singular`] on a
    /// numerically zero pivot.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let l = self.factor_view()?;
        solve_lower(l, x)?;
        solve_lower_transpose(l, x)
    }

    /// Forward substitution only (`L z = b`, in place) — the half-solve
    /// the posterior-variance query `gᵀΣg = gᵀD⁻¹g − ‖L⁻¹u‖²` needs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GrowingCholesky::solve_in_place`].
    pub fn forward_solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        solve_lower(self.factor_view()?, x)
    }

    /// Re-lays the factor into a fresh zeroed buffer with row stride
    /// `new_cap` (≥ current dimension).
    fn relayout(&mut self, new_cap: usize) {
        // bmf-lint: allow(alloc-reachability) -- amortized growth path: reached only when capacity is exhausted, never on the steady-state per-row update
        let mut fresh = vec![0.0; new_cap * new_cap];
        for i in 0..self.n {
            fresh[i * new_cap..i * new_cap + self.n]
                .copy_from_slice(&self.data[i * self.cap..i * self.cap + self.n]);
        }
        self.data = fresh;
        self.cap = new_cap;
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// This is the "conventional solver" the BMF paper benchmarks its fast
/// low-rank solver against (§IV-C, Fig. 5): the direct MAP estimate inverts
/// an M × M posterior precision matrix, which costs Θ(M³/3) here, versus the
/// Θ(K²M) Woodbury path in [`crate::woodbury`].
///
/// # Example
///
/// ```
/// use bmf_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let x = chol.solve(&Vector::from(vec![1.0, 2.0]))?;
/// let r = a.matvec(&x)?;
/// assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored in a full square matrix whose upper
    /// triangle is zero.
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is assumed, matching the convention of LAPACK's `dpotrf`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] when `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is ≤ 0; the error
    ///   carries the pivot index and residual value.
    /// * [`LinalgError::NonFinite`] when `a` contains NaN or ±∞.
    pub fn new(a: &Matrix) -> Result<Self> {
        // Clone-as-output: the copy becomes the owned factor storage.
        let mut l = a.clone();
        cholesky_in_place(&mut l)?;
        Ok(Cholesky { l })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs
    /// from the factor dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut_slice())?;
        Ok(x)
    }

    /// In-place variant of [`Cholesky::solve`]: overwrites `x` (initially
    /// `b`) with the solution of `A x = b`, allocating nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::solve`]. On error `x` may hold
    /// partially substituted values.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let l = self.l.as_view();
        solve_lower(l, x)?;
        solve_lower_transpose(l, x)
    }

    /// Log-determinant of `A`, computed as `2 Σ log L[i][i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I with a fixed B, guaranteed SPD.
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0]]).unwrap();
        let mut a = b.gram();
        a.add_diagonal_mut(&[1.0, 1.0, 1.0]).unwrap();
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let chol = a.cholesky().unwrap();
        let l = chol.factor();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.sub(&a).unwrap().norm_frobenius() < 1e-12);
    }

    #[test]
    fn solve_satisfies_system() {
        let a = spd3();
        let b = Vector::from(vec![1.0, -1.0, 2.0]);
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap().sub(&b).unwrap();
        assert!(r.norm2() < 1e-12);
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let det: f64 = 4.0 * 3.0 - 2.0 * 2.0;
        let chol = a.cholesky().unwrap();
        assert!((chol.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_is_rejected_with_pivot() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        match a.cholesky() {
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
                assert_eq!(pivot, 1);
                assert!(value <= 0.0);
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(a.cholesky(), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn upper_triangle_is_ignored() {
        // Only the lower triangle should be read.
        let mut a = spd3();
        a[(0, 2)] = 777.0;
        let mut sym = spd3();
        sym[(0, 2)] = sym[(2, 0)];
        let l1 = a.cholesky().unwrap();
        let l2 = sym.cholesky().unwrap();
        assert!(l1.factor().sub(l2.factor()).unwrap().norm_frobenius().abs() < 1e-14);
    }

    /// SplitMix64 — enough randomness for SPD test matrices without
    /// pulling a stat dependency into this crate.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let b = Matrix::from_fn(n + 2, n, |_, _| splitmix(&mut s));
        let mut a = b.gram();
        a.add_diagonal_mut(&vec![0.75; n]).unwrap();
        a
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                assert_eq!(
                    a[(i, j)].to_bits(),
                    b[(i, j)].to_bits(),
                    "{what}: ({i},{j}) {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn growing_factor_matches_fresh_factorization_bitwise_at_every_size() {
        for seed in 0..4u64 {
            let n = 9; // crosses the 4 -> 8 -> 16 capacity-doubling boundaries
            let a = random_spd(n, 7000 + seed);
            let mut grow = GrowingCholesky::new();
            for k in 0..n {
                let w: Vec<f64> = (0..k).map(|i| a[(i, k)]).collect();
                grow.push_row(&w, a[(k, k)]).unwrap();
                let lead = Matrix::from_fn(k + 1, k + 1, |i, j| a[(i, j)]);
                let fresh = lead.cholesky().unwrap();
                assert_bits_eq(
                    &grow.factor_view().unwrap().to_matrix(),
                    fresh.factor(),
                    "growing factor",
                );
            }
            assert_eq!(grow.dim(), n);
        }
    }

    #[test]
    fn growing_solve_is_bit_identical_to_owned_solve() {
        let n = 7;
        let a = random_spd(n, 42);
        let mut grow = GrowingCholesky::new();
        for k in 0..n {
            let w: Vec<f64> = (0..k).map(|i| a[(i, k)]).collect();
            grow.push_row(&w, a[(k, k)]).unwrap();
        }
        let owned = a.cholesky().unwrap();
        let mut s = 5u64;
        let b: Vec<f64> = (0..n).map(|_| splitmix(&mut s)).collect();
        let mut x_grow = b.clone();
        grow.solve_in_place(&mut x_grow).unwrap();
        let x_owned = owned.solve(&Vector::from(b.clone())).unwrap();
        for (g, o) in x_grow.iter().zip(x_owned.iter()) {
            assert_eq!(g.to_bits(), o.to_bits());
        }
        // The forward half-solve over the strided grown factor matches
        // solve_lower over the dense owned factor.
        let mut z = b.clone();
        grow.forward_solve_in_place(&mut z).unwrap();
        let mut z_owned = b;
        solve_lower(owned.factor().as_view(), &mut z_owned).unwrap();
        for (g, o) in z.iter().zip(z_owned.iter()) {
            assert_eq!(g.to_bits(), o.to_bits());
        }
    }

    #[test]
    fn growing_cholesky_rejects_bad_rows_and_stays_usable() {
        let mut grow = GrowingCholesky::new();
        grow.push_row(&[], 4.0).unwrap();
        // Dimension mismatch, non-finite, and indefinite growth all leave
        // the factor untouched.
        assert!(matches!(
            grow.push_row(&[1.0, 2.0], 1.0),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Non-finite border or corner entries are screened up front, so a
        // NaN cannot slip through the `s <= 0` pivot check and a -inf
        // corner is not misreported as a loss of positive definiteness.
        assert!(matches!(
            grow.push_row(&[f64::NAN], 1.0),
            Err(LinalgError::NonFinite {
                op: "cholesky extend"
            })
        ));
        assert!(matches!(
            grow.push_row(&[0.0], f64::NAN),
            Err(LinalgError::NonFinite {
                op: "cholesky extend"
            })
        ));
        assert!(matches!(
            grow.push_row(&[0.0], f64::NEG_INFINITY),
            Err(LinalgError::NonFinite {
                op: "cholesky extend"
            })
        ));
        assert!(matches!(
            grow.push_row(&[4.0], 1.0), // Schur complement 1 - 16/4 < 0
            Err(LinalgError::NotPositiveDefinite { pivot: 1, .. })
        ));
        assert_eq!(grow.dim(), 1);
        grow.push_row(&[1.0], 3.0).unwrap();
        assert_eq!(grow.dim(), 2);
    }

    #[test]
    fn growing_cholesky_reserve_preallocates() {
        let mut grow = GrowingCholesky::new();
        grow.reserve(16);
        let a = random_spd(12, 9);
        for k in 0..12 {
            let w: Vec<f64> = (0..k).map(|i| a[(i, k)]).collect();
            grow.push_row(&w, a[(k, k)]).unwrap();
        }
        let fresh = a.cholesky().unwrap();
        assert_bits_eq(
            &grow.factor_view().unwrap().to_matrix(),
            fresh.factor(),
            "reserved growth",
        );
    }
}
