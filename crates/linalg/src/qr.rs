use crate::triangular::solve_lower_transpose;
use crate::view::MatRef;
use crate::{LinalgError, Matrix, Result, Vector};

/// Householder QR factorization `A = Q R` for `m × n` matrices with `m ≥ n`.
///
/// QR is the numerically robust way to solve the *overdetermined* design
/// systems of the paper's baselines: classical least-squares fitting (eq. 6)
/// and the active-set refits inside orthogonal matching pursuit. It avoids
/// forming the normal equations `GᵀG`, whose condition number is squared.
///
/// The factorization is stored transposed: row `k` of the packed `n × m`
/// matrix holds `R`'s column `k` on and left of the diagonal and the
/// Householder reflector `k` right of it, LAPACK-`dgeqrf` style but with
/// every reflector contiguous, plus a separate vector of scalar
/// coefficients. `Q` is only ever applied ([`Reflectors`]), never
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
    /// Packed factor, transposed: `R` on and below the diagonal,
    /// reflectors right of it.
    qrt: Matrix,
    /// Householder scalars τ, one per reflector.
    tau: Vec<f64>,
}

/// Turns `x` into the reflector `I − τ v vᵀ`, `v = [1; tail]`, mapping
/// it to `β e₁`: `x` becomes `[β; tail]` and `τ` is returned (0, with
/// `x` unchanged, for a zero `x`).
pub(crate) fn householder_in_place(x: &mut [f64]) -> f64 {
    let mut norm2 = 0.0;
    for v in x.iter() {
        norm2 += v * v;
    }
    let norm = norm2.sqrt();
    if crate::fp::is_exact_zero(norm) {
        return 0.0;
    }
    let alpha = x[0];
    let beta = -alpha.signum() * norm;
    // v = x - beta e1, normalized so v[0] = 1.
    let v0 = alpha - beta;
    let inv_v0 = 1.0 / v0;
    for v in &mut x[1..] {
        *v *= inv_v0;
    }
    x[0] = beta;
    -v0 / beta
}

/// Applies the reflector `I − τ v vᵀ`, `v = [1; tail]`, from the left
/// to the row-major `(tail.len() + 1) × w.len()` block `m`; `w` is
/// scratch. Every column accumulates `vᵀ m` head first, in row order, so
/// a one-column block gives the bits of the classic column loop.
fn reflect(tail: &[f64], tau: f64, m: &mut [f64], w: &mut [f64]) {
    let c = w.len();
    let (head, rest) = m.split_at_mut(c);
    w.copy_from_slice(head);
    for (v, row) in tail.iter().zip(rest.chunks_exact(c)) {
        for (wj, x) in w.iter_mut().zip(row) {
            *wj += v * x;
        }
    }
    for wj in w.iter_mut() {
        *wj *= tau;
    }
    for (x, wj) in head.iter_mut().zip(w.iter()) {
        *x -= wj;
    }
    for (v, row) in tail.iter().zip(rest.chunks_exact_mut(c)) {
        for (x, wj) in row.iter_mut().zip(w.iter()) {
            *x -= wj * v;
        }
    }
}

/// Factorizes `A = Q R` in place, where `at` holds `Aᵀ` (`n × m`, one
/// row per column of `A`, `m ≥ n`): on return `at` is the packed
/// transposed factor [`Qr`] stores and `tau` holds one scalar per
/// reflector. This is the loop of [`qr_append_in_place`] over the
/// columns, so a factor grown one column at a time has its bits.
/// Allocation-free once `tau` has capacity `n`.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] when `at` has more rows than
/// columns.
pub fn qr_in_place(at: &mut Matrix, tau: &mut Vec<f64>) -> Result<()> {
    let (n, m) = at.shape();
    if m < n {
        return Err(LinalgError::DimensionMismatch {
            op: "qr (requires rows >= cols)",
            lhs: (m, n),
            rhs: (n, n),
        });
    }
    tau.clear();
    tau.resize(n, 0.0);
    for k in 0..n {
        qr_append_in_place(&mut at.as_mut_slice()[..(k + 1) * m], m, &mut tau[..=k])?;
    }
    Ok(())
}

/// Appends column `n` of `A` to the packed transposed QR of its first
/// `n` columns (left-looking Householder QR). `at` holds `n + 1` rows of
/// `m`: the factor as [`qr_in_place`] leaves it, then the new column;
/// `tau` holds the `n` scalars and one slot. The reflectors are applied
/// to the new row in order, then its own is formed: the row becomes
/// `R`'s column `n` on and left of the diagonal and reflector `n` right
/// of it, and `tau[n]` its scalar. Every column meets the same
/// reflections in the same order however the factor was grown. Θ(n·m),
/// allocating nothing.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] when `tau` is empty, `at` is not
/// `tau.len() × m` or the factor would have more columns than rows.
pub fn qr_append_in_place(at: &mut [f64], m: usize, tau: &mut [f64]) -> Result<()> {
    let cols = tau.len();
    if cols == 0 || cols > m || at.len() != cols * m {
        return Err(LinalgError::DimensionMismatch {
            op: "qr append (requires rows >= cols)",
            lhs: (m, cols),
            rhs: (at.len(), 1),
        });
    }
    let n = cols - 1;
    let (done, col) = at.split_at_mut(n * m);
    for (k, (reflector, &t)) in done.chunks_exact(m).zip(tau.iter()).enumerate() {
        if crate::fp::is_exact_zero(t) {
            continue;
        }
        reflect(&reflector[k + 1..], t, &mut col[k..], &mut [0.0]);
    }
    tau[n] = householder_in_place(&mut col[n..]);
    Ok(())
}

/// Householder reflectors `H_k = I − τ_k v_k v_kᵀ`, `Q = H_0 H_1 ⋯`,
/// packed one per row of `packed`: reflector `k`'s head sits at index
/// `k + offset`, its tail right of it. [`Qr`] packs with offset 0, the
/// tridiagonal reduction with offset 1. The applications act on the
/// rows of a row-major block (a vector is a one-column block), one
/// reflector at a time with one block row of scratch `w`; the two-sided
/// [`Reflectors::congruence_in_place`] applies them all at once in
/// compact-WY form. None allocates beyond the scratch it is given.
#[derive(Debug, Clone, Copy)]
pub struct Reflectors<'a> {
    /// One reflector per row, as in the type docs.
    pub packed: &'a Matrix,
    /// `τ_k`, one per reflector.
    pub tau: &'a [f64],
    /// Head index of reflector 0.
    pub offset: usize,
}

impl<'a> Reflectors<'a> {
    /// Views `tau.len()` reflectors of `packed`, the first headed at
    /// `offset` (see the type docs).
    pub fn new(packed: &'a Matrix, tau: &'a [f64], offset: usize) -> Self {
        Reflectors {
            packed,
            tau,
            offset,
        }
    }

    fn apply(
        &self,
        order: impl Iterator<Item = usize>,
        m: &mut [f64],
        w: &mut [f64],
    ) -> Result<()> {
        let (rows, dim, c) = (self.packed.nrows(), self.packed.ncols(), w.len());
        let heads_fit = self.tau.is_empty() || self.tau.len() - 1 + self.offset < dim;
        if rows < self.tau.len() || !heads_fit || m.len() != dim * c {
            return Err(LinalgError::DimensionMismatch {
                op: "householder reflectors",
                lhs: (rows, dim),
                rhs: (m.len(), c),
            });
        }
        if c == 0 {
            return Ok(());
        }
        for k in order {
            let t = self.tau[k];
            if crate::fp::is_exact_zero(t) {
                continue;
            }
            let h = k + self.offset;
            reflect(&self.packed.row(k)[h + 1..], t, &mut m[h * c..], w);
        }
        Ok(())
    }

    /// `M := Qᵀ M` for the row-major block `m` (`packed.ncols()` rows of
    /// `w.len()`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on a shape mismatch.
    pub fn apply_qt_in_place(&self, m: &mut [f64], w: &mut [f64]) -> Result<()> {
        self.apply(0..self.tau.len(), m, w)
    }

    /// `M := Q M`, shaped as for [`Reflectors::apply_qt_in_place`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on a shape mismatch.
    pub fn apply_q_in_place(&self, m: &mut [f64], w: &mut [f64]) -> Result<()> {
        self.apply((0..self.tau.len()).rev(), m, w)
    }

    /// `M := H_k M`, reflector `k` alone, shaped as for
    /// [`Reflectors::apply_qt_in_place`]. Applied to `Qᵀ M` as each
    /// reflector is formed, it keeps `Qᵀ M` current while a factor grows
    /// by [`qr_append_in_place`], in the bits of a fresh `Qᵀ M`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on a shape mismatch or when
    /// there is no reflector `k`.
    pub fn apply_one_in_place(&self, k: usize, m: &mut [f64], w: &mut [f64]) -> Result<()> {
        if k >= self.tau.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "householder reflector index",
                lhs: (self.tau.len(), 1),
                rhs: (k, 1),
            });
        }
        self.apply(k..k + 1, m, w)
    }

    /// `S := Qᵀ S Q` for an exactly symmetric `S` (`packed.ncols()`
    /// square), in compact-WY form. With `V` the unit reflectors (a zero
    /// reflector, `τ = 0`, as a zero column) and `T` upper triangular
    /// from them (LAPACK `dlarft`, forward and columnwise),
    /// `Q = I − V T Vᵀ`, and
    ///
    /// ```text
    /// Y = S V,   X = Y T − ½·V·Tᵀ(Vᵀ Y)T,   QᵀSQ = S − X Vᵀ − V Xᵀ
    /// ```
    ///
    /// `Y`, `VᵀY` and the rank-2r update (on the upper triangle, then
    /// mirrored, so the result is exactly symmetric) run on the
    /// register-tiled products of [`crate::view::sub_products_into`].
    /// `scratch` is resized to `6·r·n + 4·r² + r` entries (r reflectors)
    /// and reused across calls; nothing else is allocated. With no
    /// reflector, or every `τ` zero, `S` keeps its bits.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `S` is not
    /// `packed.ncols()` square or the reflectors do not fit `packed`.
    pub fn congruence_in_place(&self, s: &mut Matrix, scratch: &mut Vec<f64>) -> Result<()> {
        let (rows, n, r) = (self.packed.nrows(), self.packed.ncols(), self.tau.len());
        let heads_fit = r == 0 || r - 1 + self.offset < n;
        if rows < r || !heads_fit || s.shape() != (n, n) {
            return Err(LinalgError::DimensionMismatch {
                op: "householder congruence",
                lhs: (rows, n),
                rhs: s.shape(),
            });
        }
        if self.tau.iter().all(|&t| crate::fp::is_exact_zero(t)) {
            return Ok(());
        }
        crate::view::resize(scratch, 6 * r * n + 4 * r * r + r);
        let (vt, rest) = scratch.split_at_mut(r * n);
        let (yt, rest) = rest.split_at_mut(r * n);
        let (xv, rest) = rest.split_at_mut(2 * r * n);
        let (vx, rest) = rest.split_at_mut(2 * r * n);
        let (t, rest) = rest.split_at_mut(r * r);
        let (vv, rest) = rest.split_at_mut(r * r);
        let (m, rest) = rest.split_at_mut(r * r);
        let (z, tmp) = rest.split_at_mut(r * r);
        // Vᵀ, one explicit reflector per row: 1 at the head, the tail
        // right of it (zero rows for zero reflectors).
        for (k, row) in vt.chunks_exact_mut(n).enumerate() {
            if crate::fp::is_exact_zero(self.tau[k]) {
                continue;
            }
            let h = k + self.offset;
            row[h] = 1.0;
            row[h + 1..].copy_from_slice(&self.packed.row(k)[h + 1..]);
        }
        let all = 0..n;
        let full = std::slice::from_ref(&all);
        let vt_ref = MatRef::from_row_major(vt, r, n)?;
        // Yᵀ = VᵀS (S symmetric), VᵀY and VᵀV.
        crate::view::for_each_product(vt_ref, s.as_view(), full, 0..r, false, |k, i, v| {
            yt[k * n + i] = v;
        });
        let yt_ref = MatRef::from_row_major(yt, r, n)?;
        crate::view::for_each_product(vt_ref, yt_ref, full, 0..r, false, |a, b, v| {
            m[a * r + b] = v;
        });
        crate::view::for_each_product(vt_ref, vt_ref, full, 0..r, true, |a, b, v| {
            vv[a * r + b] = v;
        });
        // T column by column: T[k,k] = τ_k, T[..k,k] = −τ_k·T[..k,..k]·(VᵀV)[..k,k].
        for k in 0..r {
            let tau = self.tau[k];
            t[k * r + k] = tau;
            for l in 0..k {
                tmp[l] = -tau * vv[l * r + k];
            }
            for l in 0..k {
                let mut sum = 0.0;
                for c in l..k {
                    sum += t[l * r + c] * tmp[c];
                }
                t[l * r + k] = sum;
            }
        }
        // Z = −½·Tᵀ(VᵀY)T, through `vv` as Tᵀ(VᵀY).
        for a in 0..r {
            for b in 0..r {
                let mut sum = 0.0;
                for c in 0..=a {
                    sum += t[c * r + a] * m[c * r + b];
                }
                vv[a * r + b] = sum;
            }
        }
        for a in 0..r {
            for b in 0..r {
                let mut sum = 0.0;
                for c in 0..=b {
                    sum += vv[a * r + c] * t[c * r + b];
                }
                z[a * r + b] = -0.5 * sum;
            }
        }
        // Row i of [X V] and of [V X], X = Y T + V Z.
        for i in 0..n {
            let (x, v) = xv[2 * r * i..2 * r * (i + 1)].split_at_mut(r);
            x.fill(0.0);
            for a in 0..r {
                let y = yt[a * n + i];
                for (xb, &tb) in x[a..].iter_mut().zip(&t[a * r + a..(a + 1) * r]) {
                    *xb += y * tb;
                }
            }
            for a in 0..r {
                let va = vt[a * n + i];
                v[a] = va;
                for (xb, &zb) in x.iter_mut().zip(&z[a * r..(a + 1) * r]) {
                    *xb += va * zb;
                }
            }
            let (vo, xo) = vx[2 * r * i..2 * r * (i + 1)].split_at_mut(r);
            vo.copy_from_slice(v);
            xo.copy_from_slice(x);
        }
        let xv = MatRef::from_row_major(xv, n, 2 * r)?;
        let vx = MatRef::from_row_major(vx, n, 2 * r)?;
        crate::view::sub_products_into(xv, vx, true, s.as_view_mut())?;
        crate::view::mirror_upper_into(s.as_view_mut())
    }
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
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { op: "qr" });
        }
        let mut qrt = a.transpose();
        let mut tau = Vec::with_capacity(n);
        qr_in_place(&mut qrt, &mut tau)?;
        Ok(Qr { qrt, tau })
    }

    /// Number of rows of the factorized matrix.
    pub fn nrows(&self) -> usize {
        self.qrt.ncols()
    }

    /// Number of columns of the factorized matrix.
    pub fn ncols(&self) -> usize {
        self.qrt.nrows()
    }

    /// The reflectors whose product is `Q` (`m × m`).
    pub fn reflectors(&self) -> Reflectors<'_> {
        Reflectors::new(&self.qrt, &self.tau, 0)
    }

    /// `Qᵀ b`; a `b` of the wrong length is a dimension mismatch.
    fn q_transpose(&self, b: &Vector) -> Result<Vector> {
        let mut qtb = b.clone();
        self.reflectors()
            .apply_qt_in_place(qtb.as_mut_slice(), &mut [0.0])?;
        Ok(qtb)
    }

    /// Copies out the upper-triangular factor `R` (n × n).
    pub fn r(&self) -> Matrix {
        let n = self.qrt.nrows();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qrt[(j, i)] } else { 0.0 })
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`: `Qᵀb`, then the
    /// triangle `R x = (Qᵀb)[..n]` read straight from the packed factor,
    /// whose leading `n × n` lower triangle is `Rᵀ`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when `b.len() != A.nrows()`.
    /// * [`LinalgError::Singular`] when `A` is (numerically) rank deficient.
    pub fn solve_least_squares(&self, b: &Vector) -> Result<Vector> {
        let qtb = self.q_transpose(b)?;
        let n = self.ncols();
        let mut x = Vector::from(&qtb.as_slice()[..n]);
        let rt = MatRef::strided(self.qrt.as_slice(), n, n, self.nrows())?;
        solve_lower_transpose(rt, x.as_mut_slice())?;
        Ok(x)
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
