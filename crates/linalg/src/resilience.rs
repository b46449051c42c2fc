//! Solver degradation ladder: Cholesky → jittered Cholesky → pivoted LU,
//! and its jitter rungs for shifted tridiagonal systems.
//!
//! The BMF fitting stack solves symmetric (semi-)definite systems whose
//! conditioning is controlled by data the library does not choose: tiny
//! early-stage coefficients blow up prior precisions, rank-deficient design
//! matrices make the Gram term singular, and duplicated samples collapse
//! pivots to rounding noise. Rather than erroring at the first failed
//! factorization, the ladder retries with a bounded geometric ridge and
//! finally falls back to pivoted LU, reporting exactly how far it had to
//! escalate:
//!
//! * **Rung 0** — plain Cholesky. Accepted whenever the factorization
//!   succeeds, so inputs that solved before the ladder existed produce
//!   bit-identical results.
//! * **Rungs 1..=[`MAX_JITTER_RUNGS`]** — restore the matrix and retry
//!   with a ridge `INITIAL_RIDGE_REL · scale · RIDGE_GROWTH^(rung-1)`
//!   added to the diagonal, where `scale` is the mean absolute diagonal of
//!   the original matrix.
//! * **Final rung** — pivoted LU on the *un-ridged* matrix, accepted only
//!   when the reciprocal-condition estimate clears [`RCOND_FLOOR`];
//!   otherwise the system is declared [`LinalgError::Unsolvable`].
//!
//! [`factor_shifted_ldl_ladder`] climbs the same jitter rungs for
//! `T + ηI` with a symmetric tridiagonal `T` (the sample-space final
//! solve of a missing-prior fit), adding the ridge to the shift; it has
//! no LU rung.
//!
//! Any rung above 0 is a *degraded* solve: the caller gets an answer to a
//! deliberately perturbed (or less numerically stable) problem, and the
//! returned [`Resilience`] records the rung, the ridge actually added, and
//! the reciprocal-condition estimate of the accepted factorization.
//!
//! The ladder never escalates on [`LinalgError::NonFinite`]: jitter cannot
//! repair NaN/∞ inputs, so those propagate unchanged.

use crate::cholesky::cholesky_in_place;
use crate::lu::{lu_factor_in_place, lu_solve_into};
use crate::triangular::{solve_lower, solve_lower_transpose};
use crate::tridiagonal::ldl_shifted_into;
use crate::{LinalgError, Matrix, Result};

/// Number of jittered-Cholesky rungs tried before falling back to LU.
///
/// With [`INITIAL_RIDGE_REL`] and [`RIDGE_GROWTH`], the seven rungs span
/// ridges from `1e-10·scale` to `1e-3·scale` — wide enough to rescue
/// rounding-level indefiniteness at rung 1 while keeping the worst-case
/// perturbation visible in the report.
pub const MAX_JITTER_RUNGS: u32 = 7;
/// First ridge, relative to the mean absolute diagonal of the matrix.
pub const INITIAL_RIDGE_REL: f64 = 1e-10;
/// Geometric growth factor between consecutive jitter rungs.
pub const RIDGE_GROWTH: f64 = 10.0;
/// Minimum reciprocal-condition estimate for the final LU rung to be
/// accepted instead of reporting [`LinalgError::Unsolvable`].
pub const RCOND_FLOOR: f64 = 1e-14;

/// How one ladder invocation resolved: the rung accepted, the ridge added
/// to the diagonal (0 unless a jitter rung won), and a cheap
/// reciprocal-condition estimate of the accepted factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resilience {
    /// Ladder rung that produced the accepted factorization: 0 for the
    /// plain factorization, `1..=MAX_JITTER_RUNGS` for jittered Cholesky,
    /// `MAX_JITTER_RUNGS + 1` for the LU fallback.
    pub rung: u32,
    /// Ridge actually added to the diagonal (absolute, not relative).
    pub ridge: f64,
    /// Reciprocal-condition estimate from the factor diagonal:
    /// `(min/max L_ii)²` for Cholesky, `min/max |U_ii|` for LU.
    pub rcond: f64,
    /// Whether the SPD ladder fell all the way through to pivoted LU.
    pub lu_fallback: bool,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience::clean(1.0)
    }
}

impl Resilience {
    /// A rung-0 outcome with the given reciprocal-condition estimate.
    pub fn clean(rcond: f64) -> Self {
        Resilience {
            rung: 0,
            ridge: 0.0,
            rcond,
            lu_fallback: false,
        }
    }

    /// True when any rung above 0 was needed (the solve is approximate or
    /// numerically less stable than the clean path).
    pub fn is_degraded(&self) -> bool {
        self.rung > 0
    }
}

/// Which factorization the ladder settled on, deciding how the packed
/// factor must be solved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorKind {
    /// Lower-triangular Cholesky factor; solve via two triangular sweeps.
    Cholesky,
    /// Packed LU with row permutation; solve via [`lu_solve_into`].
    Lu,
}

/// Reusable scratch for the ladder: a snapshot of the matrix for retries
/// and a right-hand-side buffer for the LU in-place solve.
#[derive(Debug, Default, Clone)]
pub struct LadderScratch {
    backup: Vec<f64>,
    rhs: Vec<f64>,
}

impl LadderScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// across invocations.
    pub fn new() -> Self {
        LadderScratch::default()
    }
}

/// Reciprocal-condition estimate of an SPD matrix from its Cholesky factor:
/// `(min L_ii / max L_ii)²`. Cheap (reads the diagonal) and adequate for
/// reporting; not a substitute for a true condition number.
pub fn rcond_from_cholesky(l: &Matrix) -> f64 {
    diag_ratio(l).powi(2)
}

/// Reciprocal-condition estimate from packed LU factors:
/// `min |U_ii| / max |U_ii|`.
pub fn rcond_from_lu(lu: &Matrix) -> f64 {
    diag_ratio(lu)
}

fn diag_ratio(a: &Matrix) -> f64 {
    let n = a.nrows();
    if n == 0 {
        return 1.0;
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for i in 0..n {
        let d = a[(i, i)].abs();
        min = min.min(d);
        max = max.max(d);
    }
    if crate::fp::is_exact_zero(max) {
        0.0
    } else {
        min / max
    }
}

fn snapshot(a: &Matrix, scratch: &mut LadderScratch) {
    scratch.backup.clear();
    scratch.backup.extend_from_slice(a.as_slice());
}

fn restore(a: &mut Matrix, scratch: &LadderScratch) {
    a.as_mut_slice().copy_from_slice(&scratch.backup);
}

/// Mean absolute value of the `n` diagonal entries `diag`, the ridge
/// scale. Falls back to 1.0 for an all-zero (or non-finite) diagonal so
/// the ridge is still nonzero.
fn ridge_scale(diag: impl Iterator<Item = f64>, n: usize) -> f64 {
    let mean = diag.fold(0.0, |acc, x| acc + x.abs()) / n as f64;
    if mean > 0.0 && mean.is_finite() {
        mean
    } else {
        1.0
    }
}

/// Adds `ridge` to the diagonal of `a`.
fn add_ridge(a: &mut Matrix, ridge: f64) {
    let n = a.nrows();
    for i in 0..n {
        a[(i, i)] += ridge;
    }
}

/// Factorizes the symmetric positive (semi-)definite matrix `a` in place,
/// climbing the degradation ladder as needed. On success `a` holds either
/// a Cholesky factor or packed LU factors (see the returned
/// [`FactorKind`]); solve against it with [`ladder_solve_in_place`].
///
/// Rung 0 calls [`cholesky_in_place`] on the unmodified matrix, so inputs
/// that factorize cleanly behave bit-identically to the pre-ladder path.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] / [`LinalgError::NonFinite`] — invalid
///   input; the ladder does not escalate on these.
/// * [`LinalgError::Unsolvable`] — every rung failed, or the final LU
///   factorization's reciprocal-condition estimate fell below
///   [`RCOND_FLOOR`].
pub fn factor_spd_ladder(
    a: &mut Matrix,
    perm: &mut Vec<usize>,
    scratch: &mut LadderScratch,
) -> Result<(FactorKind, Resilience)> {
    let (n, c) = a.shape();
    if n != c {
        return Err(LinalgError::NotSquare { rows: n, cols: c });
    }
    snapshot(a, scratch);
    match cholesky_in_place(a) {
        Ok(()) => {
            let rcond = rcond_from_cholesky(a);
            return Ok((FactorKind::Cholesky, Resilience::clean(rcond)));
        }
        Err(LinalgError::NotPositiveDefinite { .. }) => {}
        Err(e) => return Err(e),
    }
    if n > 0 {
        let scale = ridge_scale((0..n).map(|i| scratch.backup[i * n + i]), n);
        let mut ridge = INITIAL_RIDGE_REL * scale;
        for rung in 1..=MAX_JITTER_RUNGS {
            restore(a, scratch);
            add_ridge(a, ridge);
            match cholesky_in_place(a) {
                Ok(()) => {
                    let rcond = rcond_from_cholesky(a);
                    return Ok((
                        FactorKind::Cholesky,
                        Resilience {
                            rung,
                            ridge,
                            rcond,
                            lu_fallback: false,
                        },
                    ));
                }
                Err(LinalgError::NotPositiveDefinite { .. }) => ridge *= RIDGE_GROWTH,
                Err(e) => return Err(e),
            }
        }
    }
    // Final rung: pivoted LU on the un-ridged matrix, gated on a
    // pivot-condition check so garbage factors are not silently accepted.
    restore(a, scratch);
    let lu_rung = MAX_JITTER_RUNGS + 1;
    match lu_factor_in_place(a, perm) {
        Ok(_sign) => {
            let rcond = rcond_from_lu(a);
            if rcond >= RCOND_FLOOR {
                Ok((
                    FactorKind::Lu,
                    Resilience {
                        rung: lu_rung,
                        ridge: 0.0,
                        rcond,
                        lu_fallback: true,
                    },
                ))
            } else {
                Err(LinalgError::Unsolvable {
                    op: "spd ladder",
                    rcond,
                })
            }
        }
        Err(LinalgError::Singular { .. }) => Err(LinalgError::Unsolvable {
            op: "spd ladder",
            rcond: 0.0,
        }),
        Err(e) => Err(e),
    }
}

/// Factors the shifted symmetric tridiagonal `T + shift·I = L D Lᵀ`
/// (see [`ldl_shifted_into`], with [`RCOND_FLOOR`] as its pivot-ratio
/// gate) through the jitter rungs of the ladder: rung 0 is the plain
/// factorization; when it is refused, rungs `1..=MAX_JITTER_RUNGS` retry
/// at `shift + ridge`, with
/// `ridge = INITIAL_RIDGE_REL · scale · RIDGE_GROWTH^(rung−1)` and
/// `scale` the mean absolute diagonal of `T + shift·I` (1.0 when that is
/// zero or not finite). There is no LU rung: a refused factorization
/// means `T + shift·I` is singular to working precision, which a ridge
/// repairs. `piv` and `l` receive the accepted factor; solve against it
/// with [`crate::tridiagonal::ldl_solve_in_place`]. The
/// reciprocal-condition estimate is `min/max` of the pivots,
/// `(min/max L_ii)²` of the equivalent Cholesky factor.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] on inconsistent lengths; no
///   escalation.
/// * [`LinalgError::Unsolvable`] when every rung is refused.
pub fn factor_shifted_ldl_ladder(
    d: &[f64],
    e: &[f64],
    shift: f64,
    piv: &mut [f64],
    l: &mut [f64],
) -> Result<Resilience> {
    let refused = |r: Result<()>| match r {
        Ok(()) => Ok(false),
        Err(LinalgError::NotPositiveDefinite { .. } | LinalgError::Unsolvable { .. }) => Ok(true),
        Err(e) => Err(e),
    };
    if !refused(ldl_shifted_into(d, e, shift, RCOND_FLOOR, piv, l))? {
        return Ok(Resilience::clean(pivot_ratio(piv)));
    }
    let n = d.len();
    if n > 0 {
        let scale = ridge_scale(d.iter().map(|x| x + shift), n);
        let mut ridge = INITIAL_RIDGE_REL * scale;
        for rung in 1..=MAX_JITTER_RUNGS {
            if !refused(ldl_shifted_into(d, e, shift + ridge, RCOND_FLOOR, piv, l))? {
                return Ok(Resilience {
                    rung,
                    ridge,
                    rcond: pivot_ratio(piv),
                    lu_fallback: false,
                });
            }
            ridge *= RIDGE_GROWTH;
        }
    }
    Err(LinalgError::Unsolvable {
        op: "shifted ldl ladder",
        rcond: 0.0,
    })
}

/// `min/max` of positive pivots, 1.0 for none.
fn pivot_ratio(piv: &[f64]) -> f64 {
    let (lo, hi) = piv.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &p| {
        (lo.min(p), hi.max(p))
    });
    if piv.is_empty() {
        1.0
    } else {
        lo / hi
    }
}

/// Solves `A x = b` in place against a factor produced by
/// [`factor_spd_ladder`], overwriting `x` (which holds `b` on entry) with
/// the solution.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `x` (or `perm`, for
/// [`FactorKind::Lu`]) does not match the factor dimension, and
/// [`LinalgError::Singular`] from the triangular sweeps on a zero factor
/// diagonal.
pub fn ladder_solve_in_place(
    kind: FactorKind,
    factor: &Matrix,
    perm: &[usize],
    scratch: &mut LadderScratch,
    x: &mut [f64],
) -> Result<()> {
    match kind {
        FactorKind::Cholesky => {
            let l = factor.as_view();
            solve_lower(l, x)?;
            solve_lower_transpose(l, x)
        }
        FactorKind::Lu => {
            scratch.rhs.clear();
            scratch.rhs.extend_from_slice(x);
            lu_solve_into(factor, perm, &scratch.rhs, x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tridiagonal::ldl_solve_in_place;
    use crate::Vector;

    fn spd(n: usize) -> Matrix {
        // Diagonally dominant symmetric matrix: strictly positive definite.
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                (n as f64) + 1.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        })
    }

    #[test]
    fn clean_spd_stays_on_rung_zero_bitwise() {
        let a = spd(5);
        let mut plain = a.clone();
        cholesky_in_place(&mut plain).unwrap();

        let mut laddered = a;
        let mut perm = Vec::new();
        let mut scratch = LadderScratch::new();
        let (kind, res) = factor_spd_ladder(&mut laddered, &mut perm, &mut scratch).unwrap();
        assert_eq!(kind, FactorKind::Cholesky);
        assert_eq!(res.rung, 0);
        assert_eq!(res.ridge, 0.0);
        assert!(!res.is_degraded());
        assert!(res.rcond > 0.0 && res.rcond <= 1.0);
        let same = plain
            .as_slice()
            .iter()
            .zip(laddered.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "rung 0 must be bit-identical to plain Cholesky");
    }

    #[test]
    fn singular_psd_rescued_by_jitter_rung() {
        // Rank-1 PSD matrix v vᵀ: Cholesky fails at pivot 1, a tiny ridge
        // restores definiteness.
        let v = [1.0, 2.0, 3.0];
        let mut a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let mut perm = Vec::new();
        let mut scratch = LadderScratch::new();
        let (kind, res) = factor_spd_ladder(&mut a, &mut perm, &mut scratch).unwrap();
        assert_eq!(kind, FactorKind::Cholesky);
        assert!(res.is_degraded());
        assert!(res.rung >= 1);
        assert!(res.ridge > 0.0);
    }

    #[test]
    fn degraded_solve_has_small_residual_on_consistent_system() {
        // A = B Bᵀ with B 4x2 (rank 2), b = A·x_true is consistent.
        let b_mat =
            Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0], &[2.0, -1.0], &[1.0, 1.0]]).unwrap();
        let a = b_mat.matmul(&b_mat.transpose()).unwrap();
        let x_true = Vector::from(vec![1.0, -2.0, 0.5, 3.0]);
        let rhs = a.matvec(&x_true).unwrap();

        let mut factor = a.clone();
        let mut perm = Vec::new();
        let mut scratch = LadderScratch::new();
        let (kind, res) = factor_spd_ladder(&mut factor, &mut perm, &mut scratch).unwrap();
        assert!(res.is_degraded());
        let mut x = rhs.as_slice().to_vec();
        ladder_solve_in_place(kind, &factor, &perm, &mut scratch, &mut x).unwrap();
        let x = Vector::from(x);
        let resid = a.matvec(&x).unwrap().sub(&rhs).unwrap().norm2();
        assert!(
            resid / rhs.norm2() < 1e-6,
            "relative residual {} too large at rung {}",
            resid / rhs.norm2(),
            res.rung
        );
    }

    #[test]
    fn hopeless_matrix_reports_unsolvable() {
        // All-zero matrix: Cholesky and every ridge rung of LU still see a
        // structurally singular system only when the ridge also fails; the
        // zero matrix is rescued by ridge (ridge·I is SPD), so use an
        // asymmetric NaN-free but truly unfactorizable case instead: a
        // matrix whose rows repeat exactly and whose diagonal ridge is
        // cancelled is hard to build — the honest hopeless case for the
        // SPD ladder is one where even LU is singular AND all Cholesky
        // ridges fail. A matrix with a huge negative eigenvalue does it:
        // ridges up to ~1e-3·scale cannot flip -scale.
        let mut a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        // LU succeeds on this (it is nonsingular), so it lands on the LU
        // rung rather than Unsolvable.
        let mut perm = Vec::new();
        let mut scratch = LadderScratch::new();
        let (kind, res) = factor_spd_ladder(&mut a, &mut perm, &mut scratch).unwrap();
        assert_eq!(kind, FactorKind::Lu);
        assert!(res.lu_fallback);
        assert_eq!(res.rung, MAX_JITTER_RUNGS + 1);

        // Truly unsolvable: indefinite AND exactly singular.
        let mut z = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1e6]]).unwrap();
        // Make it singular: second row a multiple of the first, with a
        // negative diagonal so no bounded ridge can rescue Cholesky.
        z[(1, 0)] = 1.0;
        z[(1, 1)] = 1.0;
        z[(0, 0)] = -1.0;
        z[(0, 1)] = -1.0;
        let err = factor_spd_ladder(&mut z, &mut perm, &mut scratch).unwrap_err();
        assert!(matches!(err, LinalgError::Unsolvable { .. }));
    }

    #[test]
    fn non_finite_input_propagates_without_escalation() {
        let mut a = spd(3);
        a[(1, 1)] = f64::NAN;
        let mut perm = Vec::new();
        let mut scratch = LadderScratch::new();
        let err = factor_spd_ladder(&mut a, &mut perm, &mut scratch).unwrap_err();
        assert!(matches!(err, LinalgError::NonFinite { .. }));
    }

    /// `(d, e)` of the symmetric tridiagonal with diagonal `d` and unit
    /// off-diagonal.
    fn unit_tridiagonal(d: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (d.to_vec(), vec![1.0; d.len().saturating_sub(1)])
    }

    #[test]
    fn ldl_ladder_clean_path_matches_plain_ldl() {
        let (d, e) = unit_tridiagonal(&[4.0, 3.0, 5.0, 2.5]);
        let (mut piv, mut l) = (vec![0.0; 4], vec![0.0; 3]);
        ldl_shifted_into(&d, &e, 0.5, 1e-14, &mut piv, &mut l).unwrap();
        let (mut lpiv, mut ll) = (vec![f64::NAN; 4], vec![f64::NAN; 3]);
        let res = factor_shifted_ldl_ladder(&d, &e, 0.5, &mut lpiv, &mut ll).unwrap();
        assert_eq!(res.rung, 0);
        assert_eq!(res.ridge, 0.0);
        assert!(!res.lu_fallback);
        assert!(res.rcond > 0.0 && res.rcond <= 1.0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lpiv), bits(&piv));
        assert_eq!(bits(&ll), bits(&l));
    }

    #[test]
    fn ldl_ladder_rescues_exactly_singular_system() {
        // [[1, 1], [1, 1]] is singular: the second pivot is exactly 0 at
        // shift 0, and a ridge separates the eigenvalues from it.
        let (d, e) = unit_tridiagonal(&[1.0, 1.0]);
        let (mut piv, mut l) = (vec![0.0; 2], vec![0.0; 1]);
        let res = factor_shifted_ldl_ladder(&d, &e, 0.0, &mut piv, &mut l).unwrap();
        assert!(res.is_degraded());
        // The pivot ratio, ≈ 2·ridge, must clear the floor: rung 1's
        // 1e-10 does.
        assert_eq!(res.rung, 1);
        assert_eq!(res.ridge, INITIAL_RIDGE_REL);
        let mut x = vec![1.0, 1.0];
        ldl_solve_in_place(&piv, &l, &mut x).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_ldl_ladder_is_degraded_not_unsolvable() {
        // T = 0 at shift 0: ridge·I is trivially definite, so the ladder
        // reports a degraded solve of the regularized system, on a ridge
        // relative to the fallback scale 1.0.
        let (d, e) = (vec![0.0; 3], vec![0.0; 2]);
        let (mut piv, mut l) = (vec![0.0; 3], vec![0.0; 2]);
        let res = factor_shifted_ldl_ladder(&d, &e, 0.0, &mut piv, &mut l).unwrap();
        assert!(res.is_degraded());
        assert_eq!(res.ridge, INITIAL_RIDGE_REL);
        assert_eq!(res.rcond, 1.0);
        // A negative-definite T no bounded ridge repairs is unsolvable.
        let d = vec![-1.0; 3];
        let err = factor_shifted_ldl_ladder(&d, &e, 0.0, &mut piv, &mut l).unwrap_err();
        assert!(matches!(err, LinalgError::Unsolvable { .. }));
    }

    #[test]
    fn empty_matrix_is_clean() {
        let mut a = Matrix::zeros(0, 0);
        let mut perm = Vec::new();
        let mut scratch = LadderScratch::new();
        let (kind, res) = factor_spd_ladder(&mut a, &mut perm, &mut scratch).unwrap();
        assert_eq!(kind, FactorKind::Cholesky);
        assert_eq!(res.rung, 0);
    }
}
