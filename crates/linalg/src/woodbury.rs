//! Sherman–Morrison–Woodbury solver for diagonal-plus-low-rank systems.
//!
//! The BMF MAP estimate (eq. 30/35) solves
//!
//! ```text
//! (D + c · GᵀG) x = rhs,        D = diag(d₁ … d_M),  G ∈ ℝ^{K×M},  K ≪ M
//! ```
//!
//! where `D` holds the prior precisions (`σ_m⁻²` in the zero-mean case,
//! `η·α_{E,m}⁻²` in the nonzero-mean case with `c = 1`). A direct solver
//! factorizes the M × M matrix at Θ(M³) cost; the Woodbury identity
//! (eq. 53–58) reduces this to one K × K factorization plus Θ(K²M) work —
//! the paper reports up to 600× speed-ups from exactly this identity, with
//! *no* approximation.
//!
//! [`solve_diag_plus_gram_into`] covers the plain §IV-C case, every prior
//! precision strictly positive (eq. 53/56): the K × K core
//! `c⁻¹I + G D⁻¹ Gᵀ` is SPD and Cholesky-factorized. A zero precision
//! (the *missing prior knowledge* case of §IV-B, eq. 50–52) leaves `D⁻¹`
//! undefined and is refused; `bmf-core` solves that case in sample space,
//! with the missing columns profiled out by a QR of `G_Z`.
//!
//! It reads `G` through a borrowed [`MatRef`] (a cross-validation fold is a
//! row-subset view of the shared design matrix), keeps every intermediate
//! in a reusable [`WoodburyScratch`], and writes the solution into a caller
//! buffer, so repeated solves allocate nothing.

use crate::resilience::{factor_spd_ladder, ladder_solve_in_place, LadderScratch, Resilience};
use crate::view::{matvec_into, matvec_transpose_into, outer_gram_diag_into, resize, MatRef};
use crate::{LinalgError, Matrix, Result};

fn validate(prior_precision: &[f64], c: f64, g: MatRef<'_>, rhs: &[f64]) -> Result<()> {
    let (_k, m) = g.shape();
    if prior_precision.len() != m {
        return Err(LinalgError::DimensionMismatch {
            op: "woodbury (precision length vs G cols)",
            lhs: (prior_precision.len(), 1),
            rhs: (m, 1),
        });
    }
    if rhs.len() != m {
        return Err(LinalgError::DimensionMismatch {
            op: "woodbury (rhs length vs G cols)",
            lhs: (rhs.len(), 1),
            rhs: (m, 1),
        });
    }
    if c <= 0.0 || !c.is_finite() {
        return Err(LinalgError::NonFinite { op: "woodbury (c)" });
    }
    if prior_precision.iter().any(|d| !d.is_finite() || *d < 0.0) {
        return Err(LinalgError::NonFinite {
            op: "woodbury (precision)",
        });
    }
    if let Some(pivot) = prior_precision
        .iter()
        .position(|d| crate::fp::is_exact_zero(*d))
    {
        return Err(LinalgError::Singular { pivot });
    }
    Ok(())
}

/// Reusable scratch buffers for the allocation-free Woodbury solver.
///
/// A scratch sized once (by its first use at the largest shape) makes
/// every later [`solve_diag_plus_gram_into`] call allocation-free.
/// Buffers are resized per call and every kernel fully overwrites what it
/// reads, so one scratch can serve systems of different shapes in any
/// order.
#[derive(Debug, Clone, Default)]
pub struct WoodburyScratch {
    dt_inv: Vec<f64>,
    /// The K × K core, factorized in place.
    w: Matrix,
    perm: Vec<usize>,
    t: Vec<f64>,
    y: Vec<f64>,
    uy: Vec<f64>,
    /// Degradation-ladder snapshot/rhs buffers (see [`crate::resilience`]).
    ladder: LadderScratch,
}

impl WoodburyScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solves `(D + c·GᵀG) x = rhs` with `D = diag(prior_precision)`, every
/// precision strictly positive, writing the solution into `out`.
///
/// `G` is read through a borrowed [`MatRef`] (which may be a
/// non-contiguous row subset of a larger design matrix), every
/// intermediate lives in `ws`, and `out` (length M) is fully overwritten,
/// so a scratch sized by its largest problem makes later calls
/// allocation-free. Exact up to rounding; never forms an M × M matrix.
///
/// # Method
///
/// The Sherman–Morrison–Woodbury identity
///
/// ```text
/// x = D⁻¹ rhs − D⁻¹ Gᵀ (c⁻¹ I + G D⁻¹ Gᵀ)⁻¹ G D⁻¹ rhs
/// ```
///
/// at Θ(K²M + K³) cost versus Θ(M³) for the direct factorization. The
/// K × K core's entries are [`crate::dot3`] sums of its rows (see
/// [`outer_gram_diag_into`]), and it is factorized through the
/// degradation ladder of [`crate::resilience`]; the returned
/// [`Resilience`] reports the rung, ridge, and reciprocal-condition
/// estimate (rung 0 with zero ridge on well-posed inputs, bit-identical
/// to plain Cholesky). A core that merely loses positive definiteness to
/// rounding is solved on a jittered or LU rung and reported as degraded.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] when `prior_precision`, `rhs` or
///   `out` does not have one entry per column of `G`.
/// * [`LinalgError::NonFinite`] when `c ≤ 0`, or any precision is
///   negative or not finite.
/// * [`LinalgError::Singular`] at the first precision that is exactly
///   zero (a missing prior: `D` is singular, so the identity does not
///   apply).
/// * [`LinalgError::Unsolvable`] when every ladder rung fails.
///
/// # Example
///
/// ```
/// use bmf_linalg::woodbury::{solve_diag_plus_gram_into, WoodburyScratch};
/// use bmf_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let g = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, -1.0]])?;
/// let d = vec![1.0, 2.0, 4.0]; // prior precisions
/// let rhs = vec![1.0, 1.0, 1.0];
/// let mut ws = WoodburyScratch::new();
/// let mut x = vec![0.0; 3];
/// solve_diag_plus_gram_into(&d, 0.5, g.as_view(), &rhs, &mut ws, &mut x)?;
/// // Verify against the explicit M x M system.
/// let mut h = g.gram().scaled(0.5);
/// h.add_diagonal_mut(&d)?;
/// let direct = h.cholesky()?.solve(&Vector::from(rhs))?;
/// assert!(Vector::from(x).sub(&direct)?.norm2() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn solve_diag_plus_gram_into(
    prior_precision: &[f64],
    c: f64,
    g: MatRef<'_>,
    rhs: &[f64],
    ws: &mut WoodburyScratch,
    out: &mut [f64],
) -> Result<Resilience> {
    validate(prior_precision, c, g, rhs)?;
    let (k, m) = g.shape();
    if out.len() != m {
        return Err(LinalgError::DimensionMismatch {
            op: "woodbury (out length vs G cols)",
            lhs: (out.len(), 1),
            rhs: (m, 1),
        });
    }
    ws.dt_inv.clear();
    ws.dt_inv.extend(prior_precision.iter().map(|d| 1.0 / d));
    // Core c⁻¹I + G D⁻¹ Gᵀ, factorized in place.
    ws.w.reset_zeros(k, k);
    outer_gram_diag_into(g, &ws.dt_inv, ws.w.as_view_mut())?;
    for i in 0..k {
        ws.w[(i, i)] += 1.0 / c;
    }
    let (kind, resilience) = factor_spd_ladder(&mut ws.w, &mut ws.perm, &mut ws.ladder)?;
    // t = D⁻¹ rhs
    ws.t.clear();
    ws.t.extend((0..m).map(|i| ws.dt_inv[i] * rhs[i]));
    // y = (core)⁻¹ G t
    resize(&mut ws.y, k);
    matvec_into(g, &ws.t, &mut ws.y)?;
    ladder_solve_in_place(kind, &ws.w, &ws.perm, &mut ws.ladder, &mut ws.y)?;
    // x = t − D⁻¹ Gᵀ y
    resize(&mut ws.uy, m);
    matvec_transpose_into(g, &ws.y, &mut ws.uy)?;
    for (i, o) in out.iter_mut().enumerate() {
        *o = ws.t[i] - ws.dt_inv[i] * ws.uy[i];
    }
    Ok(resilience)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    /// Deterministic pseudo-random matrix without external dependencies.
    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = state.wrapping_mul(0x2545F4914F6CDD1D);
            (u >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    /// One solve on a fresh scratch.
    fn solve(d: &[f64], c: f64, g: &Matrix, rhs: &Vector) -> Result<Vector> {
        let mut out = vec![0.0; rhs.len()];
        solve_diag_plus_gram_into(
            d,
            c,
            g.as_view(),
            rhs.as_slice(),
            &mut WoodburyScratch::new(),
            &mut out,
        )?;
        Ok(Vector::from(out))
    }

    fn direct_solve(d: &[f64], c: f64, g: &Matrix, rhs: &Vector) -> Vector {
        let mut h = g.gram().scaled(c);
        h.add_diagonal_mut(d).unwrap();
        h.lu().unwrap().solve(rhs).unwrap()
    }

    #[test]
    fn matches_direct_solver_positive_priors() {
        let g = pseudo_random_matrix(6, 20, 42);
        let d: Vec<f64> = (0..20).map(|i| 0.5 + 0.1 * i as f64).collect();
        let rhs = Vector::from_fn(20, |i| (i as f64).sin());
        let fast = solve(&d, 2.0, &g, &rhs).unwrap();
        let direct = direct_solve(&d, 2.0, &g, &rhs);
        assert!(fast.sub(&direct).unwrap().norm2() < 1e-9 * direct.norm2().max(1.0));
    }

    #[test]
    fn too_many_missing_priors_is_singular() {
        // Any zero precision leaves D singular; the first one is named.
        let g = pseudo_random_matrix(2, 6, 3);
        let d = vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]; // 3 zeros > K = 2
        let rhs = Vector::zeros(6);
        assert!(matches!(
            solve(&d, 1.0, &g, &rhs),
            Err(LinalgError::Singular { pivot: 1 })
        ));
        let d = vec![1.0, 0.5, 2.0, 1.0, 1.0, 0.0]; // one zero, K = 2
        assert!(matches!(
            solve(&d, 1.0, &g, &rhs),
            Err(LinalgError::Singular { pivot: 5 })
        ));
    }

    #[test]
    fn negative_precision_rejected() {
        let g = pseudo_random_matrix(2, 3, 3);
        assert!(solve(&[1.0, -1.0, 1.0], 1.0, &g, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn non_positive_c_rejected() {
        let g = pseudo_random_matrix(2, 3, 3);
        assert!(solve(&[1.0; 3], 0.0, &g, &Vector::zeros(3)).is_err());
        assert!(solve(&[1.0; 3], -1.0, &g, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn wide_underdetermined_regime() {
        // K = 3 samples, M = 40 coefficients: the regime the paper targets.
        let g = pseudo_random_matrix(3, 40, 1234);
        let d: Vec<f64> = (0..40).map(|i| 0.2 + 0.01 * i as f64).collect();
        let rhs = Vector::from_fn(40, |i| ((i * 7 % 11) as f64) / 11.0);
        let fast = solve(&d, 3.0, &g, &rhs).unwrap();
        let direct = direct_solve(&d, 3.0, &g, &rhs);
        assert!(fast.sub(&direct).unwrap().norm2() < 1e-9 * direct.norm2().max(1.0));
    }
}
