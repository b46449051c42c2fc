//! Sherman–Morrison–Woodbury solvers for diagonal-plus-low-rank systems.
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
//! One solver, [`solve_diag_plus_gram_semidefinite_into`], covers both
//! regimes of the paper:
//!
//! * all prior precisions strictly positive (the plain §IV-C case, eq.
//!   53/56): the K × K core `c⁻¹I + G D⁻¹ Gᵀ` is SPD and Cholesky-factorized;
//! * some precisions exactly zero (the *missing prior knowledge* case of
//!   §IV-B, eq. 50–52, where `σ_m = +∞` so only `σ_m⁻¹ = 0` enters): an
//!   augmented low-rank update that stays exact, factorized by pivoted LU
//!   (see the function docs for the derivation).
//!
//! It reads `G` through a borrowed [`MatRef`] (a cross-validation fold is a
//! row-subset view of the shared design matrix), keeps every intermediate
//! in a reusable [`WoodburyScratch`], and writes the solution into a caller
//! buffer, so repeated solves allocate nothing.

use crate::lu::lu_solve_into;
use crate::resilience::{
    factor_lu_ladder, factor_spd_ladder, ladder_solve_in_place, LadderPolicy, LadderScratch,
    Resilience,
};
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
    Ok(())
}

/// Reusable scratch buffers for the allocation-free Woodbury solver.
///
/// A scratch sized once (by its first use at the largest shape) makes
/// every later [`solve_diag_plus_gram_semidefinite_into`] call
/// allocation-free. Buffers are resized per call and every kernel fully
/// overwrites what it reads, so one scratch can serve systems of
/// different shapes in any order.
#[derive(Debug, Clone, Default)]
pub struct WoodburyScratch {
    zeros: Vec<usize>,
    dt_inv: Vec<f64>,
    /// K × K Cholesky core, or the augmented (K+|Z|)² LU system.
    w: Matrix,
    /// Block (1,1) of the augmented system before assembly into `w`.
    b11: Matrix,
    perm: Vec<usize>,
    t: Vec<f64>,
    u: Vec<f64>,
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

/// The strictly-positive path of [`solve_diag_plus_gram_semidefinite_into`],
/// writing into `out` using only `scratch` buffers. Assumes `validate`
/// passed and no precision is zero. The K × K core is factorized through
/// the degradation ladder; the returned [`Resilience`] records which rung
/// was needed (rung 0 on well-posed inputs, bit-identical to plain
/// Cholesky).
fn strictly_positive_into(
    prior_precision: &[f64],
    c: f64,
    g: MatRef<'_>,
    rhs: &[f64],
    ws: &mut WoodburyScratch,
    out: &mut [f64],
) -> Result<Resilience> {
    let (k, m) = g.shape();
    ws.dt_inv.clear();
    ws.dt_inv.extend(prior_precision.iter().map(|d| 1.0 / d));
    // Core c⁻¹I + G D⁻¹ Gᵀ, factorized in place.
    ws.w.reset_zeros(k, k);
    outer_gram_diag_into(g, &ws.dt_inv, ws.w.as_view_mut())?;
    for i in 0..k {
        ws.w[(i, i)] += 1.0 / c;
    }
    let (kind, resilience) = factor_spd_ladder(
        &mut ws.w,
        &mut ws.perm,
        &mut ws.ladder,
        &LadderPolicy::default(),
    )?;
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

/// Solves `(D + c·GᵀG) x = rhs` with `D = diag(prior_precision)`, where
/// every precision is positive or exactly zero (the missing-prior-knowledge
/// case of §IV-B), writing the solution into `out`.
///
/// `G` is read through a borrowed [`MatRef`] (which may be a
/// non-contiguous row subset of a larger design matrix), every
/// intermediate lives in `ws`, and `out` (length M) is fully overwritten,
/// so a scratch sized by its largest problem makes later calls
/// allocation-free. Exact up to rounding; never forms an M × M matrix.
///
/// # Method
///
/// With no zero precision this is the plain Sherman–Morrison–Woodbury
/// identity
///
/// ```text
/// x = D⁻¹ rhs − D⁻¹ Gᵀ (c⁻¹ I + G D⁻¹ Gᵀ)⁻¹ G D⁻¹ rhs
/// ```
///
/// at Θ(K²M + K³) cost versus Θ(M³) for the direct factorization, with
/// the K × K core Cholesky-factorized.
///
/// Otherwise let `Z = { m : d_m = 0 }` and `E ∈ ℝ^{M×|Z|}` collect the
/// corresponding identity columns. Pick a positive shift `τ` and write
///
/// ```text
/// H = D̃ + U C Uᵀ,   D̃ = D + τ·E Eᵀ,   U = [Gᵀ | E],
///                    C = blockdiag(c·I_K, −τ·I_{|Z|})
/// ```
///
/// which is an algebraic identity for any `τ > 0`. The Woodbury identity
/// with the (K+|Z|) × (K+|Z|) inner matrix `W = C⁻¹ + Uᵀ D̃⁻¹ U` (factorized
/// by pivoted LU — `W` is indefinite) then yields the exact solution at
/// Θ((K+|Z|)³ + K²M) cost. A well-posed MAP problem has `|Z| ≤ K` (the data
/// must identify the unconstrained coefficients), so this stays within a
/// small constant of the plain fast solver.
///
/// `τ` is chosen as the mean of `c·‖G col‖²` over the zero-precision columns
/// (falling back to 1.0), which keeps `W` well scaled.
///
/// Either inner factorization runs through the degradation ladder of
/// [`crate::resilience`]; the returned [`Resilience`] reports the rung,
/// ridge, and reciprocal-condition estimate (rung 0 with zero ridge on
/// well-posed inputs, bit-identical to the plain factorization). A core
/// that merely loses positive definiteness to rounding is solved on a
/// jittered or LU rung and reported as degraded.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] when `prior_precision`, `rhs` or
///   `out` does not have one entry per column of `G`.
/// * [`LinalgError::NonFinite`] when `c ≤ 0`, or any precision is
///   negative or not finite.
/// * [`LinalgError::Singular`] when the overall system is singular — in
///   particular when more coefficients lack priors than there are samples
///   (`|Z| > K`).
/// * [`LinalgError::Unsolvable`] when every ladder rung fails.
///
/// # Example
///
/// ```
/// use bmf_linalg::woodbury::{solve_diag_plus_gram_semidefinite_into, WoodburyScratch};
/// use bmf_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let g = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, -1.0]])?;
/// let d = vec![1.0, 2.0, 4.0]; // prior precisions
/// let rhs = vec![1.0, 1.0, 1.0];
/// let mut ws = WoodburyScratch::new();
/// let mut x = vec![0.0; 3];
/// solve_diag_plus_gram_semidefinite_into(&d, 0.5, g.as_view(), &rhs, &mut ws, &mut x)?;
/// // Verify against the explicit M x M system.
/// let mut h = g.gram().scaled(0.5);
/// h.add_diagonal_mut(&d)?;
/// let direct = h.cholesky()?.solve(&Vector::from(rhs))?;
/// assert!(Vector::from(x).sub(&direct)?.norm2() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn solve_diag_plus_gram_semidefinite_into(
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
    ws.zeros.clear();
    ws.zeros.extend(
        prior_precision
            .iter()
            .enumerate()
            .filter_map(|(i, d)| crate::fp::is_exact_zero(*d).then_some(i)),
    );
    if ws.zeros.is_empty() {
        return strictly_positive_into(prior_precision, c, g, rhs, ws, out);
    }
    let nz = ws.zeros.len();
    if nz > k {
        // More unconstrained coefficients than samples: H is singular.
        return Err(LinalgError::Singular { pivot: ws.zeros[k] });
    }

    // Shift tau: mean of c * column norms over the zero-precision columns.
    let mut tau = 0.0;
    for &z in &ws.zeros {
        let mut s = 0.0;
        for i in 0..k {
            s += g.get(i, z) * g.get(i, z);
        }
        tau += c * s;
    }
    // bmf-lint: allow(no-lossy-cast-in-kernels) -- nz counts zero-precision rows, bounded by M << 2^53, so the cast is exact
    tau /= nz as f64;
    if tau.is_nan() || tau <= 0.0 {
        tau = 1.0;
    }

    // D-tilde inverse.
    ws.dt_inv.clear();
    ws.dt_inv.extend(prior_precision.iter().map(|d| 1.0 / d));
    for &z in &ws.zeros {
        ws.dt_inv[z] = 1.0 / tau;
    }

    // Inner matrix W = C^-1 + U^T Dt^-1 U, size (k + nz).
    let n = k + nz;
    ws.w.reset_zeros(n, n);
    // Block (1,1): c^-1 I + G Dt^-1 G^T.
    ws.b11.reset_zeros(k, k);
    outer_gram_diag_into(g, &ws.dt_inv, ws.b11.as_view_mut())?;
    for i in 0..k {
        for j in 0..k {
            ws.w[(i, j)] = ws.b11[(i, j)] + if i == j { 1.0 / c } else { 0.0 };
        }
    }
    // Block (1,2) and (2,1): G Dt^-1 E  → column z scaled by 1/tau.
    for (jz, &z) in ws.zeros.iter().enumerate() {
        for i in 0..k {
            let v = g.get(i, z) / tau;
            ws.w[(i, k + jz)] = v;
            ws.w[(k + jz, i)] = v;
        }
    }
    // Block (2,2): -tau^-1 I + E^T Dt^-1 E = -1/tau + 1/tau = 0. Left zero.

    // The augmented system is indefinite by construction, so its ladder
    // starts at plain pivoted LU and escalates through diagonal ridges.
    let resilience = factor_lu_ladder(
        &mut ws.w,
        &mut ws.perm,
        &mut ws.ladder,
        &LadderPolicy::default(),
    )?;

    // t = Dt^-1 rhs.
    ws.t.clear();
    ws.t.extend((0..m).map(|i| ws.dt_inv[i] * rhs[i]));
    // u = U^T t : first k entries G t, last nz entries t[z].
    resize(&mut ws.u, n);
    matvec_into(g, &ws.t, &mut ws.u[..k])?;
    for (jz, &z) in ws.zeros.iter().enumerate() {
        ws.u[k + jz] = ws.t[z];
    }
    resize(&mut ws.y, n);
    lu_solve_into(&ws.w, &ws.perm, &ws.u, &mut ws.y)?;
    // Uy = G^T y1 + E y2.
    resize(&mut ws.uy, m);
    matvec_transpose_into(g, &ws.y[..k], &mut ws.uy)?;
    for (jz, &z) in ws.zeros.iter().enumerate() {
        ws.uy[z] += ws.y[k + jz];
    }
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
        solve_diag_plus_gram_semidefinite_into(
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
    fn semidefinite_matches_direct_solver() {
        let g = pseudo_random_matrix(8, 15, 99);
        let mut d: Vec<f64> = (0..15).map(|i| 0.8 + 0.05 * i as f64).collect();
        d[3] = 0.0;
        d[10] = 0.0;
        let rhs = Vector::from_fn(15, |i| 1.0 / (1.0 + i as f64));
        let fast = solve(&d, 0.7, &g, &rhs).unwrap();
        let direct = direct_solve(&d, 0.7, &g, &rhs);
        assert!(fast.sub(&direct).unwrap().norm2() < 1e-8 * direct.norm2().max(1.0));
    }

    #[test]
    fn too_many_missing_priors_is_singular() {
        let g = pseudo_random_matrix(2, 6, 3);
        let d = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]; // 3 zeros > K = 2
        let rhs = Vector::zeros(6);
        assert!(matches!(
            solve(&d, 1.0, &g, &rhs),
            Err(LinalgError::Singular { .. })
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
