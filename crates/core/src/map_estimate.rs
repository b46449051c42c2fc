//! Maximum-a-posteriori estimation of the late-stage coefficients
//! (§III-B), with the direct and fast solvers of §IV-C.
//!
//! Both prior families lead to the same unified SPD system. Writing
//! `D = diag(prior precisions)` (see [`Prior::precisions`]) and `b₀` for
//! the prior's right-hand-side contribution ([`Prior::rhs_contribution`]),
//! the MAP estimate solves
//!
//! ```text
//! (D + GᵀG) · α_L = b₀ + Gᵀ f_L
//! ```
//!
//! which specializes to eq. 30 (zero-mean, after multiplying through by
//! σ₀²) and eq. 35 (nonzero-mean) of the paper.
//!
//! Two solvers are provided and are *numerically identical* (the fast one
//! is an algebraic identity, not an approximation):
//!
//! * [`SolverKind::Direct`] — assemble the M × M posterior precision and
//!   factorize with Cholesky: Θ(M³). The paper's "conventional solver".
//! * [`SolverKind::Fast`] — the Sherman–Morrison–Woodbury low-rank update
//!   (eq. 53–58): Θ(K²M) with K ≪ M. With every precision positive it is
//!   [`bmf_linalg::woodbury`]'s K × K Cholesky core. Missing-prior
//!   coefficients (zero diagonal precision, §IV-B) leave `D⁻¹` undefined,
//!   so such a prior is solved in sample space instead ([`MapSweep`]'s
//!   system): a Householder QR of the missing columns `G_Z` profiles
//!   them out exactly, the kernel `B_F = G_F A_F⁻¹ G_Fᵀ` left over is
//!   reduced to a tridiagonal `T̂` once, and the coefficients come back
//!   through one `Gᵀ` product. This is the batch engine's final solve,
//!   so an engine fit equals this module's estimate bit for bit.
//!
//! For a prior whose entries mostly sit on its floor `c₀` (an OMP early
//! model's), the kernel's Θ(K²M) part is the floor gram
//! `Γ = G·diag(1_F)·Gᵀ` of the finite columns, and the prior adds
//! `G_S·diag(a⁻¹_S − c₀)·G_Sᵀ` over its entries above the floor
//! (DESIGN.md §8). The sample-space systems are built from a base every
//! such prior with the same missing columns shares ([`FoldBase`]: the
//! QR of the missing columns and `QᵀΓQ` by a compact-WY congruence), and
//! each prior adds only its rank-|S| term ([`FoldSystem`]); a dense
//! prior's kernel is formed directly and is its own base.

use std::ops::Range;

use bmf_linalg::resilience::RCOND_FLOOR;
use bmf_linalg::view::{
    gram_runs_band_into, matvec_into, matvec_transpose_into, mirror_upper_into,
    outer_gram_diag_into, sub_products_into, MatRef,
};
use bmf_linalg::{
    factor_shifted_ldl_ladder, factor_spd_ladder, ladder_solve_in_place, qr_in_place, solve_lower,
    tridiagonal, view, woodbury, LinalgError, Matrix, Reflectors, Resilience, Vector,
};
use bmf_stat::crossval::Fold;

use crate::hyper::FoldErrors;
use crate::options::{validate_hyper, FitOptions};
use crate::prior::{Prior, PriorKind};
use crate::workspace::{resize, MapScratch};
use crate::{BmfError, Result};

/// Which MAP solver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Dense M × M Cholesky factorization (Θ(M³)).
    Direct,
    /// Woodbury low-rank update on the K × K core (Θ(K²M)).
    Fast,
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverKind::Direct => write!(f, "direct (Cholesky)"),
            SolverKind::Fast => write!(f, "fast (low-rank update)"),
        }
    }
}

/// Computes the MAP estimate of the late-stage coefficients.
///
/// * `g` — the K × M design matrix (eq. 9) of the late-stage samples,
/// * `f` — the K late-stage performance values,
/// * `prior` — the coefficient prior (length M),
/// * `options` — the unified fit configuration; this entry point uses
///   [`FitOptions::hyper`] (`σ₀²` for the zero-mean prior, `η` for the
///   nonzero-mean one — chosen by cross-validation in practice, §IV-D)
///   and [`FitOptions::solver`] (direct or fast; results agree to
///   rounding error).
///
/// # Errors
///
/// * [`BmfError::Config`] when `options.hyper` is not positive and
///   finite.
/// * [`BmfError::PriorShape`] when `prior.len() != g.ncols()`.
/// * [`BmfError::SampleShape`] when `f.len() != g.nrows()`.
/// * [`BmfError::NotEnoughSamples`] when more coefficients lack priors
///   than there are samples (the posterior is improper).
/// * [`BmfError::NonFiniteInput`] when `g` or `f` contain NaN or ±∞.
/// * [`BmfError::Linalg`] when the system cannot be solved even after
///   the degradation ladder ([`bmf_linalg::LinalgError::Unsolvable`]).
///
/// An ill-conditioned but rescuable system does *not* error: the solver
/// climbs the degradation ladder of [`bmf_linalg::resilience`] and the
/// solve succeeds in degraded form. Use [`map_estimate_with_report`] to
/// observe the ladder rung, ridge, and condition estimate.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Matrix, Vector};
/// use bmf_core::map_estimate::map_estimate;
/// use bmf_core::options::FitOptions;
/// use bmf_core::prior::{Prior, PriorKind};
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// // One sample, two coefficients: the prior disambiguates.
/// let g = Matrix::from_rows(&[&[1.0, 1.0]])?;
/// let f = Vector::from(vec![2.0]);
/// let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &[2.0, 0.01]);
/// let alpha = map_estimate(&g, &f, &prior, &FitOptions::new().hyper(1.0))?;
/// // The first coefficient absorbs almost everything.
/// assert!(alpha[0] > 10.0 * alpha[1].abs());
/// # Ok(())
/// # }
/// ```
pub fn map_estimate(g: &Matrix, f: &Vector, prior: &Prior, options: &FitOptions) -> Result<Vector> {
    map_estimate_with_report(g, f, prior, options).map(|(alpha, _)| alpha)
}

/// Like [`map_estimate`], additionally returning the degradation-ladder
/// outcome of the solve: the rung used (0 = clean), the ridge added to
/// the system diagonal, and a reciprocal-condition estimate of the
/// accepted factorization.
///
/// # Errors
///
/// Same conditions as [`map_estimate`].
pub fn map_estimate_with_report(
    g: &Matrix,
    f: &Vector,
    prior: &Prior,
    options: &FitOptions,
) -> Result<(Vector, Resilience)> {
    validate_hyper(options.hyper)?;
    crate::screen::finite_matrix("design matrix", g)?;
    crate::screen::finite_values("response values", f.as_slice())?;
    crate::screen::finite_prior(prior)?;
    let mut ws = MapScratch::default();
    map_estimate_ws(g, f, prior, options.hyper, options.solver, &mut ws)
}

/// Workspace-threaded core of [`map_estimate`]: all intermediates live in
/// `ws` so repeated final solves (e.g. one per batch job) allocate only
/// their coefficient vector. Returns the coefficients together with the
/// degradation-ladder outcome of the factorization.
///
/// The fast solver takes one of two paths. With every precision strictly
/// positive it is the Woodbury identity on the K × K core, whose entries
/// are the `dot3` sums [`crate::sequential::SequentialBmf`] grows row by
/// row. With a missing prior it is the sample-space solve of the batch
/// engine's final solve ([`FoldSystem::solve`] on the [`MapSweep`]
/// full-data system of the prior's kernel), so an engine fit's
/// coefficients equal this function's bit for bit.
pub(crate) fn map_estimate_ws(
    g: &Matrix,
    f: &Vector,
    prior: &Prior,
    hyper: f64,
    solver: SolverKind,
    ws: &mut MapScratch,
) -> Result<(Vector, Resilience)> {
    let (k, m) = g.shape();
    if prior.len() != m {
        return Err(BmfError::PriorShape {
            basis_terms: m,
            prior_entries: prior.len(),
        });
    }
    if f.len() != k {
        return Err(BmfError::SampleShape {
            detail: format!("{k} design rows vs {} values", f.len()),
        });
    }
    let missing = prior.num_zero_precision();
    if missing > k {
        return Err(BmfError::NotEnoughSamples {
            available: k,
            required: missing,
            context: "missing-prior coefficients",
        });
    }
    if solver == SolverKind::Fast && missing > 0 {
        let sweep = MapSweep::from_view(g.as_view(), prior)?;
        return sweep.system.solve(
            sweep.g,
            &sweep.base,
            &sweep.terms,
            f.as_slice(),
            hyper,
            prior.kind(),
        );
    }
    let mut out = vec![0.0; m];

    let precisions = prior.precisions(hyper);
    resize(&mut ws.rhs, m);
    matvec_transpose_into(g.as_view(), f.as_slice(), &mut ws.rhs)?;
    for (r, b0) in ws.rhs.iter_mut().zip(prior.rhs_contribution(hyper)) {
        *r += b0;
    }
    let resilience = match solver {
        SolverKind::Direct => {
            ws.core.reset_zeros(m, m);
            view::gram_into(g.as_view(), ws.core.as_view_mut())?;
            ws.core.add_diagonal_mut(&precisions)?;
            let (kind, res) = factor_spd_ladder(&mut ws.core, &mut ws.perm, &mut ws.ladder)?;
            out.copy_from_slice(&ws.rhs);
            ladder_solve_in_place(kind, &ws.core, &ws.perm, &mut ws.ladder, &mut out)?;
            res
        }
        SolverKind::Fast => woodbury::solve_diag_plus_gram_into(
            &precisions,
            g.as_view(),
            &ws.rhs,
            &mut ws.woodbury,
            &mut out,
        )?,
    };
    Ok((Vector::from(out), resilience))
}

/// Pre-computed quantities for sweeping the hyper-parameter over a fixed
/// design matrix and prior *structure* (§IV-D), in sample space: the
/// missing coefficients are profiled out through a Householder QR
/// `G_Z = [Q_Z N]·R`, and the ridge kernel left over, `S = Nᵀ B_F N`, is
/// reduced once to `S = H T̂ Hᵀ`. Each hyper-parameter value then costs
/// one O(n) factorization of `T̂ + hI`, shared by both prior families,
/// plus the back-projection (DESIGN.md §8). This is the batch engine's
/// final solve for a prior with missing entries, so for such a prior
/// the estimates equal [`map_estimate`]'s (fast solver) bit for bit; for
/// a strictly positive one they equal it to rounding.
#[derive(Debug, Clone)]
pub struct MapSweep<'g> {
    g: MatRef<'g>,
    terms: PriorTerms,
    /// The base's projection over every row of `g`.
    base: FoldBase,
    /// The system over every row of `g`, with no validation rows.
    system: FoldSystem,
}

/// A prior's hyper-independent quantities over every row of a design
/// matrix: what its fold systems add to their shared base, and what the
/// back-projection of [`FoldSystem::solve`] reads besides the system.
#[derive(Debug, Clone)]
pub(crate) struct PriorTerms {
    /// `1/α_E,m²` for finite-prior columns, 0 for missing.
    a: Vec<f64>,
    /// Whether the base is the floor gram of the finite columns (see
    /// [`PriorTerms::uses_floor_gram`]) rather than the prior's own
    /// kernel.
    floor: bool,
    /// The base's weight `c₀`: the floor `min_F a⁻¹` on the floor gram,
    /// 1 on the prior's own kernel.
    c0: f64,
    /// The columns above the floor (`S`, ascending; empty on the prior's
    /// own kernel) and their excess `a⁻¹ − c₀`.
    support: Vec<usize>,
    excess: Vec<f64>,
    /// Prior mean per column (0 for zero-mean priors and missing entries).
    prior_mean: Vec<f64>,
    missing: Vec<usize>,
    /// `G·prior_mean`, the nonzero-mean prior's prediction at every row.
    pub(crate) g_mu: Vec<f64>,
}

impl PriorTerms {
    /// Screens `prior` against `g` and computes its quantities over every
    /// row of `g`.
    ///
    /// # Errors
    ///
    /// [`BmfError::PriorShape`] when `prior.len() != g.ncols()`, and
    /// [`BmfError::NonFiniteInput`] for a non-finite prior.
    pub(crate) fn new(g: MatRef<'_>, prior: &Prior) -> Result<Self> {
        let (k, m) = g.shape();
        if prior.len() != m {
            return Err(BmfError::PriorShape {
                basis_terms: m,
                prior_entries: prior.len(),
            });
        }
        crate::screen::finite_prior(prior)?;
        // Unit-hyper precisions give A directly.
        let a = prior.precisions(1.0);
        let missing = a
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| bmf_linalg::is_exact_zero(d).then_some(i))
            .collect();
        // Prior means (independent of hyper): α_E for NZM, 0 for ZM and
        // missing entries — `rhs_contribution(1)/A` entrywise, in its
        // arithmetic.
        let nzm = prior.kind() == PriorKind::NonZeroMean;
        let prior_mean: Vec<f64> = a
            .iter()
            .zip(prior.early_values())
            .map(|(&d, e)| match e {
                Some(v) if nzm && d > 0.0 => d * v / d,
                _ => 0.0,
            })
            .collect();
        let mut g_mu = vec![0.0; k];
        matvec_into(g, &prior_mean, &mut g_mu)?;
        // The floor gram pays while at most half the finite columns lie
        // above the floor: an early model from OMP leaves a few dozen of
        // thousands there, a dense prior leaves nearly all.
        let finite = a.iter().filter(|&&d| d > 0.0);
        let c0 = finite.clone().fold(f64::INFINITY, |c, &d| c.min(1.0 / d));
        let above = finite.clone().filter(|&&d| 1.0 / d > c0).count();
        let floor = 2 * above <= finite.count() && c0.is_finite();
        let (mut support, mut excess) = (Vec::new(), Vec::new());
        if floor {
            for (j, &d) in a.iter().enumerate() {
                if d > 0.0 && 1.0 / d > c0 {
                    support.push(j);
                    excess.push(1.0 / d - c0);
                }
            }
        }
        Ok(PriorTerms {
            a,
            floor,
            c0: if floor { c0 } else { 1.0 },
            support,
            excess,
            prior_mean,
            missing,
            g_mu,
        })
    }

    /// Whether this prior's base is the floor gram `Γ = G·diag(1_F)·Gᵀ`
    /// of its finite columns `F`, which every such prior with the same
    /// missing columns shares: most finite columns sit on the floor
    /// `c₀ = min_F a⁻¹`, so
    ///
    /// ```text
    /// B_F = c₀·Γ + G_S·diag(a⁻¹_S − c₀)·G_Sᵀ,   S = {m : a⁻¹_m > c₀}
    /// ```
    ///
    /// and each fold system adds the prior's rank-|S| term to the
    /// shared base's. Otherwise the base is the prior's own kernel
    /// ([`PriorTerms::own_kernel`]), with `c₀ = 1` and `S = ∅`.
    pub(crate) fn uses_floor_gram(&self) -> bool {
        self.floor
    }

    /// The prior's missing (zero-precision) columns.
    pub(crate) fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// The Woodbury kernel `B_F = G·diag(A⁻¹)·Gᵀ` of a prior that does
    /// not use the floor gram, over every row of `g`, Θ(K²M): the
    /// prior's own base. Missing columns drop out (`A⁻¹ = 0` there).
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when `g` does not match the prior.
    pub(crate) fn own_kernel(&self, g: MatRef<'_>) -> Result<Matrix> {
        let k = g.nrows();
        let mut b_f = Matrix::zeros(k, k);
        let a_inv: Vec<f64> = self
            .a
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        outer_gram_diag_into(g, &a_inv, b_f.as_view_mut())?;
        Ok(b_f)
    }
}

/// The ascending runs of `0..m` between the `missing` columns
/// (ascending): the finite columns the floor gram sums over.
pub(crate) fn finite_runs(m: usize, missing: &[usize]) -> Vec<Range<usize>> {
    let mut runs = Vec::with_capacity(missing.len() + 1);
    let mut start = 0;
    for &z in missing {
        if z > start {
            runs.push(start..z);
        }
        start = z + 1;
    }
    if m > start {
        runs.push(start..m);
    }
    runs
}

/// One prior's base over every row of a design matrix, plus the prior's
/// [`PriorTerms`]: the floor gram of its finite columns, or its own
/// kernel. Any number of [`FoldBase`]s read it through their own row
/// tables.
#[derive(Debug, Clone)]
pub(crate) struct SweepKernel {
    pub(crate) terms: PriorTerms,
    pub(crate) base: Matrix,
}

impl SweepKernel {
    /// Builds the base of `prior` over every row of `g` on the calling
    /// thread: the batch engine's banded floor gram in one band, or the
    /// prior's own kernel, so the same bits.
    ///
    /// # Errors
    ///
    /// [`BmfError::PriorShape`] when `prior.len() != g.ncols()`, and
    /// [`BmfError::NonFiniteInput`] for a non-finite prior.
    pub(crate) fn new(g: MatRef<'_>, prior: &Prior) -> Result<Self> {
        let (k, m) = g.shape();
        let terms = PriorTerms::new(g, prior)?;
        let base = if terms.uses_floor_gram() {
            let mut gram = Matrix::zeros(k, k);
            let runs = finite_runs(m, &terms.missing);
            gram_runs_band_into(g, &runs, 0..k, gram.as_mut_slice())?;
            mirror_upper_into(gram.as_view_mut())?;
            gram
        } else {
            terms.own_kernel(g)?
        };
        Ok(SweepKernel { terms, base })
    }
}

/// What every prior pattern with the same base shares in one fold: for
/// training rows `T` and validation rows `V`, with `B` the base (a floor
/// gram or a prior's own kernel) and `Z` the missing columns,
///
/// * `gz`/`gz_tau`: the QR of `G_Z(T)`, stored transposed (`Rᵀ` in the
///   leading lower triangle), whose `Q = [Q_Z N]`;
/// * `cb`: `QᵀB(T,T)Q`, by the compact-WY congruence;
/// * `vb`: `QᵀB(T,V)`;
/// * `ev`: `E = G_Z(V) R⁻¹`.
///
/// A pattern's [`FoldSystem`] adds its own rank-|S| term to these.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldBase {
    gz: Matrix,
    gz_tau: Vec<f64>,
    cb: Matrix,
    vb: Matrix,
    ev: Matrix,
    /// Scratch: one row, and the congruence's.
    w: Vec<f64>,
    wy: Vec<f64>,
}

impl FoldBase {
    /// Builds the base of the kernel `base` (over every row of `g`) with
    /// missing columns `missing` for training rows `train` and validation
    /// rows `val`.
    ///
    /// # Errors
    ///
    /// * [`BmfError::NotEnoughSamples`] when `train` has fewer rows than
    ///   there are missing columns.
    /// * [`BmfError::Linalg`] ([`LinalgError::Unsolvable`]) when `G_Z(T)`
    ///   is rank deficient: `min|R_jj| ≤ RCOND_FLOOR·max|R_jj|`, with the
    ///   degradation ladder's floor.
    pub(crate) fn build(
        &mut self,
        g: MatRef<'_>,
        base: &Matrix,
        missing: &[usize],
        train: &[usize],
        val: &[usize],
    ) -> Result<()> {
        let (nt, nv, nz) = (train.len(), val.len(), missing.len());
        if nz > nt {
            return Err(BmfError::NotEnoughSamples {
                available: nt,
                required: nz,
                context: "missing-prior coefficients",
            });
        }
        self.gz.reset_zeros(nz, nt);
        for (zi, &z) in missing.iter().enumerate() {
            for (x, &ri) in self.gz.row_mut(zi).iter_mut().zip(train) {
                *x = g.get(ri, z);
            }
        }
        qr_in_place(&mut self.gz, &mut self.gz_tau)?;
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for j in 0..nz {
            lo = lo.min(self.gz[(j, j)].abs());
            hi = hi.max(self.gz[(j, j)].abs());
        }
        // With nothing missing, lo stays ∞ and the check passes.
        if lo <= RCOND_FLOOR * hi || lo.is_nan() {
            let rcond = if hi > 0.0 { lo / hi } else { 0.0 };
            let op = "sample-space system (missing-prior columns)";
            return Err(LinalgError::Unsolvable { op, rcond }.into());
        }
        gather(base.as_view(), train, train, &mut self.cb);
        gather(base.as_view(), train, val, &mut self.vb);
        let q = Reflectors::new(&self.gz, &self.gz_tau, 0);
        q.congruence_in_place(&mut self.cb, &mut self.wy)?;
        resize(&mut self.w, nv);
        q.apply_qt_in_place(self.vb.as_mut_slice(), &mut self.w)?;
        // E = G_Z(V) R⁻¹, row by row against Rᵀ (gz's leading lower
        // triangle).
        let rt = MatRef::strided(self.gz.as_slice(), nz, nz, nt)?;
        self.ev.reset_zeros(nv, nz);
        for (r, &rv) in val.iter().enumerate() {
            let row = self.ev.row_mut(r);
            for (x, &z) in row.iter_mut().zip(missing) {
                *x = g.get(rv, z);
            }
            solve_lower(rt, row)?;
        }
        Ok(())
    }

    /// Builds the base over every row of `g`, with no validation rows.
    ///
    /// # Errors
    ///
    /// As for [`FoldBase::build`].
    pub(crate) fn full(g: MatRef<'_>, base: &Matrix, missing: &[usize]) -> Result<Self> {
        let rows: Vec<usize> = (0..g.nrows()).collect();
        let mut full = FoldBase::default();
        full.build(g, base, missing, &rows, &[])?;
        Ok(full)
    }

    /// Keeps only what [`FoldSystem::solve`] reads: the QR of `G_Z`.
    pub(crate) fn into_projection(self) -> Self {
        FoldBase {
            gz: self.gz,
            gz_tau: self.gz_tau,
            ..FoldBase::default()
        }
    }

    /// The missing-column reflectors `Q`.
    fn q(&self) -> Reflectors<'_> {
        Reflectors::new(&self.gz, &self.gz_tau, 0)
    }
}

/// The sample-space system ([`MapSweep`]) of one prior pattern in one
/// fold, built from the fold's [`FoldBase`] into reusable buffers,
/// `n = |T| − |Z|`. With `U = QᵀG_S(T)` and `D = diag(a⁻¹_S − c₀)`
/// (`c₀ = 1`, `S = ∅` on a prior's own kernel):
///
/// * `s`/`h_tau`/`d`/`e`: `S = c₀·cb[N,N] + U_N D U_Nᵀ` reduced to
///   `T̂ = (d, e)`, `H`'s reflectors packed in `s`;
/// * `c_nz`: `C[N,Z] = c₀·cb[N,Z] + U_N D U_Zᵀ`;
/// * `wt`: `Wᵀ = Hᵀ(c₀·vb[N,·] + U_N D G_S(V)ᵀ − C[N,Z]·Eᵀ)`.
///
/// A validation prediction is `(Gμ)_V + E·Q_Zᵀy + W·x`: no cell touches
/// an M-length vector. The cell scratch: per family, the projected
/// response `[Q_Zᵀy; HᵀNᵀy]` (`proj`) and the η-independent residual
/// `(Gμ)_V + E·Q_Zᵀy − f_V` (`r0`); the LDLᵀ pivots and multipliers
/// (`piv`); the solution `x` and `W·x` (`x`).
///
/// Over every row with no validation rows ([`FoldSystem::full`]) it is
/// the full-data system the final solve of a missing-prior fit
/// back-projects ([`FoldSystem::solve`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldSystem {
    c_nz: Matrix,
    s: Matrix,
    h_tau: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
    wt: Matrix,
    /// `U`, then `−U·D` (`nud`), and `G_S(V)` (`gsv`).
    u: Matrix,
    nud: Matrix,
    gsv: Matrix,
    /// One row of scratch.
    w: Vec<f64>,
    proj: Matrix,
    r0: Matrix,
    piv: Vec<f64>,
    x: Vec<f64>,
}

/// `out = src[rows, cols]`.
fn gather(src: MatRef<'_>, rows: &[usize], cols: &[usize], out: &mut Matrix) {
    out.reset_zeros(rows.len(), cols.len());
    for (i, &r) in rows.iter().enumerate() {
        let row = src.row(r);
        for (x, &c) in out.row_mut(i).iter_mut().zip(cols) {
            *x = row[c];
        }
    }
}

/// Rows `rows` of the row-major `m` as a view.
fn rows_of(m: &Matrix, rows: Range<usize>) -> Result<MatRef<'_>> {
    let c = m.ncols();
    let data = &m.as_slice()[rows.start * c..rows.end * c];
    Ok(MatRef::from_row_major(data, rows.len(), c)?)
}

impl FoldSystem {
    /// Builds the system of the prior `terms` on the fold base `base`,
    /// which was built for training rows `train` and validation rows
    /// `val`.
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when `base` does not match the rows.
    pub(crate) fn build(
        &mut self,
        g: MatRef<'_>,
        base: &FoldBase,
        terms: &PriorTerms,
        train: &[usize],
        val: &[usize],
    ) -> Result<()> {
        let (nt, nv, nz, ns) = (train.len(), val.len(), base.gz.nrows(), terms.support.len());
        let n = nt - nz;
        let c0 = terms.c0;
        // U = Qᵀ G_S(T), then −U·D.
        gather(g, train, &terms.support, &mut self.u);
        gather(g, val, &terms.support, &mut self.gsv);
        resize(&mut self.w, ns);
        base.q()
            .apply_qt_in_place(self.u.as_mut_slice(), &mut self.w)?;
        self.nud.reset_zeros(nt, ns);
        let nud_rows = self.nud.as_mut_slice().chunks_exact_mut(ns.max(1));
        for (x, u) in nud_rows.zip(self.u.as_slice().chunks_exact(ns.max(1))) {
            for ((x, u), d) in x.iter_mut().zip(u).zip(&terms.excess) {
                *x = -(u * d);
            }
        }
        // c₀ times the base: S = c₀·cb[N,N] on the upper triangle,
        // C[N,Z] = c₀·cb[N,Z] and Wᵀ = c₀·vb[N,·]; then the pattern's
        // U_N D U_Nᵀ, U_N D U_Zᵀ and U_N D G_S(V)ᵀ, and Wᵀ's −C[N,Z]·Eᵀ.
        self.s.reset_zeros(n, n);
        self.c_nz.reset_zeros(n, nz);
        self.wt.reset_zeros(n, nv);
        for j in 0..n {
            let (cz, cn) = base.cb.row(nz + j).split_at(nz);
            let scaled = |out: &mut [f64], src: &[f64]| {
                for (x, &b) in out.iter_mut().zip(src) {
                    *x = c0 * b;
                }
            };
            scaled(&mut self.s.row_mut(j)[j..], &cn[j..]);
            scaled(self.c_nz.row_mut(j), cz);
            scaled(self.wt.row_mut(j), base.vb.row(nz + j));
        }
        if ns > 0 {
            let nud_n = rows_of(&self.nud, nz..nt)?;
            sub_products_into(nud_n, rows_of(&self.u, nz..nt)?, true, self.s.as_view_mut())?;
            sub_products_into(
                nud_n,
                rows_of(&self.u, 0..nz)?,
                false,
                self.c_nz.as_view_mut(),
            )?;
            sub_products_into(nud_n, self.gsv.as_view(), false, self.wt.as_view_mut())?;
        }
        mirror_upper_into(self.s.as_view_mut())?;
        if nz > 0 {
            sub_products_into(
                self.c_nz.as_view(),
                base.ev.as_view(),
                false,
                self.wt.as_view_mut(),
            )?;
        }
        tridiagonal::tridiagonalize_in_place(
            &mut self.s,
            &mut self.d,
            &mut self.e,
            &mut self.h_tau,
            &mut self.w,
        )?;
        // The reduction resized `w` to n; the rows of Wᵀ are nv long.
        resize(&mut self.w, nv);
        let h = Reflectors::new(&self.s, &self.h_tau, 1);
        h.apply_qt_in_place(self.wt.as_mut_slice(), &mut self.w)?;
        Ok(())
    }

    /// Builds the system of `terms` on the full-data base `base` (from
    /// [`FoldBase::full`]), and keeps only what [`FoldSystem::solve`]
    /// reads: `C[N,Z]`, and `H` with `T̂`.
    ///
    /// # Errors
    ///
    /// As for [`FoldSystem::build`].
    pub(crate) fn full(g: MatRef<'_>, base: &FoldBase, terms: &PriorTerms) -> Result<Self> {
        let rows: Vec<usize> = (0..g.nrows()).collect();
        let mut sys = FoldSystem::default();
        sys.build(g, base, terms, &rows, &[])?;
        Ok(FoldSystem {
            c_nz: sys.c_nz,
            s: sys.s,
            h_tau: sys.h_tau,
            d: sys.d,
            e: sys.e,
            ..FoldSystem::default()
        })
    }

    /// Solves the full-data MAP system of a [`FoldSystem::full`] system on
    /// the full-data `base` for the response `f` at `hyper`, with the
    /// prior family `kind` (zero-mean drops the prior mean of `terms`,
    /// which must be the prior the system was built from), returning the
    /// M coefficients:
    ///
    /// ```text
    /// y → [Q_Zᵀy; x = (T̂ + hI)⁻¹ HᵀNᵀy],   α_Z = R⁻¹(Q_Zᵀy − C[Z,N]·H x),
    /// α_F = μ_F + A_F⁻¹ G_Fᵀ N H x
    /// ```
    ///
    /// `T̂ + hI` is factorized through
    /// [`factor_shifted_ldl_ladder`]: a refused factorization is
    /// retried at `h + ridge` on the ladder's jitter rungs, and the
    /// returned [`Resilience`] reports the rung, the ridge and the pivot
    /// ratio. This is the one back-projection: the batch engine's final
    /// solve, [`map_estimate`]'s fast solver for a prior with missing
    /// entries, and [`MapSweep::solve_with_kind`] all call it.
    ///
    /// # Errors
    ///
    /// [`BmfError::SampleShape`] when `f` is not one value per row, and
    /// [`BmfError::Linalg`] when every ladder rung is refused.
    pub(crate) fn solve(
        &self,
        g: MatRef<'_>,
        base: &FoldBase,
        terms: &PriorTerms,
        f: &[f64],
        hyper: f64,
        kind: PriorKind,
    ) -> Result<(Vector, Resilience)> {
        let (nz, n, nt) = (base.gz.nrows(), self.d.len(), base.gz.ncols());
        if f.len() != nt || terms.g_mu.len() != nt {
            return Err(BmfError::SampleShape {
                detail: format!("{nt} system rows vs {} values", f.len()),
            });
        }
        let nzm = kind == PriorKind::NonZeroMean;
        // y → [Q_Zᵀy; Hᵀ Nᵀ y] → [Q_Zᵀy; x] → [Q_Zᵀy; H x].
        let mut y: Vec<f64> = f
            .iter()
            .zip(&terms.g_mu)
            .map(|(fi, mu)| if nzm { fi - mu } else { *fi })
            .collect();
        let q = base.q();
        let h = Reflectors::new(&self.s, &self.h_tau, 1);
        q.apply_qt_in_place(&mut y, &mut [0.0])?;
        h.apply_qt_in_place(&mut y[nz..], &mut [0.0])?;
        let (mut piv, mut l) = (vec![0.0; n], vec![0.0; n.saturating_sub(1)]);
        let res = factor_shifted_ldl_ladder(&self.d, &self.e, hyper, &mut piv, &mut l)?;
        let (uz, x) = y.split_at_mut(nz);
        tridiagonal::ldl_solve_in_place(&piv, &l, x)?;
        h.apply_q_in_place(x, &mut [0.0])?;
        // α_Z = R⁻¹(Q_Zᵀy − C[Z,N] H x), with R = (Rᵀ)ᵀ from `gz`.
        let mut alpha_z = vec![0.0; nz];
        matvec_transpose_into(self.c_nz.as_view(), x, &mut alpha_z)?;
        for (t, u) in alpha_z.iter_mut().zip(uz.iter()) {
            *t = u - *t;
        }
        let rt = MatRef::strided(base.gz.as_slice(), nz, nz, nt)?;
        bmf_linalg::solve_lower_transpose(rt, &mut alpha_z)?;
        // α_F = μ_F + A_F⁻¹ G_Fᵀ N H x, with N H x = Q [0; H x].
        uz.fill(0.0);
        q.apply_q_in_place(&mut y, &mut [0.0])?;
        let mut out = vec![0.0; g.ncols()];
        matvec_transpose_into(g, &y, &mut out)?;
        for (i, o) in out.iter_mut().enumerate() {
            if terms.a[i] > 0.0 {
                *o = *o / terms.a[i] + if nzm { terms.prior_mean[i] } else { 0.0 };
            }
        }
        for (&z, &v) in terms.missing.iter().zip(&alpha_z) {
            out[z] = v;
        }
        Ok((Vector::from(out), res))
    }
}

/// One sweep worker's scratch: a fold base and a pattern system, reused
/// across the `(base, fold)` tasks it claims, and the grid and prior
/// families every cell evaluates.
#[derive(Debug, Clone)]
pub(crate) struct FoldWork<'a> {
    grid: &'a [f64],
    kinds: &'a [PriorKind],
    base: FoldBase,
    system: FoldSystem,
}

impl<'a> FoldWork<'a> {
    /// Empty scratch for sweeps over `grid` and `kinds`.
    pub(crate) fn new(grid: &'a [f64], kinds: &'a [PriorKind]) -> Self {
        FoldWork {
            grid,
            kinds,
            base: FoldBase::default(),
            system: FoldSystem::default(),
        }
    }

    /// Sweeps one `(base, fold)` pair: builds the fold's base of the
    /// kernel `base` (missing columns `missing`) once, then for each
    /// pattern `(terms, responses)` on it, in order, the pattern's system
    /// and every `(grid, kind)` cell of its responses.
    ///
    /// Returns one table, `[response][kind][grid]` over the responses of
    /// every pattern in order, or `None` when the fold is unusable (see
    /// [`FoldBase::build`]: too few training rows, or a rank-deficient
    /// `G_Z`). The result depends only on the inputs, never on the
    /// scratch.
    pub(crate) fn sweep<'p>(
        &mut self,
        g: &Matrix,
        base: &Matrix,
        missing: &[usize],
        patterns: impl Iterator<Item = (&'p PriorTerms, &'p [&'p Vector])> + Clone,
        fold: &Fold,
    ) -> Result<Option<FoldErrors>> {
        let (train, val) = (&fold.train, &fold.validate);
        match self.base.build(g.as_view(), base, missing, train, val) {
            Ok(()) => {}
            Err(
                BmfError::NotEnoughSamples { .. }
                | BmfError::Linalg(LinalgError::Unsolvable { .. }),
            ) => return Ok(None),
            Err(e) => return Err(e),
        }
        let cells = self.kinds.len() * self.grid.len();
        let responses: usize = patterns.clone().map(|(_, r)| r.len()).sum();
        let mut errors: FoldErrors = vec![None; responses * cells];
        let mut rest = errors.as_mut_slice();
        for (terms, responses) in patterns {
            let (out, tail) = rest.split_at_mut(responses.len() * cells);
            rest = tail;
            self.system
                .build(g.as_view(), &self.base, terms, train, val)?;
            self.cells(terms, fold, responses, out)?;
        }
        Ok(Some(errors))
    }

    /// Evaluates every `(grid, kind)` cell of every response in
    /// `responses` (all of the pattern `terms`) against the system,
    /// built for `fold` on the base, into `errors`
    /// (`[response][kind][grid]`, flat, all `None` on entry).
    ///
    /// A grid value whose `T̂ + ηI` is singular to working precision (a
    /// pivot not positive and finite, or a pivot ratio at the ladder's
    /// `RCOND_FLOOR`) is blank for every family; a cell whose error is
    /// not finite is blank. The result depends only on the inputs, never
    /// on the scratch.
    fn cells(
        &mut self,
        terms: &PriorTerms,
        fold: &Fold,
        responses: &[&Vector],
        errors: &mut [Option<f64>],
    ) -> Result<()> {
        let (base, sys, grid, kinds) = (&self.base, &mut self.system, self.grid, self.kinds);
        let (nz, n, nv) = (base.gz.nrows(), sys.d.len(), fold.validate.len());
        let cells = kinds.len() * grid.len();
        let (proj, r0) = (&mut sys.proj, &mut sys.r0);
        proj.reset_zeros(kinds.len(), fold.train.len());
        r0.reset_zeros(kinds.len(), nv);
        resize(&mut sys.piv, n + n.saturating_sub(1));
        resize(&mut sys.x, n + nv);
        let (piv, l) = sys.piv.split_at_mut(n);
        let (x, wx) = sys.x.split_at_mut(n);
        let wt = sys.wt.as_view();
        let q = base.q();
        let h = Reflectors::new(&sys.s, &sys.h_tau, 1);
        let (g_mu, floor) = (&terms.g_mu, RCOND_FLOOR);
        for (ri, f) in responses.iter().enumerate() {
            let val_norm = fold
                .validate
                .iter()
                .map(|&i| f[i] * f[i])
                .sum::<f64>()
                .sqrt()
                .max(f64::MIN_POSITIVE);
            // Per family: y = f_T − (Gμ)_T (f_T for zero-mean), projected,
            // and the η-independent residual (Gμ)_V + E·Q_Zᵀy − f_V.
            for (ki, &kind) in kinds.iter().enumerate() {
                let nzm = kind == PriorKind::NonZeroMean;
                let y = proj.row_mut(ki);
                for (yi, &t) in y.iter_mut().zip(&fold.train) {
                    *yi = if nzm { f[t] - g_mu[t] } else { f[t] };
                }
                q.apply_qt_in_place(y, &mut [0.0])?;
                h.apply_qt_in_place(&mut y[nz..], &mut [0.0])?;
                let r = r0.row_mut(ki);
                matvec_into(base.ev.as_view(), &proj.row(ki)[..nz], r)?;
                for (b, &v) in r.iter_mut().zip(&fold.validate) {
                    *b += if nzm { g_mu[v] - f[v] } else { -f[v] };
                }
            }
            for (gi, &eta) in grid.iter().enumerate() {
                // Lengths are set above, so an error is a refused system.
                if tridiagonal::ldl_shifted_into(&sys.d, &sys.e, eta, floor, piv, l).is_err() {
                    continue;
                }
                for ki in 0..kinds.len() {
                    x.copy_from_slice(&proj.row(ki)[nz..]);
                    tridiagonal::ldl_solve_in_place(piv, l, x)?;
                    matvec_transpose_into(wt, x, wx)?;
                    let mut s = 0.0;
                    for (a, b) in r0.row(ki).iter().zip(wx.iter()) {
                        let d = a + b;
                        s += d * d;
                    }
                    let err = s.sqrt() / val_norm;
                    if err.is_finite() {
                        errors[ri * cells + ki * grid.len() + gi] = Some(err);
                    }
                }
            }
        }
        Ok(())
    }
}

impl<'g> MapSweep<'g> {
    /// Builds the sweep over a borrowed design-matrix view: the base and
    /// the sample-space system over every row of `g`.
    ///
    /// # Errors
    ///
    /// The structural conditions of [`map_estimate`], and
    /// [`BmfError::Linalg`] when the missing-prior columns of `g` are
    /// rank deficient.
    pub fn from_view(g: MatRef<'g>, prior: &Prior) -> Result<Self> {
        let kernel = SweepKernel::new(g, prior)?;
        let base = FoldBase::full(g, &kernel.base, &kernel.terms.missing)?;
        let system = FoldSystem::full(g, &base, &kernel.terms)?;
        let terms = kernel.terms;
        Ok(MapSweep {
            g,
            terms,
            base: base.into_projection(),
            system,
        })
    }

    /// Solves the MAP system for one hyper-parameter value and response
    /// vector `f`, with the prior family `kind` (zero-mean drops the
    /// prior mean) whatever the prior this sweep was built from: both
    /// families share the sweep, since their precisions are identical.
    /// A `T̂ + hyper·I` singular to working precision is solved on a ridge
    /// rung of the degradation ladder ([`factor_shifted_ldl_ladder`]).
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::SampleShape`] on a length mismatch,
    /// [`BmfError::NonFiniteInput`] when `f` holds NaN or ±∞,
    /// [`BmfError::Config`] when `hyper` is not positive and finite, and
    /// [`BmfError::Linalg`] when every ladder rung is refused.
    pub fn solve_with_kind(&self, f: &Vector, hyper: f64, kind: PriorKind) -> Result<Vector> {
        let k = self.g.nrows();
        if f.len() != k {
            return Err(BmfError::SampleShape {
                detail: format!("{k} design rows vs {} values", f.len()),
            });
        }
        crate::screen::finite_values("response values", f.as_slice())?;
        validate_hyper(hyper)?;
        let (g, terms) = (self.g, &self.terms);
        let (alpha, _) = self
            .system
            .solve(g, &self.base, terms, f.as_slice(), hyper, kind)?;
        Ok(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::PriorKind;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    fn opts(hyper: f64, solver: SolverKind) -> FitOptions {
        FitOptions::new().hyper(hyper).solver(solver)
    }

    fn random_design(k: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let mut s = StandardNormal::new();
        Matrix::from_fn(k, m, |_, _| s.sample(&mut rng))
    }

    /// `B_F = G·diag(A_F⁻¹)·Gᵀ` straight from the precisions, with
    /// `A⁻¹ = 0` on the missing columns.
    fn direct_kernel(g: &Matrix, prior: &Prior) -> Matrix {
        let a_inv: Vec<f64> = prior
            .precisions(1.0)
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let mut out = Matrix::zeros(g.nrows(), g.nrows());
        outer_gram_diag_into(g.as_view(), &a_inv, out.as_view_mut()).unwrap();
        out
    }

    /// `Qᵀ M` for a row-major block `m` of `cols` columns, one
    /// reflector at a time.
    fn qt(q: &Reflectors<'_>, m: &mut Matrix) {
        let mut w = vec![0.0; m.ncols()];
        q.apply_qt_in_place(m.as_mut_slice(), &mut w).unwrap();
    }

    fn max_abs(m: &Matrix) -> f64 {
        m.as_slice().iter().fold(0.0f64, |s, x| s.max(x.abs()))
    }

    /// The shared-base oracle: per (pattern, fold), and over every row,
    /// a pattern's system built from its fold base (the congruence of
    /// the floor gram shared by every floor-gram pattern with the same
    /// missing columns, or of the prior's own kernel, plus the pattern's
    /// rank-|S| term) equals the direct path, `C = Qᵀ·B_F(T,T)·Q` by one
    /// reflector at a time with `B_F` from `outer_gram_diag_into`:
    /// `S = C[N,N]` (as `H T̂ Hᵀ`), `C[N,Z]` and the validation block
    /// `(QᵀB_F(T,V))[N,·] − C[N,Z]·Eᵀ` (as `H·Wᵀ`), each within
    /// `1e-12·n·max|B_F(T,T)|`.
    #[test]
    fn kernel_oracle_shared_bases_match_direct_congruences() {
        use crate::hyper::FoldPlan;
        // (floor-gram patterns, own-kernel patterns) compared with a
        // missing column.
        let mut hits = [0usize; 2];
        let mut worst = 0.0f64;
        bmf_stat::prop::check("shared-base systems == direct congruences", 24, |rng| {
            let k = 9 + rng.gen_index(24);
            let m = 8 + rng.gen_index(56);
            let g = Matrix::from_row_major(k, m, bmf_stat::prop::vec_in(rng, -2.0, 2.0, k * m))
                .unwrap();
            let z1: Vec<usize> = (0..1 + rng.gen_index(3))
                .map(|_| rng.gen_index(m))
                .collect();
            let z2: Vec<usize> = (0..rng.gen_index(3)).map(|_| rng.gen_index(m)).collect();
            let mut sparse = |z: &[usize]| {
                let early = (0..m)
                    .map(|j| {
                        let v = if rng.gen_index(5) == 0 {
                            rng.gen_range(-2.0..2.0)
                        } else {
                            0.0
                        };
                        (!z.contains(&j)).then_some(v)
                    })
                    .collect();
                Prior::new(PriorKind::NonZeroMean, early)
            };
            // Two patterns on one floor gram, one on another set's, and
            // a dense prior on its own kernel.
            let (p1, p2, p3) = (sparse(&z1), sparse(&z1), sparse(&z2));
            let dense: Vec<Option<f64>> = (0..m)
                .map(|j| (!z1.contains(&j)).then_some(0.1 + (j % 7) as f64 * 0.4))
                .collect();
            let patterns = [p1, p2, p3, Prior::new(PriorKind::NonZeroMean, dense)];
            let plan = FoldPlan::new(k, 3, rng.next_u64()).unwrap();
            let all: Vec<usize> = (0..k).collect();
            let mut splits: Vec<(&[usize], &[usize])> = plan
                .folds
                .iter()
                .map(|f| (f.train.as_slice(), f.validate.as_slice()))
                .collect();
            splits.push((&all, &[]));
            for prior in &patterns {
                let kernel = SweepKernel::new(g.as_view(), prior).unwrap();
                let direct = direct_kernel(&g, prior);
                let (mut base, mut sys) = (FoldBase::default(), FoldSystem::default());
                for &(train, val) in &splits {
                    let missing = kernel.terms.missing();
                    if base
                        .build(g.as_view(), &kernel.base, missing, train, val)
                        .is_err()
                    {
                        continue;
                    }
                    sys.build(g.as_view(), &base, &kernel.terms, train, val)
                        .unwrap();
                    let (nt, nz) = (train.len(), missing.len());
                    let n = nt - nz;
                    let q = base.q();
                    let mut c = Matrix::from_fn(nt, nt, |i, j| direct[(train[i], train[j])]);
                    let scale = 1e-12 * n.max(1) as f64 * max_abs(&c).max(f64::MIN_POSITIVE);
                    qt(&q, &mut c);
                    let mut c = c.transpose();
                    qt(&q, &mut c);
                    let mut vt = Matrix::from_fn(nt, val.len(), |i, v| direct[(train[i], val[v])]);
                    qt(&q, &mut vt);
                    // S as H T̂ Hᵀ, and Wᵀ before its Hᵀ.
                    let h = Reflectors::new(&sys.s, &sys.h_tau, 1);
                    let mut t_hat = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
                        0 => sys.d[i],
                        1 => sys.e[i.min(j)],
                        _ => 0.0,
                    });
                    let mut w = vec![0.0; n.max(val.len())];
                    h.apply_q_in_place(t_hat.as_mut_slice(), &mut w[..n])
                        .unwrap();
                    let mut s_rec = t_hat.transpose();
                    h.apply_q_in_place(s_rec.as_mut_slice(), &mut w[..n])
                        .unwrap();
                    let mut w_rec = sys.wt.clone();
                    h.apply_q_in_place(w_rec.as_mut_slice(), &mut w[..val.len()])
                        .unwrap();
                    let mut err = 0.0f64;
                    for i in 0..n {
                        for j in 0..n {
                            err = err.max((s_rec[(i, j)] - c[(nz + i, nz + j)]).abs());
                        }
                        for z in 0..nz {
                            err = err.max((sys.c_nz[(i, z)] - c[(nz + i, z)]).abs());
                        }
                        for v in 0..val.len() {
                            let mut want = vt[(nz + i, v)];
                            for z in 0..nz {
                                want -= c[(nz + i, z)] * base.ev[(v, z)];
                            }
                            err = err.max((w_rec[(i, v)] - want).abs());
                        }
                    }
                    assert!(err <= scale, "{err:e} > {scale:e} (n = {n}, |Z| = {nz})");
                    worst = worst.max(err / scale);
                    if nz > 0 {
                        hits[usize::from(!kernel.terms.uses_floor_gram())] += 1;
                    }
                }
            }
        });
        assert!(
            hits.iter().all(|&h| h > 0),
            "a base kind went untested: {hits:?}"
        );
        assert!(worst > 0.0, "the oracle compared nothing");
    }

    #[test]
    fn solvers_agree_zero_mean() {
        let g = random_design(8, 30, 1);
        let f = Vector::from_fn(8, |i| (i as f64).sin());
        let early: Vec<f64> = (0..30).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &early);
        let a = map_estimate(&g, &f, &prior, &opts(0.5, SolverKind::Direct)).unwrap();
        let b = map_estimate(&g, &f, &prior, &opts(0.5, SolverKind::Fast)).unwrap();
        let rel = a.sub(&b).unwrap().norm2() / a.norm2().max(1e-30);
        assert!(rel < 1e-8, "solver disagreement: {rel}");
    }

    #[test]
    fn solvers_agree_nonzero_mean_with_missing() {
        let g = random_design(10, 25, 2);
        let f = Vector::from_fn(10, |i| 0.3 * i as f64 - 1.0);
        let mut early: Vec<Option<f64>> = (0..25).map(|i| Some(((i + 1) as f64).recip())).collect();
        early[3] = None;
        early[17] = None;
        let prior = Prior::new(PriorKind::NonZeroMean, early);
        let a = map_estimate(&g, &f, &prior, &opts(2.0, SolverKind::Direct)).unwrap();
        let b = map_estimate(&g, &f, &prior, &opts(2.0, SolverKind::Fast)).unwrap();
        let rel = a.sub(&b).unwrap().norm2() / a.norm2().max(1e-30);
        assert!(rel < 1e-8, "solver disagreement: {rel}");
    }

    #[test]
    fn strong_prior_pins_to_prior_mean() {
        // With hyper → large, the nonzero-mean MAP estimate approaches
        // alpha_E regardless of the (sparse) data.
        let g = random_design(3, 6, 3);
        let early = [1.0, -0.5, 0.25, 2.0, -1.5, 0.75];
        let f = g.matvec(&Vector::from(early.to_vec())).unwrap();
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
        let a = map_estimate(&g, &f, &prior, &opts(1e9, SolverKind::Fast)).unwrap();
        for (ai, ei) in a.iter().zip(early.iter()) {
            assert!((ai - ei).abs() < 1e-4, "{ai} vs {ei}");
        }
    }

    #[test]
    fn weak_prior_approaches_least_squares() {
        // Overdetermined system with hyper → 0: MAP → ordinary LS.
        let g = random_design(40, 5, 4);
        let truth = Vector::from(vec![1.0, -2.0, 0.5, 0.0, 3.0]);
        let f = g.matvec(&truth).unwrap();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 5]);
        let a = map_estimate(&g, &f, &prior, &opts(1e-10, SolverKind::Direct)).unwrap();
        for (ai, ti) in a.iter().zip(truth.iter()) {
            assert!((ai - ti).abs() < 1e-5, "{ai} vs {ti}");
        }
    }

    #[test]
    fn good_prior_beats_no_information_in_underdetermined_regime() {
        // K = 4 samples, M = 20 coefficients. With an informative
        // nonzero-mean prior the estimate should recover the truth much
        // better than the prior-free ridge answer.
        let g = random_design(4, 20, 5);
        let truth: Vec<f64> = (0..20)
            .map(|i| {
                if i % 7 == 0 {
                    1.0 / (1.0 + i as f64 / 4.0)
                } else {
                    0.02
                }
            })
            .collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        // Early model: truth + 10% perturbation.
        let early: Vec<f64> = truth
            .iter()
            .enumerate()
            .map(|(i, t)| t * (1.0 + 0.1 * ((i as f64).sin())))
            .collect();
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
        let a = map_estimate(&g, &f, &prior, &opts(1.0, SolverKind::Fast)).unwrap();
        let err: f64 = a
            .iter()
            .zip(&truth)
            .map(|(x, t)| (x - t) * (x - t))
            .sum::<f64>()
            .sqrt();
        let tnorm: f64 = truth.iter().map(|t| t * t).sum::<f64>().sqrt();
        assert!(err / tnorm < 0.15, "relative coeff error {}", err / tnorm);
    }

    #[test]
    fn missing_prior_coefficient_is_learned_from_data() {
        // Coefficient 2 has no prior; enough samples exist to identify it.
        let g = random_design(10, 4, 6);
        let truth = Vector::from(vec![1.0, 0.5, -2.0, 0.25]);
        let f = g.matvec(&truth).unwrap();
        let prior = Prior::new(
            PriorKind::NonZeroMean,
            vec![Some(1.0), Some(0.5), None, Some(0.25)],
        );
        let a = map_estimate(&g, &f, &prior, &opts(1.0, SolverKind::Fast)).unwrap();
        assert!((a[2] + 2.0).abs() < 0.1, "missing-prior coeff {}", a[2]);
    }

    #[test]
    fn too_many_missing_rejected() {
        let g = random_design(2, 5, 7);
        let f = Vector::zeros(2);
        let prior = Prior::new(
            PriorKind::ZeroMean,
            vec![None, None, None, Some(1.0), Some(1.0)],
        );
        assert!(matches!(
            map_estimate(&g, &f, &prior, &opts(1.0, SolverKind::Fast)),
            Err(BmfError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn shape_validation() {
        let g = random_design(3, 4, 8);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 3]); // wrong len
        assert!(matches!(
            map_estimate(&g, &Vector::zeros(3), &prior, &opts(1.0, SolverKind::Fast)),
            Err(BmfError::PriorShape { .. })
        ));
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 4]);
        assert!(matches!(
            map_estimate(&g, &Vector::zeros(5), &prior, &opts(1.0, SolverKind::Fast)),
            Err(BmfError::SampleShape { .. })
        ));
    }

    #[test]
    fn sweep_matches_one_shot_solver() {
        let g = random_design(7, 18, 11);
        let f = Vector::from_fn(7, |i| (i as f64 * 0.9).cos());
        for kind in [PriorKind::ZeroMean, PriorKind::NonZeroMean] {
            let mut early: Vec<Option<f64>> =
                (0..18).map(|i| Some(0.5 / (1.0 + i as f64))).collect();
            early[4] = None;
            let prior = Prior::new(kind, early);
            let sweep = MapSweep::from_view(g.as_view(), &prior).unwrap();
            for &h in &[1e-3, 0.1, 1.0, 30.0] {
                let a = sweep.solve_with_kind(&f, h, kind).unwrap();
                let b = map_estimate(&g, &f, &prior, &opts(h, SolverKind::Direct)).unwrap();
                let rel = a.sub(&b).unwrap().norm2() / b.norm2().max(1e-30);
                assert!(rel < 1e-7, "sweep mismatch at h={h} kind={kind:?}: {rel}");
            }
        }
    }

    #[test]
    fn sweep_without_missing_matches_too() {
        let g = random_design(5, 12, 13);
        let f = Vector::from_fn(5, |i| i as f64 - 2.0);
        let prior = Prior::from_coeffs(
            PriorKind::NonZeroMean,
            &(0..12).map(|i| 1.0 + i as f64 * 0.1).collect::<Vec<_>>(),
        );
        let sweep = MapSweep::from_view(g.as_view(), &prior).unwrap();
        let a = sweep
            .solve_with_kind(&f, 0.7, PriorKind::NonZeroMean)
            .unwrap();
        let b = map_estimate(&g, &f, &prior, &opts(0.7, SolverKind::Fast)).unwrap();
        assert!(a.sub(&b).unwrap().norm2() < 1e-9 * b.norm2().max(1.0));
    }
}
