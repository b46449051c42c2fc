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
//! such prior with the same missing columns shares (`MissingProjection`:
//! the QR of the missing columns, which turns `Γ` into `QᵀΓQ` by a
//! compact-WY congruence), and each prior pattern adds only its rank-|S|
//! term (`PatternSystem`, its full-data system); a dense prior's kernel
//! is formed directly and is its own base. The same full-data system
//! gives the exact leave-one-out errors the fitting engines select the
//! hyper-parameter by (`PatternSystem::loo_block`, [`crate::hyper`]).

use std::ops::Range;

use bmf_linalg::resilience::RCOND_FLOOR;
use bmf_linalg::view::{
    gram_runs_band_into, matvec_into, matvec_transpose_into, mirror_upper_into,
    outer_gram_diag_into, sub_products_into, MatRef,
};
use bmf_linalg::{
    factor_shifted_ldl_ladder, factor_spd_ladder, ladder_solve_in_place, qr_in_place, tridiagonal,
    view, woodbury, LinalgError, Matrix, Reflectors, Resilience, Vector,
};

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
/// engine's final solve ([`PatternSystem::solve`] on the [`MapSweep`]
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
    base: MissingProjection,
    /// The system over every row of `g`, with no validation rows.
    system: PatternSystem,
}

/// A prior's hyper-independent quantities over every row of a design
/// matrix: what its system adds to its shared base, and what the
/// back-projection of [`PatternSystem::solve`] reads besides the system.
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
    /// and the prior's system adds its rank-|S| term to the shared
    /// base's. Otherwise the base is the prior's own kernel
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
/// kernel, which its [`MissingProjection`]'s congruence turns into
/// `QᵀBQ`.
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

/// What every prior pattern with the same base shares: the Householder
/// QR of the missing columns `G_Z` over every row of a design matrix,
/// stored transposed (`Rᵀ` in the leading lower triangle), whose
/// `Q = [Q_Z N]` profiles them out. A pattern's [`PatternSystem`] adds
/// its own rank-|S| term to the base's congruence `C = QᵀBQ`
/// ([`MissingProjection::congruence`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct MissingProjection {
    gz: Matrix,
    gz_tau: Vec<f64>,
}

impl MissingProjection {
    /// Factors the missing columns `missing` of `g` over every row.
    ///
    /// # Errors
    ///
    /// * [`BmfError::NotEnoughSamples`] when `g` has fewer rows than
    ///   there are missing columns.
    /// * [`BmfError::Linalg`] ([`LinalgError::Unsolvable`]) when `G_Z` is
    ///   rank deficient: `min|R_jj| ≤ RCOND_FLOOR·max|R_jj|`, with the
    ///   degradation ladder's floor.
    pub(crate) fn new(g: MatRef<'_>, missing: &[usize]) -> Result<Self> {
        let (k, nz) = (g.nrows(), missing.len());
        if nz > k {
            return Err(BmfError::NotEnoughSamples {
                available: k,
                required: nz,
                context: "missing-prior coefficients",
            });
        }
        let mut gz = Matrix::zeros(nz, k);
        for (zi, &z) in missing.iter().enumerate() {
            for (ri, x) in gz.row_mut(zi).iter_mut().enumerate() {
                *x = g.get(ri, z);
            }
        }
        let mut gz_tau = Vec::new();
        qr_in_place(&mut gz, &mut gz_tau)?;
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for j in 0..nz {
            lo = lo.min(gz[(j, j)].abs());
            hi = hi.max(gz[(j, j)].abs());
        }
        // With nothing missing, lo stays ∞ and the check passes.
        if lo <= RCOND_FLOOR * hi || lo.is_nan() {
            let rcond = if hi > 0.0 { lo / hi } else { 0.0 };
            let op = "sample-space system (missing-prior columns)";
            return Err(LinalgError::Unsolvable { op, rcond }.into());
        }
        Ok(MissingProjection { gz, gz_tau })
    }

    /// Turns the kernel `base` (over every row) into its congruence
    /// `C = QᵀBQ`, by the compact-WY congruence.
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when `base` is not K × K.
    pub(crate) fn congruence(&self, base: &mut Matrix) -> Result<()> {
        Ok(self.q().congruence_in_place(base, &mut Vec::new())?)
    }

    /// The columns `cols` of `Nᵀ` (`n × |cols|`, row-major), and per
    /// column whether deleting that row leaves `G_Z` of full rank:
    /// `‖Nᵀe_i‖² = 1 − ‖Q_Zᵀe_i‖²` (one minus the row's leverage) above
    /// `RCOND_FLOOR`. With no missing column `Nᵀ` is the identity and
    /// every row usable; both are returned empty, allocating nothing.
    /// `cols` lies within the rows; `w` is scratch.
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when the reflectors do not fit the block.
    pub(crate) fn n_block(
        &self,
        cols: Range<usize>,
        w: &mut Vec<f64>,
    ) -> Result<(Vec<f64>, Vec<bool>)> {
        let (nz, k, b) = (self.gz.nrows(), self.gz.ncols(), cols.len());
        if nz == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let mut block = vec![0.0; k * b];
        for (c, i) in cols.enumerate() {
            if let Some(x) = block.get_mut(i * b + c) {
                *x = 1.0;
            }
        }
        resize(w, b);
        self.q().apply_qt_in_place(&mut block, w)?;
        block.drain(..nz * b);
        let usable = (0..b)
            .map(|c| block.iter().skip(c).step_by(b).map(|x| x * x).sum::<f64>() > RCOND_FLOOR)
            .collect();
        Ok((block, usable))
    }

    /// The missing-column reflectors `Q`.
    fn q(&self) -> Reflectors<'_> {
        Reflectors::new(&self.gz, &self.gz_tau, 0)
    }
}

/// The sample-space system ([`MapSweep`]) of one prior pattern over
/// every row of a design matrix, its full-data system, built from its
/// base's [`MissingProjection`] and congruence `C`, `n = K − |Z|`. With
/// `U = QᵀG_S` and
/// `D = diag(a⁻¹_S − c₀)` (`c₀ = 1`, `S = ∅` on a prior's own kernel):
///
/// * `s`/`h_tau`/`d`/`e`: `S = c₀·C[N,N] + U_N D U_Nᵀ` reduced to
///   `T̂ = (d, e)`, `H`'s reflectors packed in `s`;
/// * `c_nz`: `C[N,Z] = c₀·C[N,Z] + U_N D U_Zᵀ`.
///
/// The final solve of a missing-prior fit back-projects it
/// ([`PatternSystem::solve`]), and the leave-one-out cells of every
/// prior pattern read it ([`PatternSystem::loo_solves`],
/// [`PatternSystem::loo_block`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct PatternSystem {
    c_nz: Matrix,
    s: Matrix,
    h_tau: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
}

/// Rows `rows` of the row-major `m` as a view.
fn rows_of(m: &Matrix, rows: Range<usize>) -> Result<MatRef<'_>> {
    let c = m.ncols();
    let data = &m.as_slice()[rows.start * c..rows.end * c];
    Ok(MatRef::from_row_major(data, rows.len(), c)?)
}

/// The η-dependent half of a pattern's leave-one-out cells
/// ([`PatternSystem::loo_solves`]): per grid value, whether `T̂ + ηI`
/// factorized, and one chunk of its reciprocal LDLᵀ pivots, its
/// multipliers shifted one on (`l_{j−1}` at `j`, 0 at 0) and, per
/// response and prior family in that order, `x = (T̂ + ηI)⁻¹HᵀNᵀy`.
#[derive(Debug, Clone, Default)]
pub(crate) struct LooSolves {
    /// Per grid value: whether `T̂ + ηI` factorized.
    pub(crate) solved: Vec<bool>,
    /// Per grid value, one chunk as in the type docs.
    chunks: Vec<f64>,
}

impl PatternSystem {
    /// Builds the system of the prior `terms` over every row of `g` on
    /// its base's projection `base` and congruence `cb`.
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when `base` or `cb` does not match `g`.
    pub(crate) fn full(
        g: MatRef<'_>,
        base: &MissingProjection,
        cb: &Matrix,
        terms: &PriorTerms,
    ) -> Result<Self> {
        let (nt, nz, ns) = (g.nrows(), base.gz.nrows(), terms.support.len());
        let n = nt - nz;
        let c0 = terms.c0;
        // U = Qᵀ G_S, then −U·D.
        let mut u = Matrix::from_fn(nt, ns, |i, j| g.get(i, terms.support[j]));
        let mut w = vec![0.0; ns];
        base.q().apply_qt_in_place(u.as_mut_slice(), &mut w)?;
        let mut nud = Matrix::zeros(nt, ns);
        let nud_rows = nud.as_mut_slice().chunks_exact_mut(ns.max(1));
        for (x, u) in nud_rows.zip(u.as_slice().chunks_exact(ns.max(1))) {
            for ((x, u), d) in x.iter_mut().zip(u).zip(&terms.excess) {
                *x = -(u * d);
            }
        }
        // c₀ times the base: S = c₀·C[N,N] on the upper triangle and
        // C[N,Z] = c₀·C[N,Z]; then the pattern's U_N D U_Nᵀ and U_N D U_Zᵀ.
        let mut sys = PatternSystem {
            s: Matrix::zeros(n, n),
            c_nz: Matrix::zeros(n, nz),
            ..PatternSystem::default()
        };
        for j in 0..n {
            let (cz, cn) = cb.row(nz + j).split_at(nz);
            let scaled = |out: &mut [f64], src: &[f64]| {
                for (x, &b) in out.iter_mut().zip(src) {
                    *x = c0 * b;
                }
            };
            scaled(&mut sys.s.row_mut(j)[j..], &cn[j..]);
            scaled(sys.c_nz.row_mut(j), cz);
        }
        if ns > 0 {
            let nud_n = rows_of(&nud, nz..nt)?;
            sub_products_into(nud_n, rows_of(&u, nz..nt)?, true, sys.s.as_view_mut())?;
            let c_nz = sys.c_nz.as_view_mut();
            sub_products_into(nud_n, rows_of(&u, 0..nz)?, false, c_nz)?;
        }
        mirror_upper_into(sys.s.as_view_mut())?;
        tridiagonal::tridiagonalize_in_place(
            &mut sys.s,
            &mut sys.d,
            &mut sys.e,
            &mut sys.h_tau,
            &mut w,
        )?;
        Ok(sys)
    }

    /// The η-dependent half of the leave-one-out cells of `responses`
    /// (all of the prior `terms`, on the projection `base`): per grid
    /// value the LDLᵀ of `T̂ + ηI`, shared by every family, and per
    /// response and family `x = (T̂ + ηI)⁻¹HᵀNᵀy`, `y = f − Gμ` (`f` for
    /// zero-mean). A grid value whose `T̂ + ηI` is singular to working
    /// precision (a pivot not positive and finite, or a pivot ratio at
    /// the ladder's `RCOND_FLOOR`) is left unsolved.
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when a response is not one value per row.
    pub(crate) fn loo_solves(
        &self,
        base: &MissingProjection,
        terms: &PriorTerms,
        responses: &[&Vector],
        grid: &[f64],
        kinds: &[PriorKind],
    ) -> Result<LooSolves> {
        let (nz, n) = (base.gz.nrows(), self.d.len());
        let (q, h) = (base.q(), Reflectors::new(&self.s, &self.h_tau, 1));
        let width = (2 + responses.len() * kinds.len()) * n;
        let mut out = LooSolves {
            solved: vec![false; grid.len()],
            chunks: vec![0.0; grid.len() * width],
        };
        let LooSolves { solved, chunks } = &mut out;
        let Some((first, rest)) = chunks.split_at_mut_checked(width).filter(|_| n > 0) else {
            return Ok(out);
        };
        // The projections HᵀNᵀy, in the first grid value's chunk.
        let mut proj = first[2 * n..].chunks_exact_mut(n);
        let mut y = vec![0.0; terms.g_mu.len()];
        for f in responses {
            for &kind in kinds {
                let nzm = kind == PriorKind::NonZeroMean;
                for ((yi, fi), mu) in y.iter_mut().zip(f.iter()).zip(&terms.g_mu) {
                    *yi = if nzm { fi - mu } else { *fi };
                }
                q.apply_qt_in_place(&mut y, &mut [0.0])?;
                h.apply_qt_in_place(&mut y[nz..], &mut [0.0])?;
                if let Some(x) = proj.next() {
                    x.copy_from_slice(&y[nz..]);
                }
            }
        }
        // The pivots land where their reciprocals go. Lengths are set
        // above, so a factorization error is a refused system.
        let factor = |eta: f64, chunk: &mut [f64]| -> Result<bool> {
            let (piv, rest) = chunk.split_at_mut(n);
            let (l, x) = rest.split_at_mut(n);
            let l = &mut l[1..];
            if tridiagonal::ldl_shifted_into(&self.d, &self.e, eta, RCOND_FLOOR, piv, l).is_err() {
                return Ok(false);
            }
            for x in x.chunks_exact_mut(n) {
                tridiagonal::ldl_solve_in_place(piv, l, x)?;
            }
            for p in piv.iter_mut() {
                *p = 1.0 / *p;
            }
            Ok(true)
        };
        // Later grid values solve a copy of the projections; the first
        // solves them in place, last.
        for ((chunk, &eta), solved) in rest
            .chunks_exact_mut(width)
            .zip(&grid[1..])
            .zip(&mut solved[1..])
        {
            chunk[2 * n..].copy_from_slice(&first[2 * n..]);
            *solved = factor(eta, chunk)?;
        }
        solved[0] = factor(grid[0], first)?;
        Ok(out)
    }

    /// The leave-one-out sums of one block of rows, `cols`, given the
    /// block's columns of `Nᵀ` (`n_block`, from
    /// [`MissingProjection::n_block`]) and which of its rows are usable.
    /// The block's columns of `Ψ = HᵀNᵀ` are formed once; then per solved
    /// grid value one pass over them gives, per row i,
    /// `Π_ii = ψ_iᵀ(T̂ + ηI)⁻¹ψ_i` (by the LDLᵀ) and, per response and
    /// family, `[Πy]_i = ψ_iᵀx`, whose ratio is row i's held-out residual
    /// (`Π = N(S + ηI)⁻¹Nᵀ`; Allen's PRESS).
    ///
    /// Returns per response `[rows held out, Σf_i², then per family and
    /// grid value Σ([Πy]_i/Π_ii)²]` over the usable rows (an empty
    /// `n_block` and `usable`, for no missing column, stand for the
    /// identity's columns and every row), 0 where the grid value is
    /// unsolved. The result depends only on the inputs, never on
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when `n_block` does not match the system.
    pub(crate) fn loo_block(
        &self,
        solves: &LooSolves,
        (n_block, usable): (&[f64], &[bool]),
        cols: Range<usize>,
        responses: &[&Vector],
        kinds: usize,
        scratch: &mut Vec<f64>,
    ) -> Result<Vec<f64>> {
        let (n, b, grid) = (self.d.len(), cols.len(), solves.solved.len());
        let cells = responses.len() * kinds;
        let width = 2 + kinds * grid;
        resize(scratch, (n + 3 + cells) * b);
        let (psi, rest) = scratch.split_at_mut(n * b);
        let (z, rest) = rest.split_at_mut(b);
        let (pii, rest) = rest.split_at_mut(b);
        let (w, py) = rest.split_at_mut(b);
        if n_block.is_empty() {
            // No missing column: Nᵀ's columns are the identity's.
            psi.fill(0.0);
            for (c, i) in cols.clone().enumerate() {
                if let Some(x) = psi.get_mut(i * b + c) {
                    *x = 1.0;
                }
            }
        } else {
            psi.copy_from_slice(n_block);
        }
        Reflectors::new(&self.s, &self.h_tau, 1).apply_qt_in_place(psi, w)?;
        let usable = || usable.iter().copied().chain(std::iter::repeat(true));
        let mut out = vec![0.0; responses.len() * width];
        for (sums, f) in out.chunks_exact_mut(width).zip(responses) {
            let f = &f.as_slice()[cols.clone()];
            for (x, _) in f.iter().zip(usable()).filter(|&(_, u)| u) {
                sums[0] += 1.0;
                sums[1] += x * x;
            }
        }
        let chunks = solves.chunks.chunks_exact((2 + cells) * n.max(1));
        for (gi, chunk) in chunks.enumerate().filter(|&(gi, _)| solves.solved[gi]) {
            let (inv, rest) = chunk.split_at(n);
            let (shifted, x) = rest.split_at(n);
            z.fill(0.0);
            pii.fill(0.0);
            py.fill(0.0);
            for (j, row) in psi.chunks_exact(b.max(1)).enumerate() {
                let (lj, ij) = (shifted[j], inv[j]);
                for ((zc, pc), &r) in z.iter_mut().zip(pii.iter_mut()).zip(row) {
                    *zc = r - lj * *zc;
                    *pc += *zc * *zc * ij;
                }
                for (c, py) in py.chunks_exact_mut(b.max(1)).enumerate() {
                    let xj = x[c * n + j];
                    for (p, &r) in py.iter_mut().zip(row) {
                        *p += r * xj;
                    }
                }
            }
            for (c, py) in py.chunks_exact(b.max(1)).enumerate() {
                let mut s = 0.0;
                for ((p, d), u) in py.iter().zip(pii.iter()).zip(usable()) {
                    if u {
                        s += (p / d) * (p / d);
                    }
                }
                out[(c / kinds) * width + 2 + (c % kinds) * grid + gi] = s;
            }
        }
        Ok(out)
    }

    /// Solves the full-data MAP system of a [`PatternSystem::full`] system
    /// on its projection `base` for the response `f` at `hyper`, with the
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
        base: &MissingProjection,
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
        let SweepKernel {
            terms,
            base: mut cb,
        } = SweepKernel::new(g, prior)?;
        let base = MissingProjection::new(g, &terms.missing)?;
        base.congruence(&mut cb)?;
        let system = PatternSystem::full(g, &base, &cb, &terms)?;
        Ok(MapSweep {
            g,
            terms,
            base,
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

    /// The shared-base oracle of the full-data systems: a pattern's
    /// system over every row,
    /// built on its base (the congruence of the floor gram shared by
    /// every floor-gram pattern with the same missing columns, or of the
    /// prior's own kernel, plus the pattern's rank-|S| term), equals the
    /// direct path, `C = Qᵀ·B_F·Q` by one reflector at a time with `B_F`
    /// from `outer_gram_diag_into`: `S = C[N,N]` (as `H T̂ Hᵀ`) and
    /// `C[N,Z]`, each within `1e-12·n·max|B_F|`. Each block of `Nᵀ` equals
    /// the trailing rows of `Qᵀ` applied to the identity's columns, and
    /// marks a row usable exactly when its leverage is below one.
    #[test]
    fn kernel_oracle_shared_bases_match_direct_congruences() {
        // (floor-gram patterns, own-kernel patterns) compared with a
        // missing column.
        let mut hits = [0usize; 2];
        let mut worst = 0.0f64;
        bmf_stat::prop::check("full-data systems == direct congruences", 24, |rng| {
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
            for prior in &patterns {
                let SweepKernel {
                    terms,
                    base: mut cb,
                } = SweepKernel::new(g.as_view(), prior).unwrap();
                let missing = terms.missing();
                let Ok(base) = MissingProjection::new(g.as_view(), missing) else {
                    continue;
                };
                base.congruence(&mut cb).unwrap();
                let sys = PatternSystem::full(g.as_view(), &base, &cb, &terms).unwrap();
                let direct = direct_kernel(&g, prior);
                let nz = missing.len();
                let n = k - nz;
                let q = base.q();
                let mut c = direct.clone();
                let scale = 1e-12 * n.max(1) as f64 * max_abs(&c).max(f64::MIN_POSITIVE);
                qt(&q, &mut c);
                let mut c = c.transpose();
                qt(&q, &mut c);
                // S as H T̂ Hᵀ.
                let h = Reflectors::new(&sys.s, &sys.h_tau, 1);
                let mut t_hat = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
                    0 => sys.d[i],
                    1 => sys.e[i.min(j)],
                    _ => 0.0,
                });
                let mut w = vec![0.0; n];
                h.apply_q_in_place(t_hat.as_mut_slice(), &mut w).unwrap();
                let mut s_rec = t_hat.transpose();
                h.apply_q_in_place(s_rec.as_mut_slice(), &mut w).unwrap();
                let mut err = 0.0f64;
                for i in 0..n {
                    for j in 0..n {
                        err = err.max((s_rec[(i, j)] - c[(nz + i, nz + j)]).abs());
                    }
                    for z in 0..nz {
                        err = err.max((sys.c_nz[(i, z)] - c[(nz + i, z)]).abs());
                    }
                }
                assert!(err <= scale, "{err:e} > {scale:e} (n = {n}, |Z| = {nz})");
                worst = worst.max(err / scale);
                // Nᵀ in two blocks of columns, against Qᵀ·I one column
                // at a time; a row is usable iff 1 − leverage > floor.
                // With no missing column both come back empty.
                let mut qt_i = Matrix::identity(k);
                qt(&q, &mut qt_i);
                let cut = k / 2;
                for cols in [0..cut, cut..k] {
                    let (block, usable) = base.n_block(cols.clone(), &mut Vec::new()).unwrap();
                    if nz == 0 {
                        assert!(block.is_empty() && usable.is_empty());
                        continue;
                    }
                    for (c, i) in cols.enumerate() {
                        let mut nn = 0.0;
                        for j in 0..n {
                            let want = qt_i[(nz + j, i)];
                            assert!((block[j * usable.len() + c] - want).abs() <= 1e-13);
                            nn += want * want;
                        }
                        assert_eq!(usable[c], nn > RCOND_FLOOR);
                    }
                }
                if nz > 0 {
                    hits[usize::from(!terms.uses_floor_gram())] += 1;
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
