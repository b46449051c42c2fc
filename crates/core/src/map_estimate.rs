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
//! (DESIGN.md §8), which the batch engine exploits by sharing one `Γ`
//! among priors; a dense prior's kernel is formed directly.

use bmf_linalg::view::{matvec_into, matvec_transpose_into, outer_gram_diag_into, MatRef};
use bmf_linalg::{
    factor_shifted_ldl_ladder, factor_spd_ladder, ladder_solve_in_place, qr_in_place, solve_lower,
    tridiagonal, view, woodbury, LadderPolicy, LinalgError, Matrix, Reflectors, Resilience, Vector,
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
/// engine's final solve ([`FoldSystem::solve`] on the full-data
/// system of the prior's kernel), so an engine fit's coefficients equal
/// this function's bit for bit.
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
        let kernel = SweepKernel::new(g.as_view(), prior)?;
        let system = FoldSystem::full(g.as_view(), &kernel)?;
        return system.solve(
            g.as_view(),
            &kernel.terms,
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
            let (kind, res) = factor_spd_ladder(
                &mut ws.core,
                &mut ws.perm,
                &mut ws.ladder,
                &LadderPolicy::default(),
            )?;
            out.copy_from_slice(&ws.rhs);
            ladder_solve_in_place(kind, &ws.core, &ws.perm, &mut ws.ladder, &mut out)?;
            res
        }
        SolverKind::Fast => woodbury::solve_diag_plus_gram_into(
            &precisions,
            1.0,
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
    /// The system over every row of `g`, with no validation rows.
    system: FoldSystem,
}

/// A prior's hyper-independent quantities over every row of a design
/// matrix: what the back-projection of [`FoldSystem::solve`] reads
/// besides the system itself.
#[derive(Debug, Clone)]
pub(crate) struct PriorTerms {
    /// `1/α_E,m²` for finite-prior columns, 0 for missing.
    a: Vec<f64>,
    /// The floor `c₀ = min_F a⁻¹` when the kernel is formed from the
    /// floor gram (see [`PriorTerms::kernel`]), `None` when it is formed
    /// directly.
    floor: Option<f64>,
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
        let floor = (2 * above <= finite.count() && c0.is_finite()).then_some(c0);
        Ok(PriorTerms {
            a,
            floor,
            prior_mean,
            missing,
            g_mu,
        })
    }

    /// Whether [`PriorTerms::kernel`] reads the floor gram.
    pub(crate) fn uses_floor_gram(&self) -> bool {
        self.floor.is_some()
    }

    /// The prior's missing (zero-precision) columns.
    pub(crate) fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// The Woodbury kernel `B_F = G_F·A_F⁻¹·G_Fᵀ` of this prior over every
    /// row of `g`. When most finite columns sit on the floor `c₀ = min_F
    /// a⁻¹` ([`PriorTerms::uses_floor_gram`]) it is formed from `gram`,
    /// the floor gram `Γ = G·diag(1_F)·Gᵀ` of the finite columns `F`:
    ///
    /// ```text
    /// B_F = c₀·Γ + G_S·diag(a⁻¹_S − c₀)·G_Sᵀ,   S = {m : a⁻¹_m > c₀}
    /// ```
    ///
    /// Both terms are PSD, so nothing cancels, and the prior costs
    /// Θ(K²|S|) on top of the shared `Γ`. Otherwise it is
    /// `G·diag(A⁻¹)·Gᵀ` directly, Θ(K²M), and `gram` is not read.
    ///
    /// # Errors
    ///
    /// [`BmfError::Linalg`] when the floor gram is wanted and `gram` is
    /// not K × K.
    pub(crate) fn kernel(&self, g: MatRef<'_>, gram: Option<&Matrix>) -> Result<Matrix> {
        let k = g.nrows();
        let mut b_f = Matrix::zeros(k, k);
        let Some(c0) = self.floor else {
            // A⁻¹ over the finite columns; missing ones drop out of B_F.
            let a_inv: Vec<f64> = self
                .a
                .iter()
                .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
                .collect();
            outer_gram_diag_into(g, &a_inv, b_f.as_view_mut())?;
            return Ok(b_f);
        };
        let gram = gram.filter(|m| m.shape() == (k, k)).ok_or({
            LinalgError::DimensionMismatch {
                op: "floor gram (K x K)",
                lhs: (k, k),
                rhs: gram.map_or((0, 0), Matrix::shape),
            }
        })?;
        let support = || {
            let finite = self.a.iter().enumerate().filter(|(_, &d)| d > 0.0);
            finite.filter(|(_, &d)| 1.0 / d > c0)
        };
        let mut g_s = Matrix::zeros(k, support().count());
        let mut excess = Vec::with_capacity(g_s.ncols());
        for (t, (j, &d)) in support().enumerate() {
            excess.push(1.0 / d - c0);
            for i in 0..k {
                g_s[(i, t)] = g.get(i, j);
            }
        }
        outer_gram_diag_into(g_s.as_view(), &excess, b_f.as_view_mut())?;
        for (b, &x) in b_f.as_mut_slice().iter_mut().zip(gram.as_slice()) {
            *b += c0 * x;
        }
        Ok(b_f)
    }
}

/// The Woodbury kernel `B_F = G_F·A_F⁻¹·G_Fᵀ` of one prior over every row
/// of a design matrix, plus the prior's [`PriorTerms`]. Any number of
/// [`FoldSystem`]s read it through their own row tables.
#[derive(Debug, Clone)]
pub(crate) struct SweepKernel {
    pub(crate) terms: PriorTerms,
    pub(crate) b_f: Matrix,
}

/// The weights `1_F` of the floor gram `Γ = G·diag(1_F)·Gᵀ`: 1 on the
/// finite columns of a design matrix with `m` columns, 0 on `missing`.
/// A weight of exactly 1 leaves each product's bits alone and a weight
/// of 0 adds a signed zero to a sum that starts at `+0`, so every entry
/// of `Γ` is the plain sum of its finite columns' products.
pub(crate) fn finite_indicator(m: usize, missing: &[usize]) -> Vec<f64> {
    let mut ones = vec![1.0; m];
    for &z in missing {
        ones[z] = 0.0;
    }
    ones
}

impl SweepKernel {
    /// Builds the kernel of `prior` over every row of `g`, the floor gram
    /// of its finite columns included, on the calling thread: the same
    /// arithmetic as the batch engine's banded gram and
    /// [`PriorTerms::kernel`], so the same bits.
    ///
    /// # Errors
    ///
    /// [`BmfError::PriorShape`] when `prior.len() != g.ncols()`, and
    /// [`BmfError::NonFiniteInput`] for a non-finite prior.
    pub(crate) fn new(g: MatRef<'_>, prior: &Prior) -> Result<Self> {
        let (k, m) = g.shape();
        let terms = PriorTerms::new(g, prior)?;
        let mut gram = Matrix::zeros(k, k);
        if terms.uses_floor_gram() {
            let weights = finite_indicator(m, &terms.missing);
            outer_gram_diag_into(g, &weights, gram.as_view_mut())?;
        }
        let b_f = terms.kernel(g, terms.uses_floor_gram().then_some(&gram))?;
        Ok(SweepKernel { terms, b_f })
    }
}

/// The sample-space system ([`MapSweep`]) of one prior pattern over
/// training rows `T` and validation rows `V`, built into reusable
/// buffers, `n = |T| − |Z|`:
///
/// * `gz`/`gz_tau`: the QR of `G_Z(T)`, stored transposed (`Rᵀ` in the
///   leading lower triangle);
/// * `c`: `C = QᵀB_F(T,T)Q`, whose `[Z, N]` block stays in use;
/// * `s`/`h_tau`/`d`/`e`: `S = C[N,N]` reduced to `T̂ = (d, e)`, `H`'s
///   reflectors packed in `s`;
/// * `ev`: `E = G_Z(V) R⁻¹`;
/// * `vt`: `Qᵀ B_F(T,V)`, whose rows past |Z| hold
///   `Wᵀ = Hᵀ((B_F(V,T)Q)[·,N] − E·C[Z,N])ᵀ`.
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
    gz: Matrix,
    gz_tau: Vec<f64>,
    c: Matrix,
    s: Matrix,
    h_tau: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
    ev: Matrix,
    vt: Matrix,
    /// One row of scratch.
    w: Vec<f64>,
    proj: Matrix,
    r0: Matrix,
    piv: Vec<f64>,
    x: Vec<f64>,
}

impl FoldSystem {
    /// Builds the system of `kernel` (over every row of `g`) for training
    /// rows `train` and validation rows `val`.
    ///
    /// # Errors
    ///
    /// * [`BmfError::NotEnoughSamples`] when `train` has fewer rows than
    ///   the prior has missing coefficients.
    /// * [`BmfError::Linalg`] ([`LinalgError::Unsolvable`]) when `G_Z(T)`
    ///   is rank deficient: `min|R_jj| ≤ rcond_floor·max|R_jj|`, with the
    ///   degradation ladder's floor.
    pub(crate) fn build(
        &mut self,
        g: MatRef<'_>,
        kernel: &SweepKernel,
        train: &[usize],
        val: &[usize],
    ) -> Result<()> {
        let (nt, nv, nz) = (train.len(), val.len(), kernel.terms.missing.len());
        if nz > nt {
            return Err(BmfError::NotEnoughSamples {
                available: nt,
                required: nz,
                context: "missing-prior coefficients",
            });
        }
        let n = nt - nz;
        resize(&mut self.w, nt.max(nv));
        self.c.reset_zeros(nt, nt);
        self.vt.reset_zeros(nt, nv);
        for (i, &ri) in train.iter().enumerate() {
            let src = kernel.b_f.row(ri);
            for (x, &rj) in self.c.row_mut(i).iter_mut().zip(train) {
                *x = src[rj];
            }
            for (x, &rv) in self.vt.row_mut(i).iter_mut().zip(val) {
                *x = src[rv];
            }
        }
        self.gz.reset_zeros(nz, nt);
        for (zi, &z) in kernel.terms.missing.iter().enumerate() {
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
        if lo <= LadderPolicy::default().rcond_floor * hi || lo.is_nan() {
            let rcond = if hi > 0.0 { lo / hi } else { 0.0 };
            let op = "sample-space system (missing-prior columns)";
            return Err(LinalgError::Unsolvable { op, rcond }.into());
        }
        let q = Reflectors::new(&self.gz, &self.gz_tau, 0);
        q.congruence_in_place(&mut self.c, &mut self.w[..nt])?;
        q.apply_qt_in_place(self.vt.as_mut_slice(), &mut self.w[..nv])?;
        // S = C[N,N], symmetrized so the reduction sees one matrix.
        self.s.reset_zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                self.s[(i, j)] = 0.5 * (self.c[(nz + i, nz + j)] + self.c[(nz + j, nz + i)]);
            }
        }
        // E = G_Z(V) R⁻¹, row by row against Rᵀ (gz's leading lower
        // triangle); then Wᵀ before its Hᵀ: (Qᵀ B_F(T,V))[N,·] − C[N,Z] Eᵀ.
        let rt = MatRef::strided(self.gz.as_slice(), nz, nz, nt)?;
        self.ev.reset_zeros(nv, nz);
        for (r, &rv) in val.iter().enumerate() {
            let row = self.ev.row_mut(r);
            for (x, &z) in row.iter_mut().zip(&kernel.terms.missing) {
                *x = g.get(rv, z);
            }
            solve_lower(rt, row)?;
        }
        let (_, wt) = self.vt.as_mut_slice().split_at_mut(nz * nv);
        for (j, row) in wt.chunks_exact_mut(nv.max(1)).enumerate() {
            matvec_into(
                self.ev.as_view(),
                &self.c.row(nz + j)[..nz],
                &mut self.w[..nv],
            )?;
            for (x, ce) in row.iter_mut().zip(&self.w) {
                *x -= ce;
            }
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
        h.apply_qt_in_place(wt, &mut self.w)?;
        Ok(())
    }

    /// Builds the system of `kernel` over every row of `g`, with no
    /// validation rows, and keeps only what [`FoldSystem::solve`]
    /// reads: the QR of `G_Z`, `C`'s first |Z| rows (its `[Z, N]` block),
    /// and `H` with `T̂`.
    ///
    /// # Errors
    ///
    /// As for [`FoldSystem::build`].
    pub(crate) fn full(g: MatRef<'_>, kernel: &SweepKernel) -> Result<Self> {
        let rows: Vec<usize> = (0..g.nrows()).collect();
        let mut sys = FoldSystem::default();
        sys.build(g, kernel, &rows, &[])?;
        let (nz, nt) = (sys.gz.nrows(), rows.len());
        let c = Matrix::from_row_major(nz, nt, sys.c.as_slice()[..nz * nt].to_vec())?;
        Ok(FoldSystem {
            gz: sys.gz,
            gz_tau: sys.gz_tau,
            c,
            s: sys.s,
            h_tau: sys.h_tau,
            d: sys.d,
            e: sys.e,
            ..FoldSystem::default()
        })
    }

    /// Solves the full-data MAP system of a [`FoldSystem::full`] system
    /// for the response `f` at `hyper`, with the prior family `kind`
    /// (zero-mean drops the prior mean of `terms`, which must come from
    /// the kernel the system was built from), returning the M
    /// coefficients:
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
        terms: &PriorTerms,
        f: &[f64],
        hyper: f64,
        kind: PriorKind,
    ) -> Result<(Vector, Resilience)> {
        let (nz, n, nt) = (self.gz.nrows(), self.d.len(), self.c.ncols());
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
        let q = Reflectors::new(&self.gz, &self.gz_tau, 0);
        let h = Reflectors::new(&self.s, &self.h_tau, 1);
        q.apply_qt_in_place(&mut y, &mut [0.0])?;
        h.apply_qt_in_place(&mut y[nz..], &mut [0.0])?;
        let (mut piv, mut l) = (vec![0.0; n], vec![0.0; n.saturating_sub(1)]);
        let policy = LadderPolicy::default();
        let res = factor_shifted_ldl_ladder(&self.d, &self.e, hyper, &mut piv, &mut l, &policy)?;
        let (uz, x) = y.split_at_mut(nz);
        tridiagonal::ldl_solve_in_place(&piv, &l, x)?;
        h.apply_q_in_place(x, &mut [0.0])?;
        // α_Z = R⁻¹(Q_Zᵀy − C[Z,N] H x), with R = (Rᵀ)ᵀ from `gz`.
        let mut alpha_z = vec![0.0; nz];
        let c_zn = MatRef::strided(&self.c.as_slice()[nz..], nz, n, nt)?;
        matvec_into(c_zn, x, &mut alpha_z)?;
        for (t, u) in alpha_z.iter_mut().zip(uz.iter()) {
            *t = u - *t;
        }
        let rt = MatRef::strided(self.gz.as_slice(), nz, nz, nt)?;
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

    /// Sweeps one `(prior pattern, fold)` pair: builds the system of
    /// `kernel` for `fold` once, then evaluates every `(grid, kind)` cell
    /// of every response in `responses` (all of that pattern) against it.
    ///
    /// Returns `None` when the fold is unusable (see [`FoldSystem::build`]:
    /// too few training rows, or a rank-deficient `G_Z`). A grid value
    /// whose `T̂ + ηI` is singular to working precision (a pivot not
    /// positive and finite, or a pivot ratio at the ladder's
    /// `rcond_floor`) is blank for every family; a cell whose error is
    /// not finite is blank. The result depends only on the inputs, never
    /// on the scratch.
    pub(crate) fn sweep(
        &mut self,
        g: &Matrix,
        kernel: &SweepKernel,
        fold: &Fold,
        responses: &[&Vector],
        grid: &[f64],
        kinds: &[PriorKind],
    ) -> Result<Option<FoldErrors>> {
        match self.build(g.as_view(), kernel, &fold.train, &fold.validate) {
            Ok(()) => {}
            Err(
                BmfError::NotEnoughSamples { .. }
                | BmfError::Linalg(LinalgError::Unsolvable { .. }),
            ) => return Ok(None),
            Err(e) => return Err(e),
        }
        let (nz, n, nv) = (self.gz.nrows(), self.d.len(), fold.validate.len());
        let cells = kinds.len() * grid.len();
        let mut errors: FoldErrors = vec![None; responses.len() * cells];
        let (proj, r0) = (&mut self.proj, &mut self.r0);
        proj.reset_zeros(kinds.len(), fold.train.len());
        r0.reset_zeros(kinds.len(), nv);
        resize(&mut self.piv, n + n.saturating_sub(1));
        resize(&mut self.x, n + nv);
        let (piv, l) = self.piv.split_at_mut(n);
        let (x, wx) = self.x.split_at_mut(n);
        let wt = MatRef::from_row_major(&self.vt.as_slice()[nz * nv..], n, nv)?;
        let q = Reflectors::new(&self.gz, &self.gz_tau, 0);
        let h = Reflectors::new(&self.s, &self.h_tau, 1);
        let (g_mu, floor) = (&kernel.terms.g_mu, LadderPolicy::default().rcond_floor);
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
                let base = r0.row_mut(ki);
                matvec_into(self.ev.as_view(), &proj.row(ki)[..nz], base)?;
                for (b, &v) in base.iter_mut().zip(&fold.validate) {
                    *b += if nzm { g_mu[v] - f[v] } else { -f[v] };
                }
            }
            for (gi, &eta) in grid.iter().enumerate() {
                // Lengths are set above, so an error is a refused system.
                if tridiagonal::ldl_shifted_into(&self.d, &self.e, eta, floor, piv, l).is_err() {
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
        Ok(Some(errors))
    }
}

impl<'g> MapSweep<'g> {
    /// Builds the sweep over a borrowed design-matrix view: the kernel
    /// and the sample-space system over every row of `g`.
    ///
    /// # Errors
    ///
    /// The structural conditions of [`map_estimate`], and
    /// [`BmfError::Linalg`] when the missing-prior columns of `g` are
    /// rank deficient.
    pub fn from_view(g: MatRef<'g>, prior: &Prior) -> Result<Self> {
        let kernel = SweepKernel::new(g, prior)?;
        let system = FoldSystem::full(g, &kernel)?;
        let terms = kernel.terms;
        Ok(MapSweep { g, terms, system })
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
        let (alpha, _) = self.system.solve(g, terms, f.as_slice(), hyper, kind)?;
        Ok(alpha)
    }
}

/// The diagonal of the posterior covariance `(D + GᵀG)⁻¹` computed
/// *without* forming the M × M inverse, via the Woodbury identity:
///
/// ```text
/// Σ_mm = 1/d_m − (1/d_m²)·g_mᵀ (I + G D⁻¹ Gᵀ)⁻¹ g_m
/// ```
///
/// where `g_m` is the m-th design column. Cost Θ(K²M + K³) — the same
/// order as one fast MAP solve — versus Θ(M³) for
/// [`posterior_covariance`]. Multiplying by the noise variance `σ₀²`
/// yields the coefficient posterior variances of eq. 28/31, i.e.
/// credible intervals for every fitted coefficient.
///
/// # Errors
///
/// * The structural conditions of [`map_estimate`], and
///   [`BmfError::Config`] when `hyper` is not positive and finite.
/// * [`BmfError::Config`] when the prior has missing entries (the
///   Woodbury identity needs `D⁻¹`, and the sample-space solver yields
///   coefficients, not variances — use [`posterior_covariance`] at
///   small M).
pub fn posterior_variance_diag(g: &Matrix, prior: &Prior, hyper: f64) -> Result<Vec<f64>> {
    validate_hyper(hyper)?;
    let (k, m) = g.shape();
    if prior.len() != m {
        return Err(BmfError::PriorShape {
            basis_terms: m,
            prior_entries: prior.len(),
        });
    }
    if prior.num_zero_precision() > 0 {
        return Err(BmfError::config(
            "prior",
            "fast posterior variances require strictly positive prior precisions everywhere",
        ));
    }
    crate::screen::finite_matrix("design matrix", g)?;
    crate::screen::finite_prior(prior)?;
    let precisions = prior.precisions(hyper);
    let d_inv: Vec<f64> = precisions.iter().map(|d| 1.0 / d).collect();
    let mut core = g.outer_gram_diag(&d_inv)?;
    core.add_diagonal_mut(&vec![1.0; k])?;
    let chol = core.cholesky()?;
    // For every column m: s_m = g_mᵀ core⁻¹ g_m. Solve core⁻¹ against all
    // columns at once by passing G itself (k × m): X = core⁻¹ G, then
    // s_m = Σ_i G[i][m]·X[i][m].
    let x = chol.solve_matrix(g)?;
    let mut out = Vec::with_capacity(m);
    for j in 0..m {
        let mut s = 0.0;
        for i in 0..k {
            s += g[(i, j)] * x[(i, j)];
        }
        out.push(d_inv[j] - d_inv[j] * d_inv[j] * s);
    }
    Ok(out)
}

/// The posterior covariance `Σ_L = (D + GᵀG)⁻¹` (eq. 28/31, up to the
/// common `σ₀²` scale), computed explicitly via the direct solver.
///
/// Exposed for diagnostics (coefficient uncertainty); the fast solver
/// never forms it. Expensive: Θ(M³).
///
/// # Errors
///
/// Same conditions as [`map_estimate`], including
/// [`BmfError::Config`] when `hyper` is not positive and finite.
pub fn posterior_covariance(g: &Matrix, prior: &Prior, hyper: f64) -> Result<Matrix> {
    validate_hyper(hyper)?;
    let m = g.ncols();
    if prior.len() != m {
        return Err(BmfError::PriorShape {
            basis_terms: m,
            prior_entries: prior.len(),
        });
    }
    crate::screen::finite_matrix("design matrix", g)?;
    crate::screen::finite_prior(prior)?;
    let mut h = g.gram();
    h.add_diagonal_mut(&prior.precisions(hyper))?;
    Ok(h.cholesky()?.inverse()?)
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

    #[test]
    fn fast_variance_diag_matches_explicit_inverse() {
        let g = random_design(6, 10, 21);
        let prior = Prior::from_coeffs(
            PriorKind::ZeroMean,
            &(0..10).map(|i| 0.4 + 0.1 * i as f64).collect::<Vec<_>>(),
        );
        let fast = posterior_variance_diag(&g, &prior, 1.7).unwrap();
        let full = posterior_covariance(&g, &prior, 1.7).unwrap();
        for j in 0..10 {
            assert!(
                (fast[j] - full[(j, j)]).abs() < 1e-9 * full[(j, j)].abs().max(1e-12),
                "j={j}: {} vs {}",
                fast[j],
                full[(j, j)]
            );
            assert!(fast[j] > 0.0);
        }
    }

    #[test]
    fn fast_variance_rejects_missing_priors() {
        let g = random_design(4, 5, 22);
        let prior = Prior::new(
            PriorKind::ZeroMean,
            vec![Some(1.0), Some(1.0), None, Some(1.0), Some(1.0)],
        );
        assert!(matches!(
            posterior_variance_diag(&g, &prior, 1.0),
            Err(BmfError::Config { .. })
        ));
    }

    #[test]
    fn posterior_covariance_is_spd_and_shrinks_with_data() {
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 6]);
        let g_small = random_design(2, 6, 9);
        let g_big = random_design(30, 6, 9);
        let c_small = posterior_covariance(&g_small, &prior, 1.0).unwrap();
        let c_big = posterior_covariance(&g_big, &prior, 1.0).unwrap();
        for i in 0..6 {
            assert!(c_small[(i, i)] > 0.0);
            assert!(
                c_big[(i, i)] < c_small[(i, i)],
                "more data must shrink posterior variance"
            );
        }
    }
}
