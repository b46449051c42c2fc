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
//!   (eq. 53–58): Θ(K²M) with K ≪ M. Handles missing-prior coefficients
//!   (zero diagonal precision) through the exact augmented formulation in
//!   [`bmf_linalg::woodbury`].

use std::borrow::Cow;

use bmf_linalg::view::{matvec_into, matvec_transpose_into, outer_gram_diag_into, MatRef};
use bmf_linalg::{
    factor_lu_ladder, factor_spd_ladder, ladder_solve_in_place, lu_solve_into, view, woodbury,
    FactorKind, LadderPolicy, LinalgError, Matrix, Resilience, Vector,
};

use crate::options::FitOptions;
use crate::prior::Prior;
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
    if !(options.hyper > 0.0 && options.hyper.is_finite()) {
        return Err(BmfError::config(
            "hyper",
            format!("must be positive and finite, got {}", options.hyper),
        ));
    }
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
    if prior.num_zero_precision() > k {
        return Err(BmfError::NotEnoughSamples {
            available: k,
            required: prior.num_zero_precision(),
            context: "missing-prior coefficients",
        });
    }

    let precisions = prior.precisions(hyper);
    resize(&mut ws.rhs, m);
    matvec_transpose_into(g.as_view(), f.as_slice(), &mut ws.rhs)?;
    for (r, b0) in ws.rhs.iter_mut().zip(prior.rhs_contribution(hyper)) {
        *r += b0;
    }

    let mut out = vec![0.0; m];
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
        SolverKind::Fast => woodbury::solve_diag_plus_gram_semidefinite_into(
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
/// design matrix and prior *structure*.
///
/// Cross-validation (§IV-D) solves the same MAP system for many values of
/// `σ₀²`/`η`. Because the prior precision scales *linearly* with the
/// hyper-parameter (`D(h) = h·A`, `A = diag(α_E,m⁻²)`), the expensive
/// Woodbury kernels can be computed once:
///
/// ```text
/// B_F = G_F·A_F⁻¹·G_Fᵀ   (finite-prior columns)
/// B_Z = G_Z·G_Zᵀ          (missing-prior columns)
/// ```
///
/// after which each hyper-parameter value costs one K×K (or
/// (K+|Z|)×(K+|Z|)) factorization — shared by every response and both
/// prior families, since the core does not depend on the prior mean —
/// plus Θ(KM) matvecs per `(response, family)` solve, instead of the
/// full Θ(K²M) rebuild. A solve therefore runs in three steps:
/// `project_into` once per response, `factor_into` once per
/// hyper-parameter value, and `solve_factored_into` per family; the
/// cross-validation sweep calls them in that nesting, and
/// [`MapSweep::solve_with_kind`] calls them back to back.
///
/// Every kernel entry is a function of its two design rows alone, so the
/// kernels of any row subset are a sub-block of the kernels over all
/// rows. The fitting engines build them once over the full design
/// matrix (a [`SweepKernel`]) and give each cross-validation fold a
/// sweep that reads them through the fold's training-row table;
/// [`MapSweep::from_view`] builds them over its view and reads them
/// through identity rows. Both give the same bits.
///
/// The estimates equal [`map_estimate`] with [`SolverKind::Fast`] to
/// rounding, not bit for bit, because the two assemble the Woodbury core
/// and its shift τ in a different order: the sweep forms `B_F/η + I` from
/// the cached kernel and sums τ over the diagonal of `B_Z`, while
/// [`bmf_linalg::woodbury`] forms `G(ηA)⁻¹Gᵀ + I` directly and sums τ
/// column by column.
#[derive(Debug, Clone)]
pub struct MapSweep<'g> {
    /// Borrowed view of the design rows the sweep solves over — a fold
    /// sweep views a row subset of the shared full-data `G` without
    /// copying it.
    g: MatRef<'g>,
    /// The kernels, over the rows `rows` indexes: borrowed from the
    /// fitting engine's one build, or owned by a standalone sweep.
    kernel: Cow<'g, SweepKernel>,
    /// Row `i` of `g` is row `rows[i]` of the kernels.
    rows: Cow<'g, [usize]>,
    /// Woodbury shift for the missing block, from the diagonal of `B_Z`
    /// over this sweep's rows.
    tau: f64,
}

/// The Woodbury kernels of one prior over every row of a design matrix,
/// plus the prior's hyper-independent quantities. Any number of
/// [`MapSweep`]s read it through their own row tables.
#[derive(Debug, Clone)]
pub(crate) struct SweepKernel {
    /// `1/α_E,m²` for finite-prior columns, 0 for missing.
    a: Vec<f64>,
    /// Prior mean per column (0 for zero-mean priors and missing entries).
    prior_mean: Vec<f64>,
    missing: Vec<usize>,
    /// `G_F·A_F⁻¹·G_Fᵀ`.
    b_f: Matrix,
    /// `G_Z·G_Zᵀ` (empty when nothing is missing).
    b_z: Matrix,
}

impl SweepKernel {
    /// Builds the kernels of `prior` over every row of `g`.
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
        let unit = prior.precisions(1.0);
        let missing: Vec<usize> = unit
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| bmf_linalg::is_exact_zero(d).then_some(i))
            .collect();
        // A^-1 over finite columns (0 on missing columns so they drop out
        // of B_F).
        let a_inv_f: Vec<f64> = unit
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let mut b_f = Matrix::zeros(k, k);
        outer_gram_diag_into(g, &a_inv_f, b_f.as_view_mut())?;
        let b_z = if missing.is_empty() {
            Matrix::zeros(0, 0)
        } else {
            // B_Z is the 0/1-indicator-weighted outer gram, summed over
            // the missing columns only, in ascending order: each skipped
            // term is an exact ±0 that cannot change a sum started at
            // +0, so the bits equal the full-width gram's.
            let mut b_z = Matrix::zeros(k, k);
            for i in 0..k {
                let ri = g.row(i);
                for j in i..k {
                    let rj = g.row(j);
                    let mut s = 0.0;
                    for &z in &missing {
                        s += ri[z] * rj[z];
                    }
                    b_z[(i, j)] = s;
                    b_z[(j, i)] = s;
                }
            }
            b_z
        };
        // Prior means (independent of hyper): alpha_E for NZM, 0 for ZM.
        let rhs1 = prior.rhs_contribution(1.0);
        let prior_mean: Vec<f64> = rhs1
            .iter()
            .zip(&unit)
            .map(|(&r, &d)| if d > 0.0 { r / d } else { 0.0 })
            .collect();
        Ok(SweepKernel {
            a: unit,
            prior_mean,
            missing,
            b_f,
            b_z,
        })
    }
}

/// The core system of a [`MapSweep`] assembled and factorized for one
/// hyper-parameter value. The factor itself lives in the [`MapScratch`]
/// passed to [`MapSweep::factor_into`]; this records how to solve
/// against it and how the degradation ladder resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreFactor {
    hyper: f64,
    kind: FactorKind,
    /// Degradation-ladder outcome of the factorization.
    pub(crate) resilience: Resilience,
}

impl<'g> MapSweep<'g> {
    /// Builds the sweep cache over a borrowed design-matrix view: the
    /// kernels over every row of `g`, read through identity rows.
    ///
    /// # Errors
    ///
    /// Same structural conditions as [`map_estimate`].
    pub fn from_view(g: MatRef<'g>, prior: &Prior) -> Result<Self> {
        let kernel = SweepKernel::new(g, prior)?;
        let rows = (0..g.nrows()).collect();
        MapSweep::over(g, Cow::Owned(kernel), Cow::Owned(rows))
    }

    /// The sweep over rows `rows` of `g`, reading `kernel` — built over
    /// every row of `g` — through that row table. This is how a
    /// cross-validation fold solves over its training rows without
    /// building or copying kernels of its own.
    ///
    /// # Errors
    ///
    /// [`BmfError::NotEnoughSamples`] when `rows` cannot identify the
    /// prior's missing coefficients.
    pub(crate) fn for_rows(
        g: &'g Matrix,
        rows: &'g [usize],
        kernel: &'g SweepKernel,
    ) -> Result<Self> {
        MapSweep::over(
            g.rows_view(rows),
            Cow::Borrowed(kernel),
            Cow::Borrowed(rows),
        )
    }

    /// Shared by both constructors: checks that the rows identify the
    /// missing block and sums τ over the rows' `B_Z` diagonal in row
    /// order.
    fn over(g: MatRef<'g>, kernel: Cow<'g, SweepKernel>, rows: Cow<'g, [usize]>) -> Result<Self> {
        let k = g.nrows();
        let nz = kernel.missing.len();
        if nz > k {
            return Err(BmfError::NotEnoughSamples {
                available: k,
                required: nz,
                context: "missing-prior coefficients",
            });
        }
        let tau = if nz == 0 {
            1.0
        } else {
            (rows.iter().map(|&r| kernel.b_z[(r, r)]).sum::<f64>() / nz as f64).max(1e-12)
        };
        Ok(MapSweep {
            g,
            kernel,
            rows,
            tau,
        })
    }

    /// Solves the MAP system for one hyper-parameter value and response
    /// vector `f`, overriding the prior family: `Some(kind)` forces the
    /// zero-mean (`prior_mean = 0`) or nonzero-mean behaviour regardless
    /// of the prior this sweep was built from.
    ///
    /// This lets prior selection (§IV-D) share one sweep — and thus the
    /// expensive Θ(K²M) kernels — between both families, since the prior
    /// *precisions* are identical and only the mean differs.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::SampleShape`] on a length mismatch,
    /// [`BmfError::NonFiniteInput`] when `f` holds NaN or ±∞,
    /// [`BmfError::Config`] when `hyper` is not positive and finite, and
    /// [`BmfError::Linalg`] when the (hyper-dependent) core cannot be
    /// solved even after the degradation ladder.
    // bmf-lint: allow(screen-reachability) -- solve_kind_into screens the response (screen::finite_values) before any arithmetic; the sweep matrices were screened at build time
    pub fn solve_with_kind(
        &self,
        f: &Vector,
        hyper: f64,
        kind: crate::prior::PriorKind,
    ) -> Result<Vector> {
        let mut ws = MapScratch::default();
        let mut out = vec![0.0; self.g.ncols()];
        self.solve_kind_into(f.as_slice(), hyper, kind, &mut ws, &mut out)?;
        Ok(Vector::from(out))
    }

    /// The allocation-free core of [`MapSweep::solve_with_kind`]: the
    /// three solve steps back to back, all intermediates in `ws`, the
    /// coefficients in `out` (length M, fully overwritten). Returns the
    /// degradation-ladder outcome of the factorization.
    pub(crate) fn solve_kind_into(
        &self,
        f: &[f64],
        hyper: f64,
        kind: crate::prior::PriorKind,
        ws: &mut MapScratch,
        out: &mut [f64],
    ) -> Result<Resilience> {
        self.project_into(f, ws)?;
        let factor = self.factor_into(hyper, ws)?;
        self.solve_factored_into(&factor, kind, ws, out)?;
        Ok(factor.resilience)
    }

    /// Solve step 1, once per response: screens `f` and writes `Gᵀ f`
    /// into `ws.rhs`, where [`MapSweep::solve_factored_into`] reads it.
    pub(crate) fn project_into(&self, f: &[f64], ws: &mut MapScratch) -> Result<()> {
        let (k, m) = self.g.shape();
        if f.len() != k {
            return Err(BmfError::SampleShape {
                // bmf-lint: allow(no-alloc-in-into-kernels) -- error construction: allocates only on the failure path
                detail: format!("{k} design rows vs {} values", f.len()),
            });
        }
        crate::screen::finite_values("response values", f)?;
        resize(&mut ws.rhs, m);
        matvec_transpose_into(self.g, f, &mut ws.rhs)?;
        Ok(())
    }

    /// Solve step 2, once per hyper-parameter value: assembles the core
    /// system for `hyper` into `ws.core` and factorizes it through the
    /// degradation ladder, and fills `ws.dt_inv`. The factor serves every
    /// response and prior family solved at this value.
    pub(crate) fn factor_into(&self, hyper: f64, ws: &mut MapScratch) -> Result<CoreFactor> {
        if !(hyper > 0.0 && hyper.is_finite()) {
            return Err(BmfError::config(
                "hyper",
                // bmf-lint: allow(no-alloc-in-into-kernels) -- error construction: allocates only on the failure path
                format!("must be positive and finite, got {hyper}"),
            ));
        }
        let k = self.g.nrows();
        let SweepKernel {
            a,
            missing,
            b_f,
            b_z,
            ..
        } = &*self.kernel;
        let MapScratch {
            dt_inv,
            core,
            perm,
            ladder,
            ..
        } = ws;
        // D-tilde inverse diag: 1/(h·a_m) finite, 1/tau missing.
        dt_inv.clear();
        dt_inv.extend(a.iter().map(|&a| {
            if a > 0.0 {
                1.0 / (hyper * a)
            } else {
                1.0 / self.tau
            }
        }));

        // The core's kernel block, gathered through the row table: entry
        // (i, j) is kernel entry (rows[i], rows[j]).
        if missing.is_empty() {
            // core = I + B_F / h.
            core.reset_zeros(k, k);
            let s = 1.0 / hyper;
            for (i, &ri) in self.rows.iter().enumerate() {
                let src = b_f.row(ri);
                let dst = core.row_mut(i);
                for (x, &rj) in dst.iter_mut().zip(self.rows.iter()) {
                    *x = src[rj] * s;
                }
                dst[i] += 1.0;
            }
            let (kind, resilience) =
                factor_spd_ladder(core, perm, ladder, &LadderPolicy::default())?;
            return Ok(CoreFactor {
                hyper,
                kind,
                resilience,
            });
        }

        // Augmented system (see bmf_linalg::woodbury docs): W has blocks
        // [I + B_F/h + B_Z/tau,  G_Z/tau; (G_Z/tau)^T, 0].
        let n = k + missing.len();
        core.reset_zeros(n, n);
        for (i, &ri) in self.rows.iter().enumerate() {
            let (bf, bz) = (b_f.row(ri), b_z.row(ri));
            let dst = core.row_mut(i);
            for (x, &rj) in dst[..k].iter_mut().zip(self.rows.iter()) {
                *x = bf[rj] / hyper + bz[rj] / self.tau;
            }
            dst[i] += 1.0;
        }
        for (jz, &z) in missing.iter().enumerate() {
            for i in 0..k {
                let v = self.g.get(i, z) / self.tau;
                core[(i, k + jz)] = v;
                core[(k + jz, i)] = v;
            }
        }
        let resilience = factor_lu_ladder(core, perm, ladder, &LadderPolicy::default())?;
        Ok(CoreFactor {
            hyper,
            kind: FactorKind::Lu,
            resilience,
        })
    }

    /// Solve step 3, per prior family: the MAP coefficients for the
    /// response projected by [`MapSweep::project_into`] against the core
    /// factorized by [`MapSweep::factor_into`] (both still in `ws`),
    /// written to `out` (length M, fully overwritten).
    pub(crate) fn solve_factored_into(
        &self,
        factor: &CoreFactor,
        kind: crate::prior::PriorKind,
        ws: &mut MapScratch,
        out: &mut [f64],
    ) -> Result<()> {
        let (k, m) = self.g.shape();
        if out.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "map sweep (coefficient buffer)",
                lhs: (m, 1),
                rhs: (out.len(), 1),
            }
            .into());
        }
        let MapScratch {
            rhs,
            dt_inv,
            t,
            y,
            u,
            uy,
            core,
            perm,
            ladder,
            woodbury: _,
        } = ws;
        let SweepKernel {
            a,
            prior_mean,
            missing,
            ..
        } = &*self.kernel;
        // t = D̃⁻¹·(Gᵀf + h·A·prior_mean), the mean dropped for zero-mean
        // use.
        t.clear();
        match kind {
            crate::prior::PriorKind::NonZeroMean => {
                let h = factor.hyper;
                t.extend(
                    rhs.iter()
                        .zip(dt_inv.iter())
                        .zip(a.iter().zip(prior_mean))
                        .map(|((&r, &d), (&a, &mean))| d * (r + h * a * mean)),
                );
            }
            crate::prior::PriorKind::ZeroMean => {
                t.extend(rhs.iter().zip(dt_inv.iter()).map(|(&r, &d)| d * r));
            }
        }

        if missing.is_empty() {
            resize(y, k);
            matvec_into(self.g, t, y)?;
            ladder_solve_in_place(factor.kind, core, perm, ladder, y)?;
            resize(uy, m);
            matvec_transpose_into(self.g, y, uy)?;
        } else {
            let n = k + missing.len();
            resize(u, n);
            matvec_into(self.g, t, &mut u[..k])?;
            for (jz, &z) in missing.iter().enumerate() {
                u[k + jz] = t[z];
            }
            resize(y, n);
            lu_solve_into(core, perm, u, y)?;
            resize(uy, m);
            matvec_transpose_into(self.g, &y[..k], uy)?;
            for (jz, &z) in missing.iter().enumerate() {
                uy[z] += y[k + jz];
            }
        }
        for i in 0..m {
            out[i] = t[i] - dt_inv[i] * uy[i];
        }
        Ok(())
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
/// * The structural conditions of [`map_estimate`].
/// * [`BmfError::Config`] when the prior has missing entries
///   (their posterior variance requires the augmented path — use
///   [`posterior_covariance`] at small M).
pub fn posterior_variance_diag(g: &Matrix, prior: &Prior, hyper: f64) -> Result<Vec<f64>> {
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
/// Same conditions as [`map_estimate`].
pub fn posterior_covariance(g: &Matrix, prior: &Prior, hyper: f64) -> Result<Matrix> {
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
