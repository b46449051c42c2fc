//! Sequential (online) Bayesian model fusion — the streaming posterior
//! engine (DESIGN.md §14).
//!
//! In practice the K late-stage samples do not arrive at once: each
//! post-layout simulation takes hours, and a designer wants the best
//! current model — and its trajectory — after *every* finished run. This
//! module keeps the MAP estimate up to date as samples stream in.
//!
//! Instead of refitting from scratch (Θ(K²M) per sample through the fast
//! solver), [`SequentialBmf`] maintains a growing Cholesky factor of the
//! Woodbury core `I + G D⁻¹ Gᵀ` ([`bmf_linalg::GrowingCholesky`]), which
//! absorbs one row per sample at Θ(K·M + K²); producing the current
//! coefficients is then Θ(K·M). The estimates are **bit-identical** to a
//! batch [`map_estimate`](crate::map_estimate::map_estimate) (fast
//! solver, rung 0) over the samples seen so far: every kernel below
//! replicates the batch accumulation order exactly, and the streaming
//! tests pin the equality with `f64::to_bits`.
//!
//! All scratch lives in a caller-owned [`SeqWorkspace`]; with the
//! workspace and estimator sized up front ([`SequentialBmf::reserve`]),
//! the steady-state `add_sample`/`coefficients_into` path performs zero
//! heap allocations (counted under the counting allocator by `repro
//! allocs`, whose `seq_steady_state` row must read 0).
//!
//! Beyond plain updating, the engine supports the BMFMC-style active
//! loop: [`SequentialBmf::suggest_next`] ranks candidate points by
//! posterior predictive variance (pick the most informative simulation
//! next), and [`StopPolicy`] decides when further late-stage simulations
//! stop paying for themselves against a cost budget
//! (`bmf_circuits::sim::CostLedger` accounting).
//!
//! Limitations: the hyper-parameter and prior family are fixed up front
//! (re-run selection offline when desired), and every coefficient needs a
//! finite prior — missing-prior coefficients would change the core
//! structure per sample (use the batch path for those).

use bmf_basis::basis::OrthonormalBasis;
use bmf_linalg::view::{dot3, matvec_into, matvec_transpose_into, MatRef};
use bmf_linalg::{GrowingCholesky, LinalgError, Vector};

use crate::options::{validate_hyper, FitOptions};
use crate::prior::{Prior, PriorKind};
use crate::snapshot::ModelSnapshot;
use crate::workspace::{resize, SeqWorkspace};
use crate::{BmfError, Result};

/// An online MAP estimator absorbing one sample at a time.
///
/// # Example
///
/// ```
/// use bmf_core::prior::{Prior, PriorKind};
/// use bmf_core::sequential::SequentialBmf;
/// use bmf_core::workspace::SeqWorkspace;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &[1.0, -0.5]);
/// let mut seq = SequentialBmf::new(&prior, 1.0)?;
/// let mut ws = SeqWorkspace::new();
/// seq.add_sample(&[1.0, 0.0], 1.2, &mut ws)?; // basis row, observed value
/// seq.add_sample(&[0.0, 1.0], -0.4, &mut ws)?;
/// let alpha = seq.coefficients()?;
/// assert_eq!(alpha.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SequentialBmf {
    /// Prior precision diagonal inverse `D⁻¹` (hyper already folded in).
    d_inv: Vec<f64>,
    /// Prior part of the right-hand side.
    prior_rhs: Vec<f64>,
    /// Accumulated design rows, flat row-major (K × M).
    rows: Vec<f64>,
    /// Accumulated responses.
    values: Vec<f64>,
    /// Growing Cholesky factor of the core `I + G D⁻¹ Gᵀ`.
    core: GrowingCholesky,
    /// The fixed hyper-parameter, kept for snapshot provenance.
    hyper: f64,
    /// The fixed prior family, kept for snapshot provenance.
    prior_kind: PriorKind,
}

impl SequentialBmf {
    /// Creates the estimator for a fixed prior and hyper-parameter.
    ///
    /// # Errors
    ///
    /// * [`BmfError::Config`] (parameter `"prior"`) when the prior has
    ///   missing or zero/sub-epsilon entries (either would change the
    ///   core structure per sample; see module docs), or (parameter
    ///   `"hyper"`) when the hyper-parameter is not positive and finite.
    /// * [`BmfError::NonFiniteInput`] when a prior coefficient is NaN/±∞.
    pub fn new(prior: &Prior, hyper: f64) -> Result<Self> {
        validate_hyper(hyper)?;
        crate::screen::finite_prior(prior)?;
        if prior.num_zero_precision() > 0 {
            return Err(BmfError::config(
                "prior",
                "sequential BMF requires a nonzero finite prior for every coefficient",
            ));
        }
        let precisions = prior.precisions(hyper);
        let d_inv: Vec<f64> = precisions.iter().map(|d| 1.0 / d).collect();
        Ok(SequentialBmf {
            d_inv,
            prior_rhs: prior.rhs_contribution(hyper),
            rows: Vec::new(),
            values: Vec::new(),
            core: GrowingCholesky::new(),
            hyper,
            prior_kind: prior.kind(),
        })
    }

    /// Number of coefficients.
    pub fn num_coefficients(&self) -> usize {
        self.d_inv.len()
    }

    /// Number of samples absorbed so far.
    pub fn num_samples(&self) -> usize {
        self.values.len()
    }

    /// The fixed hyper-parameter this estimator runs at.
    pub fn hyper(&self) -> f64 {
        self.hyper
    }

    /// The fixed prior family this estimator runs under.
    pub fn prior_kind(&self) -> PriorKind {
        self.prior_kind
    }

    /// Pre-allocates storage for at least `samples` total absorbed
    /// samples (row storage, responses, and the growing core factor), so
    /// the streaming loop up to that size never reallocates. Paired with
    /// [`SeqWorkspace::for_problem`] this makes steady-state
    /// `add_sample` allocation-free.
    pub fn reserve(&mut self, samples: usize) {
        let m = self.d_inv.len();
        let extra = samples.saturating_sub(self.values.len());
        self.rows.reserve(extra * m);
        self.values.reserve(extra);
        self.core.reserve(samples);
    }

    /// Borrowed view of the accumulated design matrix (K × M, flat
    /// row-major — no per-row indirection).
    fn design(&self) -> Result<MatRef<'_>> {
        MatRef::from_row_major(&self.rows, self.values.len(), self.d_inv.len())
            .map_err(BmfError::from)
    }

    /// Absorbs one sample: `row` is the basis row `[g₁(x) … g_M(x)]` and
    /// `value` the observed performance. Θ(K·M + K²); allocation-free at
    /// steady state (after [`SequentialBmf::reserve`]).
    ///
    /// # Errors
    ///
    /// * [`BmfError::SampleShape`] when `row.len()` differs from the
    ///   coefficient count.
    /// * [`BmfError::NonFiniteInput`] when the row or value is NaN/±∞
    ///   (the estimator state is left untouched).
    /// * [`BmfError::Linalg`] when the extended core loses positive
    ///   definiteness (numerically impossible for exact arithmetic; a
    ///   defensive error path). The estimator state is left untouched.
    pub fn add_sample(&mut self, row: &[f64], value: f64, ws: &mut SeqWorkspace) -> Result<()> {
        let m = self.d_inv.len();
        if row.len() != m {
            return Err(BmfError::SampleShape {
                detail: format!("row has {} entries, model has {m}", row.len()),
            });
        }
        crate::screen::finite_values("sample row", row)?;
        if !value.is_finite() {
            return Err(BmfError::NonFiniteInput {
                what: "sample value",
            });
        }
        // New core column w_i = g_new D⁻¹ g_iᵀ and diagonal
        // 1 + g_new D⁻¹ g_newᵀ — the same `dot3` kernel (and operand
        // order) `outer_gram_diag_into` uses when the batch solver
        // assembles the full core, so the grown factor matches a fresh
        // batch factorization bit for bit.
        let k = self.values.len();
        resize(&mut ws.w, k);
        for i in 0..k {
            ws.w[i] = dot3(row, &self.rows[i * m..(i + 1) * m], &self.d_inv);
        }
        let d = dot3(row, row, &self.d_inv) + 1.0;
        self.core.push_row(&ws.w, d)?;
        self.rows.extend_from_slice(row);
        self.values.push(value);
        Ok(())
    }

    /// Writes the current MAP coefficients into `out` (length M, fully
    /// overwritten) using only workspace scratch — **bit-identical** to a
    /// batch fast-solver fit over all absorbed samples, allocation-free
    /// at steady state.
    ///
    /// With zero samples the prior mean (the MAP estimate with no data)
    /// is written.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::Linalg`] on numerical failure or when
    /// `out.len()` differs from the coefficient count.
    // bmf-lint: allow(screen-reachability) -- every sample row was screened on ingestion; this only folds cached screened data
    pub fn coefficients_into(&self, ws: &mut SeqWorkspace, out: &mut [f64]) -> Result<()> {
        let m = self.d_inv.len();
        let k = self.values.len();
        if out.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "sequential coefficients (output buffer)",
                lhs: (m, 1),
                rhs: (out.len(), 1),
            }
            .into());
        }
        let g = self.design()?;
        // rhs = Gᵀf, then += prior contribution — the exact accumulation
        // order of the batch `map_estimate_ws`.
        resize(&mut ws.rhs, m);
        matvec_transpose_into(g, &self.values, &mut ws.rhs)?;
        for (r, b0) in ws.rhs.iter_mut().zip(&self.prior_rhs) {
            *r += b0;
        }
        // t = D⁻¹ rhs.
        ws.t.clear();
        ws.t.extend((0..m).map(|i| self.d_inv[i] * ws.rhs[i]));
        if k == 0 {
            out.copy_from_slice(&ws.t); // no data: pure prior
            return Ok(());
        }
        // y = core⁻¹ (G t); alpha = t − D⁻¹ Gᵀ y.
        resize(&mut ws.y, k);
        matvec_into(g, &ws.t, &mut ws.y)?;
        self.core.solve_in_place(&mut ws.y)?;
        resize(&mut ws.uy, m);
        matvec_transpose_into(g, &ws.y, &mut ws.uy)?;
        for (i, o) in out.iter_mut().enumerate() {
            *o = ws.t[i] - self.d_inv[i] * ws.uy[i];
        }
        Ok(())
    }

    /// The current MAP coefficients — convenience wrapper around
    /// [`SequentialBmf::coefficients_into`] that allocates its own
    /// workspace and output vector. Streaming loops should use the
    /// `_into` form.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SequentialBmf::coefficients_into`].
    // bmf-lint: allow(screen-reachability) -- delegates to coefficients_into, which only folds cached screened data
    pub fn coefficients(&self) -> Result<Vector> {
        let mut ws = SeqWorkspace::new();
        let mut out = vec![0.0; self.d_inv.len()];
        self.coefficients_into(&mut ws, &mut out)?;
        Ok(Vector::from(out))
    }

    /// The posterior predictive variance `gᵀ Σ g` of a candidate basis
    /// row `g`, where `Σ = (D + GᵀG)⁻¹` (up to the common noise scale) —
    /// computed via the Woodbury identity without forming Σ:
    /// `v = g D⁻¹ gᵀ − ‖L⁻¹ u‖²` with `u = G D⁻¹ gᵀ` and `L` the growing
    /// core factor. Θ(K·M + K²); allocation-free at steady state.
    ///
    /// # Errors
    ///
    /// * [`BmfError::SampleShape`] when `row.len()` differs from the
    ///   coefficient count.
    /// * [`BmfError::NonFiniteInput`] when the row is NaN/±∞.
    /// * [`BmfError::Linalg`] on a degenerate core factor.
    pub fn predictive_variance(&self, row: &[f64], ws: &mut SeqWorkspace) -> Result<f64> {
        let m = self.d_inv.len();
        if row.len() != m {
            return Err(BmfError::SampleShape {
                detail: format!("row has {} entries, model has {m}", row.len()),
            });
        }
        crate::screen::finite_values("candidate row", row)?;
        let base = dot3(row, row, &self.d_inv);
        let k = self.values.len();
        resize(&mut ws.u, k);
        for i in 0..k {
            ws.u[i] = dot3(row, &self.rows[i * m..(i + 1) * m], &self.d_inv);
        }
        self.core.forward_solve_in_place(&mut ws.u)?;
        let mut reduction = 0.0;
        for &x in ws.u.iter() {
            reduction += x * x;
        }
        Ok(base - reduction)
    }

    /// BMFMC-style active selection: ranks candidate basis rows by
    /// posterior predictive variance and returns the index (and variance)
    /// of the most informative one — the simulation whose result would
    /// shrink posterior uncertainty the most. Returns `None` for an
    /// empty candidate set; ties resolve to the first maximum.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SequentialBmf::predictive_variance`] (the
    /// candidate matrix must have M columns).
    pub fn suggest_next(
        &self,
        candidates: MatRef<'_>,
        ws: &mut SeqWorkspace,
    ) -> Result<Option<(usize, f64)>> {
        let m = self.d_inv.len();
        if candidates.ncols() != m {
            return Err(BmfError::SampleShape {
                detail: format!(
                    "candidate rows have {} entries, model has {m}",
                    candidates.ncols()
                ),
            });
        }
        let mut best: Option<(usize, f64)> = None;
        for i in 0..candidates.nrows() {
            let v = self.predictive_variance(candidates.row(i), ws)?;
            let improves = match best {
                None => true,
                Some((_, bv)) => v.total_cmp(&bv) == std::cmp::Ordering::Greater,
            };
            if improves {
                best = Some((i, v));
            }
        }
        Ok(best)
    }

    /// Captures the current streamed estimate as a [`ModelSnapshot`]
    /// under `job_id`, recording this estimator's prior family and
    /// hyper-parameter as provenance. The snapshot validates cleanly and
    /// round-trips through `bmf-persist` like any batch-fitted model.
    ///
    /// # Errors
    ///
    /// * The conditions of [`SequentialBmf::coefficients_into`].
    /// * [`BmfError::PriorShape`] when `basis.len()` differs from the
    ///   coefficient count.
    // bmf-lint: allow(screen-reachability) -- delegates to coefficients_into, which only folds cached screened data
    pub fn snapshot(
        &self,
        job_id: &str,
        basis: &OrthonormalBasis,
        ws: &mut SeqWorkspace,
    ) -> Result<ModelSnapshot> {
        let m = self.d_inv.len();
        if basis.len() != m {
            return Err(BmfError::PriorShape {
                basis_terms: basis.len(),
                prior_entries: m,
            });
        }
        let mut coeffs = vec![0.0; m];
        self.coefficients_into(ws, &mut coeffs)?;
        let model = crate::model::PerformanceModel::new(basis.clone(), coeffs)?;
        let mut snap = ModelSnapshot::from_model(job_id, model);
        snap.options = FitOptions::default().hyper(self.hyper);
        snap.prior_kind = self.prior_kind;
        snap.hyper = self.hyper;
        snap.selection.kind = self.prior_kind;
        snap.selection.hyper = self.hyper;
        Ok(snap)
    }
}

/// Cost-aware stopping rule for the streaming loop: stop when the next
/// simulation would blow the budget, or when the posterior has converged
/// and further samples stop paying for themselves.
///
/// Costs are in the same unit as `bmf_circuits::sim::CostLedger`
/// (simulator hours); variance is the posterior predictive variance
/// scale of [`SequentialBmf::predictive_variance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopPolicy {
    /// Total simulation budget in hours; a sample that would push
    /// spending past this stops the loop.
    pub budget_hours: f64,
    /// Never declare variance convergence before this many samples.
    pub min_samples: usize,
    /// Declare convergence once the peak candidate variance falls to or
    /// below this floor (and `min_samples` is met).
    pub variance_floor: f64,
}

/// Why a [`StopPolicy`] decided to stop the streaming loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The next sample would exceed the simulation budget.
    BudgetExhausted,
    /// The posterior variance fell below the floor with enough samples.
    VarianceConverged,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::BudgetExhausted => write!(f, "budget exhausted"),
            StopReason::VarianceConverged => write!(f, "variance converged"),
        }
    }
}

impl StopPolicy {
    /// Decides whether to stop *before* running the next simulation.
    ///
    /// * `samples` — samples absorbed so far,
    /// * `spent_hours` — simulation hours already charged,
    /// * `next_sample_hours` — the cost of the candidate simulation,
    /// * `peak_variance` — the largest posterior predictive variance
    ///   over the remaining candidates (from
    ///   [`SequentialBmf::suggest_next`]).
    ///
    /// The budget check runs first: a loop that is both converged and
    /// out of budget reports [`StopReason::BudgetExhausted`].
    pub fn decide(
        &self,
        samples: usize,
        spent_hours: f64,
        next_sample_hours: f64,
        peak_variance: f64,
    ) -> Option<StopReason> {
        if spent_hours + next_sample_hours > self.budget_hours {
            return Some(StopReason::BudgetExhausted);
        }
        if samples >= self.min_samples && peak_variance <= self.variance_floor {
            return Some(StopReason::VarianceConverged);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_estimate::{map_estimate, SolverKind};
    use crate::prior::PriorKind;
    use bmf_linalg::{Cholesky, Matrix};
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    fn random_rows(k: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded(seed);
        let mut s = StandardNormal::new();
        (0..k).map(|_| s.sample_vec(&mut rng, m)).collect()
    }

    #[test]
    fn matches_batch_fit_after_every_sample_bitwise() {
        let m = 12;
        let early: Vec<f64> = (0..m).map(|i| 0.7 / (1.0 + i as f64)).collect();
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
        let rows = random_rows(7, m, 1);
        let values: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>() * 0.3).collect();

        let mut seq = SequentialBmf::new(&prior, 2.0).unwrap();
        let mut ws = SeqWorkspace::new();
        for k in 0..rows.len() {
            seq.add_sample(&rows[k], values[k], &mut ws).unwrap();
            let online = seq.coefficients().unwrap();
            // Batch reference over the first k+1 samples.
            let g = Matrix::from_rows(&rows[..=k].iter().map(|r| r.as_slice()).collect::<Vec<_>>())
                .unwrap();
            let f = Vector::from(&values[..=k]);
            let options = FitOptions::new().hyper(2.0).solver(SolverKind::Fast);
            let batch = map_estimate(&g, &f, &prior, &options).unwrap();
            for (j, (a, b)) in online.iter().zip(batch.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "bitwise divergence at sample {k}, coeff {j}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn coefficients_into_is_bitwise_stable_across_workspaces() {
        let m = 9;
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &vec![0.8; m]);
        let mut seq = SequentialBmf::new(&prior, 1.5).unwrap();
        let mut ws = SeqWorkspace::new();
        for (i, row) in random_rows(5, m, 9).iter().enumerate() {
            seq.add_sample(row, 0.1 * i as f64 - 0.2, &mut ws).unwrap();
        }
        // A dirty, differently-sized workspace must not change results.
        let mut dirty = SeqWorkspace::for_problem(64, 64);
        dirty.rhs.resize(64, f64::NAN);
        dirty.t.resize(64, -3.0);
        let mut a = vec![0.0; m];
        let mut b = vec![0.0; m];
        seq.coefficients_into(&mut ws, &mut a).unwrap();
        seq.coefficients_into(&mut dirty, &mut b).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn zero_samples_returns_prior_mean() {
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &[2.0, -1.0]);
        let seq = SequentialBmf::new(&prior, 5.0).unwrap();
        let alpha = seq.coefficients().unwrap();
        assert!((alpha[0] - 2.0).abs() < 1e-12);
        assert!((alpha[1] + 1.0).abs() < 1e-12);
        // Zero-mean prior: estimate is zero.
        let zm = SequentialBmf::new(&Prior::from_coeffs(PriorKind::ZeroMean, &[2.0, -1.0]), 5.0)
            .unwrap();
        assert_eq!(zm.coefficients().unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn missing_prior_rejected() {
        let prior = Prior::new(PriorKind::ZeroMean, vec![Some(1.0), None]);
        assert!(matches!(
            SequentialBmf::new(&prior, 1.0),
            Err(BmfError::Config { .. })
        ));
    }

    #[test]
    fn row_shape_validated() {
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0, 1.0]);
        let mut seq = SequentialBmf::new(&prior, 1.0).unwrap();
        let mut ws = SeqWorkspace::new();
        assert!(matches!(
            seq.add_sample(&[1.0], 0.0, &mut ws),
            Err(BmfError::SampleShape { .. })
        ));
    }

    #[test]
    fn failed_add_sample_leaves_state_untouched() {
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &[1.0, -0.5]);
        let mut seq = SequentialBmf::new(&prior, 1.0).unwrap();
        let mut ws = SeqWorkspace::new();
        seq.add_sample(&[1.0, 0.5], 0.9, &mut ws).unwrap();
        let before = seq.coefficients().unwrap();
        for bad in [
            seq.add_sample(&[f64::NAN, 1.0], 0.5, &mut ws),
            seq.add_sample(&[1.0, 1.0], f64::INFINITY, &mut ws),
            seq.add_sample(&[1.0], 0.0, &mut ws),
        ] {
            assert!(bad.is_err());
        }
        assert_eq!(seq.num_samples(), 1);
        let after = seq.coefficients().unwrap();
        for (x, y) in before.iter().zip(after.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The stream still absorbs good samples after rejections.
        seq.add_sample(&[0.0, 1.0], -0.3, &mut ws).unwrap();
        assert_eq!(seq.num_samples(), 2);
    }

    #[test]
    fn estimate_converges_to_truth_with_data() {
        let m = 6;
        let truth = [1.0, -0.5, 0.25, 2.0, 0.0, -1.0];
        // Mediocre prior with a small hyper-parameter (weak weight), lots
        // of data: the data must win.
        let early: Vec<f64> = truth.iter().map(|t| t * 0.5 + 0.2).collect();
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
        let mut seq = SequentialBmf::new(&prior, 1e-3).unwrap();
        seq.reserve(60);
        let mut ws = SeqWorkspace::for_problem(60, m);
        let rows = random_rows(60, m, 3);
        for row in &rows {
            let f: f64 = row.iter().zip(&truth).map(|(g, t)| g * t).sum();
            seq.add_sample(row, f, &mut ws).unwrap();
        }
        let alpha = seq.coefficients().unwrap();
        for (a, t) in alpha.iter().zip(&truth) {
            assert!((a - t).abs() < 0.05, "{a} vs {t}");
        }
        assert_eq!(seq.num_samples(), 60);
        assert_eq!(seq.num_coefficients(), 6);
    }

    #[test]
    fn suggest_next_prefers_unexplored_direction() {
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0, 1.0]);
        let mut seq = SequentialBmf::new(&prior, 1.0).unwrap();
        let mut ws = SeqWorkspace::new();
        // One sample along e1: variance along e2 stays at the prior level.
        seq.add_sample(&[1.0, 0.0], 0.7, &mut ws).unwrap();
        let cands = [1.0, 0.0, 0.0, 1.0];
        let view = MatRef::from_row_major(&cands, 2, 2).unwrap();
        let (idx, v) = seq.suggest_next(view, &mut ws).unwrap().unwrap();
        assert_eq!(idx, 1, "the unexplored direction is more informative");
        let v0 = seq.predictive_variance(&cands[..2], &mut ws).unwrap();
        assert!(v > v0, "{v} should exceed explored-direction variance {v0}");
        // Absorbing the suggested sample shrinks its variance.
        seq.add_sample(&[0.0, 1.0], -0.1, &mut ws).unwrap();
        let v_after = seq.predictive_variance(&cands[2..], &mut ws).unwrap();
        assert!(v_after < v);
        // Empty candidate set: nothing to suggest.
        let empty = MatRef::from_row_major(&[], 0, 2).unwrap();
        assert!(seq.suggest_next(empty, &mut ws).unwrap().is_none());
    }

    #[test]
    fn predictive_variance_matches_posterior_diag() {
        // For a unit candidate e_j, gᵀΣg is exactly Σ_jj, the j-th
        // diagonal entry of (D + GᵀG)⁻¹: solve the dense posterior
        // precision against e_j.
        let m = 5;
        let early: Vec<f64> = (0..m).map(|i| 1.0 + 0.3 * i as f64).collect();
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
        let mut seq = SequentialBmf::new(&prior, 1.3).unwrap();
        let mut ws = SeqWorkspace::new();
        let rows = random_rows(4, m, 17);
        for (i, row) in rows.iter().enumerate() {
            seq.add_sample(row, (i as f64).sin(), &mut ws).unwrap();
        }
        let g = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()).unwrap();
        let mut precision = g.gram();
        precision.add_diagonal_mut(&prior.precisions(1.3)).unwrap();
        let chol = Cholesky::new(&precision).unwrap();
        for j in 0..m {
            let mut e = vec![0.0; m];
            e[j] = 1.0;
            let v = seq.predictive_variance(&e, &mut ws).unwrap();
            let sigma_jj = chol.solve(&Vector::from(e)).unwrap()[j];
            assert!(
                (v - sigma_jj).abs() < 1e-10 * sigma_jj.abs().max(1e-12),
                "j={j}: {v} vs {sigma_jj}"
            );
        }
    }

    #[test]
    fn stop_policy_orders_budget_before_convergence() {
        let policy = StopPolicy {
            budget_hours: 10.0,
            min_samples: 3,
            variance_floor: 1e-4,
        };
        // Under budget, not converged: keep going.
        assert_eq!(policy.decide(5, 2.0, 1.0, 1.0), None);
        // Next sample would exceed the budget.
        assert_eq!(
            policy.decide(5, 9.5, 1.0, 1.0),
            Some(StopReason::BudgetExhausted)
        );
        // Converged and over budget: budget wins.
        assert_eq!(
            policy.decide(5, 9.5, 1.0, 1e-6),
            Some(StopReason::BudgetExhausted)
        );
        // Converged with enough samples.
        assert_eq!(
            policy.decide(3, 1.0, 1.0, 1e-5),
            Some(StopReason::VarianceConverged)
        );
        // Converged variance but too few samples: keep going.
        assert_eq!(policy.decide(2, 1.0, 1.0, 1e-5), None);
        assert_eq!(StopReason::BudgetExhausted.to_string(), "budget exhausted");
    }

    #[test]
    fn snapshot_records_streaming_provenance() {
        use bmf_basis::basis::OrthonormalBasis;
        let basis = OrthonormalBasis::linear(2); // 3 terms
        let early = [0.5, 1.0, -0.5];
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
        let mut seq = SequentialBmf::new(&prior, 2.5).unwrap();
        let mut ws = SeqWorkspace::new();
        seq.add_sample(&basis.row(&[0.2, -0.1]), 0.9, &mut ws)
            .unwrap();
        let snap = seq.snapshot("osc.gain", &basis, &mut ws).unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.job_id, "osc.gain");
        assert_eq!(snap.prior_kind, PriorKind::NonZeroMean);
        assert_eq!(snap.hyper, 2.5);
        let direct = seq.coefficients().unwrap();
        for (a, b) in snap.model.coeffs().iter().zip(direct.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Shape mismatch between basis and estimator is rejected.
        let wide = OrthonormalBasis::linear(5);
        assert!(matches!(
            seq.snapshot("osc.gain", &wide, &mut ws),
            Err(BmfError::PriorShape { .. })
        ));
    }
}
