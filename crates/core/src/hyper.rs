//! Hyper-parameter selection by N-fold cross-validation (§IV-D).
//!
//! The hyper-parameter (`σ₀²` for the zero-mean prior, `η = σ₀²/λ²` for
//! the nonzero-mean prior) controls how strongly the prior is weighted
//! against the late-stage data. Following the paper, it is chosen from a
//! grid by N-fold cross-validation: split the K training samples into N
//! non-overlapping groups; fit on N−1 groups, estimate the relative error
//! (eq. 59) on the held-out group; average over the N rotations; pick the
//! grid value with the smallest mean error.
//!
//! The sweep is the kernel and sweep phases of the batch engine
//! ([`crate::batch`]); the entry points here run them with one prior
//! pattern on one worker. Three layers of work-sharing keep it cheap:
//!
//! * a `FoldPlan` computes the per-fold row index tables **once**,
//!   reused across every grid point, both prior families, and every job
//!   of a batch fit;
//! * each base — for a prior mostly on its floor, one Θ(K²M) floor gram
//!   per set of missing columns; for a dense prior, its own kernel
//!   `B_F` — and each pattern's K-vector `Gμ` are built **once** over
//!   every row of the design matrix; each entry depends on its rows
//!   alone, so a fold reads its sub-blocks through its row tables;
//! * each `(base, fold)` pair then profiles the fold's missing-prior
//!   columns out once (a Householder QR and a compact-WY congruence of
//!   the base), and each pattern on the base adds its rank-|S| term to
//!   get its sample-space system (see
//!   [`crate::map_estimate::MapSweep`]), reduced to a tridiagonal `T̂`
//!   once. Every `(grid, family)` cell is an O(n) factorization of
//!   `T̂ + ηI` — shared by both families — plus an `n_v × n` product;
//!   no cell touches an M-length vector.
//!
//! `T̂ + ηI` is symmetric positive definite for every η > 0, so the
//! cells run outside the degradation ladder. A fold is skipped (like a
//! fold too small for the missing-prior block) when its `G_Z` is rank
//! deficient; a grid value is blanked for both families when `T̂ + ηI`
//! is singular to working precision (a pivot not positive and finite,
//! or a pivot ratio at the ladder's `RCOND_FLOOR`); a family's cell is
//! blanked when its validation error is not finite.

use bmf_linalg::{LinalgError, Matrix, Vector};
use bmf_stat::crossval::{Fold, KFold};

use crate::batch::sweep;
use crate::options::{validate_folds, validate_grid};
use crate::prior::{Prior, PriorKind};
use crate::{BmfError, Result};

/// Cross-validation configuration.
///
/// This is the cross-validation slice of
/// [`FitOptions`](crate::options::FitOptions); the standalone entry
/// points [`cross_validate_both`] and [`crate::select::select_prior`]
/// take it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct CvConfig {
    /// Number of folds (the paper's `N`).
    pub folds: usize,
    /// Candidate hyper-parameter values. Must be positive.
    pub grid: Vec<f64>,
    /// Seed for the fold shuffle.
    pub seed: u64,
}

impl Default for CvConfig {
    fn default() -> Self {
        CvConfig {
            folds: 5,
            grid: log_grid(1e-4, 1e4, 17),
            seed: 0,
        }
    }
}

/// Builds a logarithmically spaced grid from `lo` to `hi` inclusive.
///
/// # Panics
///
/// Panics when `lo` or `hi` is not positive, or `n < 2`.
///
/// ```
/// let g = bmf_core::hyper::log_grid(0.01, 100.0, 5);
/// assert_eq!(g.len(), 5);
/// assert!((g[2] - 1.0).abs() < 1e-12);
/// ```
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(n >= 2, "need at least two grid points");
    let llo = lo.ln();
    let lhi = hi.ln();
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Outcome of a cross-validation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CvOutcome {
    /// The grid value with the lowest mean validation error.
    pub best_hyper: f64,
    /// The corresponding mean validation error.
    pub best_error: f64,
    /// Mean validation error for every grid value, in grid order.
    pub errors: Vec<(f64, f64)>,
}

/// The per-fold row selections for one `(K, folds, seed)` triple, as
/// indices into the shared design matrix: the fitting engines read `G`
/// (and the pattern kernels) through these tables instead of
/// materializing per-fold copies.
#[derive(Debug, Clone)]
pub(crate) struct FoldPlan {
    pub(crate) folds: Vec<Fold>,
}

impl FoldPlan {
    /// Splits `k` sample rows into `folds` seeded folds.
    pub(crate) fn new(k: usize, folds: usize, seed: u64) -> Result<Self> {
        let kfold = KFold::new(k, folds, seed).map_err(|_| BmfError::NotEnoughSamples {
            available: k,
            required: folds,
            context: "cross-validation folds",
        })?;
        Ok(FoldPlan {
            folds: kfold.folds(),
        })
    }
}

/// Validation errors of one sweep: per response, per prior family, per
/// grid value (`[response][kind][grid]`, flat), `None` where the cell
/// was blanked. A fold skipped as unusable is `None` at the fold level
/// (see [`crate::map_estimate::FoldWork::sweep`]).
pub(crate) type FoldErrors = Vec<Option<f64>>;

/// Reduces per-fold error tables into one [`CvOutcome`] per prior family.
///
/// Each item is one fold's cells for one response (`[kind][grid]`,
/// flat), or `None` for a skipped fold. Accumulation runs fold-major in
/// fold order, so the result is independent of the schedule that
/// produced the tables.
///
/// # Errors
///
/// * [`BmfError::NotEnoughSamples`] when no fold was usable.
/// * [`BmfError::Linalg`] ([`LinalgError::Unsolvable`]) when the usable
///   folds solved no cell of some family.
pub(crate) fn reduce_outcomes<'a, I>(
    grid: &[f64],
    num_kinds: usize,
    fold_errors: I,
    available: usize,
    required: usize,
) -> Result<Vec<CvOutcome>>
where
    I: IntoIterator<Item = Option<&'a [Option<f64>]>>,
{
    let mut sums = vec![0.0f64; num_kinds * grid.len()];
    let mut counts = vec![0usize; num_kinds * grid.len()];
    let mut usable = false;
    for fe in fold_errors.into_iter().flatten() {
        usable = true;
        for ((sum, count), cell) in sums.iter_mut().zip(counts.iter_mut()).zip(fe) {
            if let Some(err) = cell {
                *sum += err;
                *count += 1;
            }
        }
    }
    if !usable {
        return Err(BmfError::NotEnoughSamples {
            available,
            required,
            context: "cross-validation (all folds degenerate)",
        });
    }
    let mut outcomes = Vec::with_capacity(num_kinds);
    for ki in 0..num_kinds {
        let mut errors = Vec::with_capacity(grid.len());
        let mut best: Option<(f64, f64)> = None;
        for (gi, &h) in grid.iter().enumerate() {
            let (sum, count) = (sums[ki * grid.len() + gi], counts[ki * grid.len() + gi]);
            if count == 0 {
                continue;
            }
            let mean = sum / count as f64;
            errors.push((h, mean));
            if best.is_none_or(|(_, e)| mean < e) {
                best = Some((h, mean));
            }
        }
        let (best_hyper, best_error) = best.ok_or(BmfError::Linalg(LinalgError::Unsolvable {
            op: "cross-validation sweep",
            rcond: 0.0,
        }))?;
        outcomes.push(CvOutcome {
            best_hyper,
            best_error,
            errors,
        });
    }
    Ok(outcomes)
}

/// Validates the inputs, plans the folds and sweeps `kinds` through the
/// batch engine's kernel and sweep phases, with one pattern on one
/// worker.
pub(crate) fn cross_validate(
    g: &Matrix,
    f: &Vector,
    prior: &Prior,
    config: &CvConfig,
    kinds: &[PriorKind],
) -> Result<Vec<CvOutcome>> {
    validate_grid(&config.grid)?;
    validate_folds(config.folds)?;
    let k = g.nrows();
    if f.len() != k {
        return Err(BmfError::SampleShape {
            detail: format!("{k} design rows vs {} values", f.len()),
        });
    }
    crate::screen::finite_matrix("design matrix", g)?;
    crate::screen::finite_values("response values", f.as_slice())?;
    crate::screen::finite_prior(prior)?;
    let plan = FoldPlan::new(k, config.folds, config.seed)?;
    // The kernel is built from the nonzero-mean view so prior means are
    // cached; zero-mean cells reuse it with the mean dropped (the
    // precisions — and thus the kernel — are identical for both
    // families).
    let prior = prior.with_kind(PriorKind::NonZeroMean);
    let patterns = [(&prior, vec![f])];
    let swept = sweep(g, &plan, &patterns, &config.grid, kinds, false, 1)?;
    reduce_outcomes(
        &config.grid,
        kinds.len(),
        swept.errors.iter().map(Option::as_deref),
        k,
        plan.folds.len(),
    )
}

/// The outcomes of [`cross_validate`], one per family, in `kinds` order.
fn outcomes<const N: usize>(outcomes: Vec<CvOutcome>) -> Result<[CvOutcome; N]> {
    outcomes.try_into().map_err(|_| BmfError::Internal {
        detail: "cross-validation produced fewer outcomes than prior kinds",
    })
}

/// Cross-validates *both* prior families over the grid in one pass,
/// sharing the per-fold row selections and the expensive Woodbury
/// kernels (which depend only on the prior precisions, identical for the
/// two families).
///
/// Returns `(zero_mean, nonzero_mean)` outcomes: the two families that
/// [`crate::select::select_prior`] cross-validates under
/// [`crate::select::PriorSelection::Auto`] before it keeps the better.
/// The kernel, each fold's sample-space system and the per-`(fold, grid
/// value)` factorization are shared by the two families; only the
/// projection and the O(n·n_v) validation run once per family. It
/// therefore costs one family's sweep plus the second family's cells —
/// well under two sweeps.
///
/// # Errors
///
/// Same conditions as [`crate::select::select_prior`]; the
/// [`BmfError::Linalg`] case applies when either family solved no cell.
pub fn cross_validate_both(
    g: &Matrix,
    f: &Vector,
    prior: &Prior,
    config: &CvConfig,
) -> Result<(CvOutcome, CvOutcome)> {
    let kinds = [PriorKind::ZeroMean, PriorKind::NonZeroMean];
    let [zm, nzm] = outcomes(cross_validate(g, f, prior, config, &kinds)?)?;
    Ok((zm, nzm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{JobRef, PreparedJob};
    use crate::fusion::BmfFitter;
    use crate::map_estimate::{map_estimate_with_report, FoldWork, SolverKind, SweepKernel};
    use crate::options::FitOptions;
    use crate::select::{select_prior, PriorSelection};
    use bmf_basis::basis::OrthonormalBasis;
    use bmf_basis::multi_index::MultiIndex;
    use bmf_linalg::view::matvec_into;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    fn design(k: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let mut s = StandardNormal::new();
        Matrix::from_fn(k, m, |_, _| s.sample(&mut rng))
    }

    /// Cross-validates only the family `prior` carries.
    fn fixed(prior: &Prior) -> PriorSelection {
        PriorSelection::Fixed(prior.kind())
    }

    #[test]
    fn log_grid_endpoints() {
        let g = log_grid(0.1, 10.0, 3);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[1] - 1.0).abs() < 1e-12);
        assert!((g[2] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn accurate_prior_drives_hyper_up() {
        // When the early model equals the truth, CV should prefer a large
        // hyper (trust the prior); when it is garbage, a small one.
        let m = 25;
        let k = 20;
        let g = design(k, m, 1);
        let truth: Vec<f64> = (0..m).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();

        let good = Prior::from_coeffs(PriorKind::NonZeroMean, &truth);
        let cfg = CvConfig {
            folds: 4,
            grid: log_grid(1e-3, 1e3, 13),
            seed: 3,
        };
        let out_good = select_prior(&g, &f, &good, fixed(&good), &cfg).unwrap();

        let garbage: Vec<f64> = truth.iter().map(|t| -t * 3.0 + 0.7).collect();
        let bad = Prior::from_coeffs(PriorKind::NonZeroMean, &garbage);
        let out_bad = select_prior(&g, &f, &bad, fixed(&bad), &cfg).unwrap();

        assert!(
            out_good.hyper > out_bad.hyper,
            "good prior should be trusted more: {} vs {}",
            out_good.hyper,
            out_bad.hyper
        );
        assert!(out_good.cv_error < out_bad.cv_error);
    }

    #[test]
    fn best_is_argmin_of_reported_errors() {
        let m = 10;
        let g = design(12, m, 2);
        let truth: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).sin()).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &truth);
        let out = select_prior(&g, &f, &prior, fixed(&prior), &CvConfig::default()).unwrap();
        let zm = out.zero_mean.unwrap();
        let min = zm
            .errors
            .iter()
            .fold(f64::INFINITY, |acc, &(_, e)| acc.min(e));
        assert!((zm.best_error - min).abs() < 1e-15);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = design(10, 8, 4);
        let f = Vector::from_fn(10, |i| i as f64);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 8]);
        let cfg = CvConfig::default();
        let a = select_prior(&g, &f, &prior, fixed(&prior), &cfg).unwrap();
        let b = select_prior(&g, &f, &prior, fixed(&prior), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation() {
        let g = design(10, 4, 5);
        let f = Vector::zeros(10);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 4]);
        let empty = CvConfig {
            grid: vec![],
            ..CvConfig::default()
        };
        assert!(matches!(
            select_prior(&g, &f, &prior, fixed(&prior), &empty),
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
        let one_fold = CvConfig {
            folds: 1,
            ..CvConfig::default()
        };
        assert!(matches!(
            select_prior(&g, &f, &prior, fixed(&prior), &one_fold),
            Err(BmfError::Config {
                parameter: "folds",
                ..
            })
        ));
        let neg = CvConfig {
            grid: vec![-1.0],
            ..CvConfig::default()
        };
        assert!(matches!(
            select_prior(&g, &f, &prior, fixed(&prior), &neg),
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
    }

    #[test]
    fn both_matches_individual_runs() {
        let m = 14;
        let g = design(16, m, 7);
        let truth: Vec<f64> = (0..m).map(|i| 0.8 / (1.0 + i as f64)).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &truth);
        let cfg = CvConfig {
            folds: 4,
            grid: log_grid(1e-2, 1e2, 7),
            seed: 5,
        };
        let (zm, nzm) = cross_validate_both(&g, &f, &prior, &cfg).unwrap();
        let solo = |kind| select_prior(&g, &f, &prior, PriorSelection::Fixed(kind), &cfg).unwrap();
        let zm_solo = solo(PriorKind::ZeroMean);
        let nzm_solo = solo(PriorKind::NonZeroMean);
        assert_eq!(zm.best_hyper, zm_solo.hyper);
        assert!((zm.best_error - zm_solo.cv_error).abs() < 1e-12);
        assert_eq!(nzm.best_hyper, nzm_solo.hyper);
        assert!((nzm.best_error - nzm_solo.cv_error).abs() < 1e-12);
    }

    #[test]
    fn too_few_samples_for_folds() {
        let g = design(3, 4, 6);
        let f = Vector::zeros(3);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 4]);
        let cfg = CvConfig {
            folds: 5,
            ..CvConfig::default()
        };
        assert!(matches!(
            select_prior(&g, &f, &prior, fixed(&prior), &cfg),
            Err(BmfError::NotEnoughSamples { .. })
        ));
    }

    /// The independent reference for one cell: `map_estimate` with the
    /// direct solver on the fold's gathered training rows, validated on
    /// its validation rows. `None` when the reference failed or left
    /// rung 0 of the degradation ladder.
    fn reference_cell(
        g: &Matrix,
        fold: &Fold,
        f: &Vector,
        prior: &Prior,
        hyper: f64,
        kind: PriorKind,
    ) -> Option<f64> {
        let g_train = g.rows_view(&fold.train).to_matrix();
        let f_train: Vector = fold.train.iter().map(|&i| f[i]).collect();
        let opts = FitOptions::new().hyper(hyper).solver(SolverKind::Direct);
        let (alpha, res) =
            map_estimate_with_report(&g_train, &f_train, &prior.with_kind(kind), &opts).ok()?;
        if res.rung > 0 {
            return None;
        }
        let mut pred = vec![0.0; fold.validate.len()];
        matvec_into(g.rows_view(&fold.validate), alpha.as_slice(), &mut pred).unwrap();
        let (mut s, mut v2) = (0.0, 0.0);
        for (p, &i) in pred.iter().zip(&fold.validate) {
            s += (p - f[i]) * (p - f[i]);
            v2 += f[i] * f[i];
        }
        Some(s.sqrt() / v2.sqrt().max(f64::MIN_POSITIVE))
    }

    /// Sweeps every fold of `plan` on its own and checks each cell
    /// against [`reference_cell`]; returns the per-fold tables and the
    /// number of cells compared at the 1e-6 tolerance.
    ///
    /// The sweep solves the dual (sample-space) system `T̂ + ηI`, whose
    /// condition number is bounded by `κ = 1 + tr(B_F(T,T))/η`; the
    /// reference solves the primal one. Where `κ` is so large that
    /// rounding alone moves the dual solution by more than 1e-6 (η far
    /// below the kernel's scale on a rank-deficient `S`), no 1e-6
    /// agreement is possible from either side, so each cell is held to
    /// `1e-6 + 8ε·κ` relative. A cell may be blank only when
    /// `κ ≥ 0.5/RCOND_FLOOR`: the sweep refuses `T̂ + ηI` when its pivot
    /// ratio falls to `RCOND_FLOOR`, which needs `η ≲ RCOND_FLOOR·tr`.
    fn check_against_reference(
        g: &Matrix,
        plan: &FoldPlan,
        f: &Vector,
        prior: &Prior,
        grid: &[f64],
    ) -> (Vec<Option<FoldErrors>>, usize) {
        let kinds = [PriorKind::ZeroMean, PriorKind::NonZeroMean];
        let kernel =
            SweepKernel::new(g.as_view(), &prior.with_kind(PriorKind::NonZeroMean)).unwrap();
        let a = prior.precisions(1.0);
        let mut work = FoldWork::new(grid, &kinds);
        let mut compared = 0;
        let tables: Vec<Option<FoldErrors>> = plan
            .folds
            .iter()
            .map(|fold| {
                let responses = [f];
                let pattern = std::iter::once((&kernel.terms, &responses[..]));
                let (base, missing) = (&kernel.base, kernel.terms.missing());
                let cells = work.sweep(g, base, missing, pattern, fold);
                let cells = cells.unwrap()?;
                let trace: f64 = fold
                    .train
                    .iter()
                    .flat_map(|&i| (0..g.ncols()).map(move |j| (i, j)))
                    .filter(|&(_, j)| a[j] > 0.0)
                    .map(|(i, j)| g[(i, j)] * g[(i, j)] / a[j])
                    .sum();
                for (ki, &kind) in kinds.iter().enumerate() {
                    for (gi, &h) in grid.iter().enumerate() {
                        let Some(want) = reference_cell(g, fold, f, prior, h, kind) else {
                            continue;
                        };
                        let kappa = 1.0 + trace / h;
                        let rounding = 8.0 * f64::EPSILON * kappa;
                        let Some(got) = cells[ki * grid.len() + gi] else {
                            let floor = bmf_linalg::resilience::RCOND_FLOOR;
                            assert!(kappa >= 0.5 / floor, "cell (h={h}, {kind:?}) blank");
                            continue;
                        };
                        assert!(
                            (got - want).abs() <= (1e-6 + rounding) * want.abs(),
                            "cell (h={h}, {kind:?}): {got} vs reference {want}"
                        );
                        if rounding < 1e-6 {
                            compared += 1;
                        }
                    }
                }
                Some(cells)
            })
            .collect();
        (tables, compared)
    }

    #[test]
    fn sample_space_sweep_matches_direct_map_estimates() {
        // 1e-310 is below every pivot's rounding on duplicated rows, so
        // T̂ + ηI is singular to working precision there.
        let grid = [1e-310, 1e-14, 1e-3, 1.0, 1e3];
        let kinds = [PriorKind::ZeroMean, PriorKind::NonZeroMean];
        let (mut compared, mut blanked, mut accounted) = (0, 0, 0);
        let mut missing_accounted = 0;
        let (mut with_missing, mut without_missing) = (0, 0);
        bmf_stat::prop::check("sample-space sweep == direct solves", 24, |rng| {
            let k = 12 + rng.gen_index(10);
            let m = 6 + rng.gen_index(18);
            let mut g = design(k, m, rng.next_u64());
            let duplicated = rng.gen_bool(0.5);
            if duplicated {
                for i in (1..k).step_by(2) {
                    for j in 0..m {
                        g[(i, j)] = g[(i - 1, j)];
                    }
                }
            }
            let f = Vector::from(bmf_stat::prop::vec_in(rng, -1.0, 1.0, k));
            let mut early: Vec<Option<f64>> = bmf_stat::prop::vec_in(rng, -1.0, 1.0, m)
                .into_iter()
                .map(Some)
                .collect();
            for _ in 0..rng.gen_index(3) {
                let z = rng.gen_index(m);
                early[z] = None;
            }
            let prior = Prior::new(PriorKind::ZeroMean, early);
            if prior.num_zero_precision() > 0 {
                with_missing += 1;
            } else {
                without_missing += 1;
            }
            let cfg = CvConfig {
                folds: 3 + rng.gen_index(2),
                grid: grid.to_vec(),
                seed: rng.next_u64(),
            };
            let (zm, nzm) = cross_validate_both(&g, &f, &prior, &cfg).unwrap();
            let plan = FoldPlan::new(k, cfg.folds, cfg.seed).unwrap();
            let (tables, n) = check_against_reference(&g, &plan, &f, &prior, &grid);
            compared += n;
            let mut sums = [[0.0f64; 5]; 2];
            let mut counts = [[0usize; 5]; 2];
            for cells in tables.iter().flatten() {
                for ki in 0..kinds.len() {
                    for gi in 0..grid.len() {
                        if let Some(err) = cells[ki * grid.len() + gi] {
                            sums[ki][gi] += err;
                            counts[ki][gi] += 1;
                        }
                    }
                }
                // At η = 1e-310 on duplicated rows a failed factorization
                // blanks both families together.
                if duplicated {
                    assert_eq!(cells[0].is_none(), cells[grid.len()].is_none());
                    blanked += usize::from(cells[0].is_none());
                }
            }
            // The engine's counters for a one-job fit of these inputs:
            // one MAP solve per solved cell plus the final solve, and one
            // kernel build, a cache miss, per usable fold. The expected
            // counts come from the engine's own sweep of the normalized
            // job. `m` linear terms over the rows of `g` evaluate to `g`.
            let basis = OrthonormalBasis::from_terms(m, (0..m).map(MultiIndex::linear).collect());
            let points: Vec<Vec<f64>> = (0..k).map(|i| g.row(i).to_vec()).collect();
            let rows = basis.design_matrix(points.iter().map(Vec::as_slice));
            assert_eq!(rows.as_slice(), g.as_slice());
            let fit = BmfFitter::new(basis, prior.early_values().to_vec())
                .unwrap()
                .with_options(
                    FitOptions::new()
                        .folds(cfg.folds)
                        .grid(cfg.grid)
                        .seed(cfg.seed),
                )
                .fit(&points, f.as_slice());
            let job = JobRef {
                label: "",
                prior: prior.early_values(),
                values: f.as_slice(),
            };
            let normalized = PreparedJob::new(&job);
            let patterns = [(&normalized.prior, vec![&normalized.f])];
            let engine = sweep(&g, &plan, &patterns, &grid, &kinds, false, 1);
            let engine = engine.unwrap().errors;
            let usable = engine.iter().flatten().count();
            let solved = engine.iter().flatten().flatten().flatten().count();
            match fit {
                Ok(fit) => {
                    assert_eq!(fit.counters.map_solves, solved + 1);
                    assert_eq!(fit.counters.kernels_built, usable);
                    assert_eq!(fit.counters.kernel_cache_misses, usable);
                    assert_eq!(fit.counters.kernel_cache_hits, 0);
                    // One final solve, on the rung the report names.
                    let rung = fit.resilience.rung;
                    assert_eq!(fit.counters.degraded_solves, usize::from(rung > 0));
                    assert_eq!(fit.counters.ladder_escalations, rung as usize);
                    assert_eq!(fit.counters.max_ladder_rung, rung);
                    accounted += 1;
                    if prior.num_zero_precision() > 0 {
                        missing_accounted += 1;
                    }
                }
                // When CV picks η = 1e-310, which the sample-space cells
                // solve, the Woodbury final solve of a strictly positive
                // prior can overflow: a structured error, with no
                // counters to check. A missing prior's final solve runs
                // in sample space like the cells, on the degradation
                // ladder, so it always fits.
                Err(e) => {
                    assert_eq!(prior.num_zero_precision(), 0, "{e:?}");
                    assert!(matches!(e, BmfError::Linalg(_)), "{e:?}");
                }
            }

            // The public sweep's per-grid means equal the per-fold cells
            // reduced fold-major.
            for (ki, outcome) in [&zm, &nzm].into_iter().enumerate() {
                let want: Vec<(u64, u64)> = grid
                    .iter()
                    .enumerate()
                    .filter(|&(gi, _)| counts[ki][gi] > 0)
                    .map(|(gi, &h)| {
                        let mean = sums[ki][gi] / counts[ki][gi] as f64;
                        (h.to_bits(), mean.to_bits())
                    })
                    .collect();
                let got: Vec<(u64, u64)> = outcome
                    .errors
                    .iter()
                    .map(|&(h, e)| (h.to_bits(), e.to_bits()))
                    .collect();
                assert_eq!(got, want);
            }
        });
        assert!(compared > 0, "no cell was compared with the reference");
        assert!(blanked > 0, "no failed factorization was exercised");
        assert!(accounted > 0, "no one-job fit was accounted");
        assert!(missing_accounted > 0, "no missing-prior fit was accounted");
        assert!(with_missing > 0 && without_missing > 0);
    }

    /// A seeded 12-row problem over `m` columns whose first `missing`
    /// entries lack a prior.
    fn edge_problem(m: usize, missing: usize, seed: u64) -> (Matrix, Vector, Prior) {
        let g = design(12, m, seed);
        let f = Vector::from_fn(12, |i| (i as f64 * 0.7).sin());
        let early = (0..m)
            .map(|j| (j >= missing).then_some(0.5 / (1.0 + j as f64)))
            .collect();
        (g, f, Prior::new(PriorKind::ZeroMean, early))
    }

    #[test]
    fn edge_shapes_match_direct_map_estimates() {
        let grid = [1e-3, 1.0, 1e3];
        // 3 folds of 12 rows train on 8: |Z| = 8 leaves n = 0, |Z| = 7
        // leaves n = 1.
        let plan = FoldPlan::new(12, 3, 5).unwrap();
        assert!(plan.folds.iter().all(|fold| fold.train.len() == 8));
        for (m, missing) in [(14, 8), (14, 7), (20, 0)] {
            let (g, f, prior) = edge_problem(m, missing, m as u64);
            let (tables, compared) = check_against_reference(&g, &plan, &f, &prior, &grid);
            assert!(tables.iter().all(Option::is_some));
            assert_eq!(compared, 3 * 2 * grid.len(), "m={m}, missing={missing}");
        }
        // With n = 0 every grid value gives the same (interpolating) fit.
        let (g, f, prior) = edge_problem(14, 8, 14);
        let (tables, _) = check_against_reference(&g, &plan, &f, &prior, &grid);
        for family in tables
            .iter()
            .flatten()
            .flat_map(|cells| cells.chunks(grid.len()))
        {
            assert!(family.iter().all(|c| *c == family[0]));
        }
        // An all-zero prior has no finite-prior column at all.
        let g = design(12, 5, 9);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[0.0; 5]);
        assert_eq!(prior.num_zero_precision(), 5);
        let f = Vector::from_fn(12, |i| i as f64 - 4.0);
        let (tables, compared) = check_against_reference(&g, &plan, &f, &prior, &grid);
        assert!(tables.iter().all(Option::is_some));
        assert_eq!(compared, 3 * 2 * grid.len());
    }

    #[test]
    fn rank_deficient_fold_is_skipped() {
        // The missing column is zero everywhere except on fold 0's
        // validation rows, so fold 0's training rows cannot identify it.
        let (k, m) = (15, 8);
        let cfg = CvConfig {
            folds: 3,
            grid: log_grid(1e-2, 1e2, 5),
            seed: 11,
        };
        let plan = FoldPlan::new(k, cfg.folds, cfg.seed).unwrap();
        let mut g = design(k, m, 12);
        for i in 0..k {
            if !plan.folds[0].validate.contains(&i) {
                g[(i, 0)] = 0.0;
            }
        }
        let f = Vector::from_fn(k, |i| (i as f64).cos());
        let mut early: Vec<Option<f64>> = (0..m).map(|j| Some(1.0 / (1.0 + j as f64))).collect();
        early[0] = None;
        let prior = Prior::new(PriorKind::ZeroMean, early);
        let (tables, compared) = check_against_reference(&g, &plan, &f, &prior, &cfg.grid);
        assert!(tables[0].is_none());
        assert!(tables[1..].iter().all(Option::is_some));
        assert!(compared > 0);
        let (zm, nzm) = cross_validate_both(&g, &f, &prior, &cfg).unwrap();
        assert_eq!(zm.errors.len(), cfg.grid.len());
        assert_eq!(nzm.errors.len(), cfg.grid.len());
    }

    #[test]
    fn unsolvable_grid_is_a_linalg_error() {
        // Every fold is usable, but η = 1e-310 lies below the rounding of
        // each fold's singular T̂ (6 columns, 8 training rows): no cell
        // solves, which is a linear-algebra failure, not a sample
        // shortage.
        let f = Vector::from_fn(12, |i| (i as f64).sin());
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[0.5; 6]);
        let cfg = CvConfig {
            folds: 3,
            grid: vec![1e-310],
            seed: 1,
        };
        for seed in 0..20 {
            let g = design(12, 6, seed);
            assert!(matches!(
                cross_validate_both(&g, &f, &prior, &cfg),
                Err(BmfError::Linalg(LinalgError::Unsolvable {
                    op: "cross-validation sweep",
                    ..
                }))
            ));
        }
    }

    #[test]
    fn reduce_outcomes_reports_why_nothing_was_solved() {
        let grid = [1.0, 2.0];
        // No usable fold at all.
        let none: Vec<Option<&[Option<f64>]>> = vec![None, None, None];
        assert!(matches!(
            reduce_outcomes(&grid, 2, none, 12, 3),
            Err(BmfError::NotEnoughSamples {
                available: 12,
                required: 3,
                ..
            })
        ));
        // Usable folds whose cells all failed for one family.
        let cells = [Some(0.5), Some(0.25), None, None];
        let usable: Vec<Option<&[Option<f64>]>> = vec![Some(&cells[..]), None, Some(&cells[..])];
        assert!(matches!(
            reduce_outcomes(&grid, 2, usable, 12, 3),
            Err(BmfError::Linalg(LinalgError::Unsolvable {
                op: "cross-validation sweep",
                ..
            }))
        ));
        // The solved family alone reduces fine.
        let one: Vec<Option<&[Option<f64>]>> = vec![Some(&cells[..2]), None];
        let out = reduce_outcomes(&grid, 1, one, 12, 2).unwrap();
        assert_eq!(out[0].errors, vec![(1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(out[0].best_hyper, 2.0);
    }

    #[test]
    fn fold_plan_selects_each_row_once_as_validation() {
        let g = design(13, 4, 8);
        let plan = FoldPlan::new(13, 5, 3).unwrap();
        let mut seen = [false; 13];
        for fold in &plan.folds {
            let g_train = g.rows_view(&fold.train);
            let g_val = g.rows_view(&fold.validate);
            assert_eq!(g_train.nrows(), fold.train.len());
            assert_eq!(g_val.nrows(), fold.validate.len());
            for (i, &row) in fold.validate.iter().enumerate() {
                assert!(!seen[row], "row {row} validated twice");
                seen[row] = true;
                for j in 0..4 {
                    assert_eq!(g_val.get(i, j), g[(row, j)]);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
