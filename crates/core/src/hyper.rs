//! Hyper-parameter selection by cross-validation (§IV-D).
//!
//! The hyper-parameter (`σ₀²` for the zero-mean prior, `η = σ₀²/λ²` for
//! the nonzero-mean prior) controls how strongly the prior is weighted
//! against the late-stage data. Following the paper, it is chosen from a
//! grid by N-fold cross-validation: hold samples out, fit on the rest,
//! score the held-out predictions by the relative error of eq. 59, and
//! pick the grid value with the smallest error. The paper leaves N open;
//! the fitting engines take N = K, exact leave-one-out, scored as eq. 59
//! over all K held-out predictions, with no fold plan and no seed.
//!
//! Leave-one-out needs no refit. A prior pattern's sample-space system
//! over every row ([`crate::map_estimate::MapSweep`]) profiles the
//! missing-prior columns out with `Q = [Q_Z N]` and reduces the kernel
//! left over, `S = NᵀBN = H T̂ Hᵀ`, once; it is the system the final
//! solve back-projects. With `Π(η) = N(S + ηI)⁻¹Nᵀ = Ψᵀ(T̂ + ηI)⁻¹Ψ`
//! and `Ψ = HᵀNᵀ`, row i's held-out residual is `[Πy]_i / Π_ii`
//! (Allen's PRESS; Rasmussen & Williams 2006, eq. 5.12), `y = f − Gμ`
//! (`f` for zero-mean). The sweep is the kernel and selection phases of
//! the batch engine ([`crate::batch`]); the entry points here run them
//! with one prior pattern on one worker. The work is shared three ways:
//!
//! * each base — for a prior mostly on its floor, one Θ(K²M) floor gram
//!   per set of missing columns; for a dense prior, its own kernel
//!   `B_F` — is built **once**, with its QR of the missing columns, its
//!   congruence `QᵀBQ` and `Nᵀ`;
//! * each pattern's system is reduced to `T̂` **once**, and `Ψ` is formed
//!   once, block of rows by block of rows;
//! * every `(grid, family)` cell is one O(n) LDLᵀ of `T̂ + ηI` — shared by
//!   both families — which gives every `Π_ii`, plus `Πy = Ψᵀx`: O(nK) per
//!   grid value, no cell touches an M-length vector.
//!
//! `T̂ + ηI` is symmetric positive definite for every η > 0, so the
//! cells run outside the degradation ladder. A row is skipped when
//! deleting it leaves `G_Z` rank deficient (one minus its leverage,
//! `1 − ‖Q_Zᵀe_i‖²`, at most `RCOND_FLOOR`), as a refit without it
//! would be unsolvable; a grid value is blanked for both families when
//! `T̂ + ηI` is singular to working precision (a pivot not positive and
//! finite, or a pivot ratio at the ladder's `RCOND_FLOOR`); a family's
//! cell is blanked when its error is not finite.

use bmf_linalg::{LinalgError, Matrix, Vector};

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
    /// Number of folds (the paper's `N`). Validated (at least 2), but
    /// the selection is leave-one-out and does not read it.
    pub folds: usize,
    /// Candidate hyper-parameter values. Must be positive.
    pub grid: Vec<f64>,
    /// Seed of a fold shuffle; leave-one-out has none and does not read
    /// it.
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
    /// The grid value with the lowest leave-one-out error.
    pub best_hyper: f64,
    /// The corresponding leave-one-out error (eq. 59).
    pub best_error: f64,
    /// Leave-one-out error for every solved grid value, in grid order.
    pub errors: Vec<(f64, f64)>,
}

/// Reduces one response's leave-one-out sums into one [`CvOutcome`] per
/// prior family.
///
/// Each item of `blocks` is one block of rows' sums, in block order: the
/// rows held out, `Σf_i²`, then per family and grid value `Σe_i²` over
/// those rows (see `PatternSystem::loo_block`). `solved` marks the grid
/// values whose `T̂ + ηI` factorized; a cell is `sqrt(Σe²) / sqrt(Σf²)`,
/// eq. 59 over every row held out.
///
/// # Errors
///
/// * [`BmfError::NotEnoughSamples`] when no row could be held out, with
///   the `available` samples and the `required` the caller states.
/// * [`BmfError::Linalg`] ([`LinalgError::Unsolvable`]) when some
///   family solved no cell.
pub(crate) fn reduce_outcomes<'a>(
    grid: &[f64],
    num_kinds: usize,
    solved: &[bool],
    (available, required): (usize, usize),
    blocks: impl Iterator<Item = &'a [f64]> + Clone,
) -> Result<Vec<CvOutcome>> {
    let total = |i: usize| {
        blocks
            .clone()
            .fold(0.0, |s, b| s + b.get(i).unwrap_or(&0.0))
    };
    if total(0) < 1.0 {
        return Err(BmfError::NotEnoughSamples {
            available,
            required,
            context: "leave-one-out (no row can be held out)",
        });
    }
    let norm = total(1).sqrt().max(f64::MIN_POSITIVE);
    let mut outcomes = Vec::with_capacity(num_kinds);
    for ki in 0..num_kinds {
        let mut errors = Vec::with_capacity(grid.len());
        let mut best: Option<(f64, f64)> = None;
        for (gi, (&h, &ok)) in grid.iter().zip(solved).enumerate() {
            let err = total(2 + ki * grid.len() + gi).sqrt() / norm;
            if !ok || !err.is_finite() {
                continue;
            }
            errors.push((h, err));
            if best.is_none_or(|(_, e)| err < e) {
                best = Some((h, err));
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

/// Validates the inputs and sweeps `kinds` through the batch engine's
/// kernel and selection phases, with one pattern on one worker.
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
    // The kernel is built from the nonzero-mean view so prior means are
    // cached; zero-mean cells reuse it with the mean dropped (the
    // precisions — and thus the kernel — are identical for both
    // families).
    let prior = prior.with_kind(PriorKind::NonZeroMean);
    let patterns = [(&prior, vec![f])];
    let swept = sweep(g, &patterns, &config.grid, kinds, 1)?;
    let loo = swept.loo.into_iter().next().ok_or(BmfError::Internal {
        detail: "the sweep returned no pattern",
    })??;
    loo.outcomes(0, &config.grid, kinds.len())
}

/// The outcomes of [`cross_validate`], one per family, in `kinds` order.
fn outcomes<const N: usize>(outcomes: Vec<CvOutcome>) -> Result<[CvOutcome; N]> {
    outcomes.try_into().map_err(|_| BmfError::Internal {
        detail: "cross-validation produced fewer outcomes than prior kinds",
    })
}

/// Cross-validates *both* prior families over the grid in one pass,
/// sharing the prior pattern's system, `Ψ` and the per-grid-value
/// factorization of `T̂ + ηI` (which depend only on the prior
/// precisions, identical for the two families).
///
/// Returns `(zero_mean, nonzero_mean)` outcomes: the two families that
/// [`crate::select::select_prior`] cross-validates under
/// [`crate::select::PriorSelection::Auto`] before it keeps the better.
/// Only the projection of the response, its O(n) solve per grid value
/// and the O(nK) `Πy` run once per family, so both cost well under two
/// sweeps.
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
    use crate::map_estimate::MapSweep;
    use crate::options::FitOptions;
    use crate::select::{select_prior, PriorSelection};
    use bmf_basis::basis::OrthonormalBasis;
    use bmf_basis::multi_index::MultiIndex;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::{seeded, Rng};

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
    fn folds_and_seed_are_not_read() {
        let g = design(10, 8, 4);
        let f = Vector::from_fn(10, |i| i as f64);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 8]);
        let cfg = CvConfig::default();
        let a = select_prior(&g, &f, &prior, fixed(&prior), &cfg).unwrap();
        let other = CvConfig {
            folds: 3,
            seed: 99,
            ..cfg
        };
        let b = select_prior(&g, &f, &prior, fixed(&prior), &other).unwrap();
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
    fn no_row_to_hold_out_is_not_enough_samples() {
        let f = Vector::from_fn(5, |i| i as f64);
        let all = |m| Prior::from_coeffs(PriorKind::ZeroMean, &vec![0.0; m]);
        // Five missing columns over five rows leave no row to hold out;
        // six over five cannot be profiled out at all.
        for m in [5, 6] {
            let prior = all(m);
            assert_eq!(prior.num_zero_precision(), m);
            assert!(matches!(
                select_prior(
                    &design(5, m, 6),
                    &f,
                    &prior,
                    fixed(&prior),
                    &CvConfig::default()
                ),
                Err(BmfError::NotEnoughSamples { .. })
            ));
        }
        // Three rows under a prior on every column are enough: each
        // held-out row is predicted from the other two.
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 4]);
        let g = design(3, 4, 6);
        let f = Vector::from(vec![0.5, -1.0, 0.25]);
        assert!(select_prior(&g, &f, &prior, fixed(&prior), &CvConfig::default()).is_ok());
    }

    /// The eq. 59 error of `K` refits, one without each row: per row `i`,
    /// [`MapSweep::from_view`] on the other rows and
    /// [`MapSweep::solve_with_kind`], then row i's prediction error.
    /// Rows whose refit cannot be built (the missing-prior columns of
    /// the other rows rank deficient) are skipped, as are cells whose
    /// refit is refused. Returns per family and grid value the error, and
    /// the rows held out.
    fn refits(
        g: &Matrix,
        f: &Vector,
        prior: &Prior,
        grid: &[f64],
    ) -> (Vec<Vec<Option<f64>>>, usize) {
        let k = g.nrows();
        let kinds = [PriorKind::ZeroMean, PriorKind::NonZeroMean];
        // Built from the nonzero-mean view; zero-mean solves drop the mean.
        let prior = prior.with_kind(PriorKind::NonZeroMean);
        let mut sums = vec![vec![Some(0.0); grid.len()]; 2];
        let (mut f2, mut held) = (0.0, 0);
        for i in 0..k {
            let train: Vec<usize> = (0..k).filter(|&r| r != i).collect();
            let Ok(sweep) = MapSweep::from_view(g.rows_view(&train), &prior) else {
                continue;
            };
            let f_train: Vector = train.iter().map(|&r| f[r]).collect();
            held += 1;
            f2 += f[i] * f[i];
            for (ki, &kind) in kinds.iter().enumerate() {
                for (gi, &h) in grid.iter().enumerate() {
                    let cell = &mut sums[ki][gi];
                    let alpha = sweep.solve_with_kind(&f_train, h, kind);
                    *cell = cell.zip(alpha.ok()).map(|(s, a)| {
                        let pred: f64 = g.row(i).iter().zip(a.iter()).map(|(x, c)| x * c).sum();
                        s + (pred - f[i]) * (pred - f[i])
                    });
                }
            }
        }
        let norm = f2.sqrt().max(f64::MIN_POSITIVE);
        let cells = sums
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|s| s.map(|s| s.sqrt() / norm))
                    .collect()
            })
            .collect();
        (cells, held)
    }

    /// Checks every leave-one-out cell of `cross_validate_both` against
    /// [`refits`], and returns the rows held out and the cells compared
    /// at the 1e-6 tolerance.
    ///
    /// The cells solve the dual (sample-space) system `T̂ + ηI`, whose
    /// condition number is bounded by `κ = 1 + tr(B_F)/η`. Where `κ` is so
    /// large that rounding alone moves the solution by more than 1e-6
    /// (η far below the kernel's scale on a rank-deficient `S`), no 1e-6
    /// agreement is possible from either side, so each cell is held to
    /// `1e-6 + 8ε·κ` relative. A cell may be blank only when
    /// `κ ≥ 0.5/RCOND_FLOOR`: the cells refuse `T̂ + ηI` when its pivot
    /// ratio falls to `RCOND_FLOOR`, which needs `η ≲ RCOND_FLOOR·tr`.
    fn check_against_refits(g: &Matrix, f: &Vector, prior: &Prior, grid: &[f64]) -> (usize, usize) {
        let cfg = CvConfig {
            grid: grid.to_vec(),
            ..CvConfig::default()
        };
        let (zm, nzm) = cross_validate_both(g, f, prior, &cfg).unwrap();
        let (want, held) = refits(g, f, prior, grid);
        let a = prior.precisions(1.0);
        let trace: f64 = (0..g.nrows())
            .flat_map(|i| (0..g.ncols()).map(move |j| (i, j)))
            .filter(|&(_, j)| a[j] > 0.0)
            .map(|(i, j)| g[(i, j)] * g[(i, j)] / a[j])
            .sum();
        let mut compared = 0;
        for (outcome, want) in [zm, nzm].iter().zip(&want) {
            for (&h, want) in grid.iter().zip(want) {
                let kappa = 1.0 + trace / h;
                let rounding = 8.0 * f64::EPSILON * kappa;
                let got = outcome
                    .errors
                    .iter()
                    .find(|&&(x, _)| x == h)
                    .map(|&(_, e)| e);
                let (Some(got), Some(want)) = (got, *want) else {
                    let floor = bmf_linalg::resilience::RCOND_FLOOR;
                    assert!(
                        kappa >= 0.5 / floor,
                        "cell h={h} blank: {got:?} vs {want:?}"
                    );
                    continue;
                };
                assert!(
                    (got - want).abs() <= (1e-6 + rounding) * want.abs(),
                    "cell h={h}: {got} vs refits {want}"
                );
                compared += usize::from(rounding < 1e-6);
            }
        }
        (held, compared)
    }

    /// A random prior over `m` columns: dense (its own kernel) or mostly
    /// on its floor (the floor gram), each with up to two missing columns.
    fn random_prior(rng: &mut Rng, m: usize) -> Prior {
        let floor = rng.gen_bool(0.5);
        let mut early: Vec<Option<f64>> = (0..m)
            .map(|_| {
                let v = rng.gen_range(-1.0..1.0);
                Some(if floor && rng.gen_index(4) > 0 {
                    0.0
                } else {
                    v
                })
            })
            .collect();
        for _ in 0..rng.gen_index(3) {
            let z = rng.gen_index(m);
            early[z] = None;
        }
        Prior::new(PriorKind::ZeroMean, early)
    }

    #[test]
    fn loo_cells_match_refits_without_each_row() {
        // 1e-310 is below every pivot's rounding on duplicated rows, so
        // T̂ + ηI is singular to working precision there.
        let grid = [1e-310, 1e-14, 1e-3, 1.0, 1e3];
        let (mut compared, mut blanked, mut accounted) = (0, 0, 0);
        // Dense priors, floor-gram priors, and those with a missing column.
        let mut kinds = [0usize; 3];
        bmf_stat::prop::check("leave-one-out cells == K refits", 24, |rng| {
            let k = 8 + rng.gen_index(10);
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
            let prior = random_prior(rng, m);
            let terms = crate::map_estimate::PriorTerms::new(g.as_view(), &prior).unwrap();
            kinds[usize::from(terms.uses_floor_gram())] += 1;
            kinds[2] += usize::from(prior.num_zero_precision() > 0);
            let (held, n) = check_against_refits(&g, &f, &prior, &grid);
            assert_eq!(held, k, "a row was skipped");
            compared += n;
            let (zm, nzm) = cross_validate_both(
                &g,
                &f,
                &prior,
                &CvConfig {
                    grid: grid.to_vec(),
                    ..CvConfig::default()
                },
            )
            .unwrap();
            // A failed factorization blanks both families together.
            let blank = |o: &CvOutcome| o.errors.iter().all(|&(h, _)| h != grid[0]);
            assert_eq!(blank(&zm), blank(&nzm));
            blanked += usize::from(duplicated && blank(&zm));

            // The engine's counters for a one-job fit of these inputs:
            // one MAP solve per solved cell plus the final solve, and one
            // system built, a cache miss. `m` linear terms over the rows
            // of `g` evaluate to `g`.
            let basis = OrthonormalBasis::from_terms(m, (0..m).map(MultiIndex::linear).collect());
            let points: Vec<Vec<f64>> = (0..k).map(|i| g.row(i).to_vec()).collect();
            let fit = BmfFitter::new(basis, prior.early_values().to_vec())
                .unwrap()
                .with_options(FitOptions::new().grid(grid.to_vec()))
                .fit(&points, f.as_slice());
            let job = JobRef {
                label: "",
                prior: prior.early_values(),
                values: f.as_slice(),
            };
            let normalized = PreparedJob::new(&job);
            let config = CvConfig {
                grid: grid.to_vec(),
                ..CvConfig::default()
            };
            let (zm, nzm) =
                cross_validate_both(&g, &normalized.f, &normalized.prior, &config).unwrap();
            let solved = zm.errors.len() + nzm.errors.len();
            match fit {
                Ok(fit) => {
                    assert_eq!(fit.counters.map_solves, solved + 1);
                    assert_eq!(fit.counters.kernels_built, 1);
                    assert_eq!(fit.counters.kernel_cache_misses, 1);
                    assert_eq!(fit.counters.kernel_cache_hits, 0);
                    // One final solve, on the rung the report names.
                    let rung = fit.resilience.rung;
                    assert_eq!(fit.counters.degraded_solves, usize::from(rung > 0));
                    assert_eq!(fit.counters.ladder_escalations, rung as usize);
                    assert_eq!(fit.counters.max_ladder_rung, rung);
                    accounted += 1;
                }
                // When the selection picks η = 1e-310, which the cells
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
        });
        assert!(compared > 0, "no cell was compared with the refits");
        assert!(blanked > 0, "no failed factorization was exercised");
        assert!(accounted > 0, "no one-job fit was accounted");
        assert!(
            kinds.iter().all(|&n| n > 0),
            "a prior kind went untested: {kinds:?}"
        );
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
    fn edge_shapes_match_refits() {
        let grid = [1e-3, 1.0, 1e3];
        // |Z| = 11 of 12 rows leaves each refit n = 0, |Z| = 10 leaves
        // n = 1; then no missing column, and no finite-prior column.
        for (m, missing) in [(14, 11), (14, 10), (20, 0), (5, 5)] {
            let (g, f, prior) = edge_problem(m, missing, m as u64);
            let (held, compared) = check_against_refits(&g, &f, &prior, &grid);
            assert_eq!(
                (held, compared),
                (12, 2 * grid.len()),
                "m={m}, missing={missing}"
            );
        }
        // With n = 0 every grid value gives the same (interpolating) fit.
        let (g, f, prior) = edge_problem(14, 11, 14);
        let (zm, nzm) = cross_validate_both(&g, &f, &prior, &CvConfig::default()).unwrap();
        for outcome in [zm, nzm] {
            let e0 = outcome.errors[0].1;
            assert!(outcome
                .errors
                .iter()
                .all(|&(_, e)| (e - e0).abs() <= 1e-9 * e0));
        }
    }

    #[test]
    fn rank_deficient_row_is_skipped() {
        // The missing column is zero everywhere except on row 4, so no
        // refit without row 4 can identify it: that row is skipped, and
        // every other row is held out and matches its refit.
        let (k, m) = (15, 8);
        let mut g = design(k, m, 12);
        for i in (0..k).filter(|&i| i != 4) {
            g[(i, 0)] = 0.0;
        }
        let f = Vector::from_fn(k, |i| (i as f64).cos());
        let mut early: Vec<Option<f64>> = (0..m).map(|j| Some(1.0 / (1.0 + j as f64))).collect();
        early[0] = None;
        let prior = Prior::new(PriorKind::ZeroMean, early);
        let grid = log_grid(1e-2, 1e2, 5);
        let (held, compared) = check_against_refits(&g, &f, &prior, &grid);
        assert_eq!(held, k - 1);
        assert_eq!(compared, 2 * grid.len());
        let patterns = [(&prior.with_kind(PriorKind::NonZeroMean), vec![&f])];
        let swept = sweep(&g, &patterns, &grid, &[PriorKind::ZeroMean], 1).unwrap();
        let loo = swept.loo.into_iter().next().unwrap().unwrap();
        let zm = loo.outcomes(0, &grid, 1).unwrap();
        assert_eq!(zm[0].errors.len(), grid.len());
        assert!(zm[0].errors.iter().all(|(_, e)| e.is_finite()));
    }

    #[test]
    fn unsolvable_grid_is_a_linalg_error() {
        // η = 1e-310 lies below the rounding of the singular T̂ of 12 rows
        // over 6 columns: no cell solves, which is a linear-algebra
        // failure, not a sample shortage.
        let f = Vector::from_fn(12, |i| (i as f64).sin());
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[0.5; 6]);
        let cfg = CvConfig {
            grid: vec![1e-310],
            ..CvConfig::default()
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
        // No row could be held out.
        let none = [0.0, 0.0, 0.0, 0.0];
        assert!(matches!(
            reduce_outcomes(&grid, 1, &[true, true], (12, 13), [&none[..]].into_iter()),
            Err(BmfError::NotEnoughSamples {
                available: 12,
                required: 13,
                ..
            })
        ));
        // Three rows, Σf² = 4; zero-mean Σe² = 1 and 0.25, nonzero-mean
        // not finite.
        let block = [3.0, 4.0, 1.0, 0.25, f64::NAN, f64::INFINITY];
        assert!(matches!(
            reduce_outcomes(&grid, 2, &[true, true], (12, 1), [&block[..]].into_iter()),
            Err(BmfError::Linalg(LinalgError::Unsolvable {
                op: "cross-validation sweep",
                ..
            }))
        ));
        // Two blocks sum in order; an unsolved grid value is blank.
        let half = [1.0, 2.0, 0.5, 0.125];
        let two = [&half[..], &half[..]];
        let out = reduce_outcomes(&grid, 1, &[true, true], (12, 1), two.into_iter()).unwrap();
        assert_eq!(out[0].errors, vec![(1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(out[0].best_hyper, 2.0);
        let out = reduce_outcomes(&grid, 1, &[true, false], (12, 1), two.into_iter()).unwrap();
        assert_eq!(out[0].errors, vec![(1.0, 0.5)]);
    }
}
