//! Orthogonal matching pursuit (OMP) — the sparse-regression baseline the
//! paper compares against (§II-C, reference \[13\]).
//!
//! OMP greedily selects one basis function per iteration: the column of
//! the design matrix most correlated with the current residual. After each
//! selection the coefficients of the active set are refit by least squares
//! (that is the "orthogonal" part) and the residual is recomputed. The
//! refit grows the active set's Householder QR by the new column instead
//! of refactoring it, with the bits of a fresh factorization. The
//! number of selected terms is chosen by holdout validation: iterate while
//! the validation error keeps improving, then refit the best active set on
//! all samples.

use bmf_basis::basis::OrthonormalBasis;
use bmf_linalg::{
    qr_append_in_place, solve_lower_transpose, view, MatRef, Matrix, Reflectors, Vector,
};
use bmf_stat::rng::seeded;

use crate::least_squares::solve_least_squares;
use crate::model::PerformanceModel;
use crate::{BmfError, Result};

/// OMP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpConfig {
    /// Hard cap on selected terms (`None` ⇒ limited only by the training
    /// sample count).
    pub max_terms: Option<usize>,
    /// Fraction of samples held out to choose the stopping iteration.
    pub validation_fraction: f64,
    /// Stop when the validation error has not improved for this many
    /// consecutive iterations.
    pub patience: usize,
    /// Early exit when the relative training residual drops below this.
    pub min_relative_residual: f64,
    /// Seed for the train/validation shuffle.
    pub seed: u64,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            max_terms: None,
            validation_fraction: 0.25,
            patience: 8,
            min_relative_residual: 1e-10,
            seed: 0,
        }
    }
}

/// Result of an OMP fit.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpFit {
    /// Full-length coefficient vector (zeros outside the active set).
    pub coeffs: Vec<f64>,
    /// Selected term indices, in selection order.
    pub selected: Vec<usize>,
    /// Holdout validation error at the chosen stopping point.
    pub validation_error: f64,
}

/// Runs OMP on an explicit design matrix.
///
/// # Errors
///
/// * [`BmfError::SampleShape`] when `f.len() != g.nrows()`.
/// * [`BmfError::NotEnoughSamples`] when fewer than 4 samples are given
///   (no meaningful train/validation split exists).
/// * [`BmfError::Config`] (parameter `"validation_fraction"`) for a bad
///   validation fraction.
pub fn fit_omp_design(g: &Matrix, f: &Vector, config: &OmpConfig) -> Result<OmpFit> {
    let (k, m) = g.shape();
    if f.len() != k {
        return Err(BmfError::SampleShape {
            detail: format!("{k} design rows vs {} values", f.len()),
        });
    }
    if k < 4 {
        return Err(BmfError::NotEnoughSamples {
            available: k,
            required: 4,
            context: "OMP",
        });
    }
    if !(0.0..0.9).contains(&config.validation_fraction) {
        return Err(BmfError::config(
            "validation_fraction",
            format!("must be in [0, 0.9), got {}", config.validation_fraction),
        ));
    }
    crate::screen::finite_matrix("design matrix", g)?;
    crate::screen::finite_values("response values", f.as_slice())?;

    // Train/validation split.
    let mut order: Vec<usize> = (0..k).collect();
    seeded(config.seed).shuffle(&mut order);
    let n_val = ((k as f64 * config.validation_fraction) as usize).min(k - 2);
    let (val_idx, train_idx) = order.split_at(n_val);
    // A contiguous copy: each step's `Gᵀr` pass streams it faster than a `rows_view`.
    let g_train = select_rows(g, train_idx);
    let kt = train_idx.len();
    let f_train = Vector::from_fn(kt, |i| f[train_idx[i]]);
    let f_val = Vector::from_fn(n_val, |i| f[val_idx[i]]);

    // Column norms over the training rows, for correlation normalization,
    // accumulated row by row (each column's sum keeps its row order).
    let mut col_norms = vec![-0.0; m];
    for i in 0..kt {
        for (s, x) in col_norms.iter_mut().zip(g_train.row(i)) {
            *s += x * x;
        }
    }
    for s in &mut col_norms {
        *s = s.sqrt();
    }

    let cap = config
        .max_terms
        .unwrap_or(usize::MAX)
        .min(kt.saturating_sub(1))
        .min(m)
        .max(1);

    let f_norm = f_train.norm2().max(f64::MIN_POSITIVE);
    let f_val_norm = f_val.norm2().max(f64::MIN_POSITIVE);
    // The active set grows by one column per step: row t of `qrt` is the
    // packed transposed QR's column t (`bmf_linalg::qr_append_in_place`),
    // `qtf` is `Qᵀ f_train` under the reflectors made so far, and rows of
    // `cols`/`cols_val` are the active columns over the training and
    // validation rows. Clones: `qtf` and the residual are overwritten in
    // place, while `f_train` stays for the residual updates.
    let mut qrt = Matrix::zeros(cap, kt);
    let mut tau = vec![0.0; cap];
    let mut qtf = f_train.clone();
    let mut cols = Matrix::zeros(cap, kt);
    let mut cols_val = Matrix::zeros(cap, n_val);
    let mut coef = vec![0.0; cap];
    let mut residual = f_train.clone();
    let mut val_residual = Vector::zeros(n_val);
    let mut corr = vec![0.0; m];
    let mut active: Vec<usize> = Vec::with_capacity(cap);
    let mut in_active = vec![false; m];
    let mut best: Option<(f64, usize)> = None; // (val error, #terms)
    let mut stall = 0usize;

    while active.len() < cap {
        // Most correlated unselected column.
        view::matvec_transpose_into(g_train.as_view(), residual.as_slice(), &mut corr)?;
        let mut best_j = None;
        let mut best_c = 0.0;
        for j in 0..m {
            if in_active[j] || bmf_linalg::is_exact_zero(col_norms[j]) {
                continue;
            }
            let c = (corr[j] / col_norms[j]).abs();
            if c > best_c {
                best_c = c;
                best_j = Some(j);
            }
        }
        let Some(j) = best_j else { break };
        let t = active.len();
        active.push(j);
        in_active[j] = true;

        // Orthogonal refit of the active set: append column j to the
        // factor, bring Qᵀf up to date and back-substitute in Rᵀ.
        for (i, x) in cols.row_mut(t).iter_mut().enumerate() {
            *x = g_train[(i, j)];
        }
        for (x, &r) in cols_val.row_mut(t).iter_mut().zip(val_idx) {
            *x = g[(r, j)];
        }
        qrt.row_mut(t).copy_from_slice(cols.row(t));
        qr_append_in_place(&mut qrt.as_mut_slice()[..(t + 1) * kt], kt, &mut tau[..=t])?;
        Reflectors::new(&qrt, &tau[..=t], 0).apply_one_in_place(
            t,
            qtf.as_mut_slice(),
            &mut [0.0],
        )?;
        let coef = &mut coef[..=t];
        coef.copy_from_slice(&qtf.as_slice()[..=t]);
        if solve_lower_transpose(MatRef::strided(qrt.as_slice(), t + 1, t + 1, kt)?, coef).is_err()
        {
            // Numerically dependent column: drop it and stop growing.
            in_active[j] = false;
            active.pop();
            break;
        }
        residual_into(&cols, coef, &f_train, residual.as_mut_slice());

        // Validation error with the current active set.
        let val_err = if val_idx.is_empty() {
            residual.norm2() / f_norm
        } else {
            residual_into(&cols_val, coef, &f_val, val_residual.as_mut_slice());
            val_residual.norm2() / f_val_norm
        };
        match best {
            Some((e, _)) if val_err >= e => {
                stall += 1;
                if stall >= config.patience {
                    break;
                }
            }
            _ => {
                best = Some((val_err, active.len()));
                stall = 0;
            }
        }
        if residual.norm2() / f_norm < config.min_relative_residual {
            break;
        }
    }

    let (validation_error, n_terms) = best.unwrap_or((f64::INFINITY, active.len().max(1)));
    active.truncate(n_terms);

    // Final refit on ALL samples with the chosen active set.
    let ga_full = g.select_columns(&active);
    let coef = solve_least_squares(&ga_full, f)?;
    let mut coeffs = vec![0.0; m];
    for (idx, &j) in active.iter().enumerate() {
        coeffs[j] = coef[idx];
    }
    Ok(OmpFit {
        coeffs,
        selected: active,
        validation_error,
    })
}

/// `out = y − A c`, where row `j` of `cols` is column `j` of `A` (the
/// first `c.len()` rows are read). `A c` sums each entry's terms in
/// column order from −0.0, the bits of [`Matrix::matvec`] on `A`; the
/// sign of `y − A c` does not change its norm.
fn residual_into(cols: &Matrix, c: &[f64], y: &Vector, out: &mut [f64]) {
    out.fill(-0.0);
    for (j, &cj) in c.iter().enumerate() {
        for (o, x) in out.iter_mut().zip(cols.row(j)) {
            *o += x * cj;
        }
    }
    for (o, &yi) in out.iter_mut().zip(y.as_slice()) {
        *o = yi - *o;
    }
}

/// Runs OMP over a basis and sample points, returning a fitted
/// [`PerformanceModel`].
///
/// # Errors
///
/// Same conditions as [`fit_omp_design`], plus
/// [`BmfError::SampleShape`] when points and values disagree in count.
///
/// # Example
///
/// ```
/// use bmf_basis::basis::OrthonormalBasis;
/// use bmf_core::omp::{fit_omp, OmpConfig};
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// // Sparse truth over 10 variables: only x2 matters.
/// let basis = OrthonormalBasis::linear(10);
/// let points: Vec<Vec<f64>> = (0..30)
///     .map(|i| (0..10).map(|j| (((i * 10 + j) * 37 % 19) as f64 - 9.0) / 9.0).collect())
///     .collect();
/// let values: Vec<f64> = points.iter().map(|p| 5.0 + 3.0 * p[2]).collect();
/// let fit = fit_omp(&basis, &points, &values, &OmpConfig::default())?;
/// assert!((fit.model.predict(&vec![0.0; 10]) - 5.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn fit_omp(
    basis: &OrthonormalBasis,
    points: &[Vec<f64>],
    values: &[f64],
    config: &OmpConfig,
) -> Result<OmpModelFit> {
    if points.len() != values.len() {
        return Err(BmfError::SampleShape {
            detail: format!("{} points vs {} values", points.len(), values.len()),
        });
    }
    crate::screen::points(points, basis.num_vars())?;
    let g = basis.design_matrix(points.iter().map(|p| p.as_slice()));
    let f = Vector::from(values);
    let fit = fit_omp_design(&g, &f, config)?;
    Ok(OmpModelFit {
        model: PerformanceModel::new(basis.clone(), fit.coeffs)?,
        selected: fit.selected,
        validation_error: fit.validation_error,
    })
}

/// An OMP fit packaged as a [`PerformanceModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct OmpModelFit {
    /// The fitted model (coefficients are zero outside the active set).
    pub model: PerformanceModel,
    /// Selected term indices, in selection order.
    pub selected: Vec<usize>,
    /// Holdout validation error at the stopping point.
    pub validation_error: f64,
}

fn select_rows(g: &Matrix, rows: &[usize]) -> Matrix {
    Matrix::from_fn(rows.len(), g.ncols(), |i, j| g[(rows[i], j)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stat::normal::StandardNormal;

    fn random_points(k: usize, r: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded(seed);
        let mut s = StandardNormal::new();
        (0..k).map(|_| s.sample_vec(&mut rng, r)).collect()
    }

    #[test]
    fn recovers_sparse_support() {
        let basis = OrthonormalBasis::linear(40);
        let points = random_points(60, 40, 1);
        // Truth: intercept + terms 5 and 17.
        let values: Vec<f64> = points
            .iter()
            .map(|p| 2.0 + 1.5 * p[4] - 0.8 * p[16])
            .collect();
        let fit = fit_omp(&basis, &points, &values, &OmpConfig::default()).unwrap();
        // Basis term indices: 0 = const, 1 + var.
        assert!(
            fit.selected.contains(&0),
            "intercept missed: {:?}",
            fit.selected
        );
        assert!(fit.selected.contains(&5));
        assert!(fit.selected.contains(&17));
        let c = fit.model.coeffs();
        assert!((c[0] - 2.0).abs() < 0.05);
        assert!((c[5] - 1.5).abs() < 0.05);
        assert!((c[17] + 0.8).abs() < 0.05);
    }

    #[test]
    fn underdetermined_sparse_recovery() {
        // M = 101 coefficients, K = 40 samples: least squares impossible,
        // OMP fine because the truth is 3-sparse.
        let basis = OrthonormalBasis::linear(100);
        let points = random_points(40, 100, 2);
        let values: Vec<f64> = points.iter().map(|p| 1.0 + 2.0 * p[10] + p[50]).collect();
        let fit = fit_omp(&basis, &points, &values, &OmpConfig::default()).unwrap();
        let err = fit
            .model
            .relative_error(points.iter().map(|p| p.as_slice()), &values)
            .unwrap();
        assert!(err < 0.05, "err = {err}");
    }

    #[test]
    fn validation_stopping_prevents_overfitting_noise() {
        let basis = OrthonormalBasis::linear(30);
        let points = random_points(50, 30, 3);
        // Pure truth + deterministic pseudo-noise.
        let values: Vec<f64> = points
            .iter()
            .enumerate()
            .map(|(i, p)| 1.0 + p[0] + 0.05 * ((i as f64 * 2.7).sin()))
            .collect();
        let fit = fit_omp(&basis, &points, &values, &OmpConfig::default()).unwrap();
        // Should select close to the true 2 terms, not dozens of noise
        // terms.
        assert!(
            fit.selected.len() <= 12,
            "selected too many terms: {}",
            fit.selected.len()
        );
    }

    #[test]
    fn max_terms_is_respected() {
        let basis = OrthonormalBasis::linear(20);
        let points = random_points(40, 20, 4);
        let values: Vec<f64> = points.iter().map(|p| p.iter().sum()).collect();
        let cfg = OmpConfig {
            max_terms: Some(3),
            ..OmpConfig::default()
        };
        let fit = fit_omp(&basis, &points, &values, &cfg).unwrap();
        assert!(fit.selected.len() <= 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let basis = OrthonormalBasis::linear(15);
        let points = random_points(30, 15, 5);
        let values: Vec<f64> = points.iter().map(|p| p[1] - p[7]).collect();
        let a = fit_omp(&basis, &points, &values, &OmpConfig::default()).unwrap();
        let b = fit_omp(&basis, &points, &values, &OmpConfig::default()).unwrap();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.model.coeffs(), b.model.coeffs());
    }

    #[test]
    fn too_few_samples_rejected() {
        let basis = OrthonormalBasis::linear(3);
        let points = random_points(3, 3, 6);
        let values = vec![0.0; 3];
        assert!(matches!(
            fit_omp(&basis, &points, &values, &OmpConfig::default()),
            Err(BmfError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn invalid_validation_fraction_rejected() {
        let basis = OrthonormalBasis::linear(3);
        let points = random_points(10, 3, 7);
        let values = vec![0.0; 10];
        let cfg = OmpConfig {
            validation_fraction: 0.95,
            ..OmpConfig::default()
        };
        assert!(matches!(
            fit_omp(&basis, &points, &values, &cfg),
            Err(BmfError::Config { .. })
        ));
    }

    #[test]
    fn error_decreases_with_more_samples() {
        // The classic OMP learning curve (paper Tables I-III, OMP column).
        let basis = OrthonormalBasis::linear(60);
        let truth = |p: &[f64]| 1.0 + 0.9 * p[3] - 0.6 * p[30] + 0.3 * p[45] + 0.1 * p[12];
        let test_points = random_points(200, 60, 999);
        let test_values: Vec<f64> = test_points.iter().map(|p| truth(p)).collect();
        let mut errs = Vec::new();
        for &k in &[30usize, 120] {
            let points = random_points(k, 60, 8);
            let values: Vec<f64> = points.iter().map(|p| truth(p)).collect();
            let fit = fit_omp(&basis, &points, &values, &OmpConfig::default()).unwrap();
            errs.push(
                fit.model
                    .relative_error(test_points.iter().map(|p| p.as_slice()), &test_values)
                    .unwrap(),
            );
        }
        assert!(
            errs[1] <= errs[0] * 1.05 + 1e-12,
            "error should not grow with samples: {errs:?}"
        );
    }
}
