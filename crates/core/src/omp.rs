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
//!
//! The correlation pass `Gᵀr` is most of a step, and it is screened: an
//! f32 pass over an f32 copy of the training rows scores every column,
//! and only the columns whose screened score lies within a proven
//! rounding bound of the best get their f64 score, with the sums, order
//! and tie rule of an unscreened pass (the private `Screen`). Every pick, and
//! so every coefficient, keeps its bits; a step whose values leave the
//! screen's range runs the full f64 pass instead.

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
    let kt = train_idx.len();
    let f_train = Vector::from_fn(kt, |i| f[train_idx[i]]);
    let f_val = Vector::from_fn(n_val, |i| f[val_idx[i]]);

    // Column norms over the training rows, for correlation normalization,
    // accumulated row by row (each column's sum keeps its row order), and
    // the screen's f32 copy of the same rows, in the same pass.
    let mut col_norms = vec![-0.0; m];
    let mut screen = Screen::new(kt, m);
    for &row in train_idx {
        let src = g.row(row);
        for (s, x) in col_norms.iter_mut().zip(src) {
            *s += x * x;
        }
        screen = screen.and_then(|s| s.push_row(src));
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
    let mut candidates = Vec::with_capacity(m);
    let mut active: Vec<usize> = Vec::with_capacity(cap);
    let mut in_active = vec![false; m];
    let mut best: Option<(f64, usize)> = None; // (val error, #terms)
    let mut stall = 0usize;

    while active.len() < cap {
        // Most correlated unselected column: the lowest index among the
        // highest scores |corr_j| / ‖g_j‖, and none when every score is 0.
        let eligible = |j: usize| !in_active[j] && bmf_linalg::is_exact_nonzero(col_norms[j]);
        let mut best_j = None;
        let mut best_c = 0.0;
        let mut consider = |j: usize, corr_j: f64| {
            let c = (corr_j / col_norms[j]).abs();
            if c > best_c {
                best_c = c;
                best_j = Some(j);
            }
        };
        let r = residual.as_slice();
        if screen
            .as_mut()
            .is_some_and(|s| s.candidates(r, &col_norms, eligible, &mut candidates))
        {
            for &j in &candidates {
                consider(j, exact_corr(g, train_idx, r, j));
            }
        } else {
            view::matvec_transpose_into(g.rows_view(train_idx), r, &mut corr)?;
            for j in (0..m).filter(|&j| eligible(j)) {
                consider(j, corr[j]);
            }
        }
        let Some(j) = best_j else { break };
        let t = active.len();
        active.push(j);
        in_active[j] = true;

        // Orthogonal refit of the active set: append column j to the
        // factor, bring Qᵀf up to date and back-substitute in Rᵀ.
        for (x, &row) in cols.row_mut(t).iter_mut().zip(train_idx) {
            *x = g[(row, j)];
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

/// Column `j`'s correlation with the residual `r` over the training
/// rows `rows`: the f64 sum in row order from +0.0, skipping exactly-zero
/// residual entries, with the bits of the unscreened pass
/// ([`view::matvec_transpose_into`] on `g.rows_view(rows)`).
fn exact_corr(g: &Matrix, rows: &[usize], r: &[f64], j: usize) -> f64 {
    let mut s = 0.0;
    for (&row, &ri) in rows.iter().zip(r) {
        if bmf_linalg::is_exact_nonzero(ri) {
            s += ri * g[(row, j)];
        }
    }
    s
}

/// Unit roundoffs of f32 and f64 (round to nearest).
const U32: f64 = f32::EPSILON as f64 / 2.0;
const U64: f64 = f64::EPSILON / 2.0;

/// `2^e`, for `-1022 ≤ e ≤ 1023`.
const fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// The screen's window: every nonzero training value, and every nonzero
/// residual entry once scaled by the power of two that brings the
/// largest into `[1, 2)`, lies in `[2⁻⁵⁰, 2⁵⁰]`.
const WINDOW_MIN: f64 = pow2(-50);
const WINDOW_MAX: f64 = pow2(50);
/// The largest residual entry lies in `[2⁻⁹⁰⁰, 2⁹⁰⁰]`, so every f64
/// product of the exact pass is normal and every sum finite.
const TOP_MIN: f64 = pow2(-900);
const TOP_MAX: f64 = pow2(900);

/// `γ_n = n·u / (1 − n·u)` (Higham, *Accuracy and Stability of Numerical
/// Algorithms*, §3.1), infinite once `n·u ≥ 1`.
fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    if nu < 1.0 {
        nu / (1.0 - nu)
    } else {
        f64::INFINITY
    }
}

/// The screen's threshold width for `kt` training rows, relative to the
/// scaled residual's norm (the proof is in [`Screen`]'s docs); infinite,
/// so every column is kept, from `kt = 2²⁴ − 2` on.
fn slack(kt: usize) -> f64 {
    let (a, b) = (gamma(kt + 2, U32), gamma(kt + 4, U64));
    3.0 * (1.0 + b) * (1.0 + b) * (a + b + 4.0 * U64)
}

/// The f32 screen of OMP's correlation pass.
///
/// A step's pick is the eligible column with the highest f64 score
/// `c_j = |corr_j| / n_j` (`corr_j` the f64 sum of [`exact_corr`], `n_j`
/// the f64 column norm), the lowest index on a tie. The screen scales the
/// residual by the power of two `2⁻ᵉ` that brings its largest entry into
/// `[1, 2)` (exact), forms `s = G₃₂ᵀ r₃₂` in f32 and scores
/// `ĉ_j = |s_j| / n_j`. Let `t_j = Σ r'_i g_ij` exactly, with `r' = 2⁻ᵉr`.
/// Inside the window every f32 and f64 product is normal and no sum
/// overflows (`kt·2⁵²` < 2¹²⁸ for any row count), so, over the `kt`
/// training rows (Cauchy–Schwarz, norms exact):
///
/// * the f32 sum, with both factors rounded to f32, each product rounded
///   and `kt − 1` additions in any order, has
///   `|s_j − t_j| ≤ a·Σ|r'_i g_ij| ≤ a·‖r'‖·‖g_j‖`, `a = γ_{kt+2}(2⁻²⁴)`;
/// * the f64 sum has `|2⁻ᵉcorr_j − t_j| ≤ γ_{kt}(2⁻⁵³)·‖r'‖·‖g_j‖`;
/// * `‖g_j‖ ≤ n_j·(1 + γ_{kt+2}(2⁻⁵³))` and likewise for `‖r'‖` against
///   its f64 norm `ρ` (true while `γ_{kt}(2⁻⁵³) ≤ 0.6`, that is below
///   about 3·10¹⁵ rows), and each division rounds once more.
///
/// With `u = 2⁻⁵³` and `b = γ_{kt+4}(2⁻⁵³)` (at least
/// `γ_{kt+2}(2⁻⁵³)` and at least `γ_{kt}(2⁻⁵³) + 4u`), every column has
/// `|ĉ_j − 2⁻ᵉc_j| ≤ B = ((1 + u)·(a + γ_{kt}(2⁻⁵³)) + 2u)·(1 + b)²·ρ`,
/// so the best column `j*` has
/// `ĉ_{j*} ≥ 2⁻ᵉc_{j*} − B ≥ max_j ĉ_j − 2B`. Rounding the threshold
/// `max ĉ − slack·ρ` can raise it by `u·max ĉ ≤ u·(1 + u)·(1 + a)·(1 + b)²·ρ`
/// more. The screen keeps every eligible column with
/// `ĉ_j ≥ max ĉ − slack·ρ`, `slack = 3·(1 + b)²·(a + b + 4u)`: for every
/// finite `a`, each of its coefficients of `a`, of `γ_{kt}(2⁻⁵³)` and of
/// `u` exceeds the matching one of `2B` plus the threshold's rounding by
/// a third or more, which covers the rounding of `slack` and of
/// `slack·ρ`. Once `a` is infinite (`kt ≥ 2²⁴ − 2`) every eligible
/// column is kept. A tie at the top keeps every tied column. The pick is
/// then made among the kept columns, in index order, from their f64
/// scores. A training value outside the window disables the screen for
/// the fit, and a residual outside it sends that step to the full f64
/// pass.
struct Screen {
    /// The training rows in f32, row-major (`kt × m`).
    g: Vec<f32>,
    /// The scaled residual in f32.
    r: Vec<f32>,
    /// The screened correlations `s`.
    s: Vec<f32>,
    /// The screened scores `ĉ`.
    c: Vec<f64>,
    /// Threshold width relative to the scaled residual's norm.
    slack: f64,
}

impl Screen {
    /// An empty screen for `kt` training rows of `m` columns (`None`
    /// when there is no column); [`Screen::push_row`] fills it.
    fn new(kt: usize, m: usize) -> Option<Screen> {
        (m > 0).then(|| Screen {
            g: Vec::with_capacity(kt * m),
            r: vec![0.0; kt],
            s: vec![0.0; m],
            c: vec![0.0; m],
            slack: slack(kt),
        })
    }

    /// Appends a training row in f32, or returns `None` when one of its
    /// nonzero values lies outside the window.
    fn push_row(mut self, row: &[f64]) -> Option<Screen> {
        let in_window = row.iter().fold(true, |ok, &x| {
            let a = x.abs();
            ok & (bmf_linalg::is_exact_zero(x) | (WINDOW_MIN..=WINDOW_MAX).contains(&a))
        });
        in_window.then(|| {
            self.g.extend(row.iter().map(|&x| x as f32));
            self
        })
    }

    /// Fills `out` with the eligible columns, in increasing order, whose
    /// f64 score may be the highest, and returns `true`; returns `false`
    /// when the residual `r` lies outside the window.
    fn candidates(
        &mut self,
        r: &[f64],
        norms: &[f64],
        eligible: impl Fn(usize) -> bool,
        out: &mut Vec<usize>,
    ) -> bool {
        let top = r.iter().fold(0.0, |t: f64, x| t.max(x.abs()));
        if !(TOP_MIN..=TOP_MAX).contains(&top) {
            return false;
        }
        // 2⁻ᵉ for the exponent e of `top` (a normal, positive number).
        let scale = f64::from_bits((2046 - (top.to_bits() >> 52)) << 52);
        let mut sq = 0.0;
        for (d, &x) in self.r.iter_mut().zip(r) {
            let y = x * scale;
            if bmf_linalg::is_exact_nonzero(y) && !(WINDOW_MIN..2.0).contains(&y.abs()) {
                return false;
            }
            sq += y * y;
            *d = y as f32;
        }
        // `s = G₃₂ᵀ r₃₂`, two rows at a time: the bound holds for any
        // order of the additions.
        let m = self.s.len();
        self.s.fill(0.0);
        let mut pairs = self.g.chunks_exact(2 * m);
        let mut r_pairs = self.r.chunks_exact(2);
        for (rows, r2) in (&mut pairs).zip(&mut r_pairs) {
            let (a, b) = rows.split_at(m);
            for ((o, &xa), &xb) in self.s.iter_mut().zip(a).zip(b) {
                *o += r2[0] * xa + r2[1] * xb;
            }
        }
        for (&ri, row) in r_pairs
            .remainder()
            .iter()
            .zip(pairs.remainder().chunks_exact(m))
        {
            for (o, &x) in self.s.iter_mut().zip(row) {
                *o += ri * x;
            }
        }
        let mut best = f64::NEG_INFINITY;
        for (j, (c, &s)) in self.c.iter_mut().zip(&self.s).enumerate() {
            *c = f64::from(s).abs() / norms[j];
            if eligible(j) {
                best = best.max(*c);
            }
        }
        let floor = best - self.slack * sq.sqrt();
        out.clear();
        out.extend((0..m).filter(|&j| eligible(j) && self.c[j] >= floor));
        true
    }
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

    /// At every row count the screen can serve, `slack` is at least 4/3
    /// of what [`Screen`]'s proof needs: twice the bound `B` plus the
    /// threshold's rounding, over the rounding of `slack·ρ`,
    /// `(1 + γ_{kt+2}(u))²·((2 + 3u + u²)·a + 2(1 + u)·γ_{kt}(u) + 5u + u²) / (1 − u)`
    /// with `u = 2⁻⁵³` and `a = γ_{kt+2}(2⁻²⁴)`.
    #[test]
    fn screen_slack_covers_its_bound_at_every_row_count() {
        let u = U64;
        let mut kt = 2usize;
        while kt + 2 < 1 << 24 {
            let a = gamma(kt + 2, U32);
            let norms = (1.0 + gamma(kt + 2, U64)).powi(2);
            let terms =
                (2.0 + 3.0 * u + u * u) * a + 2.0 * (1.0 + u) * gamma(kt, U64) + 5.0 * u + u * u;
            let need = norms * terms / (1.0 - u);
            assert!(
                slack(kt) >= need * 4.0 / 3.0,
                "kt = {kt}: slack {} against {need}",
                slack(kt)
            );
            kt = (kt + kt / 8).max(kt + 1);
        }
        assert!(slack((1 << 24) - 3).is_finite());
        assert_eq!(slack((1 << 24) - 2), f64::INFINITY);
    }
}
