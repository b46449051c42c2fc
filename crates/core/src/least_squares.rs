//! Classical least-squares fitting (§II-B, eq. 6–9) — the traditional
//! baseline that needs `K > M` samples.

use bmf_basis::basis::OrthonormalBasis;
use bmf_linalg::{Matrix, Vector};

use crate::model::PerformanceModel;
use crate::{BmfError, Result};

/// Fits a performance model by ordinary least squares over the given
/// basis, solving the overdetermined system (eq. 6) via Householder QR.
///
/// # Errors
///
/// * [`BmfError::NotEnoughSamples`] when `K < M` (the system would be
///   underdetermined — use [`crate::omp`] or [`crate::fusion`] instead).
/// * [`BmfError::SampleShape`] when points and values disagree.
/// * [`BmfError::NonFiniteInput`] when a point or value is NaN/±∞.
/// * [`BmfError::Linalg`] when the design matrix is rank deficient.
///
/// # Example
///
/// ```
/// use bmf_basis::basis::OrthonormalBasis;
/// use bmf_core::least_squares::fit_least_squares;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let basis = OrthonormalBasis::linear(1);
/// let points = vec![vec![-1.0], vec![0.0], vec![1.0]];
/// let values = vec![0.0, 1.0, 2.0]; // f(x) = 1 + x
/// let model = fit_least_squares(&basis, &points, &values)?;
/// assert!((model.coeffs()[0] - 1.0).abs() < 1e-12);
/// assert!((model.coeffs()[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fit_least_squares(
    basis: &OrthonormalBasis,
    points: &[Vec<f64>],
    values: &[f64],
) -> Result<PerformanceModel> {
    if points.len() != values.len() {
        return Err(BmfError::SampleShape {
            detail: format!("{} points vs {} values", points.len(), values.len()),
        });
    }
    if points.len() < basis.len() {
        return Err(BmfError::NotEnoughSamples {
            available: points.len(),
            required: basis.len(),
            context: "least-squares fitting",
        });
    }
    crate::screen::points(points, basis.num_vars())?;
    crate::screen::finite_values("response values", values)?;
    let g = basis.design_matrix(points.iter().map(|p| p.as_slice()));
    let f = Vector::from(values);
    let coeffs = g.qr()?.solve_least_squares(&f)?;
    PerformanceModel::new(basis.clone(), coeffs.into_vec())
}

/// Solves the raw least-squares problem on an explicit design matrix,
/// returning the coefficient vector. Used internally by OMP's final
/// refit of the chosen active set.
///
/// # Errors
///
/// Propagates [`BmfError::Linalg`] on rank deficiency,
/// [`BmfError::SampleShape`] on shape mismatch, and
/// [`BmfError::NonFiniteInput`] on NaN/±∞ entries.
pub fn solve_least_squares(g: &Matrix, f: &Vector) -> Result<Vector> {
    if g.nrows() != f.len() {
        return Err(BmfError::SampleShape {
            detail: format!("{} design rows vs {} values", g.nrows(), f.len()),
        });
    }
    crate::screen::finite_matrix("design matrix", g)?;
    crate::screen::finite_values("response values", f.as_slice())?;
    Ok(g.qr()?.solve_least_squares(f)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_linear_truth_exactly() {
        let basis = OrthonormalBasis::linear(2);
        let truth = [2.0, -1.0, 0.5];
        let points: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![-1.0, 2.0],
        ];
        let values: Vec<f64> = points
            .iter()
            .map(|p| truth[0] + truth[1] * p[0] + truth[2] * p[1])
            .collect();
        let m = fit_least_squares(&basis, &points, &values).unwrap();
        for (a, t) in m.coeffs().iter().zip(truth.iter()) {
            assert!((a - t).abs() < 1e-12);
        }
    }

    #[test]
    fn averages_noise_in_overdetermined_regime() {
        let basis = OrthonormalBasis::linear(1);
        // f(x) = x with +-0.1 alternating noise over symmetric points.
        let points: Vec<Vec<f64>> = vec![vec![-1.0], vec![-1.0], vec![1.0], vec![1.0]];
        let values = vec![-1.1, -0.9, 0.9, 1.1];
        let m = fit_least_squares(&basis, &points, &values).unwrap();
        assert!(m.coeffs()[0].abs() < 1e-12);
        assert!((m.coeffs()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn underdetermined_rejected() {
        let basis = OrthonormalBasis::linear(5);
        let points = vec![vec![0.0; 5]; 3];
        let values = vec![0.0; 3];
        assert!(matches!(
            fit_least_squares(&basis, &points, &values),
            Err(BmfError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let basis = OrthonormalBasis::linear(1);
        assert!(matches!(
            fit_least_squares(&basis, &[vec![0.0]], &[1.0, 2.0]),
            Err(BmfError::SampleShape { .. })
        ));
    }
}
