//! Prior selection: BMF-PS (§IV-D, §V).
//!
//! Whether the zero-mean or the nonzero-mean prior is better depends on
//! how faithful the early-stage model is — and the paper shows the winner
//! flips between metrics (Tables I vs III) and even between sample counts
//! (Table V). BMF-PS settles it empirically: cross-validate *both* priors
//! over their hyper-parameter grids (exact leave-one-out, see
//! [`crate::hyper`]) and keep the one with the lower estimated error.

use bmf_linalg::{Matrix, Vector};

use crate::hyper::{cross_validate, CvConfig, CvOutcome};
use crate::prior::{Prior, PriorKind};
use crate::{BmfError, Result};

/// How the prior family is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorSelection {
    /// Always use the given family (BMF-ZM / BMF-NZM).
    Fixed(PriorKind),
    /// Cross-validate both families and keep the better (BMF-PS).
    Auto,
}

/// Outcome of prior + hyper-parameter selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// The chosen prior family.
    pub kind: PriorKind,
    /// The chosen hyper-parameter.
    pub hyper: f64,
    /// Cross-validation error of the chosen configuration.
    pub cv_error: f64,
    /// Full CV outcome for the zero-mean prior (when it was evaluated).
    pub zero_mean: Option<CvOutcome>,
    /// Full CV outcome for the nonzero-mean prior (when it was evaluated).
    pub nonzero_mean: Option<CvOutcome>,
}

/// Selects the prior family and hyper-parameter by cross-validation.
///
/// `prior` supplies the early-coefficient values; its own `kind` is
/// ignored when `selection` is [`PriorSelection::Auto`]. With
/// [`PriorSelection::Fixed`] only that family is cross-validated, and the
/// outcome picks its best hyper-parameter.
///
/// # Errors
///
/// * [`BmfError::Config`] for an empty or non-positive grid (`"grid"`),
///   or fewer than 2 folds (`"folds"`, validated though the
///   leave-one-out selection does not read it).
/// * [`BmfError::NotEnoughSamples`] when there are more missing-prior
///   coefficients than samples, or no row can be held out. A row whose
///   deletion leaves the missing-prior columns rank deficient is
///   skipped, not an error.
/// * [`BmfError::Linalg`] when the missing-prior columns are rank
///   deficient over every row, or no cell of some family solved.
pub fn select_prior(
    g: &Matrix,
    f: &Vector,
    prior: &Prior,
    selection: PriorSelection,
    config: &CvConfig,
) -> Result<SelectionOutcome> {
    let outcomes = cross_validate(g, f, prior, config, kinds_for(selection))?;
    decide(selection, outcomes)
}

/// The prior-family list a selection policy cross-validates, in the
/// fixed engine order (zero-mean before nonzero-mean).
pub(crate) fn kinds_for(selection: PriorSelection) -> &'static [PriorKind] {
    match selection {
        PriorSelection::Fixed(PriorKind::ZeroMean) => &[PriorKind::ZeroMean],
        PriorSelection::Fixed(PriorKind::NonZeroMean) => &[PriorKind::NonZeroMean],
        PriorSelection::Auto => &[PriorKind::ZeroMean, PriorKind::NonZeroMean],
    }
}

/// The decision rule of BMF-PS: packs the per-family outcomes (in
/// [`kinds_for`] order) and keeps the family with the lower CV error,
/// zero-mean on a tie.
pub(crate) fn decide(
    selection: PriorSelection,
    outcomes: Vec<CvOutcome>,
) -> Result<SelectionOutcome> {
    let mut outcomes = outcomes.into_iter();
    let (zero_mean, nonzero_mean) = match selection {
        PriorSelection::Fixed(PriorKind::ZeroMean) => (outcomes.next(), None),
        PriorSelection::Fixed(PriorKind::NonZeroMean) => (None, outcomes.next()),
        PriorSelection::Auto => (outcomes.next(), outcomes.next()),
    };
    let (kind, best) = match (&zero_mean, &nonzero_mean) {
        (Some(zm), Some(nzm)) if zm.best_error > nzm.best_error => (PriorKind::NonZeroMean, nzm),
        (Some(zm), _) => (PriorKind::ZeroMean, zm),
        (None, Some(nzm)) => (PriorKind::NonZeroMean, nzm),
        (None, None) => {
            return Err(BmfError::Internal {
                detail: "cross-validation produced fewer outcomes than prior kinds",
            })
        }
    };
    Ok(SelectionOutcome {
        kind,
        hyper: best.best_hyper,
        cv_error: best.best_error,
        zero_mean,
        nonzero_mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    fn design(k: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let mut s = StandardNormal::new();
        Matrix::from_fn(k, m, |_, _| s.sample(&mut rng))
    }

    #[test]
    fn auto_picks_nonzero_mean_for_faithful_prior() {
        // Early coefficients equal the truth -> the sign information of
        // the nonzero-mean prior should win.
        let m = 30;
        let g = design(12, m, 1);
        let truth: Vec<f64> = (0..m).map(|i| 1.5 / (1.0 + i as f64)).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &truth);
        let out = select_prior(&g, &f, &prior, PriorSelection::Auto, &CvConfig::default()).unwrap();
        assert_eq!(out.kind, PriorKind::NonZeroMean);
        assert!(out.zero_mean.is_some() && out.nonzero_mean.is_some());
    }

    #[test]
    fn auto_picks_zero_mean_when_signs_are_wrong() {
        // Early coefficients with flipped signs but right magnitudes: the
        // zero-mean prior (magnitude only) should win.
        let m = 30;
        let g = design(12, m, 2);
        let truth: Vec<f64> = (0..m).map(|i| 1.5 / (1.0 + i as f64)).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        let flipped: Vec<f64> = truth.iter().map(|t| -t).collect();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &flipped);
        let out = select_prior(&g, &f, &prior, PriorSelection::Auto, &CvConfig::default()).unwrap();
        assert_eq!(out.kind, PriorKind::ZeroMean);
    }

    #[test]
    fn fixed_respects_requested_kind() {
        let g = design(10, 8, 3);
        let f = Vector::from_fn(10, |i| i as f64 * 0.1);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[0.5; 8]);
        let out = select_prior(
            &g,
            &f,
            &prior,
            PriorSelection::Fixed(PriorKind::NonZeroMean),
            &CvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.kind, PriorKind::NonZeroMean);
        assert!(out.zero_mean.is_none());
    }

    #[test]
    fn chosen_error_is_min_of_both() {
        let g = design(14, 10, 4);
        let truth: Vec<f64> = (0..10).map(|i| (i as f64).cos()).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &truth);
        let out = select_prior(&g, &f, &prior, PriorSelection::Auto, &CvConfig::default()).unwrap();
        let zm = out.zero_mean.as_ref().unwrap().best_error;
        let nzm = out.nonzero_mean.as_ref().unwrap().best_error;
        assert!((out.cv_error - zm.min(nzm)).abs() < 1e-15);
    }
}
