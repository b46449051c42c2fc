//! Coefficient priors built from early-stage models (§III-A, §IV-A/B).
//!
//! BMF encodes the early-stage coefficients `α_E` as a Gaussian prior on
//! the late-stage coefficients `α_L`:
//!
//! * **zero-mean** (eq. 12, 16): `α_L,m ~ N(0, α_E,m²)` — the early
//!   coefficient fixes the *magnitude* scale only;
//! * **nonzero-mean** (eq. 19): `α_L,m ~ N(α_E,m, λ²·α_E,m²)` — sign and
//!   magnitude both carry over.
//!
//! Coefficients with *no* early-stage information (extra post-layout basis
//! functions, §IV-B) get an infinite-variance prior; per eq. 50/52 only
//! `σ⁻¹ = 0` ever enters the math, so they are represented as `None`
//! entries and contribute zero prior precision.
//!
//! [`Prior::mapped`] applies the *prior mapping* of §IV-A: schematic
//! coefficients are spread over multifinger layout terms as
//! `β = α_E/√T_m` (eq. 49) before the prior is formed.

use bmf_basis::expansion::ExpandedBasis;

use crate::{BmfError, Result};

/// Which Gaussian prior family to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorKind {
    /// `α_L,m ~ N(0, α_E,m²)` — magnitude information only (BMF-ZM).
    ZeroMean,
    /// `α_L,m ~ N(α_E,m, λ²α_E,m²)` — sign and magnitude (BMF-NZM).
    NonZeroMean,
}

impl std::fmt::Display for PriorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PriorKind::ZeroMean => write!(f, "zero-mean"),
            PriorKind::NonZeroMean => write!(f, "nonzero-mean"),
        }
    }
}

/// Relative floor applied to tiny early coefficients when forming prior
/// *precisions*: an exactly-zero `α_E,m` would otherwise pin the late
/// coefficient infinitely hard. The floor is `REL_FLOOR · max_m |α_E,m|`
/// — and when that floor itself is degenerate (an all-zero or
/// sub-epsilon prior, where even the floored precision would overflow),
/// every entry routes through the missing-prior zero-precision path of
/// §IV-B instead.
const REL_FLOOR: f64 = 1e-8;

/// A per-coefficient Gaussian prior derived from early-stage coefficients.
///
/// Entries are `Some(α_E,m)` where early knowledge exists and `None` for
/// the missing-prior coefficients of §IV-B.
///
/// # Example
///
/// ```
/// use bmf_core::prior::{Prior, PriorKind};
///
/// // Three known early coefficients, one post-layout-only term.
/// let prior = Prior::new(
///     PriorKind::NonZeroMean,
///     vec![Some(2.0), Some(-0.5), Some(0.1), None],
/// );
/// assert_eq!(prior.len(), 4);
/// assert_eq!(prior.num_missing(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Prior {
    kind: PriorKind,
    early: Vec<Option<f64>>,
}

impl Prior {
    /// Creates a prior from per-coefficient early values (`None` =
    /// missing prior knowledge).
    pub fn new(kind: PriorKind, early: Vec<Option<f64>>) -> Self {
        Prior { kind, early }
    }

    /// Creates a prior where every coefficient has early knowledge.
    pub fn from_coeffs(kind: PriorKind, early: &[f64]) -> Self {
        Prior {
            kind,
            early: early.iter().map(|&a| Some(a)).collect(),
        }
    }

    /// Builds the prior for a multifinger-expanded layout basis (§IV-A):
    /// schematic coefficients are mapped through `β = α_E/√T_m` (eq. 49),
    /// and `extra_missing` additional trailing coefficients (e.g. appended
    /// parasitic terms) are marked as missing.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::PriorShape`] when `schematic_coeffs` does not
    /// match the expansion's schematic term count.
    pub fn mapped(
        kind: PriorKind,
        expansion: &ExpandedBasis,
        schematic_coeffs: &[f64],
        extra_missing: usize,
    ) -> Result<Self> {
        if schematic_coeffs.len() != expansion.num_schematic_terms() {
            return Err(BmfError::PriorShape {
                basis_terms: expansion.num_schematic_terms(),
                prior_entries: schematic_coeffs.len(),
            });
        }
        let beta = expansion.map_coefficients(schematic_coeffs);
        let mut early: Vec<Option<f64>> = beta.into_iter().map(Some).collect();
        early.extend(std::iter::repeat_n(None, extra_missing));
        Ok(Prior { kind, early })
    }

    /// The prior family.
    pub fn kind(&self) -> PriorKind {
        self.kind
    }

    /// Returns a copy with the other prior family (used by prior
    /// selection).
    pub fn with_kind(&self, kind: PriorKind) -> Prior {
        Prior {
            kind,
            early: self.early.clone(),
        }
    }

    /// Number of coefficients covered.
    pub fn len(&self) -> usize {
        self.early.len()
    }

    /// `true` when the prior covers no coefficients.
    pub fn is_empty(&self) -> bool {
        self.early.is_empty()
    }

    /// The per-coefficient early values.
    pub fn early_values(&self) -> &[Option<f64>] {
        &self.early
    }

    /// Number of coefficients with missing prior knowledge (`None`
    /// entries). Degenerate-but-present entries are *not* counted here;
    /// see [`Prior::num_zero_precision`] for the count the solvers use.
    pub fn num_missing(&self) -> usize {
        self.early.iter().filter(|e| e.is_none()).count()
    }

    /// Number of coefficients contributing zero prior precision: missing
    /// entries, plus — when the prior *scale* is degenerate (every early
    /// coefficient zero or sub-epsilon, see [`Prior::floor`]) — all
    /// present entries, which are then routed through the missing-prior
    /// path of §IV-B. This — not [`Prior::num_missing`] — is what the
    /// solvers must compare against the sample budget, since every
    /// zero-precision coefficient has to be identified from data alone.
    pub fn num_zero_precision(&self) -> usize {
        let floor = self.floor();
        (0..self.len())
            .filter(|&m| self.effective_magnitude(m, floor).is_none())
            .count()
    }

    /// Magnitude of entry `m` when it carries usable prior information,
    /// floored at `floor` so an individual tiny coefficient in an
    /// otherwise healthy prior keeps a huge-but-finite precision (the
    /// historical behaviour, bit-identical for every prior with a usable
    /// scale). Returns `None` for missing priors — and for *every* entry
    /// when the scale itself is degenerate (`floor² == 0`: an all-zero
    /// or sub-epsilon prior, whose floored precision would overflow to
    /// infinity); those route through the zero-precision path of §IV-B
    /// so the data, not a meaningless prior, determines the fit.
    fn effective_magnitude(&self, m: usize, floor: f64) -> Option<f64> {
        if bmf_linalg::is_exact_zero(floor * floor) {
            return None;
        }
        self.early[m].map(|a| a.abs().max(floor))
    }

    /// Prior floor `REL_FLOOR · max_m |α_E,m|`; zero exactly when the
    /// prior carries no usable scale (all entries missing, zero, or so
    /// small the floored precision would not be representable).
    fn floor(&self) -> f64 {
        let max = self
            .early
            .iter()
            .flatten()
            .fold(0.0f64, |acc, a| acc.max(a.abs()));
        REL_FLOOR * max
    }

    /// Prior precision diagonal for the unified MAP system
    /// `(diag(precision) + GᵀG)·α = rhs` (see [`crate::map_estimate`]):
    /// entry `m` is `hyper / max(|α_E,m|, floor)²`, or `0` for missing
    /// priors — and for *every* entry when the prior scale is degenerate
    /// (all-zero or sub-epsilon early coefficients), which then route
    /// through the missing-prior path of §IV-B rather than producing an
    /// infinite precision.
    ///
    /// For the zero-mean prior `hyper = σ₀²`; for the nonzero-mean prior
    /// `hyper = η = σ₀²/λ²` (eq. 34).
    ///
    /// # Panics
    ///
    /// Panics when `hyper` is not positive and finite. (All fitting
    /// entry points validate the hyper-parameter before reaching this
    /// accessor.)
    pub fn precisions(&self, hyper: f64) -> Vec<f64> {
        assert!(
            hyper > 0.0 && hyper.is_finite(),
            "hyper-parameter must be positive, got {hyper}"
        );
        let floor = self.floor();
        (0..self.len())
            .map(|m| match self.effective_magnitude(m, floor) {
                Some(a) => hyper / (a * a),
                None => 0.0,
            })
            .collect()
    }

    /// Prior contribution to the MAP right-hand side: zero for the
    /// zero-mean prior, `precision_m · α_E,m` for the nonzero-mean prior
    /// (the `η·A_N·α_E` term of eq. 35); missing priors contribute zero.
    pub fn rhs_contribution(&self, hyper: f64) -> Vec<f64> {
        let precisions = self.precisions(hyper);
        match self.kind {
            PriorKind::ZeroMean => vec![0.0; self.len()],
            PriorKind::NonZeroMean => {
                let floor = self.floor();
                (0..self.len())
                    .map(
                        |m| match (self.early[m], self.effective_magnitude(m, floor)) {
                            (Some(a), Some(_)) => precisions[m] * a,
                            _ => 0.0,
                        },
                    )
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_basis::basis::OrthonormalBasis;
    use bmf_basis::expansion::FingerExpansion;

    #[test]
    fn zero_mean_precision_matches_eq16() {
        // sigma_m = |alpha_E,m|; precision = hyper / sigma_m^2.
        let p = Prior::from_coeffs(PriorKind::ZeroMean, &[2.0, -0.5]);
        let prec = p.precisions(1.0);
        assert!((prec[0] - 0.25).abs() < 1e-12);
        assert!((prec[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hyper_scales_precision_linearly() {
        let p = Prior::from_coeffs(PriorKind::NonZeroMean, &[1.0, 3.0]);
        let a = p.precisions(2.0);
        let b = p.precisions(4.0);
        for (x, y) in a.iter().zip(&b) {
            assert!((y / x - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn missing_prior_has_zero_precision() {
        let p = Prior::new(PriorKind::ZeroMean, vec![Some(1.0), None]);
        let prec = p.precisions(1.0);
        assert_eq!(prec[1], 0.0);
        assert_eq!(p.num_missing(), 1);
    }

    #[test]
    fn zero_early_coefficient_is_floored_not_infinite() {
        // An individual zero entry in an otherwise healthy prior keeps
        // the historical floored (huge but finite) precision — sparse
        // early models must not inflate the zero-precision count past
        // the sample budget.
        let p = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0, 0.0]);
        let prec = p.precisions(1.0);
        assert!(prec[1].is_finite());
        assert!(prec[1] > prec[0]);
        assert_eq!(p.num_missing(), 0);
        assert_eq!(p.num_zero_precision(), 0);
    }

    #[test]
    fn sub_floor_coefficient_is_floored_to_prior_scale() {
        // 1e-12 relative to a max of 1.0 is far below REL_FLOOR = 1e-8:
        // the magnitude is floored at 1e-8, so precision = hyper/1e-16.
        let p = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0, 1e-12]);
        assert!((p.precisions(1.0)[1] - 1e16).abs() / 1e16 < 1e-12);
        assert_eq!(p.num_zero_precision(), 0);
        // At or above the floor the true magnitude is used unchanged.
        let q = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0, 1e-7]);
        assert_eq!(q.num_zero_precision(), 0);
        assert!((q.precisions(1.0)[1] - 1e14).abs() / 1e14 < 1e-12);
    }

    #[test]
    fn all_zero_prior_is_entirely_zero_precision() {
        let p = Prior::from_coeffs(PriorKind::NonZeroMean, &[0.0, 0.0, 0.0]);
        assert_eq!(p.num_zero_precision(), 3);
        assert!(p.precisions(1.0).iter().all(|&d| d == 0.0));
        assert!(p.rhs_contribution(1.0).iter().all(|&r| r == 0.0));
    }

    #[test]
    fn rhs_zero_mean_is_zero() {
        let p = Prior::from_coeffs(PriorKind::ZeroMean, &[2.0, -3.0]);
        assert_eq!(p.rhs_contribution(1.5), vec![0.0, 0.0]);
    }

    #[test]
    fn rhs_nonzero_mean_matches_eq35() {
        // eta * alpha_E / alpha_E^2 = eta / alpha_E.
        let p = Prior::from_coeffs(PriorKind::NonZeroMean, &[2.0, -0.5]);
        let rhs = p.rhs_contribution(3.0);
        assert!((rhs[0] - 3.0 / 2.0).abs() < 1e-12);
        assert!((rhs[1] - 3.0 / -0.5).abs() < 1e-12);
    }

    #[test]
    fn rhs_missing_is_zero() {
        let p = Prior::new(PriorKind::NonZeroMean, vec![Some(1.0), None]);
        let rhs = p.rhs_contribution(1.0);
        assert_eq!(rhs[1], 0.0);
    }

    #[test]
    fn mapped_prior_spreads_coefficients() {
        // Schematic basis {1, x1, x2} with 2 fingers each -> layout basis
        // {1, x11, x12, x21, x22}; alpha = (1, 2, -4).
        let exp = FingerExpansion::new(vec![2, 2]).unwrap();
        let schematic = OrthonormalBasis::linear(2);
        let e = exp.expand_basis(&schematic).unwrap();
        let prior = Prior::mapped(PriorKind::ZeroMean, &e, &[1.0, 2.0, -4.0], 1).unwrap();
        assert_eq!(prior.len(), 6); // 5 mapped + 1 missing
        let vals = prior.early_values();
        assert_eq!(vals[0], Some(1.0));
        let s2 = 2.0f64.sqrt();
        assert!((vals[1].unwrap() - 2.0 / s2).abs() < 1e-12);
        assert!((vals[3].unwrap() + 4.0 / s2).abs() < 1e-12);
        assert_eq!(vals[5], None);
    }

    #[test]
    fn mapped_prior_validates_count() {
        let exp = FingerExpansion::new(vec![2]).unwrap();
        let schematic = OrthonormalBasis::linear(1);
        let e = exp.expand_basis(&schematic).unwrap();
        assert!(Prior::mapped(PriorKind::ZeroMean, &e, &[1.0], 0).is_err());
    }

    #[test]
    fn with_kind_switches_family() {
        let p = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0]);
        let q = p.with_kind(PriorKind::NonZeroMean);
        assert_eq!(q.kind(), PriorKind::NonZeroMean);
        assert_eq!(q.early_values(), p.early_values());
    }

    #[test]
    #[should_panic(expected = "hyper-parameter must be positive")]
    fn non_positive_hyper_rejected() {
        Prior::from_coeffs(PriorKind::ZeroMean, &[1.0]).precisions(0.0);
    }
}
