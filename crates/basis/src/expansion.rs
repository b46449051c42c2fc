//! Multifinger basis expansion (§IV-A of the paper).
//!
//! At the schematic stage a device's mismatch is lumped into one variation
//! variable `x_r`. After layout extraction each of the device's `W_r`
//! fingers carries its own independent variable `x_{r,1} … x_{r,W_r}`, so
//! every schematic basis term maps to a *set* of layout basis terms
//! (eq. 39–43). The expansion here produces that layout basis together with
//! the group structure `m → {(m,t)}` that prior mapping needs to spread the
//! schematic coefficient `α_{E,m}` over the group as `β = α_{E,m}/√T_m`
//! (eq. 46–49).
//!
//! The collapse direction is also provided: a layout sample collapses to
//! its schematic equivalent via `x_r = Σ_t x_{r,t}/√W_r`, which is again
//! standard normal — this is how the circuit substrate keeps the two stages
//! physically consistent.

use std::fmt;

use crate::basis::OrthonormalBasis;
use crate::multi_index::MultiIndex;

/// Describes how each schematic variable splits into layout finger
/// variables.
///
/// # Example
///
/// ```
/// use bmf_basis::expansion::FingerExpansion;
///
/// // Two devices, two fingers each (the paper's eq. 37 example).
/// let exp = FingerExpansion::new(vec![2, 2]).unwrap();
/// assert_eq!(exp.num_layout_vars(), 4);
/// assert_eq!(exp.layout_var(1, 0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerExpansion {
    fingers: Vec<usize>,
    offsets: Vec<usize>,
    total: usize,
}

/// Errors from constructing or applying a [`FingerExpansion`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExpansionError {
    /// A finger count of zero was supplied.
    ZeroFingers {
        /// The schematic variable with zero fingers.
        var: usize,
    },
    /// A basis term is not multilinear; the variance-preserving expansion
    /// of §IV-A is only exact for terms with per-variable degree ≤ 1.
    NotMultilinear {
        /// Index of the offending term in the schematic basis.
        term: usize,
    },
    /// The basis dimension does not match the expansion.
    DimensionMismatch {
        /// Schematic variables the expansion covers.
        expansion_vars: usize,
        /// Variables the basis is defined over.
        basis_vars: usize,
    },
}

impl fmt::Display for ExpansionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpansionError::ZeroFingers { var } => {
                write!(f, "schematic variable {var} has zero fingers")
            }
            ExpansionError::NotMultilinear { term } => write!(
                f,
                "basis term {term} is not multilinear; finger expansion is only exact for per-variable degree <= 1"
            ),
            ExpansionError::DimensionMismatch {
                expansion_vars,
                basis_vars,
            } => write!(
                f,
                "expansion covers {expansion_vars} schematic variables but the basis has {basis_vars}"
            ),
        }
    }
}

impl std::error::Error for ExpansionError {}

impl FingerExpansion {
    /// Creates an expansion where schematic variable `r` splits into
    /// `fingers[r]` layout variables.
    ///
    /// # Errors
    ///
    /// Returns [`ExpansionError::ZeroFingers`] when any count is zero.
    pub fn new(fingers: Vec<usize>) -> Result<Self, ExpansionError> {
        if let Some(var) = fingers.iter().position(|&w| w == 0) {
            return Err(ExpansionError::ZeroFingers { var });
        }
        let mut offsets = Vec::with_capacity(fingers.len());
        let mut total = 0;
        for &w in &fingers {
            offsets.push(total);
            total += w;
        }
        Ok(FingerExpansion {
            fingers,
            offsets,
            total,
        })
    }

    /// Number of schematic variables.
    pub fn num_schematic_vars(&self) -> usize {
        self.fingers.len()
    }

    /// Total number of layout variables `Σ_r W_r`.
    pub fn num_layout_vars(&self) -> usize {
        self.total
    }

    /// Finger count `W_r` of schematic variable `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn finger_count(&self, r: usize) -> usize {
        self.fingers[r]
    }

    /// Layout variable index of finger `t` of schematic variable `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` or `t` is out of range.
    pub fn layout_var(&self, r: usize, t: usize) -> usize {
        assert!(t < self.fingers[r], "finger {t} out of range for var {r}");
        self.offsets[r] + t
    }

    /// Collapses a layout sample to its schematic equivalent:
    /// `x_r = Σ_t x_{r,t} / √W_r`.
    ///
    /// If the layout variables are iid standard normal, so is the result —
    /// the lumped schematic variable *is* this normalized sum, which is
    /// what makes schematic-level and post-layout simulations of the same
    /// device physically consistent.
    ///
    /// # Panics
    ///
    /// Panics when `layout_x.len() != self.num_layout_vars()`.
    pub fn collapse_point(&self, layout_x: &[f64]) -> Vec<f64> {
        assert_eq!(layout_x.len(), self.total, "layout point dimension");
        self.fingers
            .iter()
            .zip(&self.offsets)
            .map(|(&w, &off)| layout_x[off..off + w].iter().sum::<f64>() / (w as f64).sqrt())
            .collect()
    }

    /// Expands a schematic basis into the layout basis plus group
    /// structure.
    ///
    /// Each multilinear schematic term `Π_{r∈S} x_r` becomes the
    /// `T_m = Π_{r∈S} W_r` layout terms `Π_{r∈S} x_{r,t_r}`; the constant
    /// maps to the constant.
    ///
    /// # Errors
    ///
    /// * [`ExpansionError::DimensionMismatch`] when the basis variable
    ///   count differs from the expansion's.
    /// * [`ExpansionError::NotMultilinear`] when a term has a squared (or
    ///   higher) factor.
    pub fn expand_basis(
        &self,
        schematic: &OrthonormalBasis,
    ) -> Result<ExpandedBasis, ExpansionError> {
        if schematic.num_vars() != self.num_schematic_vars() {
            return Err(ExpansionError::DimensionMismatch {
                expansion_vars: self.num_schematic_vars(),
                basis_vars: schematic.num_vars(),
            });
        }
        let mut layout_terms: Vec<MultiIndex> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(schematic.len());
        for (m, term) in schematic.terms().iter().enumerate() {
            if !term.is_multilinear() {
                return Err(ExpansionError::NotMultilinear { term: m });
            }
            let vars: Vec<usize> = term.pairs().iter().map(|&(v, _)| v).collect();
            let mut group = Vec::new();
            // Enumerate the cartesian product of finger choices.
            let mut choice = vec![0usize; vars.len()];
            loop {
                let pairs: Vec<(usize, u32)> = vars
                    .iter()
                    .zip(&choice)
                    .map(|(&r, &t)| (self.layout_var(r, t), 1))
                    .collect();
                group.push(layout_terms.len());
                layout_terms.push(MultiIndex::from_pairs(&pairs));
                // Advance the mixed-radix counter.
                let mut i = 0;
                loop {
                    if i == vars.len() {
                        break;
                    }
                    choice[i] += 1;
                    if choice[i] < self.fingers[vars[i]] {
                        break;
                    }
                    choice[i] = 0;
                    i += 1;
                }
                if i == vars.len() {
                    break;
                }
            }
            groups.push(group);
        }
        Ok(ExpandedBasis {
            basis: OrthonormalBasis::from_terms(self.total, layout_terms),
            groups,
        })
    }
}

/// A layout basis produced by [`FingerExpansion::expand_basis`], retaining
/// which layout terms each schematic term expanded into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandedBasis {
    basis: OrthonormalBasis,
    groups: Vec<Vec<usize>>,
}

impl ExpandedBasis {
    /// The layout basis (over `Σ W_r` variables).
    pub fn basis(&self) -> &OrthonormalBasis {
        &self.basis
    }

    /// Layout-term indices that schematic term `m` expanded into.
    ///
    /// # Panics
    ///
    /// Panics when `m` is out of range.
    pub fn group(&self, m: usize) -> &[usize] {
        &self.groups[m]
    }

    /// Number of schematic terms.
    pub fn num_schematic_terms(&self) -> usize {
        self.groups.len()
    }

    /// Spreads schematic coefficients over the layout terms per the prior
    /// mapping rule `β_{m,t} = α_{E,m} / √T_m` (eq. 49), returning one
    /// coefficient per layout term.
    ///
    /// # Panics
    ///
    /// Panics when `schematic_coeffs.len() != self.num_schematic_terms()`.
    pub fn map_coefficients(&self, schematic_coeffs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.basis.len()];
        self.map_coefficients_into(schematic_coeffs, &mut out);
        out
    }

    /// [`Self::map_coefficients`] into a caller-owned buffer (fully
    /// overwritten), for callers that re-map coefficients in a loop.
    ///
    /// # Panics
    ///
    /// Panics when `schematic_coeffs.len() != self.num_schematic_terms()`
    /// or `out.len() != self.basis().len()`.
    pub fn map_coefficients_into(&self, schematic_coeffs: &[f64], out: &mut [f64]) {
        assert_eq!(
            schematic_coeffs.len(),
            self.groups.len(),
            "coefficient count mismatch"
        );
        assert_eq!(out.len(), self.basis.len(), "output length mismatch");
        out.fill(0.0);
        for (m, group) in self.groups.iter().enumerate() {
            let beta = schematic_coeffs[m] / (group.len() as f64).sqrt();
            for &t in group {
                out[t] = beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    #[test]
    fn paper_eq37_example() {
        // Two input transistors, two fingers each; schematic model has
        // terms {1, x1, x2}. Layout model should have {1, x11, x12, x21,
        // x22} with groups {0}->{0}, {1}->{1,2}, {2}->{3,4}.
        let exp = FingerExpansion::new(vec![2, 2]).unwrap();
        let schematic = OrthonormalBasis::linear(2);
        let e = exp.expand_basis(&schematic).unwrap();
        assert_eq!(e.basis().len(), 5);
        assert_eq!(e.group(0), &[0]);
        assert_eq!(e.group(1), &[1, 2]);
        assert_eq!(e.group(2), &[3, 4]);
        assert!(e.basis().term(0).is_constant());
        assert_eq!(format!("{}", e.basis().term(1)), "x0");
        assert_eq!(format!("{}", e.basis().term(4)), "x3");
    }

    #[test]
    fn coefficient_mapping_preserves_variance() {
        // alpha_E^2 == sum_t beta^2 (eq. 46).
        let exp = FingerExpansion::new(vec![3, 2]).unwrap();
        let schematic = OrthonormalBasis::linear(2);
        let e = exp.expand_basis(&schematic).unwrap();
        let alpha = [7.0, 2.0, -3.0];
        let beta = e.map_coefficients(&alpha);
        for (m, group) in (0..3).map(|m| (m, e.group(m))) {
            let sum_sq: f64 = group.iter().map(|&t| beta[t] * beta[t]).sum();
            assert!(
                (sum_sq - alpha[m] * alpha[m]).abs() < 1e-12,
                "variance not preserved for term {m}"
            );
        }
    }

    #[test]
    fn collapse_point_is_standard_normal() {
        let exp = FingerExpansion::new(vec![4, 1]).unwrap();
        let mut rng = seeded(11);
        let mut s = StandardNormal::new();
        let n = 50_000;
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        for _ in 0..n {
            let layout = s.sample_vec(&mut rng, 5);
            let sch = exp.collapse_point(&layout);
            assert_eq!(sch.len(), 2);
            acc += sch[0];
            acc2 += sch[0] * sch[0];
        }
        let mean = acc / n as f64;
        let var = acc2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.03);
    }

    #[test]
    fn collapse_is_consistent_with_mapping() {
        // A schematic-linear model evaluated on the collapsed point equals
        // the mapped layout model evaluated on the layout point.
        let exp = FingerExpansion::new(vec![2, 3]).unwrap();
        let schematic = OrthonormalBasis::linear(2);
        let e = exp.expand_basis(&schematic).unwrap();
        let alpha = [1.0, 2.0, -0.5];
        let beta = e.map_coefficients(&alpha);
        let layout_x = [0.3, -0.7, 1.1, 0.2, -0.4];
        let sch_x = exp.collapse_point(&layout_x);
        let f_sch = schematic.evaluate_model(&alpha, &sch_x);
        let f_lay = e.basis().evaluate_model(&beta, &layout_x);
        assert!((f_sch - f_lay).abs() < 1e-12);
    }

    #[test]
    fn cross_term_expansion_size() {
        // Term x0*x1 with W = (2, 3) expands into 6 layout terms.
        let exp = FingerExpansion::new(vec![2, 3]).unwrap();
        let term = MultiIndex::from_pairs(&[(0, 1), (1, 1)]);
        let schematic = OrthonormalBasis::from_terms(2, vec![term]);
        let e = exp.expand_basis(&schematic).unwrap();
        assert_eq!(e.basis().len(), 6);
        assert_eq!(e.group(0).len(), 6);
        // All expanded terms are distinct products of one finger from each.
        let set: std::collections::HashSet<_> = e.basis().terms().iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn non_multilinear_rejected() {
        let exp = FingerExpansion::new(vec![2]).unwrap();
        let term = MultiIndex::from_pairs(&[(0, 2)]);
        let schematic = OrthonormalBasis::from_terms(1, vec![term]);
        assert_eq!(
            exp.expand_basis(&schematic),
            Err(ExpansionError::NotMultilinear { term: 0 })
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let exp = FingerExpansion::new(vec![2, 2]).unwrap();
        let schematic = OrthonormalBasis::linear(3);
        assert!(matches!(
            exp.expand_basis(&schematic),
            Err(ExpansionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_fingers_rejected() {
        assert_eq!(
            FingerExpansion::new(vec![1, 0]),
            Err(ExpansionError::ZeroFingers { var: 1 })
        );
    }

    #[test]
    fn single_finger_expansion_is_identity_shaped() {
        let exp = FingerExpansion::new(vec![1; 3]).unwrap();
        let schematic = OrthonormalBasis::linear(3);
        let e = exp.expand_basis(&schematic).unwrap();
        assert_eq!(e.basis().len(), schematic.len());
        let alpha = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(e.map_coefficients(&alpha), alpha.to_vec());
    }
}
