//! Sparse multi-indices for high-dimensional polynomial terms.
//!
//! A multi-index encodes one multivariate basis term
//! `g(x) = Π_r he_{d_r}(x_r)`. At the paper's scale (up to 66 117 variation
//! variables) a dense exponent vector per term is wasteful — nearly all
//! exponents are zero — so [`MultiIndex`] stores only the non-zero
//! `(variable, degree)` pairs, sorted by variable index.

use std::fmt;

/// A sparse multivariate exponent vector.
///
/// Invariants: entries are sorted by variable index, variable indices are
/// unique, and all stored degrees are non-zero. The empty index is the
/// constant term `g(x) = 1`.
///
/// # Example
///
/// ```
/// use bmf_basis::multi_index::MultiIndex;
///
/// let m = MultiIndex::from_pairs(&[(4, 1), (2, 2)]); // he₂(x₂)·he₁(x₄)
/// assert_eq!(m.total_degree(), 3);
/// assert_eq!(m.degree_of(2), 2);
/// assert_eq!(m.degree_of(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MultiIndex {
    /// Sorted `(variable, degree)` pairs with `degree >= 1`.
    pairs: Vec<(usize, u32)>,
}

impl MultiIndex {
    /// The constant term (all exponents zero).
    pub fn constant() -> Self {
        MultiIndex { pairs: Vec::new() }
    }

    /// The linear term `x_var`.
    pub fn linear(var: usize) -> Self {
        MultiIndex {
            pairs: vec![(var, 1)],
        }
    }

    /// Builds a multi-index from `(variable, degree)` pairs.
    ///
    /// Zero degrees are dropped; duplicate variables have their degrees
    /// summed; the result is sorted.
    pub fn from_pairs(pairs: &[(usize, u32)]) -> Self {
        let mut v: Vec<(usize, u32)> = Vec::with_capacity(pairs.len());
        for &(var, deg) in pairs {
            if deg == 0 {
                continue;
            }
            match v.iter_mut().find(|(w, _)| *w == var) {
                Some((_, d)) => *d += deg,
                None => v.push((var, deg)),
            }
        }
        v.sort_unstable();
        MultiIndex { pairs: v }
    }

    /// The non-zero `(variable, degree)` pairs, sorted by variable.
    pub fn pairs(&self) -> &[(usize, u32)] {
        &self.pairs
    }

    /// Sum of all exponents.
    pub fn total_degree(&self) -> u32 {
        self.pairs.iter().map(|&(_, d)| d).sum()
    }

    /// Exponent of `var` (zero when absent).
    pub fn degree_of(&self, var: usize) -> u32 {
        self.pairs
            .iter()
            .find(|&&(w, _)| w == var)
            .map_or(0, |&(_, d)| d)
    }

    /// `true` for the constant term.
    pub fn is_constant(&self) -> bool {
        self.pairs.is_empty()
    }

    /// `true` when every exponent is ≤ 1 (multilinear terms — the only
    /// ones the multifinger expansion of §IV-A supports exactly).
    pub fn is_multilinear(&self) -> bool {
        self.pairs.iter().all(|&(_, d)| d == 1)
    }

    /// Largest variable index referenced, or `None` for the constant term.
    pub fn max_var(&self) -> Option<usize> {
        self.pairs.last().map(|&(v, _)| v)
    }
}

impl fmt::Display for MultiIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pairs.is_empty() {
            return write!(f, "1");
        }
        for (i, &(v, d)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, "*")?;
            }
            if d == 1 {
                write!(f, "x{v}")?;
            } else {
                write!(f, "he{d}(x{v})")?;
            }
        }
        Ok(())
    }
}

/// Enumerates all multi-indices over `num_vars` variables with total degree
/// in `1..=max_degree`, in graded lexicographic order (degree first).
///
/// The count is `C(num_vars + max_degree, max_degree) − 1`, which explodes
/// combinatorially; intended for the small-dimension cases (quickstart
/// examples, differential pair), not the 10⁴-variable circuits.
///
/// # Panics
///
/// Panics when the term count would exceed `limit`.
pub fn graded_indices(num_vars: usize, max_degree: u32, limit: usize) -> Vec<MultiIndex> {
    let mut out = Vec::new();
    for deg in 1..=max_degree {
        let mut current: Vec<(usize, u32)> = Vec::new();
        emit_degree(num_vars, deg, 0, &mut current, &mut out, limit);
    }
    out
}

fn emit_degree(
    num_vars: usize,
    remaining: u32,
    start_var: usize,
    current: &mut Vec<(usize, u32)>,
    out: &mut Vec<MultiIndex>,
    limit: usize,
) {
    if remaining == 0 {
        assert!(
            out.len() < limit,
            "graded basis exceeds the {limit}-term limit"
        );
        out.push(MultiIndex {
            pairs: current.clone(),
        });
        return;
    }
    for var in start_var..num_vars {
        for d in (1..=remaining).rev() {
            current.push((var, d));
            emit_degree(num_vars, remaining - d, var + 1, current, out, limit);
            current.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_properties() {
        let c = MultiIndex::constant();
        assert!(c.is_constant());
        assert_eq!(c.total_degree(), 0);
        assert_eq!(c.max_var(), None);
        assert_eq!(format!("{c}"), "1");
    }

    #[test]
    fn from_pairs_normalizes() {
        let a = MultiIndex::from_pairs(&[(3, 1), (1, 2), (3, 1), (5, 0)]);
        assert_eq!(a.pairs(), &[(1, 2), (3, 2)]);
        assert_eq!(a.total_degree(), 4);
    }

    #[test]
    fn linear_index() {
        let l = MultiIndex::linear(7);
        assert_eq!(l.degree_of(7), 1);
        assert!(l.is_multilinear());
        assert_eq!(l.max_var(), Some(7));
        assert_eq!(format!("{l}"), "x7");
    }

    #[test]
    fn multilinear_detection() {
        assert!(MultiIndex::from_pairs(&[(0, 1), (4, 1)]).is_multilinear());
        assert!(!MultiIndex::from_pairs(&[(0, 2)]).is_multilinear());
        assert!(MultiIndex::constant().is_multilinear());
    }

    #[test]
    fn graded_count_matches_binomial() {
        // C(3 + 2, 2) - 1 = 9 terms of degree 1..=2 over 3 vars.
        let idx = graded_indices(3, 2, 1000);
        assert_eq!(idx.len(), 9);
        // Degree-1 terms come first.
        assert!(idx[..3].iter().all(|m| m.total_degree() == 1));
        assert!(idx[3..].iter().all(|m| m.total_degree() == 2));
        // All distinct.
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn graded_degree3_count() {
        // C(2 + 3, 3) - 1 = 9 over 2 vars up to degree 3.
        assert_eq!(graded_indices(2, 3, 1000).len(), 9);
    }

    #[test]
    #[should_panic(expected = "limit")]
    fn graded_respects_limit() {
        graded_indices(20, 3, 10);
    }

    #[test]
    fn display_formats() {
        let m = MultiIndex::from_pairs(&[(0, 1), (3, 2)]);
        assert_eq!(format!("{m}"), "x0*he2(x3)");
    }
}
