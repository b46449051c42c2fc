//! K-fold cross-validation index splitting.
//!
//! §IV-D of the paper selects the prior distribution and its
//! hyper-parameter (`σ₀` or `η`) by N-fold cross-validation: the training
//! set is partitioned into N non-overlapping groups, each group serves once
//! as the held-out error-estimation set while the others fit the
//! coefficients, and the N error estimates are averaged. This module
//! provides the seeded, deterministic split.

use crate::rng::seeded;

/// One train/validate split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Indices used to fit the model in this fold.
    pub train: Vec<usize>,
    /// Indices held out to estimate the modeling error.
    pub validate: Vec<usize>,
}

/// A seeded K-fold splitter over `n` sample indices.
///
/// The folds are non-overlapping, cover every index exactly once as
/// validation, and differ in size by at most one element. Shuffling is
/// driven by the seed only, so splits are reproducible.
///
/// # Example
///
/// ```
/// use bmf_stat::crossval::KFold;
/// let kf = KFold::new(10, 5, 42).unwrap();
/// let folds = kf.folds();
/// assert_eq!(folds.len(), 5);
/// for f in &folds {
///     assert_eq!(f.validate.len(), 2);
///     assert_eq!(f.train.len(), 8);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct KFold {
    n: usize,
    k: usize,
    order: Vec<usize>,
}

/// Error constructing a [`KFold`] split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KFoldError {
    /// Fewer than two folds were requested.
    TooFewFolds {
        /// The requested fold count.
        requested: usize,
    },
    /// More folds than samples were requested.
    MoreFoldsThanSamples {
        /// The requested fold count.
        requested: usize,
        /// The available sample count.
        samples: usize,
    },
}

impl std::fmt::Display for KFoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KFoldError::TooFewFolds { requested } => {
                write!(
                    f,
                    "cross-validation needs at least 2 folds, got {requested}"
                )
            }
            KFoldError::MoreFoldsThanSamples { requested, samples } => {
                write!(f, "cannot split {samples} samples into {requested} folds")
            }
        }
    }
}

impl std::error::Error for KFoldError {}

impl KFold {
    /// Creates a splitter over `n` samples with `k` folds shuffled by
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`KFoldError::TooFewFolds`] when `k < 2` and
    /// [`KFoldError::MoreFoldsThanSamples`] when `k > n`.
    pub fn new(n: usize, k: usize, seed: u64) -> Result<Self, KFoldError> {
        if k < 2 {
            return Err(KFoldError::TooFewFolds { requested: k });
        }
        if k > n {
            return Err(KFoldError::MoreFoldsThanSamples {
                requested: k,
                samples: n,
            });
        }
        let mut order: Vec<usize> = (0..n).collect();
        seeded(seed).shuffle(&mut order);
        Ok(KFold { n, k, order })
    }

    /// Returns all K folds.
    pub fn folds(&self) -> Vec<Fold> {
        self.iter().collect()
    }

    /// Lazily iterates over all K folds in order.
    ///
    /// Equivalent to [`folds`](Self::folds) without the intermediate
    /// `Vec<Fold>` — callers that turn each split into richer per-fold
    /// state (materialized sub-matrices, a reusable fold plan) can stream
    /// the splits and keep only their own representation.
    pub fn iter(&self) -> impl Iterator<Item = Fold> + '_ {
        (0..self.k).map(|i| self.fold(i))
    }

    /// Returns fold `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not below the fold count.
    pub fn fold(&self, i: usize) -> Fold {
        assert!(i < self.k, "fold index {i} out of range ({})", self.k);
        // Fold sizes differ by at most 1: the first (n % k) folds get one
        // extra element.
        let base = self.n / self.k;
        let extra = self.n % self.k;
        let start = i * base + i.min(extra);
        let len = base + usize::from(i < extra);
        let validate: Vec<usize> = self.order[start..start + len].to_vec();
        let train: Vec<usize> = self.order[..start]
            .iter()
            .chain(&self.order[start + len..])
            .copied()
            .collect();
        Fold { train, validate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn folds_partition_indices() {
        let kf = KFold::new(23, 5, 7).unwrap();
        let mut seen = HashSet::new();
        for f in kf.folds() {
            for &i in &f.validate {
                assert!(seen.insert(i), "index {i} validated twice");
            }
            // train + validate == all indices
            let union: HashSet<usize> = f.train.iter().chain(&f.validate).copied().collect();
            assert_eq!(union.len(), 23);
        }
        assert_eq!(seen.len(), 23);
    }

    #[test]
    fn fold_sizes_balanced() {
        let kf = KFold::new(10, 3, 1).unwrap();
        let sizes: Vec<usize> = kf.folds().iter().map(|f| f.validate.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KFold::new(12, 4, 99).unwrap().folds();
        let b = KFold::new(12, 4, 99).unwrap().folds();
        assert_eq!(a, b);
        let c = KFold::new(12, 4, 100).unwrap().folds();
        assert_ne!(a, c);
    }

    #[test]
    fn validation_disjoint_from_training() {
        let kf = KFold::new(15, 5, 3).unwrap();
        for f in kf.folds() {
            let t: HashSet<usize> = f.train.iter().copied().collect();
            assert!(f.validate.iter().all(|i| !t.contains(i)));
        }
    }

    #[test]
    fn errors_on_bad_parameters() {
        assert!(matches!(
            KFold::new(10, 1, 0),
            Err(KFoldError::TooFewFolds { .. })
        ));
        assert!(matches!(
            KFold::new(3, 5, 0),
            Err(KFoldError::MoreFoldsThanSamples { .. })
        ));
    }

    #[test]
    fn iter_matches_folds() {
        let kf = KFold::new(17, 4, 5).unwrap();
        let streamed: Vec<Fold> = kf.iter().collect();
        assert_eq!(streamed, kf.folds());
    }

    #[test]
    fn n_equals_k_gives_leave_one_out() {
        let kf = KFold::new(4, 4, 2).unwrap();
        for f in kf.folds() {
            assert_eq!(f.validate.len(), 1);
            assert_eq!(f.train.len(), 3);
        }
    }
}
