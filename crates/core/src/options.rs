//! Unified fitting configuration: [`FitOptions`].
//!
//! Every fitting entry point — [`BmfFitter`](crate::fusion::BmfFitter),
//! [`BatchFitter`](crate::batch::BatchFitter), and
//! [`map_estimate`](crate::map_estimate::map_estimate) — is configured by
//! one value of this type, so a tuned configuration can be carried from a
//! single exploratory fit to a 64-job production batch unchanged.
//!
//! The struct exposes public fields for struct-update syntax *and*
//! chainable setters for builder-style call sites:
//!
//! ```
//! use bmf_core::options::FitOptions;
//! use bmf_core::map_estimate::SolverKind;
//!
//! let opts = FitOptions::new()
//!     .threads(2)
//!     .solver(SolverKind::Direct);
//! assert_eq!(opts.threads, 2);
//! ```

use crate::hyper::{log_grid, CvConfig};
use crate::map_estimate::SolverKind;
use crate::select::PriorSelection;
use crate::{BmfError, Result};

/// Environment variable consulted when [`FitOptions::threads`] is `0`
/// (auto): set `BMF_THREADS=<n>` to pin the worker count for a whole test
/// or CI run without touching code. The fallback lives with the pool it
/// sizes ([`bmf_stat::pool::default_threads`]).
pub use bmf_stat::pool::THREADS_ENV;

/// Unified configuration for every fitting entry point.
///
/// Defaults reproduce the paper's setup: cross-validation (exact
/// leave-one-out, the paper's N-fold rule at N = K) over a 17-point
/// logarithmic hyper-parameter grid, automatic prior selection (BMF-PS),
/// the fast Woodbury solver, and one worker thread per available core
/// for batch fits.
#[derive(Debug, Clone, PartialEq)]
pub struct FitOptions {
    /// Prior-family policy (default [`PriorSelection::Auto`], i.e.
    /// BMF-PS).
    pub selection: PriorSelection,
    /// MAP solver (default [`SolverKind::Fast`]).
    pub solver: SolverKind,
    /// Cross-validation fold count (the paper's `N`; default 5). Kept,
    /// validated and persisted, but the leave-one-out selection does not
    /// read it.
    pub folds: usize,
    /// Candidate hyper-parameter values; must be positive and finite.
    pub grid: Vec<f64>,
    /// Seed of a cross-validation fold shuffle. Kept and persisted, but
    /// leave-one-out has no shuffle and does not read it.
    pub seed: u64,
    /// Worker threads of the batch engine
    /// ([`BatchFitter`](crate::batch::BatchFitter) and the service's
    /// runs). `0` (the default) resolves to the `BMF_THREADS`
    /// environment variable if set, otherwise to
    /// [`std::thread::available_parallelism`]. Results are bit-identical
    /// for every thread count. [`BmfFitter::fit`](crate::fusion::BmfFitter::fit)
    /// always runs on one worker.
    pub threads: usize,
    /// Fixed hyper-parameter used by
    /// [`map_estimate`](crate::map_estimate::map_estimate) when no
    /// cross-validation runs (default `1.0`). The cross-validating
    /// fitters ignore it and use the grid instead.
    pub hyper: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            selection: PriorSelection::Auto,
            solver: SolverKind::Fast,
            folds: 5,
            grid: log_grid(1e-4, 1e4, 17),
            seed: 0,
            threads: 0,
            hyper: 1.0,
        }
    }
}

impl FitOptions {
    /// Creates the default options (see the type-level docs).
    pub fn new() -> Self {
        FitOptions::default()
    }

    /// Sets the prior-family policy.
    pub fn selection(mut self, selection: PriorSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the MAP solver.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the cross-validation fold count, which no selection reads.
    pub fn folds(mut self, folds: usize) -> Self {
        self.folds = folds;
        self
    }

    /// Sets the hyper-parameter grid.
    pub fn grid(mut self, grid: Vec<f64>) -> Self {
        self.grid = grid;
        self
    }

    /// Sets the cross-validation shuffle seed, which no selection reads.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the batch worker-thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the fixed hyper-parameter for non-cross-validating solves.
    pub fn hyper(mut self, hyper: f64) -> Self {
        self.hyper = hyper;
        self
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::Config`] naming the offending parameter:
    /// `"grid"` for an empty or non-positive grid, `"folds"` for fewer
    /// than 2 folds, `"hyper"` for a non-positive fixed hyper-parameter.
    pub fn validate(&self) -> Result<()> {
        validate_grid(&self.grid)?;
        validate_folds(self.folds)?;
        validate_hyper(self.hyper)
    }

    /// The number of worker threads a batch fit will actually use:
    /// [`FitOptions::threads`] if nonzero, else the `BMF_THREADS`
    /// environment variable, else the available parallelism (min 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        bmf_stat::pool::default_threads()
    }

    /// A content fingerprint over every field, FNV-1a chained with f64s
    /// hashed by exact bit pattern. The contract is one way: `a == b`
    /// implies `a.content_fingerprint() == b.content_fingerprint()`,
    /// which is what the persistence layer's round-trip tests rely on.
    /// The converse does not hold: options that differ only in fields a
    /// fit does not read (`threads`, since fits are bit-identical at any
    /// pool size; `hyper` for the cross-validating fitters; `folds` and
    /// `seed`, which the leave-one-out selection ignores) fingerprint
    /// differently yet configure bit-identical fits.
    pub fn content_fingerprint(&self) -> u64 {
        use crate::prior::PriorKind;
        use bmf_stat::fnv::fnv1a_u64;
        let mut h = fnv1a_u64(
            0,
            match self.selection {
                PriorSelection::Fixed(PriorKind::ZeroMean) => 0,
                PriorSelection::Fixed(PriorKind::NonZeroMean) => 1,
                PriorSelection::Auto => 2,
            },
        );
        h = fnv1a_u64(
            h,
            match self.solver {
                SolverKind::Direct => 0,
                SolverKind::Fast => 1,
            },
        );
        h = fnv1a_u64(h, self.folds as u64);
        h = fnv1a_u64(h, self.grid.len() as u64);
        for &g in &self.grid {
            h = fnv1a_u64(h, g.to_bits());
        }
        h = fnv1a_u64(h, self.seed);
        h = fnv1a_u64(h, self.threads as u64);
        fnv1a_u64(h, self.hyper.to_bits())
    }

    /// The cross-validation slice of these options as a [`CvConfig`]
    /// (what the standalone [`crate::hyper::cross_validate_both`] and
    /// [`crate::select::select_prior`] take).
    pub fn cv_config(&self) -> CvConfig {
        CvConfig {
            folds: self.folds,
            // Clone: the conversion yields an owned config; called once
            // per entry point, never in a solve loop.
            grid: self.grid.clone(),
            seed: self.seed,
        }
    }
}

/// Validates a hyper-parameter grid (shared by [`FitOptions::validate`]
/// and the standalone cross-validation entry points).
pub(crate) fn validate_grid(grid: &[f64]) -> Result<()> {
    if grid.is_empty() || grid.iter().any(|&h| h <= 0.0 || !h.is_finite()) {
        return Err(BmfError::config(
            "grid",
            "hyper-parameter grid must be non-empty, positive, and finite",
        ));
    }
    Ok(())
}

/// Validates a fixed hyper-parameter (shared by [`FitOptions::validate`],
/// the MAP and posterior entry points and the sequential estimator).
pub(crate) fn validate_hyper(hyper: f64) -> Result<()> {
    if !(hyper > 0.0 && hyper.is_finite()) {
        return Err(BmfError::config(
            "hyper",
            format!("must be positive and finite, got {hyper}"),
        ));
    }
    Ok(())
}

/// Validates a fold count (shared with the cross-validation entry
/// points).
pub(crate) fn validate_folds(folds: usize) -> Result<()> {
    if folds < 2 {
        return Err(BmfError::config(
            "folds",
            format!("need at least 2 cross-validation folds, got {folds}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::PriorKind;

    #[test]
    fn defaults_match_legacy_cv_config() {
        let opts = FitOptions::new();
        let cv = opts.cv_config();
        assert_eq!(cv, CvConfig::default());
        assert_eq!(opts.selection, PriorSelection::Auto);
        assert_eq!(opts.solver, SolverKind::Fast);
        assert_eq!(opts.threads, 0);
        assert!((opts.hyper - 1.0).abs() < 1e-15);
    }

    #[test]
    fn builder_setters_chain() {
        let opts = FitOptions::new()
            .selection(PriorSelection::Fixed(PriorKind::ZeroMean))
            .solver(SolverKind::Direct)
            .folds(3)
            .grid(vec![0.5, 1.0])
            .seed(42)
            .threads(4)
            .hyper(2.5);
        assert_eq!(opts.selection, PriorSelection::Fixed(PriorKind::ZeroMean));
        assert_eq!(opts.solver, SolverKind::Direct);
        assert_eq!(opts.folds, 3);
        assert_eq!(opts.grid, vec![0.5, 1.0]);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.threads, 4);
        assert!((opts.hyper - 2.5).abs() < 1e-15);
    }

    #[test]
    fn validate_names_offending_parameter() {
        let empty = FitOptions::new().grid(vec![]);
        assert!(matches!(
            empty.validate(),
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
        let negative = FitOptions::new().grid(vec![-1.0]);
        assert!(matches!(
            negative.validate(),
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
        let one_fold = FitOptions::new().folds(1);
        assert!(matches!(
            one_fold.validate(),
            Err(BmfError::Config {
                parameter: "folds",
                ..
            })
        ));
        let bad_hyper = FitOptions::new().hyper(0.0);
        assert!(matches!(
            bad_hyper.validate(),
            Err(BmfError::Config {
                parameter: "hyper",
                ..
            })
        ));
        assert!(FitOptions::new().validate().is_ok());
    }

    #[test]
    fn content_fingerprint_separates_configurations() {
        let a = FitOptions::new();
        let b = FitOptions::new();
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        assert_ne!(
            a.content_fingerprint(),
            FitOptions::new().seed(1).content_fingerprint()
        );
        assert_ne!(
            a.content_fingerprint(),
            FitOptions::new()
                .solver(SolverKind::Direct)
                .content_fingerprint()
        );
        assert_ne!(
            a.content_fingerprint(),
            FitOptions::new()
                .selection(PriorSelection::Fixed(PriorKind::ZeroMean))
                .content_fingerprint()
        );
    }

    #[test]
    fn explicit_threads_beat_auto() {
        assert_eq!(FitOptions::new().threads(3).effective_threads(), 3);
        assert!(FitOptions::new().effective_threads() >= 1);
    }

    #[test]
    fn from_cv_config_round_trips() {
        let cv = CvConfig {
            folds: 7,
            grid: vec![0.1, 1.0, 10.0],
            seed: 9,
        };
        let opts = FitOptions::new()
            .folds(cv.folds)
            .grid(cv.grid.clone())
            .seed(cv.seed);
        assert_eq!(opts.cv_config(), cv);
    }
}
