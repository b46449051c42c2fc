//! Bayesian Model Fusion (BMF) for large-scale AMS performance modeling.
//!
//! This crate implements the algorithm of Wang et al., *"Bayesian Model
//! Fusion: Large-Scale Performance Modeling of Analog and Mixed-Signal
//! Circuits by Reusing Early-Stage Data"* (DAC 2013 / IEEE TCAD 2016):
//! fit a late-stage (post-layout) performance model from *very few*
//! late-stage simulation samples by using the early-stage (schematic)
//! model coefficients as a Bayesian prior.
//!
//! The pieces, mapped to the paper:
//!
//! * [`model::PerformanceModel`] — `f(x) ≈ Σ α_m g_m(x)` over an
//!   orthonormal Hermite basis (eq. 2);
//! * [`least_squares`] — the classical overdetermined baseline (eq. 6–9);
//! * [`omp`] — orthogonal matching pursuit, the state-of-the-art sparse
//!   regression baseline \[13\] the paper compares against;
//! * [`prior`] — zero-mean (eq. 12–17) and nonzero-mean (eq. 19–20)
//!   coefficient priors, missing-prior handling (eq. 50–52), and prior
//!   mapping for multifinger layout extraction (eq. 36–49);
//! * [`map_estimate`] — the MAP posterior solve (eq. 28–35), with both
//!   the *direct* M×M Cholesky solver and the *fast* Woodbury low-rank
//!   solver of §IV-C (eq. 53–58), which are numerically identical;
//! * [`hyper`] — cross-validation (exact leave-one-out) for the hyper-parameter
//!   (`σ₀` or `η`, §IV-D): [`hyper::cross_validate_both`] sweeps the
//!   grid for both prior families in one pass;
//! * [`select`] — prior selection (BMF-PS): [`select::select_prior`]
//!   cross-validates one family or both and applies the one rule the
//!   fitting engine uses — the lower CV error wins, zero-mean on a tie;
//! * [`fusion::BmfFitter`] — the top-level Algorithm 1;
//! * [`options::FitOptions`] — one configuration type shared by every
//!   fitting entry point;
//! * [`batch::BatchFitter`] — the parallel batch engine that fits many
//!   performance metrics over one shared sample-point set, evaluating
//!   the design matrix once and sharing cross-validation kernels;
//! * [`service::FitService`] — the long-lived serving facade: a sharded
//!   model registry, an MPSC fit queue, and a coalescer that groups
//!   concurrent requests sharing a point set into one batch run;
//! * [`snapshot::ModelSnapshot`] — a fitted model plus its provenance
//!   (options, selected prior, CV record, resilience), the unit the
//!   service exports/imports and `bmf-persist` serializes to disk;
//! * [`screen`] — the boundary screens (NaN/∞ rejection) shared by
//!   every entry point, public so persistence layers can apply the same
//!   discipline to data crossing a process boundary.
//!
//! # Quickstart
//!
//! ```
//! use bmf_basis::basis::OrthonormalBasis;
//! use bmf_core::fusion::BmfFitter;
//!
//! # fn main() -> Result<(), bmf_core::BmfError> {
//! // A 3-variable linear model whose early-stage coefficients are known.
//! let basis = OrthonormalBasis::linear(3);
//! let early = vec![1.0, 0.8, 0.0, -0.5]; // intercept + 3 coefficients
//!
//! // Five late-stage "simulations" of f(x) = 1.1 + 0.9 x1 - 0.45 x3.
//! let truth = |x: &[f64]| 1.1 + 0.9 * x[0] - 0.45 * x[2];
//! let points: Vec<Vec<f64>> = vec![
//!     vec![0.5, -1.0, 0.2], vec![-0.3, 0.4, 1.0], vec![1.2, 0.1, -0.6],
//!     vec![0.0, 0.9, 0.4], vec![-0.8, -0.2, -1.1],
//! ];
//! let values: Vec<f64> = points.iter().map(|p| truth(p)).collect();
//!
//! let fit = BmfFitter::new(basis, early.iter().map(|&a| Some(a)).collect())?
//!     .fit(&points, &values)?;
//! // Five samples suffice because the prior carries the structure.
//! let pred = fit.model.predict(&[1.0, 0.0, 0.0]);
//! assert!((pred - 2.0).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod applications;
pub mod batch;
mod error;
pub mod fusion;
pub mod hyper;
pub mod lasso;
pub mod least_squares;
pub mod map_estimate;
pub mod model;
pub mod omp;
pub mod options;
pub mod prior;
pub mod screen;
pub mod select;
pub mod sequential;
pub mod service;
pub mod snapshot;
pub mod workspace;

pub use error::BmfError;

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, BmfError>;
