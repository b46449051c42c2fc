//! Statistics substrate for the Bayesian Model Fusion reproduction.
//!
//! The workspace builds fully offline with zero external dependencies, and
//! the BMF pipeline needs more than sampling: Gaussian pdf/cdf/quantiles
//! for the prior definitions (§III-A), histograms for reproducing Fig. 4/7,
//! moment summaries for validating the synthetic circuit substrate, and
//! K-fold cross-validation splits for hyper-parameter and prior selection
//! (§IV-D). This crate implements all of that from scratch:
//!
//! * [`rng`] — the in-tree deterministic generator (xoshiro256++) and the
//!   seed-derivation conventions used across the workspace,
//! * [`normal`] — standard normal sampling (Marsaglia polar method),
//!   `erf`, Φ, Φ⁻¹ (Acklam's rational approximation), and a [`normal::Normal`]
//!   distribution type,
//! * [`histogram`] — fixed-width binning with ASCII rendering,
//! * [`summary`] — mean/variance/skewness and quantiles,
//! * [`crossval`] — seeded K-fold index splitting,
//! * [`prop`] — the in-tree property-test harness (seeded cases with
//!   failure-seed reporting),
//! * [`faults`] — deterministic fault injection (NaN/∞ contamination,
//!   singular designs, degenerate priors, byte-level bit rot) for the
//!   robustness suites,
//! * [`backoff`] — deterministic retry policies with seeded exponential
//!   backoff (virtual-time delays) for transient storage errors,
//! * [`fnv`] — the shared FNV-1a content fingerprint used by the
//!   service registry and the persistence layer,
//! * [`pool`] — the workspace's one scoped worker pool, whose results
//!   come back in task order at any pool size (the batch fitting engine
//!   and the Monte-Carlo engine run on it).
//!
//! # Example
//!
//! ```
//! use bmf_stat::normal::StandardNormal;
//! use bmf_stat::rng::seeded;
//! use bmf_stat::summary::Summary;
//!
//! let mut rng = seeded(7);
//! let mut sampler = StandardNormal::new();
//! let xs: Vec<f64> = (0..10_000).map(|_| sampler.sample(&mut rng)).collect();
//! let s = Summary::from_slice(&xs);
//! assert!(s.mean().abs() < 0.05);
//! assert!((s.std_dev() - 1.0).abs() < 0.05);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod crossval;
pub mod faults;
pub mod fnv;
pub mod histogram;
pub mod kstest;
pub mod normal;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod summary;
