//! Variation-aware AMS circuit substrate for the BMF reproduction.
//!
//! The paper evaluates BMF on two circuits designed in a commercial 32 nm
//! CMOS SOI process — a ring oscillator (7 177 variation variables) and an
//! SRAM read path (66 117 variables) — simulated with a commercial
//! transistor-level simulator where one post-layout Monte-Carlo sample costs
//! minutes of CPU. Neither the PDK nor the simulator is available, so this
//! crate builds the closest open substitute (see DESIGN.md §2):
//!
//! * [`process`] — a Pelgrom-style process-variation kit that lays out
//!   interdie and per-device mismatch variables as independent standard
//!   normals (the paper's eq. 1 convention);
//! * [`spice`] — a small modified-nodal-analysis (MNA) circuit solver
//!   (DC, AC, Elmore delay) used for the differential-pair offset
//!   example of §IV-A and for parasitic delay modeling;
//! * [`ro`] — a behavioral ring-oscillator with per-stage device models
//!   producing power / phase-noise / frequency metrics;
//! * [`sram`] — a behavioral SRAM read path (wordline driver, bit cells,
//!   bitline, sense amplifier) producing read delay;
//! * [`diffpair`] — the multifinger differential pair, solved through the
//!   MNA engine, used to exercise prior mapping;
//! * [`sim`] — the Monte-Carlo engine with a *simulated-cost ledger* so the
//!   paper's cost tables (IV/VI) can be reproduced in shape;
//! * [`synthetic`] — a fully controlled early/late model-pair generator
//!   for unit tests and ablations;
//! * [`traffic`] — a deterministic open-loop request-stream generator
//!   (seeded exponential arrivals, mixed fit/predict/evict traffic with
//!   hot/cold job skew) that drives the fitting-as-a-service benchmarks.
//!
//! Every circuit exposes an early (schematic) and a late (post-layout)
//! stage of the *same* underlying truth: post-layout adds systematic
//! coefficient shifts and extra parasitic variation variables, which is
//! exactly the structure BMF's priors (§III–IV) are designed to exploit.
//!
//! # Example
//!
//! ```
//! use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
//! use bmf_circuits::sim::monte_carlo;
//! use bmf_circuits::stage::{CircuitPerformance, Stage};
//!
//! let ro = RingOscillator::new(RoConfig::small(), 42);
//! let freq = ro.metric(RoMetric::Frequency);
//! let set = monte_carlo(&freq, Stage::PostLayout, 10, 7)?;
//! assert_eq!(set.values.len(), 10);
//! assert!(set.cost_hours > 0.0);
//! # Ok::<(), bmf_circuits::error::CircuitError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod amplifier;
pub mod diffpair;
pub mod error;
pub mod mirror;
pub mod process;
pub mod ro;
pub mod sim;
pub mod spice;
pub mod sram;
pub mod stage;
pub mod synthetic;
pub mod traffic;
