//! Experiment harness regenerating every table and figure of the BMF
//! paper (see DESIGN.md §4 for the experiment index).
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run -p bmf-bench --release --bin repro -- all --scale default
//! cargo run -p bmf-bench --release --bin repro -- table1
//! cargo run -p bmf-bench --release --bin repro -- fig5 --scale ci
//! ```
//!
//! Each experiment prints a Markdown report (paper value next to measured
//! value where the paper reports one) and writes it to
//! `reports/<id>.md`. Every wall time in a report is the median of five
//! timed runs, taken by one sampler (`timing.rs`); the study benches and
//! `repro allocs` report deterministic counters only ([`study`]).

// `deny` rather than `forbid` so the counting allocator (src/alloc.rs)
// can locally allow the `unsafe impl GlobalAlloc` it needs; everything
// else in the crate remains unsafe-free.
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod alloc;
pub mod allocs_study;
pub mod batch_study;
pub mod chaos_study;
pub mod costs;
pub mod earlyfit;
pub mod figures;
pub mod lint_study;
pub mod persist_study;
pub mod report;
pub mod scale;
pub mod sequential_study;
pub mod service_load;
pub mod study;
pub mod tables;
mod timing;
