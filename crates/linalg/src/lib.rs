//! Self-contained dense linear algebra for the Bayesian Model Fusion
//! reproduction.
//!
//! The BMF paper's MAP estimator reduces to solving symmetric positive
//! definite (SPD) linear systems; its "fast solver" (§IV-C) is the
//! Sherman–Morrison–Woodbury identity applied to a diagonal-plus-low-rank
//! matrix. This crate provides exactly the pieces that pipeline needs,
//! implemented from scratch so the direct-vs-fast solver comparison is
//! apples-to-apples:
//!
//! * [`Matrix`] / [`Vector`] — dense row-major `f64` storage with the usual
//!   BLAS-1/2/3 style operations,
//! * [`Cholesky`] — SPD factorization and solves (the paper's "conventional
//!   solver"),
//! * [`Lu`] — partially pivoted LU for general square systems (used by the
//!   mini-SPICE MNA solver),
//! * [`Qr`] — Householder QR for overdetermined least squares, and
//!   [`tridiagonal`] reduction with shifted solves, on shared [`Reflectors`],
//! * [`woodbury`] — the low-rank update solver of eq. (53)–(58).
//!
//! # Example
//!
//! ```
//! use bmf_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), bmf_linalg::LinalgError> {
//! // Solve the SPD system (AᵀA + I) x = b via Cholesky.
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])?;
//! let spd = a.gram().add(&Matrix::identity(2))?;
//! let chol = spd.cholesky()?;
//! let x = chol.solve(&Vector::from(vec![1.0, 1.0]))?;
//! assert_eq!(x.len(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cholesky;
pub mod complex;
mod error;
pub mod fp;
mod lu;
mod matrix;
mod qr;
pub mod resilience;
mod triangular;
pub mod tridiagonal;
pub mod view;
pub mod woodbury;

pub use cholesky::{cholesky_extend_row_into, cholesky_in_place, Cholesky, GrowingCholesky};
pub use error::LinalgError;
pub use fp::{is_exact_nonzero, is_exact_zero};
pub use lu::{lu_factor_in_place, lu_solve_into, Lu};
pub use matrix::Matrix;
pub use qr::{qr_append_in_place, qr_in_place, Qr, Reflectors};
pub use resilience::{
    factor_shifted_ldl_ladder, factor_spd_ladder, ladder_solve_in_place, FactorKind, LadderScratch,
    Resilience,
};
pub use triangular::{solve_lower, solve_lower_transpose, solve_upper};
pub use vector::Vector;
pub use view::{dot3, MatMut, MatRef};

mod vector;

/// Convenient result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
