//! Byte-deterministic persistence for fitted BMF models.
//!
//! The paper's premise is *reuse* — early-stage data carried forward as
//! a prior for late-stage fitting — yet without persistence every
//! process restart throws fitted models, selected priors, and
//! cross-validation outcomes away. This crate makes a
//! [`ModelSnapshot`](bmf_core::snapshot::ModelSnapshot) survive the
//! process:
//!
//! * [`codec`] — little-endian binary encode/decode primitives with
//!   every f64 carried by exact bit pattern (`to_bits`), so encoding is
//!   a pure function of the snapshot's bits: same snapshot, same bytes,
//!   on any machine;
//! * [`artifact`] — the versioned artifact format: an 8-byte magic, a
//!   format version, the payload length, and an FNV-1a content
//!   fingerprint over the payload, followed by the canonical snapshot
//!   encoding. Decoding verifies all four before anything is parsed;
//! * [`store`] — [`ArtifactStore`](store::ArtifactStore), a
//!   content-addressed directory of artifacts keyed by fingerprint with
//!   an append-only checksummed index, integrity verification on load,
//!   and [`warm_start`](store::ArtifactStore::warm_start) to refill a
//!   [`FitService`](bmf_core::service::FitService) registry from disk;
//! * [`vfs`] — the storage virtual filesystem every store byte moves
//!   through: [`RealVfs`](vfs::RealVfs) in production,
//!   [`MemVfs`](vfs::MemVfs) (an in-memory disk with an explicit
//!   crash-durability model) and [`FaultVfs`](vfs::FaultVfs) (seeded
//!   error, short-write, and crash-point injection) under test;
//! * [`fsck`] — [`check`](store::ArtifactStore::check)/[`repair`](store::ArtifactStore::repair):
//!   structural integrity passes detecting orphan blobs, dangling index
//!   entries, and fingerprint mismatches, with crash-safe repair.
//!
//! Every store mutation is crash-consistent: puts commit through a
//! write-ahead intent on the index, compaction rewrites the index
//! behind a tmp → fsync → rename corridor, and
//! [`open`](store::ArtifactStore::open) runs recovery — a crash at
//! *any* I/O operation (exhaustively tested via
//! [`FaultVfs`](vfs::FaultVfs)) leaves a store that re-opens valid with
//! every acknowledged publication intact.
//!
//! # Determinism and safety
//!
//! Round trips are exact: `encode(decode(bytes)) == bytes` for any
//! valid artifact, and a warm-started service serves predictions
//! bit-identical to the service that exported the snapshots, at any
//! `BMF_THREADS`. Corrupt input — truncation, bit flips, version or
//! magic tampering — yields a structured [`PersistError`], never a
//! panic, and model-level contamination (NaN coefficients) is screened
//! by the same `bmf_core::screen` discipline as the fitting entry
//! points.
//!
//! ```
//! use bmf_basis::basis::OrthonormalBasis;
//! use bmf_core::model::PerformanceModel;
//! use bmf_core::snapshot::ModelSnapshot;
//! use bmf_persist::artifact::{decode_snapshot, encode_snapshot};
//!
//! # fn main() -> Result<(), bmf_persist::PersistError> {
//! let model = PerformanceModel::new(OrthonormalBasis::linear(2), vec![1.0, 0.5, -0.25])
//!     .map_err(bmf_persist::PersistError::Model)?;
//! let snap = ModelSnapshot::from_model("gain", model);
//! let bytes = encode_snapshot(&snap)?;
//! let back = decode_snapshot(&bytes)?;
//! assert_eq!(back, snap);
//! assert_eq!(encode_snapshot(&back)?, bytes);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod codec;
mod error;
pub mod fsck;
pub mod store;
pub mod vfs;

pub use error::PersistError;

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, PersistError>;
