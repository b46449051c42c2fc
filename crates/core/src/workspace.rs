//! Reusable solve workspaces for the fitting stack (DESIGN.md §9).
//!
//! A fit solves many MAP systems (a batch's final solves, a stream's
//! updates), so every solve writes into caller-owned scratch instead of
//! allocating its own right-hand side and intermediates. The batch
//! engine (`crate::batch`) gives each selection worker one scratch
//! buffer for its blocks of leave-one-out rows and each solve worker one
//! `MapScratch`; a [`SeqWorkspace`] serves one stream of the sequential
//! estimator.
//!
//! Safety model: every kernel that writes into a workspace buffer fully
//! overwrites it (see `bmf_linalg::view`), so stale contents from a
//! previous solve — even one of a different shape — can never leak into
//! a result. The property tests in `crates/linalg/tests/view_properties.rs`
//! reuse one scratch across randomized shapes to pin this down.

use bmf_linalg::woodbury::WoodburyScratch;
use bmf_linalg::{LadderScratch, Matrix};

/// Scratch for one MAP solve on the direct or Woodbury path: the
/// right-hand side and the assembled core system. (A missing-prior fast
/// solve reads its pattern's full-data system instead.)
#[derive(Debug, Clone, Default)]
pub(crate) struct MapScratch {
    /// `Gᵀf + prior contribution` (length M).
    pub(crate) rhs: Vec<f64>,
    /// The assembled M×M system of the direct solver, factorized in
    /// place.
    pub(crate) core: Matrix,
    /// LU pivot permutation for the LU rung of the degradation ladder.
    pub(crate) perm: Vec<usize>,
    /// Snapshot/rhs buffers for the solver degradation ladder.
    pub(crate) ladder: LadderScratch,
    /// Scratch for `bmf_linalg::woodbury`'s `_into` entry points.
    pub(crate) woodbury: WoodburyScratch,
}

/// Caller-owned scratch for the sequential (streaming) estimator.
///
/// Threaded through [`SequentialBmf`](crate::sequential::SequentialBmf)
/// like `MapScratch` is threaded through the batch engine's final
/// solves: one workspace serves every `add_sample` / `coefficients_into` /
/// `suggest_next` call on a stream, buffers grow to the high-water mark
/// (`O(M + K)`) and are reused thereafter. With
/// [`SeqWorkspace::for_problem`] sized up front, steady-state streaming
/// performs zero heap allocations per absorbed sample — counted under
/// the counting allocator by `repro allocs` (`seq_steady_state`, which
/// must read 0).
#[derive(Debug, Clone, Default)]
pub struct SeqWorkspace {
    /// New core column `G D⁻¹ g_newᵀ` (length K).
    pub(crate) w: Vec<f64>,
    /// `Gᵀf + prior contribution` (length M).
    pub(crate) rhs: Vec<f64>,
    /// `D⁻¹·rhs` (length M).
    pub(crate) t: Vec<f64>,
    /// Core-system solution `core⁻¹(G·t)` (length K).
    pub(crate) y: Vec<f64>,
    /// `Gᵀ·y` back-projection (length M).
    pub(crate) uy: Vec<f64>,
    /// Candidate projection `G D⁻¹ g` for variance queries (length K).
    pub(crate) u: Vec<f64>,
}

impl SeqWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for `k` samples over `m`
    /// coefficients, so not even the first update allocates.
    pub fn for_problem(k: usize, m: usize) -> Self {
        let mut ws = Self::new();
        ws.w.reserve(k);
        ws.rhs.reserve(m);
        ws.t.reserve(m);
        ws.y.reserve(k);
        ws.uy.reserve(m);
        ws.u.reserve(k);
        ws
    }
}

/// Clears and zero-fills `buf` to length `n`, reusing its capacity.
pub(crate) fn resize(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_reuses_capacity() {
        let mut buf = vec![1.0; 64];
        let ptr = buf.as_ptr();
        resize(&mut buf, 16);
        assert_eq!(buf, vec![0.0; 16]);
        assert_eq!(buf.as_ptr(), ptr, "capacity must be reused");
    }
}
