//! Borrowed, strided matrix views plus allocation-free kernels.
//!
//! The fitting stack's inner loops (cross-validation sweeps, batch fits)
//! call the same handful of kernels thousands of times on sub-matrices of
//! one shared design matrix. Owned [`Matrix`] operations would copy those
//! sub-matrices and allocate fresh outputs on every call; [`MatRef`] lets
//! callers describe a sub-matrix *by reference* — including a
//! non-contiguous row subset, which is exactly what a cross-validation
//! fold is — and the `_into` kernels write results into caller-owned
//! buffers ([`MatMut`] for matrix outputs, plain slices for vectors).
//!
//! Each operation has one implementation: the owned [`Matrix`] methods
//! call these kernels on dense views. The property tests in
//! `tests/view_properties.rs` pin, with `f64::to_bits` comparisons, that a
//! strided or row-subset view gives the same bits as its dense copy and
//! that the blocked kernels equal their scalar references: a
//! one-accumulator dot for `matvec_into` and `outer_gram_diag_into`,
//! and the one two-lane reduction for the register-tiled products
//! ([`gram_runs_band_into`], [`sub_products_into`]). See DESIGN.md §9
//! for the memory model.
//!
//! # Aliasing rules
//!
//! All views are plain borrows, so Rust's borrow checker enforces the only
//! rule that matters: an output buffer can never alias an input view.
//! Every `_into` kernel fully overwrites its output (zero-filling first
//! where it accumulates), so stale workspace contents never leak into
//! results.

use std::ops::Range;

use crate::{LinalgError, Matrix, Result};

/// An immutable view of a row-major `f64` matrix.
///
/// A view is a `Copy` handle onto storage owned elsewhere: the backing
/// slice, the shape, a row stride, and optionally a row-index table that
/// maps view rows onto backing rows (used for cross-validation folds).
/// Columns are always contiguous within a row, which is the only layout
/// the kernels need.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    nrows: usize,
    ncols: usize,
    row_stride: usize,
    /// When present, view row `i` reads backing row `rows[i]`.
    rows: Option<&'a [usize]>,
}

impl<'a> MatRef<'a> {
    /// Views an owned [`Matrix`] (equivalently [`Matrix::as_view`]).
    pub fn from_matrix(m: &'a Matrix) -> Self {
        MatRef {
            data: m.as_slice(),
            nrows: m.nrows(),
            ncols: m.ncols(),
            row_stride: m.ncols(),
            rows: None,
        }
    }

    /// Views a dense row-major slice as an `nrows × ncols` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len() !=
    /// nrows * ncols`.
    pub fn from_row_major(data: &'a [f64], nrows: usize, ncols: usize) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "MatRef::from_row_major",
                lhs: (nrows, ncols),
                rhs: (data.len(), 1),
            });
        }
        Ok(MatRef {
            data,
            nrows,
            ncols,
            row_stride: ncols,
            rows: None,
        })
    }

    /// Views a strided slice: row `i` occupies
    /// `data[i * row_stride .. i * row_stride + ncols]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `row_stride <
    /// ncols` or the last row would run past the end of `data`.
    pub fn strided(data: &'a [f64], nrows: usize, ncols: usize, row_stride: usize) -> Result<Self> {
        let span = if nrows == 0 {
            0
        } else {
            (nrows - 1) * row_stride + ncols
        };
        if row_stride < ncols || data.len() < span {
            return Err(LinalgError::DimensionMismatch {
                op: "MatRef::strided",
                lhs: (nrows, row_stride),
                rhs: (data.len(), ncols),
            });
        }
        Ok(MatRef {
            data,
            nrows,
            ncols,
            row_stride,
            rows: None,
        })
    }

    /// Restricts the view to the given backing rows, in order (view row
    /// `i` becomes backing row `rows[i]`). This is how a cross-validation
    /// fold borrows its train/validate sub-matrix without copying.
    ///
    /// # Panics
    ///
    /// Panics when the view already has a row-index table (composing
    /// subsets would need an allocation — take the subset of the dense
    /// parent instead) or when any index is out of bounds.
    pub fn select_rows(self, rows: &'a [usize]) -> MatRef<'a> {
        assert!(
            self.rows.is_none(),
            "select_rows on an already row-indexed view"
        );
        for &r in rows {
            assert!(
                r < self.nrows,
                "row index {r} out of bounds ({})",
                self.nrows
            );
        }
        MatRef {
            data: self.data,
            nrows: rows.len(),
            ncols: self.ncols,
            row_stride: self.row_stride,
            rows: Some(rows),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(
            i < self.nrows,
            "row index {i} out of bounds ({})",
            self.nrows
        );
        let r = self.rows.map_or(i, |idx| idx[i]);
        &self.data[r * self.row_stride..r * self.row_stride + self.ncols]
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            j < self.ncols,
            "col index {j} out of bounds ({})",
            self.ncols
        );
        self.row(i)[j]
    }

    /// Returns `true` when every viewed element is finite.
    pub fn is_finite(&self) -> bool {
        (0..self.nrows).all(|i| self.row(i).iter().all(|x| x.is_finite()))
    }

    /// Copies the viewed elements into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.nrows, self.ncols, |i, j| self.row(i)[j])
    }
}

/// A mutable view of a dense row-major `f64` matrix.
///
/// Outputs are always dense (no stride, no row table): kernels write
/// complete results, and the workspace types that own the backing buffers
/// hand them out one kernel call at a time.
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f64],
    nrows: usize,
    ncols: usize,
}

impl<'a> MatMut<'a> {
    /// Mutably views an owned [`Matrix`] (equivalently
    /// [`Matrix::as_view_mut`]).
    pub fn from_matrix(m: &'a mut Matrix) -> Self {
        let (nrows, ncols) = m.shape();
        MatMut {
            data: m.as_mut_slice(),
            nrows,
            ncols,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Borrows row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.nrows,
            "row index {i} out of bounds ({})",
            self.nrows
        );
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Reborrows as an immutable view.
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            nrows: self.nrows,
            ncols: self.ncols,
            row_stride: self.ncols,
            rows: None,
        }
    }
}

/// Clears and zero-fills `buf` to length `n`, reusing its capacity.
pub(crate) fn resize(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// Matrix–vector product `out = a * x`, writing into a caller buffer.
///
/// Each output element is one left-to-right dot-product accumulation,
/// bit-identical to `row.iter().zip(x).map(|(p, q)| p * q).sum()` (and
/// so to [`Matrix::matvec`], which wraps this kernel). Rows are processed
/// four at a time with one accumulator each, so the four add chains
/// overlap instead of each add waiting on the previous one; no row's sum
/// is reassociated.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `x.len() != a.ncols()`
/// (op `"matvec"`, matching the owned kernel) or `out.len() !=
/// a.nrows()`.
pub fn matvec_into(a: MatRef<'_>, x: &[f64], out: &mut [f64]) -> Result<()> {
    if x.len() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    if out.len() != a.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec_into (out)",
            lhs: a.shape(),
            rhs: (out.len(), 1),
        });
    }
    let n = x.len();
    let blocked = out.len() / 4 * 4;
    let (head, tail) = out.split_at_mut(blocked);
    for (b, o) in head.chunks_exact_mut(4).enumerate() {
        let i = 4 * b;
        let (r0, r1, r2, r3) = (
            &a.row(i)[..n],
            &a.row(i + 1)[..n],
            &a.row(i + 2)[..n],
            &a.row(i + 3)[..n],
        );
        let mut s = [DOT_START; 4];
        for j in 0..n {
            let xj = x[j];
            s[0] += r0[j] * xj;
            s[1] += r1[j] * xj;
            s[2] += r2[j] * xj;
            s[3] += r3[j] * xj;
        }
        o.copy_from_slice(&s);
    }
    for (t, o) in tail.iter_mut().enumerate() {
        *o = dot(a.row(blocked + t), x);
    }
    Ok(())
}

/// Starting value of [`dot`]'s accumulator: `-0.0`, the neutral element
/// `Iterator::sum` folds `f64`s from, so every entry equals the `.sum()`
/// of its products bit for bit, including the sign of an empty or
/// all-`-0.0` sum.
const DOT_START: f64 = -0.0;

/// Dot product `Σᵢ a[i]·b[i]` with one accumulator, left to right — the
/// per-entry sum [`matvec_into`]'s blocked loop reproduces bit for bit.
/// Iteration stops at the shorter slice.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = DOT_START;
    for (p, q) in a.iter().zip(b) {
        s += p * q;
    }
    s
}

/// Transposed matrix–vector product `out = aᵀ * x`, writing into a caller
/// buffer (fully overwritten: zero-filled before accumulation).
///
/// Bit-identical to [`Matrix::matvec_transpose`], including the
/// skip-zero-row shortcut.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `x.len() != a.nrows()`
/// (op `"matvec_transpose"`) or `out.len() != a.ncols()`.
pub fn matvec_transpose_into(a: MatRef<'_>, x: &[f64], out: &mut [f64]) -> Result<()> {
    if x.len() != a.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec_transpose",
            lhs: (a.ncols(), a.nrows()),
            rhs: (x.len(), 1),
        });
    }
    if out.len() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec_transpose_into (out)",
            lhs: (a.ncols(), a.nrows()),
            rhs: (out.len(), 1),
        });
    }
    out.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        if crate::fp::is_exact_zero(xi) {
            continue;
        }
        for (o, &v) in out.iter_mut().zip(a.row(i)) {
            *o += xi * v;
        }
    }
    Ok(())
}

/// Matrix product `out = a * b`, writing into a caller buffer (fully
/// overwritten: zero-filled before accumulation).
///
/// Bit-identical to [`Matrix::matmul`]: same i-k-j loop order and
/// skip-zero shortcut.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when inner dimensions
/// disagree (op `"matmul"`) or `out` is not `a.nrows() × b.ncols()`.
pub fn matmul_into(a: MatRef<'_>, b: MatRef<'_>, mut out: MatMut<'_>) -> Result<()> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if out.shape() != (a.nrows(), b.ncols()) {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_into (out)",
            lhs: (a.nrows(), b.ncols()),
            rhs: out.shape(),
        });
    }
    out.fill(0.0);
    for i in 0..a.nrows() {
        let arow = a.row(i);
        for (k, &aik) in arow.iter().enumerate() {
            if crate::fp::is_exact_zero(aik) {
                continue;
            }
            let brow = b.row(k);
            let orow = out.row_mut(i);
            for (o, &v) in orow.iter_mut().zip(brow) {
                *o += aik * v;
            }
        }
    }
    Ok(())
}

/// Gram matrix `out = aᵀ * a`, writing into a caller buffer (fully
/// overwritten: zero-filled before accumulation).
///
/// Bit-identical to [`Matrix::gram`]: row-by-row rank-1 accumulation of
/// the upper triangle, then mirroring.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `out` is not
/// `a.ncols() × a.ncols()`.
pub fn gram_into(a: MatRef<'_>, mut out: MatMut<'_>) -> Result<()> {
    let m = a.ncols();
    if out.shape() != (m, m) {
        return Err(LinalgError::DimensionMismatch {
            op: "gram_into (out)",
            lhs: (m, m),
            rhs: out.shape(),
        });
    }
    out.fill(0.0);
    for k in 0..a.nrows() {
        let r = a.row(k);
        for i in 0..m {
            let ri = r[i];
            if crate::fp::is_exact_zero(ri) {
                continue;
            }
            let orow = out.row_mut(i);
            for j in i..m {
                orow[j] += ri * r[j];
            }
        }
    }
    mirror_upper_into(out)
}

/// Outer Gram matrix `out = a * D * aᵀ` for diagonal `D`, writing into a
/// caller buffer (every element written, so no zero-fill is needed).
///
/// Every entry of the upper triangle is one left-to-right [`dot3`] sum of
/// its two rows, bit for bit, mirrored into the lower one: the sequential
/// engine relies on that when it grows the same matrix row by row, and
/// the Woodbury core of [`crate::woodbury`] is this kernel. Each row's
/// entries are computed four at a time, one accumulator each, so the add
/// chains overlap; no entry's sum is reassociated.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `diag.len() !=
/// a.ncols()` (op `"outer_gram_diag"`) or `out` is not
/// `a.nrows() × a.nrows()`.
pub fn outer_gram_diag_into(a: MatRef<'_>, diag: &[f64], mut out: MatMut<'_>) -> Result<()> {
    if diag.len() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            op: "outer_gram_diag",
            lhs: a.shape(),
            rhs: (diag.len(), 1),
        });
    }
    let k = a.nrows();
    if out.shape() != (k, k) {
        return Err(LinalgError::DimensionMismatch {
            op: "outer_gram_diag_into (out)",
            lhs: (k, k),
            rhs: out.shape(),
        });
    }
    let m = diag.len();
    for i in 0..k {
        let ri = &a.row(i)[..m];
        let row = out.row_mut(i);
        let mut j = i;
        while j + 4 <= k {
            let (r0, r1, r2, r3) = (
                &a.row(j)[..m],
                &a.row(j + 1)[..m],
                &a.row(j + 2)[..m],
                &a.row(j + 3)[..m],
            );
            let mut s = [0.0f64; 4];
            for t in 0..m {
                // `p * q * d` in dot3's association: (a_i·a_j)·d.
                let (p, d) = (ri[t], diag[t]);
                s[0] += p * r0[t] * d;
                s[1] += p * r1[t] * d;
                s[2] += p * r2[t] * d;
                s[3] += p * r3[t] * d;
            }
            row[j..j + 4].copy_from_slice(&s);
            j += 4;
        }
        for (o, j) in row[j..].iter_mut().zip(j..) {
            *o = dot3(ri, a.row(j), diag);
        }
    }
    mirror_upper_into(out)
}

/// One entry of every tiled product in this crate: `Σ a[k]·b[k]` over the
/// column ranges `runs`, in two lanes. Within each run, lane 0 takes the
/// even positions and lane 1 the odd ones, each accumulated in order
/// from `+0`; an odd run's last product joins lane 0; the entry is
/// `lane 0 + lane 1`. [`for_each_product`]'s register tiles keep this
/// order and association for every entry they hold, so an entry's bits
/// depend on its two rows and the runs alone, never on the tile (or row
/// band, or thread) that computed it.
pub(crate) fn dot_runs(a: &[f64], b: &[f64], runs: &[Range<usize>]) -> f64 {
    let mut lane = [0.0f64; 2];
    for run in runs {
        let (a, b) = (&a[run.start..run.end], &b[run.start..run.end]);
        let len = a.len().min(b.len());
        for t in 0..len / 2 {
            lane[0] += a[2 * t] * b[2 * t];
            lane[1] += a[2 * t + 1] * b[2 * t + 1];
        }
        if len % 2 == 1 {
            lane[0] += a[len - 1] * b[len - 1];
        }
    }
    lane[0] + lane[1]
}

/// Two rows of `P` against four rows of `Q`: the eight entries of
/// [`dot_runs`], computed together so each loaded value feeds four (or
/// two) products and sixteen independent add chains overlap. Plain
/// multiplies and adds (no fused multiply-add), in `dot_runs`' order.
#[inline(always)]
fn tile_2x4(p: [&[f64]; 2], q: [&[f64]; 4], runs: &[Range<usize>]) -> [[f64; 4]; 2] {
    let mut acc = [[[0.0f64; 2]; 4]; 2];
    for run in runs {
        let (lo, hi) = (run.start, run.end);
        let len = hi - lo;
        let p = [&p[0][lo..hi], &p[1][lo..hi]];
        let q = [&q[0][lo..hi], &q[1][lo..hi], &q[2][lo..hi], &q[3][lo..hi]];
        for t in 0..len / 2 {
            let k = 2 * t;
            let (p0, p1) = ([p[0][k], p[0][k + 1]], [p[1][k], p[1][k + 1]]);
            for (b, qb) in q.iter().enumerate() {
                let qk = [qb[k], qb[k + 1]];
                acc[0][b][0] += p0[0] * qk[0];
                acc[0][b][1] += p0[1] * qk[1];
                acc[1][b][0] += p1[0] * qk[0];
                acc[1][b][1] += p1[1] * qk[1];
            }
        }
        if len % 2 == 1 {
            let k = len - 1;
            for (b, qb) in q.iter().enumerate() {
                acc[0][b][0] += p[0][k] * qb[k];
                acc[1][b][0] += p[1][k] * qb[k];
            }
        }
    }
    acc.map(|row| row.map(|lane| lane[0] + lane[1]))
}

/// Hands every entry `(i, j)` of `P Qᵀ` over the columns `runs` to
/// `emit(i, j, value)`: `i ∈ rows`, and `j` over every row of `q`, or
/// only `j ≥ i` with `upper`. Each value is [`dot_runs`] of row `i` of
/// `p` and row `j` of `q`, bit for bit; the work runs in 2×4 register
/// tiles, a diagonal entry or a ragged edge on its own. Callers check
/// that both views hold every column of `runs`.
pub(crate) fn for_each_product(
    p: MatRef<'_>,
    q: MatRef<'_>,
    runs: &[Range<usize>],
    rows: Range<usize>,
    upper: bool,
    mut emit: impl FnMut(usize, usize, f64),
) {
    let nq = q.nrows();
    let mut i = rows.start;
    while i < rows.end {
        let pair = i + 1 < rows.end;
        // With `upper`, the first column both rows of a pair share is
        // i + 1; entry (i, i) goes alone.
        let mut j = if upper { i } else { 0 };
        if upper && pair && j < nq {
            emit(i, j, dot_runs(p.row(i), q.row(j), runs));
            j += 1;
        }
        if pair {
            let pr = [p.row(i), p.row(i + 1)];
            while j + 4 <= nq {
                let qr = [q.row(j), q.row(j + 1), q.row(j + 2), q.row(j + 3)];
                let tile = tile_2x4(pr, qr, runs);
                for (a, row) in tile.iter().enumerate() {
                    for (b, &v) in row.iter().enumerate() {
                        emit(i + a, j + b, v);
                    }
                }
                j += 4;
            }
            for j in j..nq {
                emit(i, j, dot_runs(pr[0], q.row(j), runs));
                emit(i + 1, j, dot_runs(pr[1], q.row(j), runs));
            }
            i += 2;
        } else {
            let pr = p.row(i);
            for j in j..nq {
                emit(i, j, dot_runs(pr, q.row(j), runs));
            }
            i += 1;
        }
    }
}

/// Whether `runs` lie in order within `0..cols` (each run's end past its
/// start is allowed to be empty).
fn runs_fit(runs: &[Range<usize>], cols: usize) -> bool {
    let mut at = 0;
    runs.iter().all(|r| {
        let ok = r.start >= at && r.start <= r.end && r.end <= cols;
        at = r.end;
        ok
    })
}

/// Rows `rows` of the upper triangle of the gram `Γ = A_R·A_Rᵀ` of the
/// columns `runs` of `a` (ascending, disjoint ranges): entry `(i, j)`,
/// `i ∈ rows`, `j ≥ i`, lands at `band[(i − rows.start)·K + j]` with
/// `K = a.nrows()`; entries left of the diagonal are not written.
///
/// This is the floor gram of the batch engine (the finite columns of a
/// design matrix, as runs between the missing ones), with no weight
/// vector and no copy of `a`. Each entry is the fixed two-lane reduction
/// of its two rows over the runs, whatever register tile holds it, so a
/// matrix assembled from any split of its rows into bands (on any
/// number of threads) has the same bits. It agrees with the
/// one-accumulator [`dot3`] entry with unit weights to rounding, not bit
/// for bit.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `runs` are not
/// ascending ranges within `0..a.ncols()`, `rows` runs past `K`, or
/// `band` does not hold `rows.len()` rows of `K`.
pub fn gram_runs_band_into(
    a: MatRef<'_>,
    runs: &[Range<usize>],
    rows: Range<usize>,
    band: &mut [f64],
) -> Result<()> {
    let k = a.nrows();
    if !runs_fit(runs, a.ncols())
        || rows.end > k
        || rows.start > rows.end
        || band.len() != rows.len() * k
    {
        return Err(LinalgError::DimensionMismatch {
            op: "gram_runs_band_into",
            lhs: (rows.len(), k),
            rhs: (band.len(), a.ncols()),
        });
    }
    let start = rows.start;
    for_each_product(a, a, runs, rows, true, |i, j, v| {
        band[(i - start) * k + j] = v;
    });
    Ok(())
}

/// `out −= P·Qᵀ`: every entry, or with `upper` only the upper triangle
/// (`j ≥ i`, `out` square; the strict lower triangle is not touched).
/// Entry `(i, j)` subtracts the fixed two-lane reduction of row `i` of
/// `p` against row `j` of `q` ([`gram_runs_band_into`]'s, over every
/// column), computed in register tiles. The sample-space sweep's
/// low-rank updates run on it.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `p` and `q` differ in
/// column count or `out` is not `p.nrows() × q.nrows()`, and
/// [`LinalgError::NotSquare`] for a non-square `out` with `upper`.
pub fn sub_products_into(p: MatRef<'_>, q: MatRef<'_>, upper: bool, out: MatMut<'_>) -> Result<()> {
    if p.ncols() != q.ncols() || out.shape() != (p.nrows(), q.nrows()) {
        return Err(LinalgError::DimensionMismatch {
            op: "sub_products_into",
            lhs: (p.nrows(), q.nrows()),
            rhs: out.shape(),
        });
    }
    let (rows, cols) = out.shape();
    if upper && rows != cols {
        return Err(LinalgError::NotSquare { rows, cols });
    }
    let all = 0..p.ncols();
    for_each_product(
        p,
        q,
        std::slice::from_ref(&all),
        0..rows,
        upper,
        |i, j, v| {
            out.data[i * cols + j] -= v;
        },
    );
    Ok(())
}

/// Copies the strict upper triangle of the square `out` onto its lower
/// triangle, completing a matrix whose upper triangle was written by
/// [`gram_runs_band_into`] or [`sub_products_into`].
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] when `out` is not square.
pub fn mirror_upper_into(out: MatMut<'_>) -> Result<()> {
    let (k, c) = out.shape();
    if k != c {
        return Err(LinalgError::NotSquare { rows: k, cols: c });
    }
    for i in 0..k {
        for j in (i + 1)..k {
            out.data[j * k + i] = out.data[i * k + j];
        }
    }
    Ok(())
}

/// Diagonally weighted dot product `Σᵢ a[i]·b[i]·diag[i]`, accumulated
/// left to right from `+0`, each term `(a[i]·b[i])·diag[i]` — one entry
/// of `A·D·Aᵀ`, which [`outer_gram_diag_into`] reproduces bit for bit:
/// its blocked loop keeps this order and association, its remainder
/// calls this. The sequential fitting engine uses it to grow
/// the Woodbury core one row at a time with entries bit-identical to the
/// batch-assembled matrix.
///
/// Iteration stops at the shortest of the three slices, mirroring the
/// `zip` the matrix kernel has always used; callers screen lengths at
/// their own boundary.
pub fn dot3(a: &[f64], b: &[f64], diag: &[f64]) -> f64 {
    let mut s = 0.0;
    for ((p, q), d) in a.iter().zip(b).zip(diag) {
        s += p * q * d;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap()
    }

    #[test]
    fn dense_view_mirrors_matrix() {
        let m = sample();
        let v = m.as_view();
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(1), m.row(1));
        assert_eq!(v.get(2, 0), 7.0);
        assert_eq!(v.to_matrix(), m);
    }

    #[test]
    fn row_subset_view_resolves_indices() {
        let m = sample();
        let idx = [2usize, 0];
        let v = m.rows_view(&idx);
        assert_eq!(v.shape(), (2, 3));
        assert_eq!(v.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(v.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn strided_view_skips_columns() {
        // A 2x2 window (first two columns) of a 2x3 buffer.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = MatRef::strided(&data, 2, 2, 3).unwrap();
        assert_eq!(v.row(0), &[1.0, 2.0]);
        assert_eq!(v.row(1), &[4.0, 5.0]);
        assert!(MatRef::strided(&data, 2, 4, 3).is_err());
    }

    #[test]
    fn matvec_into_matches_owned() {
        let m = sample();
        let x = crate::Vector::from(vec![1.0, -1.0, 2.0]);
        let owned = m.matvec(&x).unwrap();
        let mut out = vec![f64::NAN; 3];
        matvec_into(m.as_view(), x.as_slice(), &mut out).unwrap();
        assert_eq!(out, owned.as_slice());
    }

    #[test]
    fn matvec_transpose_into_overwrites_stale_output() {
        let m = sample();
        let x = crate::Vector::from(vec![0.5, 0.0, -1.5]);
        let owned = m.matvec_transpose(&x).unwrap();
        let mut out = vec![f64::NAN; 3];
        matvec_transpose_into(m.as_view(), x.as_slice(), &mut out).unwrap();
        assert_eq!(out, owned.as_slice());
    }

    #[test]
    fn gram_into_on_row_subset_matches_copied_submatrix() {
        let m = sample();
        let idx = [0usize, 2];
        let copied = Matrix::from_fn(2, 3, |i, j| m[(idx[i], j)]);
        let mut out = Matrix::zeros(3, 3);
        gram_into(m.rows_view(&idx), out.as_view_mut()).unwrap();
        assert_eq!(out, copied.gram());
    }

    #[test]
    fn matmul_into_matches_owned() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let owned = a.matmul(&b).unwrap();
        let mut out = Matrix::zeros(3, 2);
        matmul_into(a.as_view(), b.as_view(), out.as_view_mut()).unwrap();
        assert_eq!(out, owned);
    }

    #[test]
    fn outer_gram_diag_into_matches_owned() {
        let m = sample();
        let d = [0.5, 2.0, 1.0];
        let owned = m.outer_gram_diag(&d).unwrap();
        let mut out = Matrix::zeros(3, 3);
        outer_gram_diag_into(m.as_view(), &d, out.as_view_mut()).unwrap();
        assert_eq!(out, owned);
    }

    #[test]
    fn dimension_errors_are_reported() {
        let m = sample();
        let mut out3 = vec![0.0; 3];
        let mut out2 = vec![0.0; 2];
        assert!(matvec_into(m.as_view(), &[1.0; 2], &mut out3).is_err());
        assert!(matvec_into(m.as_view(), &[1.0; 3], &mut out2).is_err());
        let mut bad = Matrix::zeros(2, 2);
        assert!(gram_into(m.as_view(), bad.as_view_mut()).is_err());
        assert!(outer_gram_diag_into(m.as_view(), &[1.0; 2], bad.as_view_mut()).is_err());
    }

    #[test]
    #[should_panic(expected = "already row-indexed")]
    fn nested_row_subsets_panic() {
        let m = sample();
        let idx = [0usize, 1];
        let v = m.rows_view(&idx);
        let _ = v.select_rows(&idx);
    }
}
