//! Bitwise-equality property tests for the borrowed-view kernels.
//!
//! Each operation has one implementation over [`MatRef`] views (DESIGN.md
//! §9), so these tests pin what a view must not change, with
//! `f64::to_bits` comparisons under random shapes, random strides, and
//! non-contiguous row-subset views:
//!
//! * a strided or row-subset view gives the same bits as its dense copy;
//! * a Woodbury scratch reused across cases of every shape gives the same
//!   bits as a fresh scratch, so any stale-state leak shows up as a bit
//!   mismatch;
//! * the blocked kernels (`matvec_into`, `outer_gram_diag_into`) and the
//!   blocked `lu_factor_in_place` equal scalar references written out
//!   below — one accumulator per entry, left to right, and the indexed
//!   elimination loop;
//! * the one Cholesky row kernel equals the indexed Cholesky loop, both
//!   as `cholesky_in_place` and as a `GrowingCholesky` grown row by row,
//!   on positive definite, near-singular and refused inputs;
//! * the register-tiled products (`gram_runs_band_into`,
//!   `sub_products_into`) equal their two-lane scalar reference entry by
//!   entry, so the floor gram over any split into row bands, mirrored,
//!   equals the whole gram; and that gram agrees with the
//!   one-accumulator `dot3` entries within `1e-13·max|Γ|`.

use bmf_linalg::woodbury::{solve_diag_plus_gram_into, WoodburyScratch};
use bmf_linalg::{
    cholesky_in_place, dot3, is_exact_zero, lu_factor_in_place, lu_solve_into, solve_lower,
    solve_lower_transpose, view, Cholesky, GrowingCholesky, LinalgError, Lu, MatRef, Matrix,
    Vector,
};
use bmf_stat::prop::{check, DEFAULT_CASES};
use bmf_stat::rng::Rng;

fn elem(rng: &mut Rng) -> f64 {
    (rng.gen_range(-10.0..10.0) * 100.0).round() / 100.0
}

fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| elem(rng)).collect();
    Matrix::from_row_major(rows, cols, data).expect("sized")
}

fn vec_random(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| elem(rng)).collect()
}

/// A random row-index table (duplicates allowed — a view permits them).
fn subset(rng: &mut Rng, parent_rows: usize, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.gen_index(parent_rows)).collect()
}

/// The owned counterpart of a row-subset view: an explicit copy.
fn gather_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    Matrix::from_fn(rows.len(), m.ncols(), |i, j| m[(rows[i], j)])
}

#[track_caller]
fn assert_bits_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "bit mismatch at {i}: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn matvec_into_bitwise_equals_owned_on_row_subsets() {
    check(
        "matvec_into_bitwise_equals_owned_on_row_subsets",
        DEFAULT_CASES,
        |rng| {
            let rows = 1 + rng.gen_index(6);
            let cols = 1 + rng.gen_index(6);
            let m = matrix(rng, rows, cols);
            let sub_len = 1 + rng.gen_index(6);
            let idx = subset(rng, rows, sub_len);
            let copied = gather_rows(&m, &idx);
            let x = vec_random(rng, cols);

            let owned = copied.matvec(&Vector::from(x.clone())).unwrap();
            // Stale garbage in the output buffer must be fully overwritten.
            let mut out = vec![f64::NAN; idx.len()];
            view::matvec_into(m.rows_view(&idx), &x, &mut out).unwrap();
            assert_bits_eq(&out, owned.as_slice());
        },
    );
}

#[test]
fn matvec_transpose_into_bitwise_equals_owned_on_row_subsets() {
    check(
        "matvec_transpose_into_bitwise_equals_owned_on_row_subsets",
        DEFAULT_CASES,
        |rng| {
            let rows = 1 + rng.gen_index(6);
            let cols = 1 + rng.gen_index(6);
            let m = matrix(rng, rows, cols);
            let sub_len = 1 + rng.gen_index(6);
            let idx = subset(rng, rows, sub_len);
            let copied = gather_rows(&m, &idx);
            let mut x = vec_random(rng, idx.len());
            // Exercise the skip-zero shortcut on both paths.
            if !x.is_empty() {
                let z = rng.gen_index(x.len());
                x[z] = 0.0;
            }

            let owned = copied.matvec_transpose(&Vector::from(x.clone())).unwrap();
            let mut out = vec![f64::NAN; cols];
            view::matvec_transpose_into(m.rows_view(&idx), &x, &mut out).unwrap();
            assert_bits_eq(&out, owned.as_slice());
        },
    );
}

#[test]
fn matmul_into_bitwise_equals_owned() {
    check("matmul_into_bitwise_equals_owned", DEFAULT_CASES, |rng| {
        let (m, k, n) = (
            1 + rng.gen_index(5),
            1 + rng.gen_index(5),
            1 + rng.gen_index(5),
        );
        let a = matrix(rng, m, k);
        let b = matrix(rng, k, n);
        let owned = a.matmul(&b).unwrap();
        let mut out = Matrix::from_fn(m, n, |_, _| f64::NAN);
        view::matmul_into(a.as_view(), b.as_view(), out.as_view_mut()).unwrap();
        assert_bits_eq(out.as_slice(), owned.as_slice());
    });
}

#[test]
fn gram_into_bitwise_equals_owned_on_row_subsets() {
    check(
        "gram_into_bitwise_equals_owned_on_row_subsets",
        DEFAULT_CASES,
        |rng| {
            let rows = 1 + rng.gen_index(6);
            let cols = 1 + rng.gen_index(5);
            let m = matrix(rng, rows, cols);
            let sub_len = 1 + rng.gen_index(6);
            let idx = subset(rng, rows, sub_len);
            let owned = gather_rows(&m, &idx).gram();
            let mut out = Matrix::from_fn(cols, cols, |_, _| f64::NAN);
            view::gram_into(m.rows_view(&idx), out.as_view_mut()).unwrap();
            assert_bits_eq(out.as_slice(), owned.as_slice());
        },
    );
}

#[test]
fn outer_gram_diag_into_bitwise_equals_owned_on_row_subsets() {
    check(
        "outer_gram_diag_into_bitwise_equals_owned_on_row_subsets",
        DEFAULT_CASES,
        |rng| {
            let rows = 1 + rng.gen_index(6);
            let cols = 1 + rng.gen_index(5);
            let m = matrix(rng, rows, cols);
            let sub_len = 1 + rng.gen_index(6);
            let idx = subset(rng, rows, sub_len);
            let diag: Vec<f64> = (0..cols).map(|_| rng.gen_range(0.1..5.0)).collect();
            let owned = gather_rows(&m, &idx).outer_gram_diag(&diag).unwrap();
            let k = idx.len();
            let mut out = Matrix::from_fn(k, k, |_, _| f64::NAN);
            view::outer_gram_diag_into(m.rows_view(&idx), &diag, out.as_view_mut()).unwrap();
            assert_bits_eq(out.as_slice(), owned.as_slice());
        },
    );
}

#[test]
fn strided_views_bitwise_equal_dense_copies() {
    check(
        "strided_views_bitwise_equal_dense_copies",
        DEFAULT_CASES,
        |rng| {
            // Embed an r × c matrix as the leading columns of a wider
            // r × stride buffer, then view it with that row stride.
            let rows = 1 + rng.gen_index(5);
            let cols = 1 + rng.gen_index(4);
            let stride = cols + rng.gen_index(4);
            let backing = vec_random(rng, rows * stride);
            let v = MatRef::strided(&backing, rows, cols, stride).unwrap();
            let dense = v.to_matrix();

            let x = vec_random(rng, cols);
            let owned = dense.matvec(&Vector::from(x.clone())).unwrap();
            let mut out = vec![f64::NAN; rows];
            view::matvec_into(v, &x, &mut out).unwrap();
            assert_bits_eq(&out, owned.as_slice());

            let mut g = Matrix::from_fn(cols, cols, |_, _| f64::NAN);
            view::gram_into(v, g.as_view_mut()).unwrap();
            assert_bits_eq(g.as_slice(), dense.gram().as_slice());
        },
    );
}

/// The indexed Cholesky loop, written out: row by row, each entry
/// `s = a[i][j]; s -= a[i][k]·a[j][k] …`, over `a[j][j]` below the
/// diagonal and its square root on it, then the upper triangle zeroed.
/// On a refused pivot `a` keeps its partial factor.
fn indexed_cholesky(a: &mut Matrix) -> Result<(), LinalgError> {
    let n = a.nrows();
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i, value: s });
                }
                a[(i, j)] = s.sqrt();
            } else {
                a[(i, j)] = s / a[(j, j)];
            }
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            a[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// The refused pivot of a factorization: its index and the bits of its
/// value. Any other outcome fails the test.
#[track_caller]
fn refused_pivot(res: Result<(), LinalgError>) -> Option<(usize, u64)> {
    match res {
        Ok(()) => None,
        Err(LinalgError::NotPositiveDefinite { pivot, value }) => Some((pivot, value.to_bits())),
        Err(e) => panic!("unexpected error {e:?}"),
    }
}

/// A symmetric matrix through its lower triangle, finite junk above it:
/// `BᵀB + δI` with `B` of `rows × n`. Positive definite for `δ > 0`;
/// singular in exact arithmetic for `rows < n, δ = 0`, so its pivots
/// sit at the rounding level; and refused at pivot `p` after
/// `a[p][p]` is pushed below zero.
fn lower_triangle_input(rng: &mut Rng, n: usize) -> Matrix {
    let (rows, delta) = match rng.gen_index(3) {
        0 => (n + 1 + rng.gen_index(3), 1.0),
        1 => (rng.gen_index(n + 1), 0.0),
        _ => (n + 1, 1e-3),
    };
    let mut a = matrix(rng, rows, n).gram();
    a.add_diagonal_mut(&vec![delta; n]).unwrap();
    if n > 0 && rng.gen_bool(0.3) {
        let p = rng.gen_index(n);
        a[(p, p)] = -rng.gen_range(0.0..5.0);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            a[(i, j)] = 100.0 * elem(rng);
        }
    }
    a
}

/// `a`'s first `p` rows, lower triangle only: a partial factor as a
/// `p × p` factor.
fn leading_factor(a: &Matrix, p: usize) -> Matrix {
    Matrix::from_fn(p, p, |i, j| if j <= i { a[(i, j)] } else { 0.0 })
}

#[test]
fn cholesky_row_kernel_bitwise_equals_indexed_loop() {
    check(
        "cholesky_row_kernel_bitwise_equals_indexed_loop",
        4 * DEFAULT_CASES,
        |rng| {
            let n = rng.gen_index(41);
            let a = lower_triangle_input(rng, n);
            let mut reference = a.clone();
            let refused = refused_pivot(indexed_cholesky(&mut reference));

            // The whole-matrix factorization: the same bits, or the same
            // refused pivot with the same value.
            let mut in_place = a.clone();
            assert_eq!(refused_pivot(cholesky_in_place(&mut in_place)), refused);
            if refused.is_none() {
                assert_bits_eq(in_place.as_slice(), reference.as_slice());
            }

            // A factor grown one row at a time, through the 4 → 8 → 16 →
            // 32 relayouts and on a buffer reserved up front: the same
            // bits after every row, and a refused row leaves the factor
            // as it was.
            let mut reserved = GrowingCholesky::new();
            reserved.reserve(n);
            for mut grow in [GrowingCholesky::new(), reserved] {
                let rows = refused.map_or(n, |(p, _)| p);
                for i in 0..rows {
                    grow.push_row(&a.row(i)[..i], a[(i, i)]).unwrap();
                }
                let grown = grow.factor_view().unwrap().to_matrix();
                assert_bits_eq(
                    grown.as_slice(),
                    leading_factor(&reference, rows).as_slice(),
                );
                if let Some((p, value)) = refused {
                    let res = grow.push_row(&a.row(p)[..p], a[(p, p)]);
                    assert_eq!(refused_pivot(res), Some((p, value)));
                    assert_eq!(grow.dim(), p);
                    let after = grow.factor_view().unwrap().to_matrix();
                    assert_bits_eq(after.as_slice(), grown.as_slice());
                }
            }
        },
    );
}

#[test]
fn strided_factor_solve_bitwise_equals_owned_solve() {
    check(
        "strided_factor_solve_bitwise_equals_owned_solve",
        DEFAULT_CASES,
        |rng| {
            let n = 1 + rng.gen_index(5);
            let b = matrix(rng, n + 1, n);
            let mut a = b.gram();
            a.add_diagonal_mut(&vec![1.0; n]).unwrap();
            let owned = Cholesky::new(&a).unwrap();

            // The triangular kernels over a strided copy of the factor
            // (the layout of a capacity-padded growing factor, garbage in
            // the padding) solve identically to the owned dense solve.
            let rhs = vec_random(rng, n);
            let x_owned = owned.solve(&Vector::from(rhs.clone())).unwrap();
            let stride = n + rng.gen_index(3);
            let mut padded = vec_random(rng, n * stride);
            for i in 0..n {
                padded[i * stride..i * stride + n].copy_from_slice(owned.factor().row(i));
            }
            let l = MatRef::strided(&padded, n, n, stride).unwrap();
            let mut x = rhs;
            solve_lower(l, &mut x).unwrap();
            solve_lower_transpose(l, &mut x).unwrap();
            assert_bits_eq(&x, x_owned.as_slice());
        },
    );
}

#[test]
fn lu_in_place_bitwise_equals_owned_solve() {
    check(
        "lu_in_place_bitwise_equals_owned_solve",
        DEFAULT_CASES,
        |rng| {
            let n = 1 + rng.gen_index(5);
            let mut a = matrix(rng, n, n);
            for i in 0..n {
                a[(i, i)] += if a[(i, i)] >= 0.0 { 3.0 } else { -3.0 };
            }
            let b = vec_random(rng, n);

            let owned = Lu::new(&a).unwrap();
            let x_owned = owned.solve(&Vector::from(b.clone())).unwrap();

            let mut packed = a.clone();
            let mut perm = Vec::new();
            lu_factor_in_place(&mut packed, &mut perm).unwrap();
            let mut x = vec![f64::NAN; n];
            lu_solve_into(&packed, &perm, &b, &mut x).unwrap();
            assert_bits_eq(&x, x_owned.as_slice());
        },
    );
}

/// One Woodbury solve on a fresh scratch: the reference a
/// reused scratch and a row-subset view must reproduce bit for bit.
fn woodbury_fresh(d: &[f64], g: MatRef<'_>, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut out = vec![f64::NAN; rhs.len()];
    solve_diag_plus_gram_into(d, g, rhs, &mut WoodburyScratch::new(), &mut out)?;
    Ok(out)
}

#[test]
fn woodbury_into_bitwise_equals_owned_with_reused_scratch() {
    // ONE scratch across every case: stale state from a previous shape
    // must never change a result.
    let mut scratch = WoodburyScratch::new();
    let mut out = Vec::new();
    check(
        "woodbury_into_bitwise_equals_owned_with_reused_scratch",
        DEFAULT_CASES,
        |rng| {
            let k = 2 + rng.gen_index(4);
            let m = k + 1 + rng.gen_index(8);
            let g = matrix(rng, k, m);
            let mut d: Vec<f64> = (0..m).map(|_| rng.gen_range(0.1..5.0)).collect();
            // Sometimes a zero precision, which the solver refuses,
            // sometimes strictly positive: a refusal must leave the shared
            // scratch as usable as a fresh one.
            for _ in 0..rng.gen_index(3) {
                let z = rng.gen_index(m);
                d[z] = 0.0;
            }
            let rhs = vec_random(rng, m);

            let fresh = woodbury_fresh(&d, g.as_view(), &rhs);
            out.clear();
            out.resize(m, f64::NAN);
            let reused = solve_diag_plus_gram_into(&d, g.as_view(), &rhs, &mut scratch, &mut out);
            match (fresh, reused) {
                (Ok(a), Ok(_res)) => assert_bits_eq(&out, &a),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("fresh {a:?} vs reused scratch {b:?} disagree on fallibility"),
            }
        },
    );
}

#[test]
fn woodbury_into_on_row_subset_equals_owned_on_copy() {
    let mut scratch = WoodburyScratch::new();
    check(
        "woodbury_into_on_row_subset_equals_owned_on_copy",
        DEFAULT_CASES,
        |rng| {
            let rows = 3 + rng.gen_index(4);
            let m = 8 + rng.gen_index(6);
            let g = matrix(rng, rows, m);
            let sub_len = 2 + rng.gen_index(3);
            let idx = subset(rng, rows, sub_len);
            let copied = gather_rows(&g, &idx);
            let d: Vec<f64> = (0..m).map(|_| rng.gen_range(0.1..5.0)).collect();
            let rhs = vec_random(rng, m);

            let on_copy = woodbury_fresh(&d, copied.as_view(), &rhs).unwrap();
            let mut out = vec![f64::NAN; m];
            solve_diag_plus_gram_into(&d, g.rows_view(&idx), &rhs, &mut scratch, &mut out).unwrap();
            assert_bits_eq(&out, &on_copy);
        },
    );
}

/// Scalar reference for one `matvec_into` entry: a single accumulator,
/// left to right, as `Iterator::sum` folds it.
fn ref_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(p, q)| p * q).sum()
}

/// Scalar reference for one `outer_gram_diag_into` entry: a single
/// accumulator from +0, left to right, each term `(a·b)·d`.
fn ref_dot3(a: &[f64], b: &[f64], diag: &[f64]) -> f64 {
    let mut s = 0.0;
    for ((p, q), d) in a.iter().zip(b).zip(diag) {
        s += p * q * d;
    }
    s
}

/// Scalar reference for `lu_factor_in_place`: the indexed partial-pivoting
/// loop, returning the permutation sign or the singular pivot index.
fn ref_lu_factor(a: &mut Matrix, perm: &mut Vec<usize>) -> Result<f64, usize> {
    let n = a.nrows();
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f64, |m, x| m.max(x.abs()))
        .max(1.0);
    let tol = 1e-14 * scale;
    perm.clear();
    perm.extend(0..n);
    let mut sign = 1.0;
    for k in 0..n {
        let mut p = k;
        let mut best = a[(k, k)].abs();
        for i in (k + 1)..n {
            let v = a[(i, k)].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < tol {
            return Err(k);
        }
        if p != k {
            for j in 0..n {
                let tmp = a[(k, j)];
                a[(k, j)] = a[(p, j)];
                a[(p, j)] = tmp;
            }
            perm.swap(k, p);
            sign = -sign;
        }
        let pivot = a[(k, k)];
        for i in (k + 1)..n {
            let m = a[(i, k)] / pivot;
            a[(i, k)] = m;
            if is_exact_zero(m) {
                continue;
            }
            for j in (k + 1)..n {
                let ukj = a[(k, j)];
                a[(i, j)] -= m * ukj;
            }
        }
    }
    Ok(sign)
}

/// A row-index table of `len` rows that repeats at least one row when
/// `len >= 2`, so every blocked kernel sees duplicated view rows.
fn subset_with_duplicate(rng: &mut Rng, parent_rows: usize, len: usize) -> Vec<usize> {
    let mut idx = subset(rng, parent_rows, len);
    if len >= 2 {
        let (from, to) = (rng.gen_index(len), rng.gen_index(len));
        idx[to] = idx[from];
    }
    idx
}

/// Elements from `elem` with sprinkled exact `±0.0`, so signed-zero
/// products reach the accumulators.
fn with_zeros(rng: &mut Rng, mut v: Vec<f64>) -> Vec<f64> {
    for x in &mut v {
        match rng.gen_index(6) {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    v
}

#[test]
fn matvec_into_bitwise_equals_scalar_dot_for_every_block_remainder() {
    check(
        "matvec_into_bitwise_equals_scalar_dot_for_every_block_remainder",
        DEFAULT_CASES,
        |rng| {
            let parent_rows = 1 + rng.gen_index(6);
            let cols = rng.gen_index(12);
            let data = vec_random(rng, parent_rows * cols);
            let data = with_zeros(rng, data);
            let m = Matrix::from_row_major(parent_rows, cols, data).unwrap();
            let x = vec_random(rng, cols);
            let x = with_zeros(rng, x);
            // Every remainder of the 4-row block, on a dense view and on a
            // row subset with duplicated rows.
            for rows in 0..=9 {
                let idx = subset_with_duplicate(rng, parent_rows, rows);
                let v = m.rows_view(&idx);
                let mut out = vec![f64::NAN; rows];
                view::matvec_into(v, &x, &mut out).unwrap();
                let want: Vec<f64> = (0..rows).map(|i| ref_dot(v.row(i), &x)).collect();
                assert_bits_eq(&out, &want);

                let dense = gather_rows(&m, &idx);
                let mut out = vec![f64::NAN; rows];
                view::matvec_into(dense.as_view(), &x, &mut out).unwrap();
                assert_bits_eq(&out, &want);
            }
        },
    );
}

#[test]
fn outer_gram_diag_into_bitwise_equals_dot3_for_every_block_remainder() {
    check(
        "outer_gram_diag_into_bitwise_equals_dot3_for_every_block_remainder",
        DEFAULT_CASES,
        |rng| {
            let parent_rows = 1 + rng.gen_index(6);
            let cols = rng.gen_index(9);
            let data = vec_random(rng, parent_rows * cols);
            let data = with_zeros(rng, data);
            let m = Matrix::from_row_major(parent_rows, cols, data).unwrap();
            // Positive weights with exact zeros mixed in: the 0/1
            // indicator weighting of the missing-prior kernel is a case.
            let diag: Vec<f64> = (0..cols).map(|_| rng.gen_range(0.1..5.0)).collect();
            let diag = with_zeros(rng, diag);
            for rows in 0..=9 {
                let idx = subset_with_duplicate(rng, parent_rows, rows);
                let v = m.rows_view(&idx);
                let mut out = Matrix::from_fn(rows, rows, |_, _| f64::NAN);
                view::outer_gram_diag_into(v, &diag, out.as_view_mut()).unwrap();
                for i in 0..rows {
                    for j in i..rows {
                        let want = ref_dot3(v.row(i), v.row(j), &diag);
                        // The streaming engine grows this matrix with dot3.
                        assert_eq!(dot3(v.row(i), v.row(j), &diag).to_bits(), want.to_bits());
                        assert_eq!(
                            out[(i, j)].to_bits(),
                            want.to_bits(),
                            "({i}, {j}) of {rows}"
                        );
                        assert_eq!(
                            out[(j, i)].to_bits(),
                            want.to_bits(),
                            "({j}, {i}) of {rows}"
                        );
                    }
                }
            }
        },
    );
}

/// The tiled products' per-entry reduction, written out: per run, even
/// positions into lane 0 and odd ones into lane 1 (an odd run's last
/// product into lane 0), each from `+0` in order; then lane 0 + lane 1.
fn ref_dot_runs(a: &[f64], b: &[f64], runs: &[std::ops::Range<usize>]) -> f64 {
    let mut lane = [0.0f64; 2];
    for run in runs {
        for (t, k) in run.clone().enumerate() {
            lane[t % 2] += a[k] * b[k];
        }
    }
    lane[0] + lane[1]
}

/// Random ascending runs over `0..cols`: the gaps are the "missing"
/// columns, including runs of length one and adjacent gaps.
fn random_runs(rng: &mut Rng, cols: usize) -> Vec<std::ops::Range<usize>> {
    let missing: Vec<bool> = (0..cols).map(|_| rng.gen_bool(0.25)).collect();
    let mut runs = Vec::new();
    let mut start = None;
    for (j, &gone) in missing.iter().chain([&true]).enumerate() {
        match (gone, start) {
            (false, None) => start = Some(j),
            (true, Some(s)) => {
                runs.push(s..j);
                start = None;
            }
            _ => {}
        }
    }
    runs
}

#[test]
fn gram_runs_bands_bitwise_equal_the_whole_gram() {
    check(
        "gram_runs_bands_bitwise_equal_the_whole_gram",
        DEFAULT_CASES,
        |rng| {
            // Every remainder of the 2 × 4 tile, at up to four whole
            // tiles per row.
            let k = rng.gen_index(20);
            let cols = rng.gen_index(33);
            let m = matrix(rng, k, cols);
            let runs = random_runs(rng, cols);
            let mut whole = Matrix::zeros(k, k);
            view::gram_runs_band_into(m.as_view(), &runs, 0..k, whole.as_mut_slice()).unwrap();
            view::mirror_upper_into(whole.as_view_mut()).unwrap();
            // Random cut points (odd band edges included), each band
            // written into its rows of one matrix, then mirrored.
            let mut cuts: Vec<usize> = (0..rng.gen_index(5))
                .map(|_| rng.gen_index(k + 1))
                .collect();
            cuts.extend([0, k]);
            cuts.sort_unstable();
            let mut banded = Matrix::from_fn(k, k, |_, _| f64::NAN);
            for w in cuts.windows(2) {
                let band = &mut banded.as_mut_slice()[w[0] * k..w[1] * k];
                view::gram_runs_band_into(m.as_view(), &runs, w[0]..w[1], band).unwrap();
            }
            view::mirror_upper_into(banded.as_view_mut()).unwrap();
            assert_bits_eq(banded.as_slice(), whole.as_slice());
            // Each entry is the two-lane reduction, bit for bit, and the
            // one-accumulator weighted dot to rounding.
            let mut ones = vec![0.0; cols];
            for run in &runs {
                ones[run.clone()].fill(1.0);
            }
            let scale = whole.as_slice().iter().fold(0.0f64, |s, x| s.max(x.abs()));
            for i in 0..k {
                for j in i..k {
                    let want = ref_dot_runs(m.row(i), m.row(j), &runs);
                    assert_eq!(whole[(i, j)].to_bits(), want.to_bits(), "({i}, {j})");
                    let dot = dot3(m.row(i), m.row(j), &ones);
                    assert!((whole[(i, j)] - dot).abs() <= 1e-13 * scale);
                }
            }
            // Runs past the columns are refused.
            let bad = 0..cols + 1;
            let mut out = vec![0.0; k * k];
            let bad = std::slice::from_ref(&bad);
            assert!(view::gram_runs_band_into(m.as_view(), bad, 0..k, &mut out).is_err());
        },
    );
}

#[test]
fn sub_products_into_bitwise_equals_two_lane_reference() {
    check(
        "sub_products_into_bitwise_equals_two_lane_reference",
        DEFAULT_CASES,
        |rng| {
            let (rows, inner) = (rng.gen_index(13), rng.gen_index(21));
            let upper = rng.gen_bool(0.5);
            let cols = if upper { rows } else { rng.gen_index(13) };
            let p = matrix(rng, rows, inner);
            let q = matrix(rng, cols, inner);
            let start = matrix(rng, rows, cols);
            let mut out = start.clone();
            view::sub_products_into(p.as_view(), q.as_view(), upper, out.as_view_mut()).unwrap();
            let full = 0..inner;
            let full = std::slice::from_ref(&full);
            for i in 0..rows {
                for j in 0..cols {
                    let want = if upper && j < i {
                        start[(i, j)]
                    } else {
                        start[(i, j)] - ref_dot_runs(p.row(i), q.row(j), full)
                    };
                    assert_eq!(out[(i, j)].to_bits(), want.to_bits(), "({i}, {j})");
                }
            }
        },
    );
}

#[test]
fn lu_factor_in_place_bitwise_equals_indexed_reference() {
    let mut perm = Vec::new();
    let mut ref_perm = Vec::new();
    // Singular pivots past the first 16-pivot panel, not on a panel's
    // first column, with a 16-column strip beyond the panel: the blocked
    // elimination owes that strip the panel's earlier pivots.
    let mut singular_mid_later_panel = 0;
    check(
        "lu_factor_in_place_bitwise_equals_indexed_reference",
        DEFAULT_CASES,
        |rng| {
            // Every remainder of a 16-pivot panel (and of a 16-column
            // strip) at 0-4 whole panels: 1 <= n <= 79.
            let panels = rng.gen_index(5);
            for n in (16 * panels..16 * (panels + 1)).filter(|&n| n > 0) {
                // No diagonal boost: pivot swaps are the common case.
                let mut a = matrix(rng, n, n);
                let signed_zero = |rng: &mut Rng| if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                // Exact-zero multipliers: zero part of the first column
                // below the diagonal, and sometimes a whole later column
                // (one anywhere, one inside a later panel). Signed zeros
                // elsewhere make the skip observable: `-0 - (-0)` is +0.
                for i in 1..n {
                    if rng.gen_bool(0.4) {
                        a[(i, 0)] = signed_zero(rng);
                    }
                }
                if n > 2 && rng.gen_bool(0.3) {
                    let c = 1 + rng.gen_index(n - 1);
                    for i in 0..n {
                        a[(i, c)] = signed_zero(rng);
                    }
                }
                if n > 17 && rng.gen_bool(0.3) {
                    let c = 17 + rng.gen_index(n - 17);
                    for i in 0..n {
                        a[(i, c)] = signed_zero(rng);
                    }
                }
                for i in 0..n {
                    for j in 0..n {
                        if i != j && rng.gen_bool(0.1) {
                            a[(i, j)] = signed_zero(rng);
                        }
                    }
                }
                // Sometimes an exactly singular matrix (a repeated row).
                if n > 1 && rng.gen_bool(0.2) {
                    let (r, s) = (rng.gen_index(n), rng.gen_index(n));
                    for j in 0..n {
                        a[(s, j)] = a[(r, j)];
                    }
                }

                let mut packed = a.clone();
                let got = lu_factor_in_place(&mut packed, &mut perm);
                let mut reference = a.clone();
                let want = ref_lu_factor(&mut reference, &mut ref_perm);
                match (got, want) {
                    (Ok(sign), Ok(ref_sign)) => {
                        assert_eq!(sign.to_bits(), ref_sign.to_bits(), "n = {n}");
                        assert_eq!(perm, ref_perm, "n = {n}");
                        assert_bits_eq(packed.as_slice(), reference.as_slice());
                    }
                    (Err(LinalgError::Singular { pivot }), Err(ref_pivot)) => {
                        assert_eq!(pivot, ref_pivot, "n = {n}");
                        // The partially eliminated matrices agree too.
                        assert_bits_eq(packed.as_slice(), reference.as_slice());
                        let panel_start = pivot / 16 * 16;
                        if pivot > 16 && pivot != panel_start && n - panel_start >= 32 {
                            singular_mid_later_panel += 1;
                        }
                    }
                    (got, want) => panic!("n = {n}: lu {got:?} vs indexed reference {want:?}"),
                }
            }
        },
    );
    assert!(
        singular_mid_later_panel > 0,
        "no singular pivot inside a later panel was exercised"
    );
}
