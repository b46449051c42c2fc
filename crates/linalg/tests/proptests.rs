//! Property-based tests for the dense linear-algebra kernels.
//!
//! Strategy: generate random well-conditioned inputs with the in-tree
//! harness (`bmf_stat::prop`), then check algebraic identities
//! (factor-reconstruct, solve-then-multiply, fast-vs-direct equivalence)
//! within tolerances scaled to the operand magnitudes. On failure the
//! harness prints the case seed; replay it with `BMF_PROP_CASE_SEED`.

use bmf_linalg::woodbury::{solve_diag_plus_gram_into, WoodburyScratch};
use bmf_linalg::{LinalgError, Matrix, Vector};
use bmf_stat::prop::{check, DEFAULT_CASES};
use bmf_stat::rng::Rng;

/// Bounded element generator keeping matrices well scaled.
fn elem(rng: &mut Rng) -> f64 {
    (rng.gen_range(-10.0..10.0) * 100.0).round() / 100.0
}

fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| elem(rng)).collect();
    Matrix::from_row_major(rows, cols, data).expect("sized")
}

fn vector(rng: &mut Rng, n: usize) -> Vector {
    Vector::from((0..n).map(|_| elem(rng)).collect::<Vec<f64>>())
}

/// `(D + GᵀG) x = rhs` through the Woodbury solver on a fresh scratch.
fn woodbury_solve(d: &[f64], g: &Matrix, rhs: &Vector) -> Result<Vector, LinalgError> {
    let mut out = vec![0.0; rhs.len()];
    solve_diag_plus_gram_into(
        d,
        g.as_view(),
        rhs.as_slice(),
        &mut WoodburyScratch::new(),
        &mut out,
    )?;
    Ok(Vector::from(out))
}

/// An SPD matrix built as BᵀB + I.
fn spd(rng: &mut Rng, n: usize) -> Matrix {
    let b = matrix(rng, n + 1, n);
    let mut a = b.gram();
    a.add_diagonal_mut(&vec![1.0; n]).expect("square");
    a
}

#[test]
fn transpose_is_involution() {
    check("transpose_is_involution", DEFAULT_CASES, |rng| {
        let m = matrix(rng, 4, 6);
        assert_eq!(m.transpose().transpose(), m);
    });
}

#[test]
fn matmul_associates_with_matvec() {
    check("matmul_associates_with_matvec", DEFAULT_CASES, |rng| {
        let a = matrix(rng, 3, 4);
        let b = matrix(rng, 4, 5);
        let x = vector(rng, 5);
        // (A B) x == A (B x)
        let lhs = a.matmul(&b).unwrap().matvec(&x).unwrap();
        let rhs = a.matvec(&b.matvec(&x).unwrap()).unwrap();
        let scale = lhs.norm2().max(1.0);
        assert!(lhs.sub(&rhs).unwrap().norm2() <= 1e-10 * scale);
    });
}

#[test]
fn gram_matches_explicit_product() {
    check("gram_matches_explicit_product", DEFAULT_CASES, |rng| {
        let m = matrix(rng, 5, 3);
        let fast = m.gram();
        let explicit = m.transpose().matmul(&m).unwrap();
        assert!(fast.sub(&explicit).unwrap().norm_frobenius() <= 1e-10);
        assert!(fast.is_symmetric(1e-12));
    });
}

#[test]
fn matvec_transpose_matches_explicit() {
    check("matvec_transpose_matches_explicit", DEFAULT_CASES, |rng| {
        let m = matrix(rng, 4, 7);
        let x = vector(rng, 4);
        let fast = m.matvec_transpose(&x).unwrap();
        let explicit = m.transpose().matvec(&x).unwrap();
        assert!(fast.sub(&explicit).unwrap().norm2() <= 1e-10);
    });
}

#[test]
fn cholesky_reconstructs() {
    check("cholesky_reconstructs", DEFAULT_CASES, |rng| {
        let a = spd(rng, 4);
        let chol = a.cholesky().unwrap();
        let l = chol.factor();
        let rec = l.matmul(&l.transpose()).unwrap();
        let scale = a.norm_frobenius().max(1.0);
        assert!(rec.sub(&a).unwrap().norm_frobenius() <= 1e-9 * scale);
    });
}

#[test]
fn cholesky_solve_satisfies_system() {
    check("cholesky_solve_satisfies_system", DEFAULT_CASES, |rng| {
        let a = spd(rng, 4);
        let b = vector(rng, 4);
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap().sub(&b).unwrap();
        assert!(r.norm2() <= 1e-8 * b.norm2().max(1.0));
    });
}

#[test]
fn lu_solve_satisfies_system() {
    check("lu_solve_satisfies_system", DEFAULT_CASES, |rng| {
        // SPD inputs are trivially nonsingular for LU too.
        let a = spd(rng, 4);
        let b = vector(rng, 4);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap().sub(&b).unwrap();
        assert!(r.norm2() <= 1e-8 * b.norm2().max(1.0));
    });
}

#[test]
fn lu_det_matches_cholesky_logdet() {
    check("lu_det_matches_cholesky_logdet", DEFAULT_CASES, |rng| {
        let a = spd(rng, 3);
        let det = a.lu().unwrap().det();
        let logdet = a.cholesky().unwrap().log_det();
        assert!(det > 0.0);
        assert!((det.ln() - logdet).abs() <= 1e-8 * logdet.abs().max(1.0));
    });
}

#[test]
fn qr_least_squares_residual_is_orthogonal() {
    check(
        "qr_least_squares_residual_is_orthogonal",
        DEFAULT_CASES,
        |rng| {
            // The LS residual must be orthogonal to the column space of G
            // whenever G has full column rank (guard via R diagonal).
            let g = matrix(rng, 8, 3);
            let y = vector(rng, 8);
            let qr = g.qr().unwrap();
            let r = qr.r();
            let full_rank = (0..3).all(|i| r[(i, i)].abs() > 1e-6);
            if !full_rank {
                return; // skip the (rare) rank-deficient draw
            }
            let x = qr.solve_least_squares(&y).unwrap();
            let resid = g.matvec(&x).unwrap().sub(&y).unwrap();
            let gt_r = g.matvec_transpose(&resid).unwrap();
            assert!(gt_r.norm_inf() <= 1e-7 * y.norm2().max(1.0));
        },
    );
}

#[test]
fn woodbury_matches_direct() {
    check("woodbury_matches_direct", DEFAULT_CASES, |rng| {
        let g = matrix(rng, 3, 10);
        let d: Vec<f64> = (0..10).map(|_| rng.gen_range(0.1..5.0)).collect();
        let rhs = vector(rng, 10);
        let fast = woodbury_solve(&d, &g, &rhs).unwrap();
        let mut h = g.gram();
        h.add_diagonal_mut(&d).unwrap();
        let direct = h.cholesky().unwrap().solve(&rhs).unwrap();
        let scale = direct.norm2().max(1.0);
        assert!(fast.sub(&direct).unwrap().norm2() <= 1e-7 * scale);
    });
}

#[test]
fn select_columns_preserves_entries() {
    check("select_columns_preserves_entries", DEFAULT_CASES, |rng| {
        let m = matrix(rng, 3, 6);
        let idx = [5usize, 0, 3];
        let s = m.select_columns(&idx);
        for i in 0..3 {
            for (jj, &j) in idx.iter().enumerate() {
                assert_eq!(s[(i, jj)], m[(i, j)]);
            }
        }
    });
}

#[test]
fn vector_dot_cauchy_schwarz() {
    check("vector_dot_cauchy_schwarz", DEFAULT_CASES, |rng| {
        let a = vector(rng, 6);
        let b = vector(rng, 6);
        let lhs = a.dot(&b).unwrap().abs();
        let rhs = a.norm2() * b.norm2();
        assert!(lhs <= rhs + 1e-9);
    });
}

#[test]
fn triangle_inequality() {
    check("triangle_inequality", DEFAULT_CASES, |rng| {
        let a = vector(rng, 6);
        let b = vector(rng, 6);
        let sum = a.add(&b).unwrap();
        assert!(sum.norm2() <= a.norm2() + b.norm2() + 1e-9);
    });
}
