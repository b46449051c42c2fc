//! Property tests for the Householder kernels behind the sample-space
//! cross-validation sweep: [`Qr`]'s reflector applications, the
//! symmetric tridiagonal reduction, the shifted tridiagonal LDLᵀ solve
//! and the implicit-QL eigenvalues, each against an explicit dense
//! reference. The factorization itself is also pinned bit for bit to
//! the classic column-loop Householder QR, which every least-squares
//! and OMP fit goes through.

use bmf_linalg::{tridiagonal, LinalgError, Matrix, Reflectors};
use bmf_stat::prop::{check, DEFAULT_CASES};
use bmf_stat::rng::Rng;

fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0..2.0))
}

fn symmetric(rng: &mut Rng, n: usize) -> Matrix {
    let a = matrix(rng, n, n);
    Matrix::from_fn(n, n, |i, j| a[(i.min(j), i.max(j))])
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.sub(b)
        .unwrap()
        .as_slice()
        .iter()
        .fold(0.0, |m, x| m.max(x.abs()))
}

/// `Q` (or `H`) as an explicit matrix: the reflectors applied to `I`.
fn explicit(refl: &Reflectors<'_>) -> Matrix {
    let n = refl.packed.ncols();
    let mut q = Matrix::identity(n);
    refl.apply_q_in_place(q.as_mut_slice(), &mut vec![0.0; n])
        .unwrap();
    q
}

fn tridiagonal_matrix(d: &[f64], e: &[f64]) -> Matrix {
    Matrix::from_fn(d.len(), d.len(), |i, j| match i.abs_diff(j) {
        0 => d[i],
        1 => e[i.min(j)],
        _ => 0.0,
    })
}

#[test]
fn qr_reflectors_match_explicit_q() {
    check("qr reflectors == explicit Q", DEFAULT_CASES, |rng| {
        let n = 1 + rng.gen_index(6);
        let m = n + rng.gen_index(6);
        let a = matrix(rng, m, n);
        let qr = a.qr().unwrap();
        let refl = qr.reflectors();
        let q = explicit(&refl);
        // Q is orthogonal and Q[:, :n] R reproduces A.
        assert!(max_abs_diff(&q.transpose().matmul(&q).unwrap(), &Matrix::identity(m)) < 1e-12);
        let r = qr.r();
        let qn = Matrix::from_fn(m, n, |i, j| q[(i, j)]);
        assert!(max_abs_diff(&qn.matmul(&r).unwrap(), &a) < 1e-12);
        // Block applications equal the explicit products.
        let c = 1 + rng.gen_index(4);
        let b = matrix(rng, m, c);
        let mut w = vec![0.0; c];
        let mut qtb = b.clone();
        refl.apply_qt_in_place(qtb.as_mut_slice(), &mut w).unwrap();
        assert!(max_abs_diff(&qtb, &q.transpose().matmul(&b).unwrap()) < 1e-12);
        let mut qb = b.clone();
        refl.apply_q_in_place(qb.as_mut_slice(), &mut w).unwrap();
        assert!(max_abs_diff(&qb, &q.matmul(&b).unwrap()) < 1e-12);
        // The congruence of a symmetric matrix.
        let s = symmetric(rng, m);
        let mut c_s = s.clone();
        refl.congruence_in_place(&mut c_s, &mut vec![0.0; m])
            .unwrap();
        let want = q.transpose().matmul(&s).unwrap().matmul(&q).unwrap();
        assert!(max_abs_diff(&c_s, &want) < 1e-12);
        // A block of the wrong height is rejected.
        assert!(matches!(
            refl.apply_qt_in_place(&mut vec![0.0; m + 1], &mut [0.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    });
}

/// The classic column-loop Householder QR: returns `R` row-major.
fn reference_r(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut qr = a.clone();
    for k in 0..n {
        let mut norm2 = 0.0;
        for i in k..m {
            norm2 += qr[(i, k)] * qr[(i, k)];
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            continue;
        }
        let alpha = qr[(k, k)];
        let beta = -alpha.signum() * norm;
        let v0 = alpha - beta;
        let tau = -v0 / beta;
        let inv_v0 = 1.0 / v0;
        for i in (k + 1)..m {
            qr[(i, k)] *= inv_v0;
        }
        qr[(k, k)] = beta;
        for j in (k + 1)..n {
            let mut s = qr[(k, j)];
            for i in (k + 1)..m {
                s += qr[(i, k)] * qr[(i, j)];
            }
            s *= tau;
            qr[(k, j)] -= s;
            for i in (k + 1)..m {
                let vik = qr[(i, k)];
                qr[(i, j)] -= s * vik;
            }
        }
    }
    Matrix::from_fn(n, n, |i, j| if j >= i { qr[(i, j)] } else { 0.0 })
}

#[test]
fn qr_factor_bits_equal_the_column_loop() {
    check("qr bits == column loop", DEFAULT_CASES, |rng| {
        let n = 1 + rng.gen_index(7);
        let m = n + rng.gen_index(7);
        let a = matrix(rng, m, n);
        let got = a.qr().unwrap().r();
        let want = reference_r(&a);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    });
}

#[test]
fn tridiagonalization_is_an_orthogonal_similarity() {
    check("S = H T Hᵀ", DEFAULT_CASES, |rng| {
        let n = rng.gen_index(12);
        let s = symmetric(rng, n);
        let mut packed = s.clone();
        let (mut d, mut e, mut tau, mut w) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        tridiagonal::tridiagonalize_in_place(&mut packed, &mut d, &mut e, &mut tau, &mut w)
            .unwrap();
        assert_eq!((d.len(), e.len()), (n, n.saturating_sub(1)));
        let h = explicit(&Reflectors::new(&packed, &tau, 1));
        assert!(max_abs_diff(&h.transpose().matmul(&h).unwrap(), &Matrix::identity(n)) < 1e-12);
        let t = h.transpose().matmul(&s).unwrap().matmul(&h).unwrap();
        let scale = s.norm_frobenius().max(f64::MIN_POSITIVE);
        assert!(max_abs_diff(&t, &tridiagonal_matrix(&d, &e)) <= 1e-12 * scale);
    });
    let mut rect = Matrix::zeros(2, 3);
    let mut v = Vec::new();
    assert!(tridiagonal::tridiagonalize_in_place(
        &mut rect,
        &mut v.clone(),
        &mut v.clone(),
        &mut v.clone(),
        &mut v
    )
    .is_err());
}

#[test]
fn shifted_ldl_solve_matches_dense_cholesky() {
    check("(T + ηI) x = b", DEFAULT_CASES, |rng| {
        let n = 1 + rng.gen_index(12);
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..3.0)).collect();
        let e: Vec<f64> = (1..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Gershgorin: this shift makes T + ηI positive definite.
        let eta = 2.5 + rng.gen_range(0.0..10.0);
        let (mut piv, mut l) = (vec![0.0; n], vec![0.0; n - 1]);
        tridiagonal::ldl_shifted_into(&d, &e, eta, 1e-14, &mut piv, &mut l).unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = b.clone();
        tridiagonal::ldl_solve_in_place(&piv, &l, &mut x).unwrap();
        let mut dense = tridiagonal_matrix(&d, &e);
        dense.add_diagonal_mut(&vec![eta; n]).unwrap();
        let want = dense.cholesky().unwrap().solve(&b.into()).unwrap();
        for (u, v) in x.iter().zip(want.iter()) {
            assert!((u - v).abs() <= 1e-12 * v.abs().max(1.0), "{u} vs {v}");
        }
    });
    // An indefinite shift fails on a non-positive pivot, a shift below
    // the rounding of a singular T on the pivot ratio.
    let (mut piv, mut l) = (vec![0.0; 2], vec![0.0; 1]);
    assert!(matches!(
        tridiagonal::ldl_shifted_into(&[1.0, 1.0], &[2.0], 0.0, 1e-14, &mut piv, &mut l),
        Err(LinalgError::NotPositiveDefinite { pivot: 1, .. })
    ));
    assert!(matches!(
        tridiagonal::ldl_shifted_into(&[1.0, 1.0], &[1.0], 1e-15, 1e-14, &mut piv, &mut l),
        Err(LinalgError::Unsolvable { .. })
    ));
}

#[test]
fn ql_eigenvalues_match_the_characteristic_invariants() {
    check("implicit QL eigenvalues", DEFAULT_CASES, |rng| {
        let n = 1 + rng.gen_index(10);
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e: Vec<f64> = (1..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (values, first) = tridiagonal::eigen_first(&d, &e).unwrap();
        let t = tridiagonal_matrix(&d, &e);
        // Each (λ, z₀) pairs with an eigenvector v with v₀ = z₀: the
        // first components have unit mass, the trace is the sum, and
        // every λ makes T − λI singular.
        assert!((first.iter().map(|z| z * z).sum::<f64>() - 1.0).abs() < 1e-12);
        let trace: f64 = d.iter().sum();
        assert!((values.iter().sum::<f64>() - trace).abs() < 1e-10);
        for &lambda in &values {
            let mut shifted = t.clone();
            shifted.add_diagonal_mut(&vec![-lambda; n]).unwrap();
            let det = shifted.lu().map(|lu| lu.det()).unwrap_or(0.0);
            assert!(det.abs() < 1e-8, "det(T - {lambda} I) = {det}");
        }
    });
}
