//! Property tests for the Householder kernels behind the sample-space
//! cross-validation sweep: [`Qr`]'s reflector applications, the
//! compact-WY congruence `QᵀSQ`, the symmetric tridiagonal reduction,
//! the shifted tridiagonal LDLᵀ solve and the implicit-QL eigenvalues,
//! each against an explicit dense reference. The factorization itself is also pinned bit for bit to
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
        refl.congruence_in_place(&mut c_s, &mut Vec::new()).unwrap();
        let want = q.transpose().matmul(&s).unwrap().matmul(&q).unwrap();
        assert!(max_abs_diff(&c_s, &want) < 1e-12);
        // A block of the wrong height is rejected.
        assert!(matches!(
            refl.apply_qt_in_place(&mut vec![0.0; m + 1], &mut [0.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    });
}

fn frobenius(m: &Matrix) -> f64 {
    m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Reflectors of `r` random columns over `n` rows, headed at `offset`
/// (the QR of an `(n − offset) × r` block, shifted right), with a zero
/// reflector (`τ = 0`) put in now and then.
fn random_reflectors(rng: &mut Rng, n: usize, r: usize, offset: usize) -> (Matrix, Vec<f64>) {
    let mut at = matrix(rng, r, n - offset);
    let mut tau = Vec::new();
    bmf_linalg::qr_in_place(&mut at, &mut tau).unwrap();
    if r > 0 && rng.gen_bool(0.3) {
        tau[rng.gen_index(r)] = 0.0;
    }
    let packed = Matrix::from_fn(
        r,
        n,
        |k, j| if j < offset { 0.0 } else { at[(k, j - offset)] },
    );
    (packed, tau)
}

#[test]
fn wy_congruence_matches_explicit_qt_s_q() {
    let (mut with_zero, mut tiles) = (0, 0);
    check("compact-WY QᵀSQ == explicit", DEFAULT_CASES, |rng| {
        // n up to 40 covers full 2 × 4 tiles and every remainder; the
        // rank-2r update's inner length 2r runs odd and even.
        let n = 1 + rng.gen_index(40);
        let offset = usize::from(n > 1 && rng.gen_bool(0.3));
        let r = rng.gen_index(13.min(n - offset + 1));
        let (packed, tau) = random_reflectors(rng, n, r, offset);
        let refl = Reflectors::new(&packed, &tau, offset);
        let s = symmetric(rng, n);
        let mut got = s.clone();
        let mut scratch = Vec::new();
        refl.congruence_in_place(&mut got, &mut scratch).unwrap();
        let q = explicit(&refl);
        let want = q.transpose().matmul(&s).unwrap().matmul(&q).unwrap();
        let err = max_abs_diff(&got, &want);
        assert!(err <= 1e-12 * frobenius(&s), "{err:e} at n = {n}, r = {r}");
        // One triangle, mirrored: exactly symmetric.
        assert_eq!(got, got.transpose());
        if tau.iter().all(|&t| t == 0.0) {
            // No reflector at all, or only zero ones: the bits stay.
            assert_eq!(got, s);
        }
        with_zero += usize::from(tau.contains(&0.0) && tau.iter().any(|&t| t != 0.0));
        tiles += usize::from(n >= 6 && r >= 4);
    });
    assert!(with_zero > 0 && tiles > 0);
    // |Z| = 0 leaves S bitwise untouched, signed zeros included.
    let s = Matrix::from_fn(5, 5, |i, j| if i == j { -0.0 } else { (i + j) as f64 });
    let mut got = s.clone();
    let none = Matrix::zeros(0, 5);
    Reflectors::new(&none, &[], 0)
        .congruence_in_place(&mut got, &mut Vec::new())
        .unwrap();
    assert!(got
        .as_slice()
        .iter()
        .zip(s.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    // A matrix of the wrong size is refused.
    let (packed, tau) = (Matrix::zeros(1, 4), [0.5]);
    let mut wrong = Matrix::zeros(3, 3);
    assert!(matches!(
        Reflectors::new(&packed, &tau, 0).congruence_in_place(&mut wrong, &mut Vec::new()),
        Err(LinalgError::DimensionMismatch { .. })
    ));
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
