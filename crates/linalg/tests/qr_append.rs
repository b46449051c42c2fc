//! Property tests for growing a Householder QR one column at a time
//! (`qr_append_in_place`), the way orthogonal matching pursuit grows its
//! active set: the grown packed factor and τ equal [`Qr::new`]'s bit for
//! bit at every prefix, and the prefix solve — `Qᵀb` kept current one
//! reflector at a time, then the triangle read from the packed factor —
//! equals [`Qr::solve_least_squares`] on the prefix, errors included.

use bmf_linalg::{
    qr_append_in_place, solve_lower_transpose, LinalgError, MatRef, Matrix, Qr, Reflectors, Vector,
};
use bmf_stat::prop::{check, DEFAULT_CASES};
use bmf_stat::rng::Rng;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A random `m × n` matrix; now and then a zero column (τ = 0, a zero
/// pivot) or a column repeated from an earlier one.
fn matrix(rng: &mut Rng, m: usize, n: usize) -> Matrix {
    let mut a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-2.0..2.0));
    if n > 1 && rng.gen_bool(0.3) {
        let (from, to, zero) = (rng.gen_index(n - 1), n - 1, rng.gen_bool(0.5));
        for i in 0..m {
            a[(i, to)] = if zero { 0.0 } else { a[(i, from)] };
        }
    }
    a
}

#[test]
fn appending_columns_gives_the_one_shot_factor_and_solves() {
    let mut zero_pivots = 0;
    check("qr append ≡ Qr::new", DEFAULT_CASES, |rng| {
        let n = 1 + rng.gen_index(9);
        let m = n + rng.gen_index(9);
        let a = matrix(rng, m, n);
        let b = Vector::from_fn(m, |_| rng.gen_range(-2.0..2.0));
        let mut at = vec![0.0; n * m];
        let mut tau = vec![0.0; n];
        let mut qtb = b.clone();
        for k in 0..n {
            for (i, x) in at[k * m..(k + 1) * m].iter_mut().enumerate() {
                *x = a[(i, k)];
            }
            qr_append_in_place(&mut at[..(k + 1) * m], m, &mut tau[..=k]).unwrap();
            let packed = Matrix::from_row_major(k + 1, m, at[..(k + 1) * m].to_vec()).unwrap();
            Reflectors::new(&packed, &tau[..=k], 0)
                .apply_one_in_place(k, qtb.as_mut_slice(), &mut [0.0])
                .unwrap();

            // The one-shot factor of the prefix A[:, ..=k].
            let prefix = Matrix::from_fn(m, k + 1, |i, j| a[(i, j)]);
            let qr = Qr::new(&prefix).unwrap();
            let refl = qr.reflectors();
            assert_eq!(bits(packed.as_slice()), bits(refl.packed.as_slice()));
            assert_eq!(bits(&tau[..=k]), bits(refl.tau));

            let mut x = qtb.as_slice()[..=k].to_vec();
            let rt = MatRef::strided(&at, k + 1, k + 1, m).unwrap();
            let grown = solve_lower_transpose(rt, &mut x);
            match (grown, qr.solve_least_squares(&b)) {
                (Ok(()), Ok(want)) => assert_eq!(bits(&x), bits(want.as_slice())),
                (Err(e), Err(want)) => {
                    assert_eq!(e, want);
                    zero_pivots += 1;
                }
                (g, w) => panic!("prefix {k}: grown {g:?} vs one-shot {w:?}"),
            }
        }
    });
    assert!(zero_pivots > 0, "no case reached a zero pivot");
}

#[test]
fn append_rejects_bad_shapes() {
    let mut at = vec![1.0; 6];
    // Three columns over two rows: more columns than rows.
    assert!(matches!(
        qr_append_in_place(&mut at, 2, &mut [0.0; 3]),
        Err(LinalgError::DimensionMismatch { .. })
    ));
    // A buffer that is not `tau.len() × m`.
    assert!(matches!(
        qr_append_in_place(&mut at[..5], 3, &mut [0.0; 2]),
        Err(LinalgError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        qr_append_in_place(&mut at, 3, &mut []),
        Err(LinalgError::DimensionMismatch { .. })
    ));
    // One reflector past the end.
    let packed = Matrix::zeros(1, 3);
    assert!(matches!(
        Reflectors::new(&packed, &[0.0], 0).apply_one_in_place(1, &mut [0.0; 3], &mut [0.0]),
        Err(LinalgError::DimensionMismatch { .. })
    ));
}
