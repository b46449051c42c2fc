//! Property tests for the solver degradation ladder
//! (`bmf_linalg::resilience`), on the in-tree harness (`bmf_stat::prop`).
//!
//! Pinned properties:
//!
//! * a random SPD system perturbed to exact rank deficiency is rescued
//!   within **one** jitter rung, and the rescued solution of a
//!   consistent system keeps a pinned relative residual;
//! * the rung choice (and the solution bits) are a pure function of the
//!   input — re-running the ladder on the same matrix reproduces them
//!   exactly, which is what makes seeded fault-injection reproducible;
//! * well-conditioned inputs never engage the ladder: rung 0, zero
//!   ridge, and a solution bit-identical across repeated runs;
//! * an exactly singular shifted tridiagonal is rescued by the shifted
//!   LDLᵀ ladder's ridge rungs, deterministically.

use bmf_linalg::tridiagonal::ldl_solve_in_place;
use bmf_linalg::{
    factor_shifted_ldl_ladder, factor_spd_ladder, ladder_solve_in_place, LadderScratch, Matrix,
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

fn vector(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| elem(rng)).collect()
}

/// A well-conditioned SPD matrix: BᵀB + I.
fn spd(rng: &mut Rng, n: usize) -> Matrix {
    let b = matrix(rng, n + 1, n);
    let mut a = b.gram();
    a.add_diagonal_mut(&vec![1.0; n]).expect("square");
    a
}

/// A well-conditioned SPD matrix collapsed along one random direction:
/// an (n−1)×(n−1) SPD block embedded with an exact zero row/column at
/// index `k`. The zero mode makes the Cholesky pivot at `k` exactly
/// zero (rung 0 fails deterministically rather than accepting a
/// rounding-noise pivot), while the nonzero spectrum stays that of the
/// well-conditioned block, so the jittered solve keeps a tight residual.
fn singular_psd(rng: &mut Rng, n: usize) -> Matrix {
    let block = spd(rng, n - 1);
    let k = rng.gen_index(n);
    Matrix::from_fn(n, n, |i, j| {
        if i == k || j == k {
            0.0
        } else {
            let bi = i - usize::from(i > k);
            let bj = j - usize::from(j > k);
            block[(bi, bj)]
        }
    })
}

/// Runs factor + solve through the ladder, returning the resilience
/// record and the solution.
fn ladder_solve(a: &Matrix, b: &[f64]) -> (bmf_linalg::Resilience, Vec<f64>) {
    let mut f = a.clone();
    let mut perm = Vec::new();
    let mut scratch = LadderScratch::new();
    let (kind, res) =
        factor_spd_ladder(&mut f, &mut perm, &mut scratch).expect("ladder must factor PSD inputs");
    let mut x = b.to_vec();
    ladder_solve_in_place(kind, &f, &perm, &mut scratch, &mut x).expect("solve");
    (res, x)
}

fn rel_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(&Vector::from(x.to_vec())).expect("shape");
    let num: f64 = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    let den = b.iter().map(|q| q * q).sum::<f64>().sqrt().max(1e-300);
    num / den
}

#[test]
fn rank_deficient_spd_rescued_within_one_jitter_rung() {
    check(
        "rank_deficient_spd_rescued_within_one_jitter_rung",
        DEFAULT_CASES,
        |rng| {
            let n = 3 + (rng.next_u64() % 5) as usize; // 3..=7
            let a = singular_psd(rng, n);
            // Consistent right-hand side: b = A·x_true is in range(A).
            let x_true = vector(rng, n);
            let b = a.matvec(&Vector::from(x_true)).expect("shape");
            let (res, x) = ladder_solve(&a, b.as_slice());
            assert_eq!(
                res.rung, 1,
                "an exact zero mode must fail rung 0 and be rescued by the first jitter rung"
            );
            assert!(res.ridge > 0.0, "degraded solve must report its ridge");
            assert!(res.is_degraded());
            let rr = rel_residual(&a, &x, b.as_slice());
            assert!(rr < 1e-6, "relative residual {rr} above pinned bound");
        },
    );
}

#[test]
fn rung_choice_and_solution_deterministic() {
    check(
        "rung_choice_and_solution_deterministic",
        DEFAULT_CASES,
        |rng| {
            let n = 2 + (rng.next_u64() % 5) as usize;
            // Mix clean and singular inputs so both ladder branches are
            // exercised by the determinism claim.
            let a = if rng.gen_bool(0.5) {
                spd(rng, n)
            } else {
                singular_psd(rng, n)
            };
            let b = vector(rng, n);
            let (res1, x1) = ladder_solve(&a, &b);
            let (res2, x2) = ladder_solve(&a, &b);
            assert_eq!(res1.rung, res2.rung);
            assert_eq!(res1.ridge.to_bits(), res2.ridge.to_bits());
            assert_eq!(res1.rcond.to_bits(), res2.rcond.to_bits());
            assert_eq!(res1.lu_fallback, res2.lu_fallback);
            assert_eq!(
                x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "ladder solutions must be bit-identical across runs"
            );
        },
    );
}

#[test]
fn well_conditioned_spd_never_engages_the_ladder() {
    check(
        "well_conditioned_spd_never_engages_the_ladder",
        DEFAULT_CASES,
        |rng| {
            let n = 2 + (rng.next_u64() % 6) as usize;
            let a = spd(rng, n);
            let x_true = vector(rng, n);
            let b = a.matvec(&Vector::from(x_true)).expect("shape");
            let (res, x) = ladder_solve(&a, b.as_slice());
            assert_eq!(res.rung, 0, "clean input must stay on rung 0");
            assert_eq!(res.ridge, 0.0);
            assert!(!res.lu_fallback);
            assert!(res.rcond > 0.0 && res.rcond <= 1.0);
            let rr = rel_residual(&a, &x, b.as_slice());
            assert!(rr < 1e-8, "clean solve residual {rr}");
        },
    );
}

#[test]
fn ldl_ladder_handles_exactly_singular_tridiagonals() {
    check(
        "ldl_ladder_handles_exactly_singular_tridiagonals",
        DEFAULT_CASES,
        |rng| {
            // A diagonally dominant tridiagonal with one zero row and
            // column: pivot k is exactly zero at shift 0, so rung 0 is
            // refused deterministically, while the rest of the spectrum
            // stays well conditioned.
            let n = 3 + (rng.next_u64() % 4) as usize;
            let mut e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut d: Vec<f64> = (0..n).map(|_| rng.gen_range(3.0..10.0)).collect();
            let k = rng.gen_index(n);
            d[k] = 0.0;
            if k > 0 {
                e[k - 1] = 0.0;
            }
            if k + 1 < n {
                e[k] = 0.0;
            }
            let (mut piv, mut l) = (vec![0.0; n], vec![0.0; n - 1]);
            let res = factor_shifted_ldl_ladder(&d, &e, 0.0, &mut piv, &mut l)
                .expect("a ridge must rescue an exactly singular tridiagonal");
            assert!(res.rung >= 1, "exact singularity cannot stay on rung 0");
            assert!(res.ridge > 0.0);
            assert!(!res.lu_fallback);
            // The rung, ridge and factor are a pure function of the input.
            let (mut piv2, mut l2) = (vec![f64::NAN; n], vec![f64::NAN; n - 1]);
            let again = factor_shifted_ldl_ladder(&d, &e, 0.0, &mut piv2, &mut l2)
                .expect("same input, same outcome");
            assert_eq!(again, res);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&piv2), bits(&piv));
            assert_eq!(bits(&l2), bits(&l));
            let mut x = vector(rng, n);
            ldl_solve_in_place(&piv, &l, &mut x).expect("solve");
            assert!(x.iter().all(|v| v.is_finite()));
        },
    );
}
