//! Integration property tests: the fast (Woodbury) solver, the direct
//! (Cholesky) solver, and the hyper-sweep cache must agree on random
//! problems, including the missing-prior and underdetermined regimes.
//!
//! Driven by the in-tree harness (`bmf_stat::prop`); a failing case prints
//! its seed for replay via `BMF_PROP_CASE_SEED`.

use bmf_core::map_estimate::{map_estimate, MapSweep, SolverKind};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_linalg::{Matrix, Vector};
use bmf_stat::prop::{check, vec_in};
use bmf_stat::rng::Rng;

const CASES: u64 = 48;

fn design(rng: &mut Rng, k: usize, m: usize) -> Matrix {
    Matrix::from_row_major(k, m, vec_in(rng, -2.0, 2.0, k * m)).expect("sized")
}

/// Early-stage prior values: mostly positive, some negative, a few missing
/// (an 8:1:1 mix).
fn early_values(rng: &mut Rng, m: usize) -> Vec<Option<f64>> {
    (0..m)
        .map(|_| {
            let pick = rng.gen_index(10);
            if pick < 8 {
                Some(rng.gen_range(0.05..3.0))
            } else if pick < 9 {
                Some(rng.gen_range(-3.0..-0.05))
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn fast_equals_direct() {
    check("fast_equals_direct", CASES, |rng| {
        let g = design(rng, 6, 15);
        let early = early_values(rng, 15);
        let kind = if rng.gen_bool(0.5) {
            PriorKind::ZeroMean
        } else {
            PriorKind::NonZeroMean
        };
        let hyper = rng.gen_range(0.01..100.0);
        let f = Vector::from(vec_in(rng, -3.0, 3.0, 6));
        let prior = Prior::new(kind, early);
        if prior.num_missing() > 6 {
            return; // fast solver requires missing count ≤ sample count
        }
        let fast = map_estimate(&g, &f, &prior, &FitOptions::new().hyper(hyper));
        let direct = map_estimate(
            &g,
            &f,
            &prior,
            &FitOptions::new().hyper(hyper).solver(SolverKind::Direct),
        );
        match (fast, direct) {
            (Ok(a), Ok(b)) => {
                let scale = b.norm2().max(1.0);
                assert!(
                    a.sub(&b).unwrap().norm2() <= 1e-6 * scale,
                    "solver mismatch: {} vs {}",
                    a.norm2(),
                    b.norm2()
                );
            }
            // Degenerate random problems may be singular for both.
            (Err(_), Err(_)) => {}
            (a, b) => panic!("solvers disagree on solvability: {a:?} vs {b:?}"),
        }
    });
}

#[test]
fn sweep_equals_one_shot() {
    check("sweep_equals_one_shot", CASES, |rng| {
        let g = design(rng, 5, 12);
        let early = early_values(rng, 12);
        let hyper = rng.gen_range(0.01..100.0);
        let f = Vector::from(vec_in(rng, -3.0, 3.0, 5));
        let prior = Prior::new(PriorKind::NonZeroMean, early);
        if prior.num_missing() > 5 {
            return;
        }
        let sweep = match MapSweep::from_view(g.as_view(), &prior) {
            Ok(s) => s,
            Err(_) => return,
        };
        match (
            sweep.solve_with_kind(&f, hyper, PriorKind::NonZeroMean),
            map_estimate(&g, &f, &prior, &FitOptions::new().hyper(hyper)),
        ) {
            (Ok(a), Ok(b)) => {
                let scale = b.norm2().max(1.0);
                assert!(a.sub(&b).unwrap().norm2() <= 1e-6 * scale);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("sweep disagrees: {a:?} vs {b:?}"),
        }
    });
}

#[test]
fn interpolation_property_with_strong_data() {
    check("interpolation_property_with_strong_data", CASES, |rng| {
        // Overdetermined + weak prior: MAP approaches least squares, so
        // the residual must be (near-)orthogonal to the column space.
        let g = design(rng, 12, 8);
        let f = Vector::from(vec_in(rng, -2.0, 2.0, 12));
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 8]);
        let alpha = match map_estimate(&g, &f, &prior, &FitOptions::new().hyper(1e-9)) {
            Ok(a) => a,
            Err(_) => return,
        };
        let resid = g.matvec(&alpha).unwrap().sub(&f).unwrap();
        let gt_r = g.matvec_transpose(&resid).unwrap();
        assert!(gt_r.norm_inf() <= 1e-4 * f.norm2().max(1.0));
    });
}

#[test]
fn strong_prior_dominates_sparse_data() {
    check("strong_prior_dominates_sparse_data", CASES, |rng| {
        // Huge hyper: the nonzero-mean MAP estimate must sit at the prior
        // mean regardless of the data.
        let g = design(rng, 3, 10);
        let early = vec_in(rng, 0.1, 2.0, 10);
        let f = Vector::from(vec_in(rng, -2.0, 2.0, 3));
        let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
        let alpha = map_estimate(&g, &f, &prior, &FitOptions::new().hyper(1e12)).unwrap();
        for (a, e) in alpha.iter().zip(&early) {
            assert!((a - e).abs() < 1e-3, "{a} vs {e}");
        }
    });
}
