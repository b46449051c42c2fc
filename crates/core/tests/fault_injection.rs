//! Deterministic fault-injection suite for the panic-free contract.
//!
//! Every fault family from `bmf_stat::faults` — NaN/∞ samples, singular
//! Gram matrices, all-zero priors, duplicated rows, K ≪ rank designs —
//! is driven through the full public fitting API. The contract under
//! test: every call returns `Ok` (possibly degraded, with the ladder
//! rung and ridge reported on the fit) or a structured [`BmfError`], and
//! **never panics**; batch results stay bit-identical at every thread
//! count even on degraded inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob, BatchReport};
use bmf_core::fusion::BmfFitter;
use bmf_core::hyper::CvConfig;
use bmf_core::lasso::{fit_lasso, LassoConfig};
use bmf_core::least_squares::fit_least_squares;
use bmf_core::map_estimate::{map_estimate, map_estimate_with_report, SolverKind};
use bmf_core::omp::{fit_omp, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::select::{select_prior, PriorSelection};
use bmf_core::sequential::SequentialBmf;
use bmf_core::workspace::SeqWorkspace;
use bmf_core::BmfError;
use bmf_linalg::{Matrix, Vector};
use bmf_stat::faults::FaultInjector;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

/// Runs `f` asserting it does not panic; the `Result` payload (Ok or a
/// structured error) is returned for further shape assertions.
fn no_panic<T>(label: &str, f: impl FnOnce() -> Result<T, BmfError>) -> Result<T, BmfError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(_) => panic!("`{label}` panicked instead of returning a structured result"),
    }
}

fn sample_points(k: usize, r: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded(seed);
    let mut s = StandardNormal::new();
    (0..k).map(|_| s.sample_vec(&mut rng, r)).collect()
}

fn linear_values(points: &[Vec<f64>], truth: &[f64]) -> Vec<f64> {
    points
        .iter()
        .map(|p| {
            truth[0]
                + p.iter()
                    .enumerate()
                    .map(|(i, x)| truth[i + 1] * x)
                    .sum::<f64>()
        })
        .collect()
}

fn truth_and_early(r: usize) -> (Vec<f64>, Vec<Option<f64>>) {
    let truth: Vec<f64> = (0..=r).map(|i| (i as f64 * 0.7).cos()).collect();
    let early = truth.iter().map(|&t| Some(t * 1.05)).collect();
    (truth, early)
}

#[test]
fn nan_and_inf_values_are_screened_not_propagated() {
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let (truth, early) = truth_and_early(r);
    let mut inj = FaultInjector::new(11);
    for poison_inf in [false, true] {
        let points = sample_points(12, r, 1);
        let mut values = linear_values(&points, &truth);
        if poison_inf {
            inj.poison_inf(&mut values);
        } else {
            inj.poison_nan(&mut values);
        }
        let fitter = BmfFitter::new(basis.clone(), early.clone()).unwrap();
        let res = no_panic("BmfFitter::fit with poisoned values", || {
            fitter.fit(&points, &values)
        });
        assert!(
            matches!(res, Err(BmfError::NonFiniteInput { .. })),
            "expected NonFiniteInput, got {res:?}"
        );
        let res = no_panic("fit_least_squares with poisoned values", || {
            fit_least_squares(&basis, &points, &values)
        });
        assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
        let res = no_panic("fit_omp with poisoned values", || {
            fit_omp(&basis, &points, &values, &OmpConfig::default())
        });
        assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
        let res = no_panic("fit_lasso with poisoned values", || {
            fit_lasso(&basis, &points, &values, &LassoConfig::default())
        });
        assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    }
}

#[test]
fn nan_sample_point_is_screened_before_the_basis() {
    let r = 3;
    let basis = OrthonormalBasis::linear(r);
    let (truth, early) = truth_and_early(r);
    let mut points = sample_points(10, r, 2);
    let values = linear_values(&points, &truth);
    let mut inj = FaultInjector::new(12);
    inj.poison_point_nan(&mut points);
    let fitter = BmfFitter::new(basis.clone(), early.clone()).unwrap();
    let res = no_panic("BmfFitter::fit with NaN point", || {
        fitter.fit(&points, &values)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    let res = no_panic("BatchFitter::fit with NaN point", || {
        BatchFitter::new(basis)
            .job(BatchJob::new("j", early, values))
            .fit(&points)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
}

#[test]
fn nan_prior_is_rejected_not_silently_missing() {
    let r = 3;
    let basis = OrthonormalBasis::linear(r);
    let (truth, mut early) = truth_and_early(r);
    early[1] = Some(f64::NAN);
    let points = sample_points(10, r, 3);
    let values = linear_values(&points, &truth);
    let fitter = BmfFitter::new(basis, early).unwrap();
    let res = no_panic("BmfFitter::fit with NaN prior", || {
        fitter.fit(&points, &values)
    });
    assert!(matches!(
        res,
        Err(BmfError::NonFiniteInput {
            what: "prior early coefficients"
        })
    ));
}

#[test]
fn singular_gram_is_rescued_by_the_ladder_with_report() {
    // All sample points collapsed onto one row: GᵀG has rank 1. The
    // direct solver with an all-zero (zero-precision) prior must climb
    // the ladder instead of erroring, and report rung + ridge.
    let r = 3;
    let basis = OrthonormalBasis::linear(r);
    let mut points = sample_points(8, r, 4);
    let mut inj = FaultInjector::new(13);
    inj.collapse_to_rank_one(&mut points);
    let g = basis.design_matrix(points.iter().map(|p| p.as_slice()));
    let f = Vector::from(vec![2.5; 8]);
    let prior = Prior::new(PriorKind::ZeroMean, vec![Some(0.0); r + 1]);
    let opts = FitOptions::new().hyper(1.0).solver(SolverKind::Direct);
    let (alpha, res) = no_panic("map_estimate_with_report on singular Gram", || {
        map_estimate_with_report(&g, &f, &prior, &opts)
    })
    .expect("ladder should rescue the singular system");
    assert!(res.rung > 0, "expected a ladder escalation, got {res:?}");
    assert!(res.ridge > 0.0, "degraded solve must report its ridge");
    assert!(res.is_degraded());
    assert!(alpha.iter().all(|a| a.is_finite()));
    // The rescued solution still reproduces the (consistent) data.
    let pred = g.matvec(&alpha).unwrap();
    for p in pred.iter() {
        assert!((p - 2.5).abs() < 1e-6, "residual too large: {p}");
    }
}

#[test]
fn all_zero_prior_routes_through_zero_precision_path() {
    let r = 3;
    let basis = OrthonormalBasis::linear(r);
    let (truth, mut early) = truth_and_early(r);
    let mut inj = FaultInjector::new(14);
    inj.zero_prior(&mut early);
    // K > M: the data alone identifies the model, so the degenerate
    // prior must not error — it behaves as "no prior knowledge".
    let points = sample_points(12, r, 5);
    let values = linear_values(&points, &truth);
    let fitter = BmfFitter::new(basis, early).unwrap();
    let fit = no_panic("BmfFitter::fit with all-zero prior", || {
        fitter.fit(&points, &values)
    })
    .expect("zero prior with K > M must fit");
    assert!(fit.model.coeffs().iter().all(|c| c.is_finite()));
    for (c, t) in fit.model.coeffs().iter().zip(&truth) {
        assert!((c - t).abs() < 0.1, "coefficient {c} vs truth {t}");
    }
}

#[test]
fn k_much_smaller_than_rank_is_a_structured_error() {
    // 3 samples, 21 coefficients, *no* prior information (all zero ⇒
    // all zero-precision): the posterior is improper and the call must
    // say so, not panic.
    let r = 20;
    let basis = OrthonormalBasis::linear(r);
    let mut points = sample_points(12, r, 6);
    let truth: Vec<f64> = (0..=r).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut values = linear_values(&points, &truth);
    let mut inj = FaultInjector::new(15);
    inj.truncate_samples(&mut points, &mut values, 3);
    let prior = vec![Some(0.0); r + 1];
    let fitter = BmfFitter::new(basis, prior).unwrap();
    let res = no_panic("BmfFitter::fit with K << rank and no prior", || {
        fitter.fit(&points, &values)
    });
    match res {
        Err(BmfError::NotEnoughSamples { .. }) => {}
        other => panic!(
            "expected NotEnoughSamples, got {:?}",
            other.map(|f| f.summary())
        ),
    }
}

#[test]
fn duplicated_rows_still_fit_and_report_resilience() {
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let (truth, early) = truth_and_early(r);
    let mut points = sample_points(10, r, 7);
    let mut values = linear_values(&points, &truth);
    let mut inj = FaultInjector::new(16);
    for _ in 0..4 {
        inj.duplicate_row(&mut points, &mut values);
    }
    let fitter = BmfFitter::new(basis, early).unwrap();
    let fit = no_panic("BmfFitter::fit with duplicated rows", || {
        fitter.fit(&points, &values)
    })
    .expect("duplicated rows lose information but stay solvable");
    assert!(fit.model.coeffs().iter().all(|c| c.is_finite()));
    // The resilience report is always present and internally consistent.
    assert!(fit.resilience.rung <= fit.resilience.max_rung.max(fit.resilience.rung));
    assert!(fit.resilience.rcond.is_finite() && fit.resilience.rcond >= 0.0);
    assert_eq!(fit.resilience.degraded_solves, fit.counters.degraded_solves);
}

#[test]
fn sequential_api_screens_faults_and_keeps_state() {
    let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &[1.0, -0.5]);
    // Degenerate hyper and prior are structured errors.
    assert!(matches!(
        no_panic("SequentialBmf::new with NaN hyper", || SequentialBmf::new(
            &prior,
            f64::NAN
        )),
        Err(BmfError::Config {
            parameter: "hyper",
            ..
        })
    ));
    let zero = Prior::from_coeffs(PriorKind::ZeroMean, &[0.0, 0.0]);
    assert!(matches!(
        no_panic("SequentialBmf::new with zero prior", || SequentialBmf::new(
            &zero, 1.0
        )),
        Err(BmfError::Config {
            parameter: "prior",
            ..
        })
    ));
    // A poisoned sample is rejected without corrupting the estimator.
    let mut seq = SequentialBmf::new(&prior, 1.0).unwrap();
    let mut ws = SeqWorkspace::new();
    seq.add_sample(&[1.0, 0.0], 1.2, &mut ws).unwrap();
    let before = seq.coefficients().unwrap();
    let res = no_panic("add_sample with NaN row", || {
        seq.add_sample(&[f64::NAN, 1.0], 0.5, &mut ws)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    let res = no_panic("add_sample with Inf value", || {
        seq.add_sample(&[0.0, 1.0], f64::INFINITY, &mut ws)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    let res = no_panic("add_sample with short row", || {
        seq.add_sample(&[1.0], 0.5, &mut ws)
    });
    assert!(matches!(res, Err(BmfError::SampleShape { .. })));
    let res = no_panic("suggest_next with wrong-width candidates", || {
        let cands = bmf_linalg::view::MatRef::from_row_major(&[1.0, 2.0, 3.0], 1, 3)?;
        seq.suggest_next(cands, &mut ws)
    });
    assert!(matches!(res, Err(BmfError::SampleShape { .. })));
    assert_eq!(
        seq.num_samples(),
        1,
        "rejected samples must not be absorbed"
    );
    let after = seq.coefficients().unwrap();
    assert_eq!(
        before.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        after.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn cross_validation_screens_non_finite_inputs() {
    let g = Matrix::from_fn(10, 4, |i, j| ((i * 4 + j) as f64 * 0.37).sin());
    let mut f = Vector::from_fn(10, |i| i as f64 * 0.2);
    let mut inj = FaultInjector::new(17);
    inj.poison_nan(f.as_mut_slice());
    let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 4]);
    let res = no_panic("select_prior with NaN response", || {
        let selection = PriorSelection::Fixed(prior.kind());
        select_prior(&g, &f, &prior, selection, &CvConfig::default())
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    let res = no_panic("map_estimate with NaN response", || {
        map_estimate(&g, &f, &prior, &FitOptions::new().hyper(1.0))
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
}

fn degraded_batch(threads: usize) -> BatchReport {
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let mut points = sample_points(12, r, 8);
    let (truth, early) = truth_and_early(r);
    let mut values_a = linear_values(&points, &truth);
    let mut inj = FaultInjector::new(18);
    // Duplicated rows apply to the shared points, so corrupt them once
    // with a fixed seed before the per-thread-count runs.
    for _ in 0..3 {
        inj.duplicate_row(&mut points, &mut values_a);
    }
    let values_b: Vec<f64> = points
        .iter()
        .map(|p| 2.0 - 0.4 * p[1] + 0.2 * p[3])
        .collect();
    let mut zero_early = early.clone();
    inj.zero_prior(&mut zero_early);
    BatchFitter::new(basis)
        .with_options(FitOptions::new().folds(4).seed(3).threads(threads))
        .job(BatchJob::new("dup", early, values_a))
        .job(BatchJob::new("zero-prior", zero_early, values_b))
        .fit(&points)
        .expect("degraded batch must still fit")
}

#[test]
fn batch_results_bit_identical_across_thread_counts_under_faults() {
    let reference = degraded_batch(1);
    for threads in [2, 4, 8] {
        let report = degraded_batch(threads);
        assert_eq!(report.fits.len(), reference.fits.len());
        for (a, b) in reference.fits.iter().zip(&report.fits) {
            assert_eq!(
                a.model
                    .coeffs()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.model
                    .coeffs()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "coefficients differ at {threads} threads"
            );
            assert_eq!(a.prior_kind, b.prior_kind);
            assert_eq!(a.hyper.to_bits(), b.hyper.to_bits());
            assert_eq!(a.resilience, b.resilience);
            assert_eq!(a.counters, b.counters);
        }
        assert_eq!(reference.counters, report.counters);
        assert_eq!(reference.resilience, report.resilience);
    }
}

/// A service configured like the load generator's, with a registered
/// clean point set and one healthy fitted job, for the service-front
/// fault cases below.
fn service_with_fitted_job(
    r: usize,
    k: usize,
) -> (
    bmf_core::service::FitService,
    bmf_core::service::PointSetId,
    Vec<Vec<f64>>,
) {
    use bmf_core::service::{FitRequest, FitService, ServiceConfig};
    let service = FitService::new(ServiceConfig {
        options: FitOptions::new().folds(4).seed(7),
        ..ServiceConfig::default()
    })
    .expect("service config");
    let points = sample_points(k, r, 31);
    let ps = service
        .register_points(points.clone())
        .expect("clean points");
    let (truth, early) = truth_and_early(r);
    let values = linear_values(&points, &truth);
    service
        .submit_fit(FitRequest {
            job_id: "healthy".into(),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior: early,
            values,
        })
        .expect("clean submit");
    let report = service.drain();
    assert_eq!(report.served(), 1);
    (service, ps, points)
}

#[test]
fn service_front_screens_poisoned_payloads_at_submit() {
    use bmf_core::service::FitRequest;
    let r = 4;
    let (service, ps, points) = service_with_fitted_job(r, 12);
    let (truth, early) = truth_and_early(r);
    let mut inj = FaultInjector::new(19);

    // Poisoned response values never reach the queue.
    let mut values = linear_values(&points, &truth);
    inj.poison_nan(&mut values);
    let res = no_panic("submit_fit with NaN values", || {
        service.submit_fit(FitRequest {
            job_id: "bad-values".into(),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior: early.clone(),
            values,
        })
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));

    // Poisoned prior likewise.
    let mut bad_early = early;
    bad_early[2] = Some(f64::INFINITY);
    let res = no_panic("submit_fit with Inf prior", || {
        service.submit_fit(FitRequest {
            job_id: "bad-prior".into(),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior: bad_early,
            values: linear_values(&points, &truth),
        })
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));

    // Poisoned point sets are rejected at registration.
    let mut bad_points = points;
    inj.poison_point_nan(&mut bad_points);
    let res = no_panic("register_points with NaN point", || {
        service.register_points(bad_points)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));

    // Nothing queued, the healthy model still serves.
    assert_eq!(service.queued(), 0);
    let probe = vec![0.0; r];
    assert!(service.predict("healthy", &probe).is_ok());
}

#[test]
fn service_predict_screens_probe_points_and_misses_structurally() {
    let r = 4;
    let (service, _, _) = service_with_fitted_job(r, 12);

    let res = no_panic("predict with NaN probe", || {
        service.predict("healthy", &[f64::NAN, 0.0, 0.0, 0.0])
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    let res = no_panic("predict with wrong dimension", || {
        service.predict("healthy", &[0.0; 2])
    });
    assert!(matches!(res, Err(BmfError::SampleShape { .. })));
    let res = no_panic("predict on unknown job", || {
        service.predict("never-fitted", &[0.0; 4])
    });
    assert!(matches!(res, Err(BmfError::NotFound { what: "model", .. })));
    // Screens fire before the registry: the NaN probe on an unknown job
    // is reported as non-finite, not as a miss.
    let res = no_panic("predict NaN probe on unknown job", || {
        service.predict("never-fitted", &[f64::NAN; 4])
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
}

#[test]
fn service_append_front_screens_faults_and_isolates_failures() {
    let r = 4;
    let (service, _, _) = service_with_fitted_job(r, 12);
    let basis = OrthonormalBasis::linear(r);
    let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &[0.8, -0.5, 0.3, 0.6, 0.2]);
    service
        .register_stream("stream", basis, &prior, 1.0)
        .expect("clean stream registration");

    // Boundary screens: poisoned appends never reach the queue. The
    // screens fire before the registry lookup, like `predict`.
    let res = no_panic("append_sample with NaN point", || {
        service.append_sample("stream", &[f64::NAN, 0.0, 0.0, 0.0], 1.0)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    let res = no_panic("append_sample with Inf value", || {
        service.append_sample("stream", &[0.0; 4], f64::INFINITY)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    let res = no_panic("append_sample with wrong dimension", || {
        service.append_sample("stream", &[0.0; 2], 1.0)
    });
    assert!(matches!(res, Err(BmfError::SampleShape { .. })));
    let res = no_panic("append_sample on unknown stream", || {
        service.append_sample("no-such-stream", &[0.0; 4], 1.0)
    });
    assert!(matches!(
        res,
        Err(BmfError::NotFound { what: "stream", .. })
    ));
    let res = no_panic("append NaN point on unknown stream", || {
        service.append_sample("no-such-stream", &[f64::NAN; 4], 1.0)
    });
    assert!(matches!(res, Err(BmfError::NonFiniteInput { .. })));
    assert_eq!(
        service.queued_appends(),
        0,
        "rejected appends must not enqueue"
    );

    // A healthy append applies despite the surrounding rejections, and
    // duplicate stream registration is a structured error.
    service
        .append_sample("stream", &[0.1, -0.2, 0.3, 0.4], 0.9)
        .expect("clean append");
    let report = service.drain();
    assert_eq!(report.appended(), 1);
    assert!(report.appends[0].result.is_ok());
    assert_eq!(service.stream_samples("stream").unwrap(), 1);
    let res = no_panic("duplicate register_stream", || {
        service.register_stream("stream", OrthonormalBasis::linear(r), &prior, 1.0)
    });
    assert!(matches!(
        res,
        Err(BmfError::Config {
            parameter: "stream",
            ..
        })
    ));
    let c = service.counters();
    assert_eq!(c.appends_ok, 1);
    assert_eq!(c.appends_failed, 0);
    // The NaN probe on the unknown stream was screened before the
    // lookup, so only the clean unknown-stream append counts as a miss.
    assert_eq!(c.append_misses, 1);
}

#[test]
fn service_drain_degrades_structurally_on_adversarial_batches() {
    use bmf_core::service::{FitRequest, FitService, ServiceConfig};
    // Duplicated rows (rank-deficient but solvable) coalesced with an
    // under-determined zero-prior request: the drain must never panic,
    // the solvable request fits (possibly degraded, with its resilience
    // report attached), the impossible one fails alone.
    let r = 20;
    let service = FitService::new(ServiceConfig {
        options: FitOptions::new().folds(4).seed(7),
        ..ServiceConfig::default()
    })
    .expect("service config");
    let mut points = sample_points(12, r, 32);
    let (truth, early) = truth_and_early(r);
    let mut values = linear_values(&points, &truth);
    let mut inj = FaultInjector::new(20);
    for _ in 0..3 {
        inj.duplicate_row(&mut points, &mut values);
    }
    let ps = service
        .register_points(points)
        .expect("degenerate rows are finite");
    service
        .submit_fit(FitRequest {
            job_id: "dup-rows".into(),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior: early.clone(),
            values: values.clone(),
        })
        .expect("finite payload");
    let mut zero_early = early;
    inj.zero_prior(&mut zero_early);
    service
        .submit_fit(FitRequest {
            job_id: "no-prior".into(),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior: zero_early,
            values,
        })
        .expect("finite payload");

    let report = match catch_unwind(AssertUnwindSafe(|| service.drain())) {
        Ok(r) => r,
        Err(_) => panic!("drain panicked on adversarial batch"),
    };
    assert_eq!(report.outcomes.len(), 2);
    let dup = &report.outcomes[0];
    assert_eq!(dup.job_id, "dup-rows");
    let served = dup.result.as_ref().expect("prior-backed fit survives");
    assert!(served.fit.model.coeffs().iter().all(|c| c.is_finite()));
    assert!(served.fit.resilience.rcond.is_finite());
    let doomed = &report.outcomes[1];
    assert!(
        matches!(doomed.result, Err(BmfError::NotEnoughSamples { .. })),
        "expected structured failure, got {:?}",
        doomed.result.as_ref().map(|s| s.fit.summary())
    );
    let c = service.counters();
    assert_eq!(c.fits_ok + c.fits_failed, 2);
    assert!(service.snapshot("dup-rows").is_some());
    assert!(service.snapshot("no-prior").is_none());
}

#[test]
fn clean_inputs_report_rung_zero_and_no_ridge() {
    // The flip side of the contract: on well-posed inputs the ladder
    // must never engage, so results stay bit-identical to a build
    // without it.
    let r = 6;
    let basis = OrthonormalBasis::linear(r);
    let (truth, early) = truth_and_early(r);
    let points = sample_points(14, r, 9);
    let values = linear_values(&points, &truth);
    let fit = BmfFitter::new(basis, early)
        .unwrap()
        .with_options(FitOptions::new().folds(4))
        .fit(&points, &values)
        .unwrap();
    assert_eq!(fit.resilience.rung, 0);
    assert_eq!(fit.resilience.ridge, 0.0);
    assert_eq!(fit.resilience.degraded_solves, 0);
    assert_eq!(fit.resilience.max_rung, 0);
    assert_eq!(fit.counters.ladder_escalations, 0);
    assert_eq!(fit.counters.lu_fallbacks, 0);
    assert!(fit.resilience.rcond > 0.0);
}
