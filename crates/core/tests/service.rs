//! Integration suite for `bmf_core::service`: the serving path must be
//! bit-identical to direct library calls, deterministic under any
//! submission interleaving and thread count, and panic-free with
//! structured errors on every miss or failure.

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::BmfFitter;
use bmf_core::options::FitOptions;
use bmf_core::service::{FitRequest, FitService, ServiceConfig};
use bmf_core::BmfError;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

fn sample_points(k: usize, r: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded(seed);
    let mut s = StandardNormal::new();
    (0..k).map(|_| s.sample_vec(&mut rng, r)).collect()
}

/// A distinct linear job per index over shared points: truth, perturbed
/// early prior, and exact response values.
fn job_payload(j: usize, r: usize, points: &[Vec<f64>]) -> (Vec<Option<f64>>, Vec<f64>) {
    let truth: Vec<f64> = (0..=r)
        .map(|i| ((i + 5 * j) as f64 * 0.41).cos() * (1.0 + j as f64 * 0.07))
        .collect();
    let values = points
        .iter()
        .map(|p| {
            truth[0]
                + p.iter()
                    .enumerate()
                    .map(|(i, x)| truth[i + 1] * x)
                    .sum::<f64>()
        })
        .collect();
    let prior = truth
        .iter()
        .enumerate()
        .map(|(i, t)| Some(t * (1.0 + 0.05 * ((i + j) as f64).sin())))
        .collect();
    (prior, values)
}

fn options(threads: usize) -> FitOptions {
    FitOptions::new().folds(4).seed(17).threads(threads)
}

fn coeff_bits(coeffs: &[f64]) -> Vec<u64> {
    coeffs.iter().map(|c| c.to_bits()).collect()
}

#[test]
fn service_fits_are_bit_identical_to_direct_calls() {
    let r = 5;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(14, r, 21);
    let jobs = 6;

    let service = FitService::new(ServiceConfig {
        options: options(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let ps = service.register_points(points.clone()).unwrap();
    for j in 0..jobs {
        let (prior, values) = job_payload(j, r, &points);
        service
            .submit_fit(FitRequest {
                job_id: format!("job{j}"),
                basis: basis.clone(),
                points: ps,
                prior,
                values,
            })
            .unwrap();
    }
    let report = service.drain();
    assert_eq!(report.served(), jobs);
    assert_eq!(report.batches.len(), 1, "one shared set ⇒ one batch");

    // Direct batch path, same options.
    let mut batch = BatchFitter::new(basis.clone()).with_options(options(0));
    for j in 0..jobs {
        let (prior, values) = job_payload(j, r, &points);
        batch.push_job(BatchJob::new(format!("job{j}"), prior, values));
    }
    let direct = batch.fit(&points).unwrap();

    for (outcome, direct_fit) in report.outcomes.iter().zip(&direct.fits) {
        let served = outcome.result.as_ref().unwrap();
        assert_eq!(served.coalesced, jobs);
        assert_eq!(
            coeff_bits(served.fit.model.coeffs()),
            coeff_bits(direct_fit.model.coeffs()),
            "service fit for {} diverges from BatchFitter",
            outcome.job_id
        );
        assert_eq!(served.fit.hyper.to_bits(), direct_fit.hyper.to_bits());
        assert_eq!(served.fit.prior_kind, direct_fit.prior_kind);
        assert_eq!(served.fit.resilience, direct_fit.resilience);
    }

    // Serial path: each job alone through BmfFitter.
    for j in 0..jobs {
        let (prior, values) = job_payload(j, r, &points);
        let serial = BmfFitter::new(basis.clone(), prior)
            .unwrap()
            .with_options(options(0))
            .fit(&points, &values)
            .unwrap();
        let served = report.outcomes[j].result.as_ref().unwrap();
        assert_eq!(
            coeff_bits(served.fit.model.coeffs()),
            coeff_bits(serial.model.coeffs()),
            "service fit for job{j} diverges from serial BmfFitter"
        );
    }

    // The registry serves the same model the fit returned.
    let x = vec![0.3; r];
    for j in 0..jobs {
        let served = report.outcomes[j].result.as_ref().unwrap();
        let direct_pred = served.fit.model.predict(&x);
        let via_registry = service.predict(&format!("job{j}"), &x).unwrap();
        assert_eq!(via_registry.to_bits(), direct_pred.to_bits());
    }
}

#[test]
fn results_are_bit_identical_at_any_pool_size() {
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(12, r, 33);
    let run = |threads: usize| {
        let service = FitService::new(ServiceConfig {
            options: options(threads),
            ..ServiceConfig::default()
        })
        .unwrap();
        let ps = service.register_points(points.clone()).unwrap();
        for j in 0..8 {
            let (prior, values) = job_payload(j, r, &points);
            service
                .submit_fit(FitRequest {
                    job_id: format!("job{j}"),
                    basis: basis.clone(),
                    points: ps,
                    prior,
                    values,
                })
                .unwrap();
        }
        let report = service.drain();
        report
            .outcomes
            .into_iter()
            .map(|o| coeff_bits(o.result.unwrap().fit.model.coeffs()))
            .collect::<Vec<_>>()
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            run(threads),
            reference,
            "results drift at {threads} threads"
        );
    }
}

#[test]
fn coalescing_is_deterministic_under_shuffled_submission() {
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    // Two distinct shared point sets → two coalescing groups.
    let points_a = sample_points(12, r, 41);
    let points_b = sample_points(10, r, 42);
    let jobs = 10usize;

    let run = |order_seed: u64| {
        let service = FitService::new(ServiceConfig {
            options: options(0),
            ..ServiceConfig::default()
        })
        .unwrap();
        let pa = service.register_points(points_a.clone()).unwrap();
        let pb = service.register_points(points_b.clone()).unwrap();
        let mut order: Vec<usize> = (0..jobs).collect();
        seeded(order_seed).shuffle(&mut order);
        for &j in &order {
            let (set, pts) = if j % 2 == 0 {
                (pa, &points_a)
            } else {
                (pb, &points_b)
            };
            let (prior, values) = job_payload(j, r, pts);
            service
                .submit_fit(FitRequest {
                    job_id: format!("job{j}"),
                    basis: basis.clone(),
                    points: set,
                    prior,
                    values,
                })
                .unwrap();
        }
        let report = service.drain();
        assert_eq!(report.batches.len(), 2, "two groups ⇒ two batches");
        // Key by job id: outcome order follows submission order, which
        // this test varies on purpose.
        let mut by_job: Vec<(String, Vec<u64>)> = report
            .outcomes
            .into_iter()
            .map(|o| {
                (
                    o.job_id.clone(),
                    coeff_bits(o.result.unwrap().fit.model.coeffs()),
                )
            })
            .collect();
        by_job.sort();
        by_job
    };

    let reference = run(100);
    for order_seed in [101, 102, 103] {
        assert_eq!(
            run(order_seed),
            reference,
            "coalesced results depend on submission interleaving"
        );
    }
}

#[test]
fn predict_after_evict_is_a_structured_miss() {
    let r = 3;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(10, r, 55);
    let service = FitService::new(ServiceConfig {
        options: options(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let ps = service.register_points(points.clone()).unwrap();
    let (prior, values) = job_payload(0, r, &points);
    service
        .submit_fit(FitRequest {
            job_id: "gain".into(),
            basis,
            points: ps,
            prior,
            values,
        })
        .unwrap();
    service.drain();
    let x = vec![0.1; r];
    assert!(service.predict("gain", &x).is_ok());

    service.evict("gain").unwrap();
    match service.predict("gain", &x) {
        Err(BmfError::NotFound { what: "model", key }) => assert_eq!(key, "gain"),
        other => panic!("expected NotFound after evict, got {other:?}"),
    }
    // Second evict is a structured miss too, and the counters tell the
    // two apart.
    assert!(matches!(
        service.evict("gain"),
        Err(BmfError::NotFound { .. })
    ));
    let c = service.counters();
    assert_eq!(c.evictions, 1);
    assert_eq!(c.evict_misses, 1);
    assert_eq!(c.predict_misses, 1);

    // The registry really dropped the snapshot, not just the model.
    assert!(service.snapshot("gain").is_none());
    assert!(matches!(
        service.export_model("gain"),
        Err(BmfError::NotFound { .. })
    ));
}

#[test]
fn whole_batch_failure_is_isolated_to_the_guilty_request() {
    // 21-term basis over 12 samples: a job with a real prior fits (the
    // BMF sweet spot), a job with an all-zero prior is under-determined
    // and must fail alone with a structured error.
    let r = 20;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(12, r, 66);
    let service = FitService::new(ServiceConfig {
        options: options(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let ps = service.register_points(points.clone()).unwrap();

    let (prior, values) = job_payload(1, r, &points);
    service
        .submit_fit(FitRequest {
            job_id: "healthy".into(),
            basis: basis.clone(),
            points: ps,
            prior,
            values: values.clone(),
        })
        .unwrap();
    service
        .submit_fit(FitRequest {
            job_id: "doomed".into(),
            basis,
            points: ps,
            prior: vec![Some(0.0); r + 1],
            values,
        })
        .unwrap();

    let report = service.drain();
    assert_eq!(report.outcomes.len(), 2);
    let healthy = &report.outcomes[0];
    let doomed = &report.outcomes[1];
    assert_eq!(healthy.job_id, "healthy");
    assert!(
        healthy.result.is_ok(),
        "healthy neighbor must survive the batch failure: {:?}",
        healthy.result.as_ref().err()
    );
    assert!(matches!(
        doomed.result,
        Err(BmfError::NotEnoughSamples { .. })
    ));
    let c = service.counters();
    assert_eq!(c.isolation_refits, 2, "both requests refit in isolation");
    assert_eq!(c.fits_ok, 1);
    assert_eq!(c.fits_failed, 1);
    // The survivor is registered and serves predictions; the failed job
    // never enters the registry.
    assert!(service.snapshot("healthy").is_some());
    assert!(service.snapshot("doomed").is_none());

    // Isolated refits stay bit-identical to the direct serial path.
    let (prior, values) = job_payload(1, r, &points);
    let serial = BmfFitter::new(OrthonormalBasis::linear(r), prior)
        .unwrap()
        .with_options(options(0))
        .fit(&points, &values)
        .unwrap();
    let served = healthy.result.as_ref().unwrap();
    assert_eq!(
        coeff_bits(served.fit.model.coeffs()),
        coeff_bits(serial.model.coeffs())
    );
}

#[test]
fn max_coalesce_splits_batches_without_changing_results() {
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(12, r, 77);
    let jobs = 9usize;
    let run = |max_coalesce: usize| {
        let service = FitService::new(ServiceConfig {
            max_coalesce,
            options: options(0),
            ..ServiceConfig::default()
        })
        .unwrap();
        let ps = service.register_points(points.clone()).unwrap();
        for j in 0..jobs {
            let (prior, values) = job_payload(j, r, &points);
            service
                .submit_fit(FitRequest {
                    job_id: format!("job{j}"),
                    basis: basis.clone(),
                    points: ps,
                    prior,
                    values,
                })
                .unwrap();
        }
        let report = service.drain();
        (
            report.batches.len(),
            report
                .outcomes
                .into_iter()
                .map(|o| coeff_bits(o.result.unwrap().fit.model.coeffs()))
                .collect::<Vec<_>>(),
        )
    };
    let (one_batch, reference) = run(64);
    assert_eq!(one_batch, 1);
    let (chunked, chunked_results) = run(4);
    assert_eq!(chunked, 3, "9 jobs at cap 4 ⇒ 4+4+1");
    assert_eq!(
        chunked_results, reference,
        "chunking must not change any fit"
    );
}

#[test]
fn export_import_round_trip_preserves_predictions_bitwise() {
    let r = 5;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(14, r, 33);
    let source = FitService::new(ServiceConfig {
        options: options(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let ps = source.register_points(points.clone()).unwrap();
    for j in 0..3 {
        let (prior, values) = job_payload(j, r, &points);
        source
            .submit_fit(FitRequest {
                job_id: format!("job{j}"),
                basis: basis.clone(),
                points: ps,
                prior,
                values,
            })
            .unwrap();
    }
    source.drain();
    assert_eq!(source.snapshot_count(), 3);
    assert_eq!(source.job_ids(), vec!["job0", "job1", "job2"]);

    // Evict-to-disk shape: export carries the model *and* provenance.
    let snap = source.export_model("job1").unwrap();
    assert_eq!(snap.job_id, "job1");
    assert_eq!(snap.options, options(0));
    assert!(snap.validate().is_ok());
    assert!(matches!(
        source.export_model("missing"),
        Err(BmfError::NotFound { .. })
    ));

    // Warm-start a fresh service from the exported snapshots only.
    let target = FitService::new(ServiceConfig::default()).unwrap();
    for id in source.job_ids() {
        target
            .import_snapshot(source.export_model(&id).unwrap())
            .unwrap();
    }
    assert_eq!(target.snapshot_count(), 3);
    let probes = sample_points(8, r, 99);
    for id in source.job_ids() {
        for p in &probes {
            let a = source.predict(&id, p).unwrap();
            let b = target.predict(&id, p).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{id} diverges after round trip");
        }
    }
    let c = source.counters();
    assert_eq!(c.exports, 4, "3 warm-start exports + 1 direct");
    assert_eq!(target.counters().imports, 3);
}

#[test]
fn queue_full_rejection_clears_once_the_drain_lands() {
    // Admission is judged against the *current* queue depth: while two
    // submissions are in flight (queued, undrained) a third is shed with
    // a structured Overloaded, and the same submission is admitted again
    // the moment a drain frees the queue.
    let r = 3;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(10, r, 88);
    let service = FitService::new(ServiceConfig {
        queue_capacity: 2,
        options: options(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let ps = service.register_points(points.clone()).unwrap();
    let request = |j: usize| {
        let (prior, values) = job_payload(j, r, &points);
        FitRequest {
            job_id: format!("job{j}"),
            basis: basis.clone(),
            points: ps,
            prior,
            values,
        }
    };
    service.submit_fit(request(0)).unwrap();
    service.submit_fit(request(1)).unwrap();
    match service.submit_fit(request(2)) {
        Err(BmfError::Overloaded { class, capacity }) => {
            assert_eq!(class, "fit");
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Overloaded at capacity, got {other:?}"),
    }
    assert_eq!(service.counters().shed_fits, 1);
    assert_eq!(
        service.queued(),
        2,
        "shed submission must not occupy a slot"
    );

    let report = service.drain();
    assert_eq!(report.served(), 2, "queued work is unaffected by the shed");
    // The drain freed the queue: the identical request is now admitted
    // and fits to the same bits it would have unloaded.
    service.submit_fit(request(2)).unwrap();
    let retry = service.drain();
    assert_eq!(retry.served(), 1);
    let direct = BmfFitter::new(basis.clone(), request(2).prior)
        .unwrap()
        .with_options(options(0))
        .fit(&points, &request(2).values)
        .unwrap();
    let served = retry.outcomes[0].result.as_ref().unwrap();
    assert_eq!(
        coeff_bits(served.fit.model.coeffs()),
        coeff_bits(direct.model.coeffs()),
        "a request admitted after shedding must fit bit-identically"
    );
}

#[test]
fn evict_racing_a_queued_refit_still_installs_the_new_model() {
    // Interleaving: fit job X and drain; submit a re-fit of X; evict X
    // while the re-fit is still queued. The evict must not swallow the
    // queued work — the drain installs the fresh model, bit-identical
    // to a direct fit.
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(12, r, 91);
    let service = FitService::new(ServiceConfig {
        options: options(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let ps = service.register_points(points.clone()).unwrap();
    let (prior0, values0) = job_payload(0, r, &points);
    service
        .submit_fit(FitRequest {
            job_id: "block".into(),
            basis: basis.clone(),
            points: ps,
            prior: prior0,
            values: values0,
        })
        .unwrap();
    service.drain();
    assert!(service.snapshot("block").is_some());

    // Re-spin: queue the replacement fit, then evict the stale model
    // while the replacement is in flight.
    let (prior1, values1) = job_payload(1, r, &points);
    service
        .submit_fit(FitRequest {
            job_id: "block".into(),
            basis: basis.clone(),
            points: ps,
            prior: prior1.clone(),
            values: values1.clone(),
        })
        .unwrap();
    service.evict("block").unwrap();
    assert!(
        service.snapshot("block").is_none(),
        "evict must take effect immediately"
    );

    let report = service.drain();
    assert_eq!(report.served(), 1);
    let direct = BmfFitter::new(basis, prior1)
        .unwrap()
        .with_options(options(0))
        .fit(&points, &values1)
        .unwrap();
    let registered = service.snapshot("block").expect("refit must install");
    assert_eq!(
        coeff_bits(registered.model.coeffs()),
        coeff_bits(direct.model.coeffs()),
        "model installed after the evict race diverges from a direct fit"
    );
    let c = service.counters();
    assert_eq!(c.evictions, 1);
    assert_eq!(c.fits_ok, 2);
}

#[test]
fn deadline_expiry_of_a_batch_member_leaves_the_cohort_bit_identical() {
    // Five requests share one coalescing group; one carries a virtual
    // deadline that passes before the drain. The expired member gets a
    // structured DeadlineExceeded, never reaches a batch, and the
    // surviving cohort's fits are bit-identical to a run in which the
    // stale request was never submitted.
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(12, r, 95);
    let jobs = 4usize;
    let run = |with_stale: bool| {
        let service = FitService::new(ServiceConfig {
            options: options(0),
            ..ServiceConfig::default()
        })
        .unwrap();
        let ps = service.register_points(points.clone()).unwrap();
        for j in 0..jobs {
            let (prior, values) = job_payload(j, r, &points);
            service
                .submit_fit(FitRequest {
                    job_id: format!("job{j}"),
                    basis: basis.clone(),
                    points: ps,
                    prior,
                    values,
                })
                .unwrap();
        }
        if with_stale {
            let (prior, values) = job_payload(9, r, &points);
            service
                .submit_fit_with_deadline(
                    FitRequest {
                        job_id: "stale".into(),
                        basis: basis.clone(),
                        points: ps,
                        prior,
                        values,
                    },
                    Some(1_000),
                )
                .unwrap();
        }
        let report = service.drain_at(2_000);
        (service.counters(), report)
    };

    let (_, clean) = run(false);
    let (counters, mixed) = run(true);
    assert_eq!(mixed.outcomes.len(), jobs + 1);
    let stale = mixed
        .outcomes
        .iter()
        .find(|o| o.job_id == "stale")
        .expect("expired request must still report an outcome");
    match &stale.result {
        Err(BmfError::DeadlineExceeded {
            deadline_ns,
            now_ns,
        }) => {
            assert_eq!(*deadline_ns, 1_000);
            assert_eq!(*now_ns, 2_000);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(stale.batch.is_none(), "expired member must never batch");
    assert_eq!(counters.expired_fits, 1);
    assert_eq!(counters.fits_failed, 1);

    // Cohort bit-identity: job j's fit with the stale member expired
    // equals job j's fit with the stale member never submitted.
    for j in 0..jobs {
        let a = clean.outcomes[j].result.as_ref().unwrap();
        let b = mixed.outcomes[j].result.as_ref().unwrap();
        assert_eq!(
            coeff_bits(a.fit.model.coeffs()),
            coeff_bits(b.fit.model.coeffs()),
            "job{j}: expired batch member perturbed its cohort"
        );
        assert_eq!(a.fit.hyper.to_bits(), b.fit.hyper.to_bits());
    }
}

#[test]
fn requests_accepted_under_overload_fit_bit_identically_to_unloaded() {
    // Capacity 3 sheds half the submissions; every accepted request
    // must still fit to exactly the bits of an unloaded run that took
    // all six.
    let r = 4;
    let basis = OrthonormalBasis::linear(r);
    let points = sample_points(12, r, 97);
    let run = |queue_capacity: usize| {
        let service = FitService::new(ServiceConfig {
            queue_capacity,
            options: options(0),
            ..ServiceConfig::default()
        })
        .unwrap();
        let ps = service.register_points(points.clone()).unwrap();
        let mut accepted = Vec::new();
        for j in 0..6 {
            let (prior, values) = job_payload(j, r, &points);
            let submit = service.submit_fit(FitRequest {
                job_id: format!("job{j}"),
                basis: basis.clone(),
                points: ps,
                prior,
                values,
            });
            match submit {
                Ok(_) => accepted.push(j),
                Err(BmfError::Overloaded { .. }) => {}
                Err(other) => panic!("unexpected submit error: {other:?}"),
            }
        }
        let report = service.drain();
        let bits: Vec<(String, Vec<u64>)> = report
            .outcomes
            .into_iter()
            .map(|o| {
                (
                    o.job_id.clone(),
                    coeff_bits(o.result.unwrap().fit.model.coeffs()),
                )
            })
            .collect();
        (accepted, bits, service.counters())
    };

    let (all, unloaded_bits, _) = run(65_536);
    assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    let (accepted, loaded_bits, counters) = run(3);
    assert_eq!(accepted, vec![0, 1, 2], "admission is strictly first-come");
    assert_eq!(counters.shed_fits, 3);
    for (job, bits) in &loaded_bits {
        let reference = unloaded_bits
            .iter()
            .find(|(j, _)| j == job)
            .map(|(_, b)| b)
            .unwrap();
        assert_eq!(
            bits, reference,
            "{job}: admission under load changed the fit"
        );
    }
}

#[test]
fn append_queue_sheds_and_recovers_like_the_fit_queue() {
    use bmf_core::prior::{Prior, PriorKind};

    let r = 2;
    let basis = OrthonormalBasis::linear(r);
    let service = FitService::new(ServiceConfig {
        append_capacity: 1,
        options: options(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0, 0.4, -0.2]);
    service
        .register_stream("telemetry", basis, &prior, 1.0)
        .unwrap();
    service
        .append_sample("telemetry", &[0.1, 0.2], 1.1)
        .unwrap();
    match service.append_sample("telemetry", &[0.3, 0.1], 0.9) {
        Err(BmfError::Overloaded { class, capacity }) => {
            assert_eq!(class, "append");
            assert_eq!(capacity, 1);
        }
        other => panic!("expected Overloaded on append queue, got {other:?}"),
    }
    let report = service.drain();
    assert_eq!(report.appended(), 1, "queued append survives the shed");
    assert_eq!(service.stream_samples("telemetry").unwrap(), 1);
    // Slot freed: the shed update is admitted on retry.
    service
        .append_sample("telemetry", &[0.3, 0.1], 0.9)
        .unwrap();
    service.drain();
    assert_eq!(service.stream_samples("telemetry").unwrap(), 2);
    assert_eq!(service.counters().shed_appends, 1);
}

#[test]
fn import_screens_contaminated_snapshots() {
    use bmf_core::model::PerformanceModel;
    use bmf_core::snapshot::ModelSnapshot;

    let service = FitService::new(ServiceConfig::default()).unwrap();
    let bad = PerformanceModel::new(OrthonormalBasis::linear(2), vec![1.0, f64::NAN, 0.0]).unwrap();
    let snap = ModelSnapshot::from_model("poison", bad);
    assert!(matches!(
        service.import_snapshot(snap),
        Err(BmfError::NonFiniteInput { .. })
    ));
    assert_eq!(
        service.snapshot_count(),
        0,
        "rejected import must not register"
    );
    assert_eq!(service.counters().imports, 0);

    let good = PerformanceModel::new(OrthonormalBasis::linear(2), vec![1.0, 0.5, -0.25]).unwrap();
    service
        .import_snapshot(ModelSnapshot::from_model("clean", good))
        .unwrap();
    assert_eq!(service.snapshot_count(), 1);
    assert!(service.predict("clean", &[0.0, 0.0]).is_ok());
}
