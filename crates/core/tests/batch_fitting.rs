//! Integration tests for the parallel batch-fitting engine: exact
//! equivalence with the single-job fitter, bit-identical results across
//! thread counts, and honest kernel-cache accounting.

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::BmfFitter;
use bmf_core::options::FitOptions;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

fn sample_points(k: usize, r: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded(seed);
    let mut s = StandardNormal::new();
    (0..k).map(|_| s.sample_vec(&mut rng, r)).collect()
}

/// A linear ground truth plus a mildly perturbed early model, per job.
fn job_truth(r: usize, job: usize) -> (Vec<f64>, Vec<Option<f64>>) {
    let truth: Vec<f64> = (0..=r)
        .map(|i| ((i + 3 * job) as f64 * 0.7).cos() * (1.0 + job as f64 * 0.3))
        .collect();
    let early = truth
        .iter()
        .enumerate()
        .map(|(i, t)| Some(t * (1.0 + 0.08 * ((i * 5 + job) as f64).sin())))
        .collect();
    (truth, early)
}

fn eval(truth: &[f64], p: &[f64]) -> f64 {
    truth[0]
        + p.iter()
            .enumerate()
            .map(|(i, x)| truth[i + 1] * x)
            .sum::<f64>()
}

/// A batch plus each job's prior and response, in job order.
type BatchParts = (BatchFitter, Vec<Vec<Option<f64>>>, Vec<Vec<f64>>);

fn make_batch(r: usize, num_jobs: usize, points: &[Vec<f64>]) -> BatchParts {
    let basis = OrthonormalBasis::linear(r);
    let mut fitter = BatchFitter::new(basis);
    let mut priors = Vec::new();
    let mut responses = Vec::new();
    for j in 0..num_jobs {
        let (truth, early) = job_truth(r, j);
        let values: Vec<f64> = points.iter().map(|p| eval(&truth, p)).collect();
        fitter.push_job(BatchJob::new(
            format!("job{j}"),
            early.clone(),
            values.clone(),
        ));
        priors.push(early);
        responses.push(values);
    }
    (fitter, priors, responses)
}

fn coeff_bits(coeffs: &[f64]) -> Vec<u64> {
    coeffs.iter().map(|c| c.to_bits()).collect()
}

#[test]
fn single_job_batch_reproduces_bmf_fitter_bitwise() {
    let (r, k) = (10, 16);
    let points = sample_points(k, r, 42);
    let opts = FitOptions::new().folds(4).seed(7);
    let (batch, priors, responses) = make_batch(r, 1, &points);
    let report = batch.with_options(opts.clone()).fit(&points).unwrap();

    let serial = BmfFitter::new(OrthonormalBasis::linear(r), priors[0].clone())
        .unwrap()
        .with_options(opts)
        .fit(&points, &responses[0])
        .unwrap();

    assert_eq!(
        coeff_bits(report.fits[0].model.coeffs()),
        coeff_bits(serial.model.coeffs()),
        "one-job batch must be bit-identical to BmfFitter::fit"
    );
    assert_eq!(report.fits[0].prior_kind, serial.prior_kind);
    assert_eq!(report.fits[0].hyper.to_bits(), serial.hyper.to_bits());
    assert_eq!(report.fits[0].cv_error.to_bits(), serial.cv_error.to_bits());
    assert_eq!(report.fits[0].selection, serial.selection);
}

#[test]
fn batch_matches_serial_loop_for_every_job() {
    let (r, k, n) = (8, 14, 6);
    let points = sample_points(k, r, 5);
    let opts = FitOptions::new().folds(4).seed(3);
    let (batch, priors, responses) = make_batch(r, n, &points);
    let report = batch.with_options(opts.clone()).fit(&points).unwrap();
    assert_eq!(report.fits.len(), n);

    for j in 0..n {
        let serial = BmfFitter::new(OrthonormalBasis::linear(r), priors[j].clone())
            .unwrap()
            .with_options(opts.clone())
            .fit(&points, &responses[j])
            .unwrap();
        assert_eq!(
            coeff_bits(report.fits[j].model.coeffs()),
            coeff_bits(serial.model.coeffs()),
            "job {j} diverged from the serial loop"
        );
        assert_eq!(report.fits[j].prior_kind, serial.prior_kind);
        assert_eq!(report.fits[j].hyper.to_bits(), serial.hyper.to_bits());
    }
}

#[test]
fn results_are_bit_identical_across_thread_counts() {
    let (r, k, n) = (9, 15, 5);
    let points = sample_points(k, r, 17);
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for threads in [1usize, 2, 8] {
        let opts = FitOptions::new().folds(5).seed(1).threads(threads);
        let (batch, _, _) = make_batch(r, n, &points);
        let report = batch.with_options(opts).fit(&points).unwrap();
        assert_eq!(report.threads, threads);
        let bits: Vec<Vec<u64>> = report
            .fits
            .iter()
            .map(|f| coeff_bits(f.model.coeffs()))
            .collect();
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(
                &bits, want,
                "results changed between thread counts (threads={threads})"
            ),
        }
    }
}

#[test]
fn counters_are_schedule_independent() {
    let (r, k, n) = (7, 12, 4);
    let points = sample_points(k, r, 23);
    let mut reference = None;
    for threads in [1usize, 4] {
        let (batch, _, _) = make_batch(r, n, &points);
        let report = batch
            .with_options(FitOptions::new().folds(4).threads(threads))
            .fit(&points)
            .unwrap();
        match reference {
            None => reference = Some(report.counters),
            Some(want) => assert_eq!(report.counters, want),
        }
    }
}

#[test]
fn jobs_sharing_a_prior_hit_the_kernel_cache() {
    let (r, k) = (6, 12);
    let points = sample_points(k, r, 9);
    let (truth, early) = job_truth(r, 0);
    let values: Vec<f64> = points.iter().map(|p| eval(&truth, p)).collect();
    // Same prior, sign-flipped response: identical RMS, so the normalized
    // prior — and therefore every Woodbury kernel — coincides exactly.
    let flipped: Vec<f64> = values.iter().map(|v| -v).collect();
    let report = BatchFitter::new(OrthonormalBasis::linear(r))
        .job(BatchJob::new("a", early.clone(), values))
        .job(BatchJob::new("b", early, flipped))
        .fit(&points)
        .unwrap();
    // One full-data system for the shared pattern.
    assert_eq!(report.counters.kernel_cache_misses, 1);
    assert_eq!(report.counters.kernel_cache_hits, 1);
    assert_eq!(report.counters.kernels_built, 1);
    // Per-job attribution: the first job built, the second reused.
    assert_eq!(report.fits[0].counters.kernel_cache_misses, 1);
    assert_eq!(report.fits[0].counters.kernel_cache_hits, 0);
    assert_eq!(report.fits[1].counters.kernel_cache_hits, 1);
    assert_eq!(report.fits[1].counters.kernel_cache_misses, 0);
}

#[test]
fn distinct_priors_build_distinct_kernels() {
    let (r, k, n) = (6, 12, 3);
    let points = sample_points(k, r, 31);
    let (batch, _, _) = make_batch(r, n, &points);
    let report = batch.fit(&points).unwrap();
    // One full-data system per prior pattern.
    assert_eq!(report.counters.kernels_built, n);
    assert_eq!(report.counters.kernel_cache_hits, 0);
}

#[test]
fn report_carries_labels_and_timings() {
    let (r, k) = (5, 10);
    let points = sample_points(k, r, 2);
    let (batch, _, _) = make_batch(r, 2, &points);
    let report = batch
        .with_options(FitOptions::new().folds(3))
        .fit(&points)
        .unwrap();
    assert_eq!(report.labels, vec!["job0", "job1"]);
    assert!(report.timings.total() >= report.timings.prepare);
    assert!(report.counters.map_solves > 0);
}
