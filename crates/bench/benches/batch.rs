//! Bench: batch-vs-loop fitting throughput at N ∈ {1, 8, 64} jobs.
//!
//! All jobs share one sample-point set — the realistic characterization
//! scenario (gain, bandwidth, offset, ... measured from the same Monte
//! Carlo runs). The `loop` rows fit each job through `BmfFitter` serially
//! (re-evaluating the design matrix and fold plan per job); the `batch`
//! rows go through `BatchFitter`, which shares both and dispatches the
//! per-job work across the worker pool. After timing, one batch run per N
//! prints its work counters and per-phase wall times.
//!
//! Runs on the in-tree timing harness; pass `--smoke` for a
//! one-iteration CI run at a reduced size.

use bmf_basis::basis::OrthonormalBasis;
use bmf_bench::timing::Harness;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::BmfFitter;
use bmf_core::options::FitOptions;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

struct Setup {
    basis: OrthonormalBasis,
    points: Vec<Vec<f64>>,
    jobs: Vec<BatchJob>,
    options: FitOptions,
}

fn setup(num_vars: usize, samples: usize, num_jobs: usize) -> Setup {
    let basis = OrthonormalBasis::linear(num_vars);
    let mut rng = seeded(derive_seed(0xBA7C4, num_jobs as u64));
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..samples)
        .map(|_| normal.sample_vec(&mut rng, num_vars))
        .collect();
    let jobs = (0..num_jobs)
        .map(|j| {
            // Distinct linear truth per job, early model mildly perturbed.
            let truth: Vec<f64> = (0..=num_vars)
                .map(|i| ((i + 11 * j) as f64 * 0.43).cos() * (1.0 + j as f64 * 0.1))
                .collect();
            let values: Vec<f64> = points
                .iter()
                .map(|p| {
                    truth[0]
                        + p.iter()
                            .enumerate()
                            .map(|(i, x)| truth[i + 1] * x)
                            .sum::<f64>()
                })
                .collect();
            let early: Vec<Option<f64>> = truth
                .iter()
                .enumerate()
                .map(|(i, t)| Some(t * (1.0 + 0.05 * ((i + j) as f64).sin())))
                .collect();
            BatchJob::new(format!("metric{j}"), early, values)
        })
        .collect();
    Setup {
        basis,
        points,
        jobs,
        options: FitOptions::new().folds(5).seed(3),
    }
}

fn fit_loop(s: &Setup) -> usize {
    let mut fitted = 0;
    for job in &s.jobs {
        let fit = BmfFitter::new(s.basis.clone(), job.prior.clone())
            .expect("prior shape")
            .with_options(s.options.clone())
            .fit(&s.points, &job.values)
            .expect("serial fit");
        fitted += fit.model.coeffs().len();
    }
    fitted
}

fn fit_batch(s: &Setup) -> usize {
    let mut batch = BatchFitter::new(s.basis.clone()).with_options(s.options.clone());
    for job in &s.jobs {
        batch.push_job(job.clone());
    }
    let report = batch.fit(&s.points).expect("batch fit");
    report.fits.iter().map(|f| f.model.coeffs().len()).sum()
}

fn main() {
    let h = Harness::from_cli();
    let (num_vars, samples) = if h.is_smoke() { (12, 24) } else { (40, 80) };
    for &n in &[1usize, 8, 64] {
        let s = setup(num_vars, samples, n);
        h.bench(&format!("batch/loop/{n}"), || fit_loop(&s));
        h.bench(&format!("batch/batch/{n}"), || fit_batch(&s));

        if !h.selected(&format!("batch/batch/{n}")) {
            continue;
        }
        // One extra instrumented run for the counters and phase times.
        let mut batch = BatchFitter::new(s.basis.clone()).with_options(s.options.clone());
        for job in &s.jobs {
            batch.push_job(job.clone());
        }
        let report = batch.fit(&s.points).expect("batch fit");
        let c = report.counters;
        let t = report.timings;
        println!(
            "batch/counters/{n}                       threads {} | solves {} | kernels {} | cache {} hit / {} miss",
            report.threads, c.map_solves, c.kernels_built, c.kernel_cache_hits, c.kernel_cache_misses,
        );
        println!(
            "batch/phases/{n}                         prepare {:?} | kernels {:?} | sweep {:?} | solve {:?}",
            t.prepare, t.kernels, t.sweep, t.solve,
        );
    }
}
