//! `fit_wide`: closed-loop batch fitting at the documented default scale.
//!
//! The paper's ring-oscillator flow: 1967 post-layout variables, a linear
//! basis of M = 1968 terms of which 50 parasitic terms have no
//! early-stage prior. Each iteration fits the three RO metrics (power,
//! phase noise, frequency) with one `BatchFitter::fit` over K = 300
//! shared post-layout samples and default `FitOptions` (5 folds, 17-point
//! grid, BMF-PS, fast solver). Iterations alternate between K-row windows
//! of a sample pool drawn in set-up, so no two consecutive fits see the
//! same inputs. The basis, kernels, Woodbury sweep and CV layers do the
//! work; the service and the store do none.

use std::time::Instant;

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::batch::{BatchFitter, BatchJob, BatchReport};
use bmf_core::fusion::BmfFitter;
use bmf_core::options::FitOptions;
use bmf_stat::rng::derive_seed;

use crate::inputs::{early_prior, push_f64s, push_prior, simulate, SetupTimes};
use crate::layers::{self, Shape};
use crate::outcome::{ClassCount, Outcome};
use crate::stats::Summary;
use crate::{Args, RunContext};

/// Schematic samples behind each early-stage OMP prior.
const SCHEMATIC_SAMPLES: usize = 600;
/// Term cap of the early-stage OMP fit.
const OMP_MAX_TERMS: usize = 100;
/// Post-layout samples per fit.
const K: usize = 300;
/// Distinct K-row windows the iterations cycle through.
const WINDOWS: usize = 2;
/// Offset between consecutive windows in the pool.
const STRIDE: usize = 50;
/// Held-out post-layout samples each fitted model is evaluated on.
const TEST_SAMPLES: usize = 300;
/// Fewest fits a run makes, however short.
const MIN_FITS: usize = 3;
/// Latency limits for the SLO share.
const FIT_LIMIT_MS: f64 = 10_000.0;
const PREDICT_LIMIT_US: f64 = 1_000.0;

const METRICS: [RoMetric; 3] = [RoMetric::Power, RoMetric::PhaseNoise, RoMetric::Frequency];

/// Canonical configuration text.
pub fn config() -> String {
    let ro = RoConfig::default_shape();
    format!(
        "fit_wide ro_post_layout_vars={} schematic={SCHEMATIC_SAMPLES} omp_max_terms={OMP_MAX_TERMS} \
         k={K} windows={WINDOWS} stride={STRIDE} test={TEST_SAMPLES} options=default \
         fit_limit_ms={FIT_LIMIT_MS} predict_limit_us={PREDICT_LIMIT_US}",
        ro.post_layout_vars()
    )
}

/// Everything the fits need.
pub struct Inputs {
    basis: OrthonormalBasis,
    /// Shared post-layout pool (`K + (WINDOWS - 1) · STRIDE` points).
    pool: Vec<Vec<f64>>,
    /// Per metric: label, prior, pool values.
    jobs: Vec<BatchJob>,
    test_points: Vec<Vec<f64>>,
    /// Per metric: held-out values.
    test_values: Vec<Vec<f64>>,
}

impl Inputs {
    /// Simulates the RO at `config` and fits the early priors.
    pub fn generate(
        config: RoConfig,
        schematic: usize,
        pool: usize,
        test: usize,
        seed: u64,
        times: &mut SetupTimes,
    ) -> Result<Self, String> {
        let ro = RingOscillator::new(config, derive_seed(seed, 1));
        let mut jobs = Vec::new();
        let mut test_values = Vec::new();
        let mut points = None;
        let mut test_points = None;
        for (i, metric) in METRICS.iter().enumerate() {
            let perf = ro.metric(*metric);
            let prior = early_prior(
                &perf,
                schematic,
                OMP_MAX_TERMS,
                derive_seed(seed, 10 + i as u64),
                times,
            )?;
            // Post-layout points depend only on the seed and the variable
            // space, so all three metrics share them.
            let late = simulate(&perf, Stage::PostLayout, pool, derive_seed(seed, 2), times)?;
            let held = simulate(&perf, Stage::PostLayout, test, derive_seed(seed, 3), times)?;
            jobs.push(BatchJob::new(perf.name().to_string(), prior, late.values));
            test_values.push(held.values);
            points.get_or_insert(late.points);
            test_points.get_or_insert(held.points);
        }
        let vars = ro.metric(METRICS[0]).num_vars(Stage::PostLayout);
        Ok(Inputs {
            basis: OrthonormalBasis::linear(vars),
            pool: points.unwrap_or_default(),
            jobs,
            test_points: test_points.unwrap_or_default(),
            test_values,
        })
    }

    /// Every input byte, for identity checks.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for p in self.pool.iter().chain(&self.test_points) {
            push_f64s(&mut out, p);
        }
        for (j, t) in self.jobs.iter().zip(&self.test_values) {
            push_prior(&mut out, &j.prior);
            push_f64s(&mut out, &j.values);
            push_f64s(&mut out, t);
        }
        out
    }

    fn window(&self, w: usize) -> (Vec<Vec<f64>>, Vec<BatchJob>) {
        let range = w * STRIDE..w * STRIDE + K;
        let points = self.pool[range.clone()].to_vec();
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                BatchJob::new(
                    j.label.clone(),
                    j.prior.clone(),
                    j.values[range.clone()].to_vec(),
                )
            })
            .collect();
        (points, jobs)
    }
}

fn options() -> FitOptions {
    FitOptions::default().threads(crate::meta::nproc())
}

/// Runs the workload.
pub fn run(args: &Args, ctx: &mut RunContext) -> Outcome {
    let mut out = Outcome {
        config: config(),
        ..Outcome::default()
    };
    let pool = K + (WINDOWS - 1) * STRIDE;
    let inputs = match ctx.timed_setup(|times| {
        Inputs::generate(
            RoConfig::default_shape(),
            SCHEMATIC_SAMPLES,
            pool,
            TEST_SAMPLES,
            args.seed,
            times,
        )
    }) {
        Ok(i) => i,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.inputs_hash = crate::meta::hash(&inputs.bytes());
    let opts = options();
    let windows: Vec<(Vec<Vec<f64>>, BatchFitter)> = (0..WINDOWS)
        .map(|w| {
            let (points, jobs) = inputs.window(w);
            let fitter = BatchFitter::new(inputs.basis.clone())
                .with_options(opts.clone())
                .with_jobs(jobs);
            (points, fitter)
        })
        .collect();

    let mut fit_ms = Vec::new();
    let mut predict_us = Vec::new();
    let mut rel_err = Vec::new();
    let mut kept: Vec<Option<BatchReport>> = vec![None; WINDOWS];
    let mut fit_class = ClassCount::default();
    let mut predict_class = ClassCount::default();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_FITS || start.elapsed().as_secs_f64() < args.seconds {
        let w = i % WINDOWS;
        let (points, fitter) = &windows[w];
        let t0 = Instant::now();
        let report = ctx.tracer.span("batch.fit", |_| fitter.fit(points));
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        fit_class.sent += 1;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                fit_class.failed += 1;
                out.fail(format!("batch fit failed: {e}"));
                break;
            }
        };
        fit_ms.push(dt);
        fit_class.ok += 1;
        fit_class.within_limit += u64::from(dt <= FIT_LIMIT_MS);
        if ctx.tracer.enabled() {
            layers::record_batch(&mut ctx.layers, &report, dt);
        }
        for (fit, truth) in report.fits.iter().zip(&inputs.test_values) {
            let mut sq_err = 0.0;
            let mut sq_ref = 0.0;
            for (x, y) in inputs.test_points.iter().zip(truth) {
                let t = Instant::now();
                let p = std::hint::black_box(fit.model.predict(x));
                let us = t.elapsed().as_secs_f64() * 1e6;
                predict_us.push(us);
                predict_class.sent += 1;
                predict_class.ok += 1;
                predict_class.within_limit += u64::from(us <= PREDICT_LIMIT_US);
                sq_err += (p - y) * (p - y);
                sq_ref += y * y;
            }
            // Eq. 59: relative L2 error on held-out samples.
            rel_err.push((sq_err / sq_ref).sqrt());
        }
        if kept[w].is_none() {
            kept[w] = Some(report);
        }
        i += 1;
    }
    let fit_s: f64 = fit_ms.iter().sum::<f64>() * 1e-3;
    let models = fit_ms.len() * METRICS.len();

    // Correctness, outside the timed region: each distinct window's
    // batch coefficients equal a serial BmfFitter::fit bit for bit.
    for (w, report) in kept.iter().enumerate() {
        let Some(report) = report else { continue };
        let (points, jobs) = inputs.window(w);
        if let Err(e) = check_serial(&inputs.basis, &points, &jobs, report, &opts) {
            out.fail(format!("window {w}: {e}"));
        }
    }
    let mean_err = rel_err.iter().sum::<f64>() / rel_err.len().max(1) as f64;
    if !(mean_err.is_finite() && mean_err < 1.0) {
        out.fail(format!(
            "held-out relative error {mean_err} is not a usable fit"
        ));
    }

    let fits = Summary::of(&mut fit_ms);
    let (predict_tail, predict_tail_p) = crate::stats::chunked_tail(&predict_us);
    let predicts = Summary::of(&mut predict_us);
    out.classes = vec![("fit", fit_class), ("predict", predict_class)];
    out.e2e("setup_s", "s", ctx.setup_s());
    out.e2e("throughput_per_s", "1/s", models as f64 / fit_s.max(1e-9));
    out.e2e("latency_p50_ms", "ms", fits.p50);
    out.detail("predict_p50_us", "us", predicts.p50);
    out.detail("predict_tail_us", "us", predict_tail);
    out.e2e("slo_ratio", "ratio", out.slo_ratio());
    out.detail("jobs_per_s", "1/s", models as f64 / fit_s.max(1e-9));
    out.detail("fit_p50_ms", "ms", fits.p50);
    out.detail("fits", "count", fits.n as f64);
    out.detail("rel_err", "ratio", mean_err);
    out.detail("predict_tail_percentile", "%", predict_tail_p);
    out.detail("predict_samples", "count", predicts.n as f64);

    if ctx.tracer.enabled() && out.failures.is_empty() {
        let (points, jobs) = inputs.window(0);
        let shape = Shape {
            basis: &inputs.basis,
            points: &points,
            jobs: &jobs,
            options: &opts,
            probes: &inputs.test_points,
        };
        ctx.probe(&shape, &mut out);
    }
    out
}

/// Fits every job serially with `BmfFitter` (the jobs spread over the
/// available threads) and compares coefficients bit for bit.
fn check_serial(
    basis: &OrthonormalBasis,
    points: &[Vec<f64>],
    jobs: &[BatchJob],
    report: &BatchReport,
    opts: &FitOptions,
) -> Result<(), String> {
    let threads = crate::meta::nproc().max(1);
    let mut serial = Vec::new();
    for chunk in jobs.chunks(threads) {
        let fits: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = chunk
                .iter()
                .map(|job| {
                    s.spawn(move || {
                        BmfFitter::new(basis.clone(), job.prior.clone())
                            .map(|f| f.with_options(opts.clone()))
                            .and_then(|f| f.fit(points, &job.values))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for fit in fits {
            let fit = fit
                .map_err(|_| "serial fit thread panicked".to_string())?
                .map_err(|e| format!("serial fit failed: {e}"))?;
            serial.push(fit);
        }
    }
    for ((job, s), b) in jobs.iter().zip(&serial).zip(&report.fits) {
        let same = s.model.coeffs().len() == b.model.coeffs().len()
            && s.model
                .coeffs()
                .iter()
                .zip(b.model.coeffs())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Err(format!(
                "{}: batch coefficients differ from BmfFitter::fit",
                job.label
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_byte_identical_per_seed() {
        // The ci-sized RO keeps the test fast; the generator is the same.
        let small = || RoConfig {
            stages: 3,
            transistors_per_stage: 2,
            params_per_transistor: 3,
            interdie_vars: 2,
            parasitic_vars_per_stage: 1,
            ..RoConfig::small()
        };
        let mut t = SetupTimes::default();
        let a = Inputs::generate(small(), 40, 30, 10, 5, &mut t)
            .unwrap()
            .bytes();
        let b = Inputs::generate(small(), 40, 30, 10, 5, &mut t)
            .unwrap()
            .bytes();
        let c = Inputs::generate(small(), 40, 30, 10, 6, &mut t)
            .unwrap()
            .bytes();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
