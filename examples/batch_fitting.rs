//! Batch fitting: every metric of a circuit from one Monte-Carlo set.
//!
//! A characterization run measures power, phase noise, *and* frequency
//! from the same post-layout simulations — the expensive part (the
//! simulations) is shared, so the fitting should share its work too.
//! This example fits all three ring-oscillator metrics through one
//! [`BatchFitter`]: the design matrix is evaluated once, priors that miss
//! the same columns share one projection of them, and the per-job work
//! runs on the worker pool. A serial `BmfFitter` loop over the same jobs
//! produces bit-identical models — the batch engine changes the cost,
//! never the numbers.
//!
//! ```text
//! cargo run --release --example batch_fitting
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::BmfFitter;
use bmf_core::least_squares::fit_least_squares;

const METRICS: [RoMetric; 3] = [RoMetric::Power, RoMetric::PhaseNoise, RoMetric::Frequency];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ro = RingOscillator::new(RoConfig::small(), 7);
    let any = ro.metric(RoMetric::Frequency);
    let sch_vars = any.num_vars(Stage::Schematic);
    let lay_vars = any.num_vars(Stage::PostLayout);
    let k_late = 25;

    // One shared late-stage sample set: the variation points depend only
    // on the seed and the variable space, so every metric is "measured"
    // at the same Monte-Carlo points — exactly the batch scenario.
    let mut batch = BatchFitter::new(OrthonormalBasis::linear(lay_vars));
    let mut shared_points: Option<Vec<Vec<f64>>> = None;
    for metric in METRICS {
        let perf = ro.metric(metric);
        // Early model: plentiful cheap schematic simulations.
        let sch = monte_carlo(&perf, Stage::Schematic, 300, 1).expect("simulation succeeds");
        let early = fit_least_squares(
            &OrthonormalBasis::linear(sch_vars),
            &sch.points,
            &sch.values,
        )?;
        let mut prior: Vec<Option<f64>> = early.coeffs().iter().map(|&a| Some(a)).collect();
        prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));

        let late = monte_carlo(&perf, Stage::PostLayout, k_late, 2).expect("simulation succeeds");
        match &shared_points {
            None => shared_points = Some(late.points.clone()),
            Some(points) => assert_eq!(points, &late.points, "metrics share the sample points"),
        }
        batch.push_job(BatchJob::new(metric.to_string(), prior, late.values));
    }
    let points = shared_points.expect("at least one metric");

    let report = batch.clone().fit(&points)?;
    println!(
        "batch fit of {} metrics from {k_late} shared post-layout samples \
         ({} worker threads):",
        report.fits.len(),
        report.threads
    );
    for (label, fit) in report.labels.iter().zip(&report.fits) {
        let test = monte_carlo(&ro.metric(metric_by_name(label)), Stage::PostLayout, 300, 9)
            .expect("simulation succeeds");
        let err = fit
            .model
            .relative_error(test.point_slices(), &test.values)?;
        println!(
            "  {label:<12} prior {:?}, hyper {:.3e}, cv error {:.2}%, test error {:.2}%",
            fit.prior_kind,
            fit.hyper,
            fit.cv_error * 100.0,
            err * 100.0
        );
    }
    let c = report.counters;
    println!(
        "work: {} MAP solves, {} kernels built, cache {} hit / {} miss",
        c.map_solves, c.kernels_built, c.kernel_cache_hits, c.kernel_cache_misses
    );
    let t = report.timings;
    println!(
        "phases: prepare {:.2?}, kernels {:.2?}, sweep {:.2?}, solve {:.2?}",
        t.prepare, t.kernels, t.sweep, t.solve
    );

    // The batch engine never changes the numbers: a serial loop over the
    // same jobs gives bit-identical coefficients.
    for (j, metric) in METRICS.iter().enumerate() {
        let perf = ro.metric(*metric);
        let sch = monte_carlo(&perf, Stage::Schematic, 300, 1).expect("simulation succeeds");
        let early = fit_least_squares(
            &OrthonormalBasis::linear(sch_vars),
            &sch.points,
            &sch.values,
        )?;
        let mut prior: Vec<Option<f64>> = early.coeffs().iter().map(|&a| Some(a)).collect();
        prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));
        let late = monte_carlo(&perf, Stage::PostLayout, k_late, 2).expect("simulation succeeds");
        let serial = BmfFitter::new(OrthonormalBasis::linear(lay_vars), prior)?
            .fit(&late.points, &late.values)?;
        assert!(
            serial
                .model
                .coeffs()
                .iter()
                .zip(report.fits[j].model.coeffs())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "batch and serial fits must agree bit-for-bit"
        );
    }
    println!("serial-loop cross-check: bit-identical coefficients for every metric");
    Ok(())
}

fn metric_by_name(name: &str) -> RoMetric {
    METRICS
        .into_iter()
        .find(|m| m.to_string() == name)
        .expect("label produced by the loop above")
}
