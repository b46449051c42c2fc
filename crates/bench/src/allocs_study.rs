//! Allocation profile of the fitting stack (`repro allocs`).
//!
//! Measures heap-allocation events and peak bytes for one cross-validated
//! [`BmfFitter`] fit, for a batch of fits sharing one sample set, for a
//! batch whose OMP-like priors sit mostly on their floor and miss the
//! same columns (the floor gram, the shared fold bases and their
//! congruence scratch, the missing-prior full-data systems), for one
//! [`fit_omp_design`] fit at the shape of an early-stage model, for one
//! standalone [`map_estimate`] solve per solver, and for the streaming
//! steady state of [`SequentialBmf`], which must not allocate at all. It
//! then writes `BENCH_allocs.json` (through [`crate::study`], into
//! `$BMF_BENCH_OUT` or the workspace root), which `scripts/bench_check.sh`
//! requires to equal the committed baseline. Run with the counting
//! allocator installed:
//!
//! ```text
//! cargo run -p bmf-bench --features bench --release --bin repro -- allocs
//! ```
//!
//! Without the `bench` feature the experiment still runs but every
//! allocation figure is zero, so it writes no `BENCH_allocs.json`: zeros
//! there would say nothing about the code.

use std::path::Path;

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::BmfFitter;
use bmf_core::map_estimate::{map_estimate, SolverKind};
use bmf_core::omp::{fit_omp_design, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::sequential::SequentialBmf;
use bmf_core::workspace::SeqWorkspace;
use bmf_core::BmfError;
use bmf_linalg::{Matrix, Vector};
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

use crate::alloc::{self, AllocStats};
use crate::report::Report;
use crate::scale::Scale;
use crate::study::{self, ReportWriter};

/// Streamed updates before the steady state is measured.
const SEQ_WARMUP: usize = 4;

/// Streamed updates measured in the steady state.
const SEQ_UPDATES: usize = 28;

/// One measured configuration.
struct Row {
    name: &'static str,
    fits: usize,
    stats: AllocStats,
}

impl Row {
    fn allocs_per_fit(&self) -> u64 {
        self.stats.count / self.fits.max(1) as u64
    }
}

/// Runs the allocation study and, when the counting allocator is
/// installed, writes `BENCH_allocs.json` into `out_dir`.
///
/// # Errors
///
/// Propagates fitting errors; IO failure writing the JSON is reported as
/// a [`BmfError::Config`] so the repro driver surfaces it.
pub fn allocation_study(scale: Scale, seed: u64, out_dir: &Path) -> Result<Report, BmfError> {
    // Representative late-stage shape: M = vars + 1 coefficients, K
    // samples a few times the fold count, Auto prior selection over the
    // default 17-point grid.
    let (num_vars, k, jobs): (usize, usize, usize) = match scale {
        Scale::Ci => (12, 24, 4),
        _ => (16, 32, 8),
    };
    let basis = OrthonormalBasis::linear(num_vars);
    let m = basis.len();

    let mut rng = seeded(seed);
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..k)
        .map(|_| normal.sample_vec(&mut rng, num_vars))
        .collect();
    let truth: Vec<f64> = (0..m).map(|i| 1.5 / (1.0 + i as f64)).collect();
    let values = study::linear_values(&truth, &points);
    let early: Vec<Option<f64>> = truth
        .iter()
        .enumerate()
        .map(|(i, t)| Some(t * (1.0 + 0.05 * ((i * 3) as f64).sin())))
        .collect();
    let options = FitOptions::new().folds(5).seed(seed);
    let (folds, grid) = (options.folds, options.grid.len());

    // One cross-validated serial fit (warm up once so one-time lazy
    // setup is not charged to the measured fit).
    let fitter = BmfFitter::new(basis.clone(), early.clone())?.with_options(options.clone());
    fitter.fit(&points, &values)?;
    let (serial, serial_stats) = alloc::measure(|| fitter.fit(&points, &values));
    serial?;

    // A batch of jobs over the same shared point set, single-threaded so
    // the numbers are schedule-independent.
    let mut batch = BatchFitter::new(basis).with_options(options.clone().threads(1));
    for j in 0..jobs {
        let prior: Vec<Option<f64>> = early
            .iter()
            .map(|v| v.map(|a| a * (1.0 + 0.01 * j as f64)))
            .collect();
        let jvals: Vec<f64> = values.iter().map(|v| v * (1.0 + 0.02 * j as f64)).collect();
        batch.push_job(BatchJob::new(format!("job{j}"), prior, jvals));
    }
    batch.fit(&points)?;
    let (batched, batch_stats) = alloc::measure(|| batch.fit(&points));
    batched?;

    // The `fit_wide` path: a batch whose priors, like OMP early models,
    // keep a few entries above the floor, sit on it everywhere else and
    // miss the same trailing columns.
    let (early_vars, missing, floor_k): (usize, usize, usize) = match scale {
        Scale::Ci => (24, 4, 32),
        _ => (40, 8, 48),
    };
    let floor_jobs = 3;
    let late_basis = OrthonormalBasis::linear(early_vars + missing);
    let floor_points: Vec<Vec<f64>> = (0..floor_k)
        .map(|_| normal.sample_vec(&mut rng, early_vars + missing))
        .collect();
    let floor_truth: Vec<f64> = (0..late_basis.len())
        .map(|i| 1.5 / (1.0 + i as f64))
        .collect();
    let floor_values = study::linear_values(&floor_truth, &floor_points);
    let mut floor_batch = BatchFitter::new(late_basis).with_options(options.threads(1));
    for j in 0..floor_jobs {
        let prior: Vec<Option<f64>> = floor_truth
            .iter()
            .enumerate()
            .map(|(i, t)| match i {
                i if i > early_vars => None,
                i if i % 6 == 0 => Some(t * (1.0 + 0.05 * ((i + j) as f64).sin())),
                _ => Some(0.0),
            })
            .collect();
        let jvals: Vec<f64> = floor_values
            .iter()
            .map(|v| v * (1.0 + 0.02 * j as f64))
            .collect();
        floor_batch.push_job(BatchJob::new(format!("floor{j}"), prior, jvals));
    }
    floor_batch.fit(&floor_points)?;
    let (floored, floor_stats) = alloc::measure(|| floor_batch.fit(&floor_points));
    floored?;

    // One early-stage OMP fit: every greedy step runs (no patience stop,
    // noise above `min_relative_residual`), so the count covers the loop.
    let (omp_k, omp_m, omp_terms): (usize, usize, usize) = match scale {
        Scale::Ci => (200, 400, 30),
        _ => (600, 1918, 100),
    };
    let g = Matrix::from_fn(omp_k, omp_m, |_, _| normal.sample(&mut rng));
    let omp_truth: Vec<f64> = (0..omp_m)
        .map(|j| {
            if j % 97 == 0 {
                1.0 / (1.0 + j as f64)
            } else {
                0.0
            }
        })
        .collect();
    let mut f = g.matvec(&Vector::from(omp_truth))?;
    for i in 0..omp_k {
        f[i] += 0.05 * normal.sample(&mut rng);
    }
    let omp_cfg = OmpConfig {
        max_terms: Some(omp_terms),
        patience: usize::MAX,
        seed,
        ..OmpConfig::default()
    };
    fit_omp_design(&g, &f, &omp_cfg)?;
    let (omp, omp_stats) = alloc::measure(|| fit_omp_design(&g, &f, &omp_cfg));
    omp?;

    let fast_stats = map_solve(SolverKind::Fast)?;
    let direct_stats = map_solve(SolverKind::Direct)?;
    let seq_prior = Prior::from_coeffs(PriorKind::NonZeroMean, &truth);
    let seq_stats = seq_steady_state(&OrthonormalBasis::linear(num_vars), &seq_prior)?;
    study::ensure(
        "allocs",
        seq_stats.count == 0,
        "seq_steady_state allocs == 0",
    )?;

    let rows = [
        Row {
            name: "serial_cv_fit",
            fits: 1,
            stats: serial_stats,
        },
        Row {
            name: "batch_cv_fit",
            fits: jobs,
            stats: batch_stats,
        },
        Row {
            name: "batch_floor_fit",
            fits: floor_jobs,
            stats: floor_stats,
        },
        Row {
            name: "omp_fit",
            fits: 1,
            stats: omp_stats,
        },
        Row {
            name: "map_solve_fast",
            fits: 1,
            stats: fast_stats,
        },
        Row {
            name: "map_solve_direct",
            fits: 1,
            stats: direct_stats,
        },
        Row {
            name: "seq_steady_state",
            fits: SEQ_UPDATES,
            stats: seq_stats,
        },
    ];

    let counting = alloc::counting_enabled();
    if counting {
        let mut json = ReportWriter::default();
        json.scalar("counting_enabled", counting);
        json.section("scenario", |s| {
            s.field("vars", num_vars);
            s.field("terms", m);
            s.field("samples", k);
            s.field("folds", folds);
            s.field("grid", grid);
            s.field("jobs", jobs);
            s.field("floor_vars", early_vars);
            s.field("floor_missing", missing);
            s.field("floor_samples", floor_k);
            s.field("floor_jobs", floor_jobs);
            s.field("omp_samples", omp_k);
            s.field("omp_terms", omp_m);
            s.field("omp_max_terms", omp_terms);
        });
        for row in &rows {
            json.section(row.name, |s| {
                s.field("fits", row.fits);
                s.field("allocs", row.stats.count);
                s.field("allocs_per_fit", row.allocs_per_fit());
                s.field("peak_bytes", row.stats.peak_bytes);
            });
        }
        study::write_report(out_dir, "allocs", &json.finish()?).map_err(|e| BmfError::Config {
            parameter: "allocs-out",
            detail: format!("writing BENCH_allocs.json: {e}"),
        })?;
    }

    let mut report = Report::new("allocs", "Heap allocations per cross-validated fit");
    if !counting {
        report.para(
            "**Counting allocator disabled** — rebuild with `--features bench` for real \
             numbers; `BENCH_allocs.json` is not written.",
        );
    }
    report.para(&format!(
        "Scenario: M = {m} terms, K = {k} samples, {folds} folds × {grid} grid points × \
         both prior families; batch of {jobs} jobs on one shared sample set (1 thread). \
         `batch_floor_fit`: {floor_jobs} jobs over M = {} terms, K = {floor_k}, whose \
         priors keep every sixth early entry, sit on their floor elsewhere and miss the \
         last {missing} columns. `omp_fit`: one OMP fit, K = {omp_k}, M = {omp_m}, all \
         {omp_terms} greedy steps. `map_solve_fast` and `map_solve_direct`: one MAP \
         solve each, K = M = 100. `seq_steady_state`: {SEQ_UPDATES} streamed updates \
         (counted as fits) after `reserve` and {SEQ_WARMUP} warm-up updates; it must \
         read 0.",
        early_vars + missing + 1
    ));
    report.table(
        &[
            "configuration",
            "fits",
            "allocs",
            "allocs/fit",
            "peak bytes",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.fits.to_string(),
                    r.stats.count.to_string(),
                    r.allocs_per_fit().to_string(),
                    r.stats.peak_bytes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if counting {
        report.para("Raw numbers written to `BENCH_allocs.json`.");
    }
    Ok(report)
}

/// The MAP problem that `repro solver` times and `repro allocs` counts: a
/// K × M Gaussian design, a power-law truth `1/(1+j)^1.1`, its exact
/// responses, and a nonzero-mean prior centred on the truth.
///
/// # Errors
///
/// None in practice: `G·truth` has matching shapes by construction.
pub(crate) fn map_problem(
    k: usize,
    m: usize,
    seed: u64,
) -> Result<(Matrix, Vector, Prior), BmfError> {
    let mut rng = seeded(seed);
    let mut normal = StandardNormal::new();
    let g = Matrix::from_fn(k, m, |_, _| normal.sample(&mut rng));
    let truth: Vec<f64> = (0..m).map(|j| 1.0 / (1.0 + j as f64).powf(1.1)).collect();
    let f = g.matvec(&Vector::from(truth.clone()))?;
    let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &truth);
    Ok((g, f, prior))
}

/// One standalone MAP solve of [`map_problem`] at K = M = 100 with
/// `solver`, after a warm-up solve: `map_estimate` allocates its
/// workspace and result once, so a per-element or per-iteration
/// allocation in a kernel shows.
fn map_solve(solver: SolverKind) -> Result<AllocStats, BmfError> {
    let (g, f, prior) = map_problem(100, 100, 42)?;
    let options = FitOptions::new().hyper(1.0).solver(solver);
    map_estimate(&g, &f, &prior, &options)?;
    let (solve, stats) = alloc::measure(|| map_estimate(&g, &f, &prior, &options));
    solve?;
    Ok(stats)
}

/// The allocations of [`SEQ_UPDATES`] streamed updates, each followed by
/// a coefficient and a predictive-variance refresh, after
/// [`SequentialBmf::reserve`] and [`SEQ_WARMUP`] warm-up updates: the
/// streaming steady state, which allocates nothing.
fn seq_steady_state(basis: &OrthonormalBasis, prior: &Prior) -> Result<AllocStats, BmfError> {
    let m = basis.len();
    let total = SEQ_WARMUP + SEQ_UPDATES;
    let mut rng = seeded(0xA110C);
    let mut normal = StandardNormal::new();
    let rows: Vec<Vec<f64>> = (0..total)
        .map(|_| basis.row(&normal.sample_vec(&mut rng, basis.num_vars())))
        .collect();
    let mut seq = SequentialBmf::new(prior, 0.75)?;
    seq.reserve(total);
    let mut ws = SeqWorkspace::for_problem(total, m);
    let mut out = vec![0.0; m];
    let mut update = |row: &[f64]| -> Result<(), BmfError> {
        seq.add_sample(row, 1.0, &mut ws)?;
        seq.coefficients_into(&mut ws, &mut out)?;
        seq.predictive_variance(row, &mut ws)?;
        Ok(())
    };
    let (warmup, measured) = rows.split_at(SEQ_WARMUP);
    warmup.iter().try_for_each(|row| update(row))?;
    let (result, stats) = alloc::measure(|| measured.iter().try_for_each(|row| update(row)));
    result?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_the_json_only_when_counting() {
        let dir = std::env::temp_dir().join(format!("bmf-allocs-study-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = allocation_study(Scale::Ci, 7, &dir).expect("allocation study");
        let written = dir.join("BENCH_allocs.json").exists();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            written,
            alloc::counting_enabled(),
            "an all-zero report from a build without the counting allocator \
             must not be written"
        );
        assert_eq!(
            report.body.contains("not written"),
            !alloc::counting_enabled()
        );
    }
}
