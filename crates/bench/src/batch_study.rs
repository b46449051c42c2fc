//! Batch-engine study: `BatchFitter` vs a serial `BmfFitter` loop.
//!
//! A characterization run fits many performance metrics from one shared
//! Monte-Carlo sample set. [`batch_throughput`] times both paths at
//! several job counts and reports the wall-clock ratio together with the
//! engine's own work counters (MAP solves, Woodbury kernels built,
//! kernel-cache hits), so the report shows *where* the saving comes from
//! and not just that it exists.

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::BmfFitter;
use bmf_core::options::FitOptions;
use bmf_core::Result;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::report::{secs, Report};
use crate::scale::Scale;
use crate::timing::median_secs;

/// One synthetic batch problem: shared points plus per-job responses.
struct Problem {
    basis: OrthonormalBasis,
    points: Vec<Vec<f64>>,
    jobs: Vec<BatchJob>,
    options: FitOptions,
}

fn problem(scale: Scale, seed: u64, num_jobs: usize) -> Problem {
    let (num_vars, samples) = match scale {
        Scale::Ci => (12, 24),
        _ => (40, 80),
    };
    let mut rng = seeded(derive_seed(seed, num_jobs as u64));
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..samples)
        .map(|_| normal.sample_vec(&mut rng, num_vars))
        .collect();
    let jobs = (0..num_jobs)
        .map(|j| {
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
    Problem {
        basis: OrthonormalBasis::linear(num_vars),
        points,
        jobs,
        options: FitOptions::new(),
    }
}

/// Study: batch-vs-loop fitting throughput and work accounting.
///
/// For each job count the serial path fits every job through its own
/// `BmfFitter` (re-evaluating the design matrix per job);
/// the batch path goes through one `BatchFitter`. Both produce
/// bit-identical models — the table cross-checks the first job of every
/// row.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn batch_throughput(scale: Scale, seed: u64) -> Result<Report> {
    let job_counts: &[usize] = match scale {
        Scale::Ci => &[1, 8, 16],
        _ => &[1, 8, 64],
    };
    let mut r = Report::new("batch", "Batch fitting vs a serial loop");
    let threads = FitOptions::new().effective_threads();
    let (mut rows, mut last) = (Vec::new(), 1.0);
    for &n in job_counts {
        let p = problem(scale, seed, n);

        let (serial_first, loop_s) = median_secs(|| {
            let mut first = None;
            for job in &p.jobs {
                let fit = BmfFitter::new(p.basis.clone(), job.prior.clone())?
                    .with_options(p.options.clone())
                    .fit(&p.points, &job.values)?;
                first.get_or_insert(fit.model);
            }
            Ok(first)
        })?;

        let mut batch = BatchFitter::new(p.basis.clone()).with_options(p.options.clone());
        for job in &p.jobs {
            batch.push_job(job.clone());
        }
        let (report, batch_s) = median_secs(|| batch.fit(&p.points))?;

        let bits = |coeffs: &[f64]| coeffs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            serial_first.map(|m| bits(m.coeffs())),
            Some(bits(report.fits[0].model.coeffs())),
            "batch and serial paths must agree bit-for-bit"
        );

        let c = report.counters;
        last = loop_s / batch_s.max(1e-12);
        rows.push(vec![
            n.to_string(),
            secs(loop_s),
            secs(batch_s),
            format!("{last:.2}x"),
            c.map_solves.to_string(),
            c.kernels_built.to_string(),
            format!("{}/{}", c.kernel_cache_hits, c.kernel_cache_misses),
        ]);
    }
    r.para(&format!(
        "N jobs share one sample-point set (the multi-metric characterization \
         scenario). The serial loop re-evaluates the design matrix, the prior's \
         kernel and its leave-one-out system per job; the batch engine evaluates \
         the design matrix once, shares each kernel and system between jobs with \
         matching normalized priors (these jobs' priors all differ, so none is \
         shared), and fans the per-job work out over {threads} worker thread(s). \
         Each time is the median of five runs. Models are bit-identical on both \
         paths. On this run the largest batch ran {last:.2}x as fast as the loop; \
         what a batch gains depends on the pool and on how much of each fit the \
         shared work is, so it does not follow the core count."
    ));
    r.table(
        &[
            "jobs",
            "loop (s)",
            "batch (s)",
            "speedup",
            "MAP solves",
            "kernels built",
            "cache hit/miss",
        ],
        &rows,
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_scale_study_runs_and_reports() {
        let r = batch_throughput(Scale::Ci, 11).unwrap();
        assert!(r.body.contains("| jobs |"));
        assert!(r.body.contains("| 16 |"));
    }
}
