//! Study of the streaming posterior engine, the study behind
//! `BENCH_sequential.json`.
//!
//! Exercises the real [`bmf_core::sequential::SequentialBmf`] two ways
//! and renders the deterministic report through [`crate::study`]:
//!
//! 1. **Bitwise oracle** — one stream absorbs `k_max` late-stage
//!    samples; after every sample the study *also* refits the seen
//!    prefix from scratch through the public batch estimator
//!    ([`bmf_core::map_estimate`]) and requires the streamed posterior
//!    mean to be bit-identical (`f64::to_bits`).
//! 2. **Arrival replay** — a seeded late-stage arrival stream
//!    ([`bmf_circuits::traffic::generate_arrivals`], each event carrying
//!    its simulated silicon cost) is replayed against one stream per
//!    job, interleaving their updates; every stream must end with a
//!    finite posterior mean.
//!
//! The report holds counts only, so it is byte-identical across
//! machines, runs, and `BMF_THREADS` settings; wallbench's
//! `stream_persist` times the streaming path, and the allocation study
//! ([`crate::allocs_study`], `seq_steady_state`) proves its steady state
//! allocation-free.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::traffic::{generate_arrivals, ArrivalConfig};
use bmf_core::map_estimate::map_estimate;
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::sequential::SequentialBmf;
use bmf_core::workspace::SeqWorkspace;
use bmf_core::BmfError;
use bmf_linalg::{Matrix, Vector};
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::study::{self, ReportWriter};

/// Study configuration; use [`SeqStudyConfig::full`] and tweak fields as
/// needed.
#[derive(Debug, Clone)]
pub struct SeqStudyConfig {
    /// Master seed for sample points, truths, and the arrival stream.
    pub seed: u64,
    /// Variation variables (linear basis over these, so `vars + 1`
    /// coefficients).
    pub num_vars: usize,
    /// Samples absorbed by the bitwise-oracle stream.
    pub k_max: usize,
    /// Late-stage arrival events replayed against the per-job streams.
    pub arrivals: usize,
    /// Distinct jobs (one stream each) in the arrival replay.
    pub jobs: usize,
}

impl SeqStudyConfig {
    /// The full-scale scenario behind the committed
    /// `BENCH_sequential.json`.
    pub fn full() -> Self {
        SeqStudyConfig {
            seed: 0x5E9B0F,
            num_vars: 15,
            k_max: 128,
            arrivals: 4_096,
            jobs: 8,
        }
    }
}

fn bitwise_mismatch(k: usize, i: usize, streamed: f64, batch: f64) -> BmfError {
    BmfError::Config {
        parameter: "sequential_study",
        detail: format!(
            "streamed posterior diverged from batch refit at k={k}, coefficient {i}: \
             streamed {streamed:e} vs batch {batch:e}"
        ),
    }
}

/// Runs the configured study against the real streaming estimator and
/// returns the deterministic report, `BENCH_sequential.json` at
/// [`SeqStudyConfig::full`].
///
/// # Errors
///
/// Propagates estimator errors and fails loudly (structured
/// [`BmfError::Config`]) if any streamed posterior mean is not
/// bit-identical to the batch refit of the same prefix, if a replayed
/// stream ends with a non-finite posterior mean, or if the oracle did
/// not check every one of the `k_max` samples.
pub fn run_sequential_study(cfg: &SeqStudyConfig) -> Result<String, BmfError> {
    let basis = OrthonormalBasis::linear(cfg.num_vars.max(1));
    let m = basis.len();
    let hyper = 0.75;
    let options = FitOptions::new().hyper(hyper);

    // ---- Part 1: one stream with an in-loop bitwise oracle. ----
    let mut rng = seeded(derive_seed(cfg.seed, 1));
    let mut normal = StandardNormal::new();
    let truth: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.37).cos() * 1.5).collect();
    let prior_coeffs: Vec<f64> = truth
        .iter()
        .enumerate()
        .map(|(i, t)| t * (1.0 + 0.05 * (i as f64).sin()))
        .collect();
    let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &prior_coeffs);

    let mut seq = SequentialBmf::new(&prior, hyper)?;
    seq.reserve(cfg.k_max);
    let mut ws = SeqWorkspace::for_problem(cfg.k_max, m);
    let mut streamed = vec![0.0; m];
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(cfg.k_max);
    let mut values: Vec<f64> = Vec::with_capacity(cfg.k_max);

    let mut bitwise_checks: u64 = 0;

    for k in 1..=cfg.k_max {
        let point = normal.sample_vec(&mut rng, basis.num_vars());
        let row = basis.row(&point);
        let value = row.iter().zip(&truth).map(|(r, t)| r * t).sum::<f64>();
        seq.add_sample(&row, value, &mut ws)?;
        rows.push(row);
        values.push(value);

        // Bitwise oracle: the streamed posterior mean must equal a
        // from-scratch batch fit of the seen prefix, bit for bit.
        seq.coefficients_into(&mut ws, &mut streamed)?;
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let g = Matrix::from_rows(&row_refs)?;
        let f = Vector::from(values.clone());
        let batch = map_estimate(&g, &f, &prior, &options)?;
        for (i, (s, b)) in streamed.iter().zip(batch.as_slice()).enumerate() {
            if s.to_bits() != b.to_bits() {
                return Err(bitwise_mismatch(k, i, *s, *b));
            }
        }
        bitwise_checks += 1;
    }

    // ---- Part 2: interleaved arrival replay, one stream per job. ----
    let arrival_cfg = ArrivalConfig {
        arrivals: cfg.arrivals,
        jobs: cfg.jobs.max(1),
        ..ArrivalConfig::default()
    };
    let events = generate_arrivals(&arrival_cfg, derive_seed(cfg.seed, 2));

    let mut streams: Vec<SequentialBmf> = (0..arrival_cfg.jobs)
        .map(|_| SequentialBmf::new(&prior, hyper))
        .collect::<Result<_, _>>()?;
    for s in &mut streams {
        s.reserve(cfg.arrivals / arrival_cfg.jobs + 2);
    }
    let mut replay_rng = seeded(derive_seed(cfg.seed, 3));
    let mut row_buf = vec![0.0; m];
    let mut simulation_millihours: u64 = 0;

    for ev in &events {
        let stream = &mut streams[ev.job % arrival_cfg.jobs];
        let point = normal.sample_vec(&mut replay_rng, basis.num_vars());
        basis.fill_row(&point, &mut row_buf);
        let value = row_buf.iter().zip(&truth).map(|(r, t)| r * t).sum::<f64>();
        stream.add_sample(&row_buf, value, &mut ws)?;
        simulation_millihours += ev.cost_millihours;
    }
    // Every replayed stream must end healthy: posterior means stay
    // finite after hundreds of interleaved updates.
    for s in &streams {
        let coeffs = s.coefficients()?;
        if coeffs.as_slice().iter().any(|c| !c.is_finite()) {
            return Err(BmfError::Config {
                parameter: "sequential_study",
                detail: "arrival replay produced a non-finite posterior mean".to_string(),
            });
        }
    }
    study::ensure(
        "sequential_study",
        bitwise_checks == cfg.k_max as u64,
        "bitwise_checks == k_max",
    )?;

    let mut report = ReportWriter::default();
    report.section("scenario", |s| {
        s.field("seed", cfg.seed);
        s.field("vars", cfg.num_vars.max(1));
        s.field("terms", m);
        s.field("k_max", cfg.k_max);
        s.field("arrivals", cfg.arrivals);
        s.field("jobs", cfg.jobs.max(1));
    });
    report.section("arrival_cost", |s| {
        s.field("simulation_millihours", simulation_millihours);
        s.field("updates", events.len());
    });
    report.scalar("bitwise_checks", bitwise_checks);
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-test scenario: small enough for the per-sample batch oracle
    /// to stay cheap.
    fn tiny() -> SeqStudyConfig {
        SeqStudyConfig {
            num_vars: 4,
            k_max: 16,
            arrivals: 128,
            jobs: 3,
            ..SeqStudyConfig::full()
        }
    }

    #[test]
    fn study_is_byte_deterministic() {
        let a = run_sequential_study(&tiny()).expect("study run");
        let b = run_sequential_study(&tiny()).expect("study run");
        assert_eq!(a, b);
    }

    #[test]
    fn every_curve_sample_is_bitwise_verified() {
        let json = run_sequential_study(&tiny()).expect("study run");
        assert_eq!(
            study::counter(&json, "bitwise_checks"),
            16,
            "one oracle check per sample"
        );
        assert_eq!(
            study::counter(&json, "updates"),
            128,
            "every arrival must be replayed"
        );
        assert!(study::counter(&json, "simulation_millihours") > 0);
    }

    #[test]
    fn json_has_the_gated_keys() {
        let json = run_sequential_study(&tiny()).expect("study run");
        study::assert_has_keys(
            &json,
            "scenario k_max arrivals arrival_cost simulation_millihours updates \
             bitwise_checks",
        );
        assert!(
            !json.contains("wall"),
            "wall time must stay out of the JSON"
        );
    }
}
