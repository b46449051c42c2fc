//! Cold-start vs warm-start study of the persistence layer, the study
//! behind `BENCH_persist.json`.
//!
//! Stands up a populated fitting service two ways and counts the work
//! of each:
//!
//! * **cold start** — fit every model from samples: the real batch
//!   engine runs, and the report keeps its schedule-independent counters
//!   (batches, kernels built, MAP solves, fits);
//! * **warm start** — export every fitted model to a real
//!   [`ArtifactStore`], then refill a fresh service from disk via
//!   [`ArtifactStore::warm_start`]. It must import every fitted model
//!   and run no batch and no solve.
//!
//! The run *verifies* the warm-started service: every job's predictions
//! must be bit-identical to the cold service on a probe set — a warm
//! start that changed a single bit is a benchmark failure, not a data
//! point.
//!
//! As for every study of [`crate::study`], the report holds no time:
//! `BENCH_persist.json` is computed from counters and artifact byte
//! sizes only, so it is byte-identical across machines, runs, and
//! `BMF_THREADS` settings, and so is the artifact store the study
//! leaves behind; the golden test pins both. Wallbench's
//! `stream_persist` times the store on a real disk.
//!
//! [`ArtifactStore`]: bmf_persist::store::ArtifactStore
//! [`ArtifactStore::warm_start`]: bmf_persist::store::ArtifactStore::warm_start

use std::path::Path;

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::options::FitOptions;
use bmf_core::service::{FitRequest, FitService, ServiceConfig};
use bmf_core::BmfError;
use bmf_persist::store::ArtifactStore;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::study::{self, ReportWriter};

/// Scenario configuration; use [`PersistConfig::full`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Distinct models to fit, persist, and warm-start.
    pub jobs: usize,
    /// Variation variables (linear basis over these).
    pub num_vars: usize,
    /// Sample points shared by every job.
    pub samples: usize,
    /// Probe points for the bitwise verification sweep.
    pub probes: usize,
    /// Master seed for points, truths, and probes.
    pub seed: u64,
}

impl PersistConfig {
    /// Full scenario behind the committed `BENCH_persist.json`.
    pub fn full() -> Self {
        PersistConfig {
            jobs: 48,
            num_vars: 12,
            samples: 24,
            probes: 32,
            seed: 0xC0FFEE,
        }
    }
}

/// Runs the cold-fit / export / warm-start / verify cycle, with the
/// artifact store recreated from scratch in `store_dir`, and returns
/// the deterministic report, `BENCH_persist.json` at
/// [`PersistConfig::full`].
///
/// # Errors
///
/// Propagates fitting-service and persistence failures (persistence
/// errors routed through [`BmfError::Snapshot`]); a bitwise divergence
/// between the cold and warm services is reported as
/// [`BmfError::Snapshot`] too — the persisted snapshot failed its
/// round-trip contract. A run that verifies no prediction, or whose
/// warm start misses a fitted model or runs a batch or a solve, fails
/// its headline check.
pub fn run_persist(cfg: &PersistConfig, store_dir: &Path) -> Result<String, BmfError> {
    let r = cfg.num_vars;
    let samples = cfg.samples.max(r + 2);
    let mut rng = seeded(derive_seed(cfg.seed, 1));
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..samples)
        .map(|_| normal.sample_vec(&mut rng, r))
        .collect();
    let mut rng = seeded(derive_seed(cfg.seed, 2));
    let probes: Vec<Vec<f64>> = (0..cfg.probes)
        .map(|_| normal.sample_vec(&mut rng, r))
        .collect();

    // Cold start: fit every job through the real service.
    let cold = FitService::new(ServiceConfig {
        options: FitOptions::new().folds(4).seed(cfg.seed),
        ..ServiceConfig::default()
    })?;
    let ps = cold.register_points(points.clone())?;
    for j in 0..cfg.jobs {
        let truth: Vec<f64> = (0..=r)
            .map(|i| ((i + 7 * j) as f64 * 0.29).cos() * (1.0 + j as f64 * 0.03))
            .collect();
        let values = study::linear_values(&truth, &points);
        let prior: Vec<Option<f64>> = truth.iter().map(|t| Some(t * 1.05)).collect();
        cold.submit_fit(FitRequest {
            job_id: format!("perf{j:03}"),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior,
            values,
        })?;
    }
    let report = cold.drain();
    for outcome in &report.outcomes {
        if let Err(e) = &outcome.result {
            return Err(e.clone());
        }
    }
    let c = cold.counters();

    // Export everything to a fresh on-disk store.
    let _ = std::fs::remove_dir_all(store_dir);
    let store = ArtifactStore::open(store_dir).map_err(BmfError::from)?;
    let ids = store.export_service(&cold).map_err(BmfError::from)?;
    let mut total_bytes: u64 = 0;
    for &id in &ids {
        let meta = std::fs::metadata(store.artifact_path(id)).map_err(|e| BmfError::Snapshot {
            detail: format!("artifact for {id} vanished after export: {e}"),
        })?;
        total_bytes += meta.len();
    }

    // Warm start a fresh service and verify it bit-for-bit.
    let warm = FitService::new(ServiceConfig::default())?;
    let imported = store.warm_start(&warm).map_err(BmfError::from)? as u64;
    let mut verified: u64 = 0;
    for job_id in cold.job_ids() {
        for p in &probes {
            let a = cold.predict(&job_id, p)?;
            let b = warm.predict(&job_id, p)?;
            if a.to_bits() != b.to_bits() {
                return Err(BmfError::Snapshot {
                    detail: format!("warm-started `{job_id}` diverges: {a:e} vs {b:e}"),
                });
            }
            verified += 1;
        }
    }
    let w = warm.counters();

    study::ensure("persist_study", verified > 0, "verified_predictions > 0")?;
    study::ensure(
        "persist_study",
        imported == c.fits_ok && w.batches == 0 && w.map_solves == 0,
        "warm start imports every fit and runs no batch or solve",
    )?;

    let mut report = ReportWriter::default();
    report.section("scenario", |s| {
        s.field("jobs", cfg.jobs);
        s.field("vars", r);
        s.field("samples", samples);
        s.field("probes", cfg.probes);
        s.field("seed", cfg.seed);
    });
    let index_entries = store.index().map_err(BmfError::from)?.len();
    report.section("artifacts", |s| {
        s.field("count", ids.len());
        s.field("total_bytes", total_bytes);
        s.field("index_entries", index_entries);
    });
    report.section("cold_start", |s| {
        s.field("batches", c.batches);
        s.field("kernels", c.kernel_cache_misses);
        s.field("map_solves", c.map_solves);
        s.field("fits", c.fits_ok);
    });
    report.section("warm_start", |s| {
        s.field("imports", imported);
        s.field("verified_predictions", verified);
    });
    report.finish()
}
