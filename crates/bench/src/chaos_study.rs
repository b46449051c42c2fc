//! Chaos soak for the persistence and serving layers
//! (`cargo bench -p bmf-bench --bench chaos`).
//!
//! Three adversarial legs run against the *real* engine — the actual
//! [`ArtifactStore`] write-ahead protocol, the actual
//! [`FitService`] admission path — under the deterministic I/O chaos
//! layer (`bmf_persist::vfs`):
//!
//! * **fault sweep** — a store of fitted models is warm-started into a
//!   fresh service through a [`FaultVfs`] injecting seeded transient
//!   I/O errors at increasing rates; every read retries under a seeded
//!   exponential-backoff [`RetryPolicy`], and the sweep records the
//!   recovery success rate, retry counts, and the backoff the policy
//!   asked for per fault level. After every trial the underlying disk
//!   must check clean (`fsck`).
//! * **overload** — seeded open-loop traffic with deadline-stamped fit
//!   requests hammers a service with a deliberately tiny admission
//!   queue; the leg records how much load was shed (structured
//!   `Overloaded`, never a panic), how many queued fits expired at
//!   their virtual deadline, and how many were served.
//! * **crash exhaustion** — a publication-and-compaction script is
//!   crashed at strided VFS op indices; after every crash the store is
//!   re-opened (recovery runs), repaired if needed, and must check
//!   clean. One unclean store is a benchmark failure, not a data
//!   point.
//!
//! As for every study of [`crate::study`], the report holds no time:
//! `BENCH_chaos.json` is computed from counters, seeded draws, and the
//! traffic's own timestamps only, so it is byte-identical across
//! machines, runs, and `BMF_THREADS` settings.
//!
//! [`ArtifactStore`]: bmf_persist::store::ArtifactStore
//! [`FitService`]: bmf_core::service::FitService
//! [`FaultVfs`]: bmf_persist::vfs::FaultVfs
//! [`RetryPolicy`]: bmf_stat::backoff::RetryPolicy

use std::sync::Arc;

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::traffic::{RequestKind, TrafficConfig};
use bmf_core::model::PerformanceModel;
use bmf_core::options::FitOptions;
use bmf_core::service::{FitRequest, FitService, ServiceConfig};
use bmf_core::snapshot::ModelSnapshot;
use bmf_core::BmfError;
use bmf_persist::store::ArtifactStore;
use bmf_persist::vfs::{FaultPlan, FaultVfs, MemVfs, Vfs};
use bmf_stat::backoff::RetryPolicy;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::study::{self, ReportWriter};

/// Store root inside the in-memory filesystem.
const ROOT: &str = "chaos/store";

/// Attempts allowed for *opening* a store through a faulty VFS before
/// the trial counts as a recovery failure (each attempt re-runs the
/// full crash-recovery pass).
const MAX_OPEN_ATTEMPTS: u32 = 8;

/// Chaos-scenario configuration; use [`ChaosConfig::full`] or
/// [`ChaosConfig::smoke`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Models in the seed store the fault sweep warm-starts from.
    pub jobs: usize,
    /// Variation variables (linear basis over these).
    pub num_vars: usize,
    /// Sample points shared by every job.
    pub samples: usize,
    /// Warm-start trials per fault level.
    pub trials: usize,
    /// Transient-error rates to sweep, in permille per VFS op.
    pub fault_permilles: Vec<u32>,
    /// Overload-leg traffic volume.
    pub requests: usize,
    /// Overload-leg admission queue capacity (small on purpose).
    pub queue_capacity: usize,
    /// Deadline slack stamped on overload-leg fit requests, virtual ns.
    pub deadline_slack_ns: u64,
    /// Crash-exhaustion stride: every `stride`-th VFS op index of the
    /// publication script gets a crash trial (1 = exhaustive).
    pub crash_stride: usize,
    /// Master seed.
    pub seed: u64,
}

impl ChaosConfig {
    /// Full scenario behind the committed `BENCH_chaos.json`.
    pub fn full() -> Self {
        ChaosConfig {
            jobs: 24,
            num_vars: 8,
            samples: 18,
            trials: 8,
            fault_permilles: vec![0, 20, 60, 120, 250],
            requests: 40_000,
            queue_capacity: 8,
            deadline_slack_ns: 25_000,
            crash_stride: 1,
            seed: 0xC7A0_5EED,
        }
    }

    /// CI-sized scenario, same shape.
    pub fn smoke() -> Self {
        ChaosConfig {
            jobs: 6,
            trials: 3,
            fault_permilles: vec![0, 60, 250],
            requests: 6_000,
            crash_stride: 3,
            ..ChaosConfig::full()
        }
    }
}

/// Per-fault-level sweep results.
#[derive(Debug, Clone)]
pub struct SweepLevel {
    /// Injected transient-error rate, permille per op.
    pub error_permille: u32,
    /// Warm-start trials run.
    pub trials: usize,
    /// Trials that imported the full model fleet.
    pub recovered: usize,
    /// Store-open attempts beyond the first, summed over trials.
    pub open_retries: u64,
    /// Read retries inside `warm_start_with_retry`, summed.
    pub read_retries: u64,
    /// Transient faults the VFS actually injected, summed.
    pub injected: u64,
    /// Backoff the retry policy asked for, in ns, summed over the
    /// recovered trials.
    pub backoff_ns: u64,
}

/// Everything one chaos run produces.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The byte-deterministic report, ready for `BENCH_chaos.json`.
    pub json: String,
    /// Per-level fault-sweep results.
    pub sweep: Vec<SweepLevel>,
    /// Overload leg: fit submissions shed at admission.
    pub shed_fits: u64,
    /// Overload leg: fits served.
    pub fits_ok: u64,
    /// Crash leg: op indices tested.
    pub crash_points: usize,
    /// Crash leg: recoveries that ended fsck-clean (must equal
    /// `crash_points`).
    pub crash_recovered: usize,
}

fn persist_err(e: bmf_persist::PersistError) -> BmfError {
    BmfError::from(e)
}

/// A fully-durable copy of an in-memory disk: every trial starts from
/// the same committed bytes, so trials are independent and seeded.
fn clone_durable(src: &MemVfs) -> Result<Arc<MemVfs>, BmfError> {
    let copy = Arc::new(MemVfs::new());
    let io = |e: std::io::Error| BmfError::Snapshot {
        detail: format!("cloning chaos disk: {e}"),
    };
    for path in src.paths() {
        if let Some(cut) = path.rfind('/') {
            copy.create_dir_all(&path[..cut]).map_err(io)?;
        }
        let bytes = src.read(&path).map_err(io)?;
        copy.write(&path, &bytes).map_err(io)?;
        copy.sync_file(&path).map_err(io)?;
        if let Some(cut) = path.rfind('/') {
            copy.sync_dir(&path[..cut]).map_err(io)?;
        }
    }
    Ok(copy)
}

/// Fits `cfg.jobs` models through a real service and exports them to a
/// store on a fresh durable in-memory disk. Returns the disk and the
/// total artifact bytes.
fn seed_store(cfg: &ChaosConfig) -> Result<(Arc<MemVfs>, u64), BmfError> {
    let r = cfg.num_vars.max(1);
    let samples = cfg.samples.max(r + 2);
    let mut rng = seeded(derive_seed(cfg.seed, 1));
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..samples)
        .map(|_| normal.sample_vec(&mut rng, r))
        .collect();

    let service = FitService::new(ServiceConfig {
        options: FitOptions::new()
            .folds(4)
            .seed(derive_seed(cfg.seed, 2))
            .threads(0),
        ..ServiceConfig::default()
    })?;
    let ps = service.register_points(points.clone())?;
    for j in 0..cfg.jobs {
        let truth: Vec<f64> = (0..=r)
            .map(|i| ((i + 11 * j) as f64 * 0.23).cos() * (1.0 + j as f64 * 0.04))
            .collect();
        let values = study::linear_values(&truth, &points);
        let prior: Vec<Option<f64>> = truth.iter().map(|t| Some(t * 1.04)).collect();
        service.submit_fit(FitRequest {
            job_id: format!("perf{j:03}"),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior,
            values,
        })?;
    }
    for outcome in &service.drain().outcomes {
        if let Err(e) = &outcome.result {
            return Err(e.clone());
        }
    }

    let disk = Arc::new(MemVfs::new());
    let store =
        ArtifactStore::open_with(ROOT, Arc::clone(&disk) as Arc<dyn Vfs>).map_err(persist_err)?;
    store.export_service(&service).map_err(persist_err)?;
    let bytes = store.stats().map_err(persist_err)?.blob_bytes;
    Ok((disk, bytes))
}

/// One warm-start trial through a faulty VFS. Returns
/// `(recovered, open_retries, read_retries, backoff_ns, injected)`.
fn sweep_trial(
    disk: &MemVfs,
    jobs: usize,
    error_permille: u32,
    policy: &RetryPolicy,
    seed: u64,
) -> Result<(bool, u64, u64, u64, u64), BmfError> {
    let trial_disk = clone_durable(disk)?;
    let faulty = Arc::new(FaultVfs::new(
        Arc::clone(&trial_disk),
        FaultPlan {
            seed,
            error_permille,
            short_write_permille: error_permille / 4,
            crash_at_op: None,
        },
    ));

    // Opening re-runs recovery; transient faults can abort it, so the
    // open itself retries (each attempt is idempotent by construction).
    let mut open_retries = 0u64;
    let mut store = None;
    for _ in 0..MAX_OPEN_ATTEMPTS {
        match ArtifactStore::open_with(ROOT, Arc::clone(&faulty) as Arc<dyn Vfs>) {
            Ok(s) => {
                store = Some(s);
                break;
            }
            Err(_) => open_retries += 1,
        }
    }

    let mut recovered = false;
    let mut read_retries = 0u64;
    let mut backoff_ns = 0u64;
    if let Some(store) = store {
        let service = FitService::new(ServiceConfig::default())?;
        if let Ok(report) = store.warm_start_with_retry(&service, policy, derive_seed(seed, 7)) {
            recovered = report.imported == jobs;
            read_retries = report.retries;
            backoff_ns = report.backoff_ns;
        }
    }

    // Every trial ends with the *disk* checking clean: transient faults
    // must never corrupt committed state.
    let clean_store =
        ArtifactStore::open_with(ROOT, trial_disk as Arc<dyn Vfs>).map_err(persist_err)?;
    let check = clean_store.check().map_err(persist_err)?;
    if !check.is_clean() {
        return Err(BmfError::Snapshot {
            detail: format!(
                "fault sweep left an unclean store at {error_permille} permille: {:?}",
                check.issues
            ),
        });
    }
    Ok((
        recovered,
        open_retries,
        read_retries,
        backoff_ns,
        faulty.injected_errors(),
    ))
}

/// The overload leg; returns the service counters after the replay.
fn overload_leg(cfg: &ChaosConfig) -> Result<bmf_core::service::ServiceCounters, BmfError> {
    let traffic = TrafficConfig {
        requests: cfg.requests,
        mean_interarrival_ns: 600.0,
        fit_permille: 120,
        evict_permille: 10,
        jobs: 16,
        groups: 2,
        hot_permille: 800,
        fit_deadline_slack_ns: cfg.deadline_slack_ns,
    }
    .clamped();
    let events = bmf_circuits::traffic::generate(&traffic, derive_seed(cfg.seed, 3));

    let r = cfg.num_vars.max(1);
    let basis = OrthonormalBasis::linear(r);
    let service = FitService::new(ServiceConfig {
        queue_capacity: cfg.queue_capacity.max(1),
        options: FitOptions::new()
            .folds(4)
            .seed(derive_seed(cfg.seed, 4))
            .threads(0),
        ..ServiceConfig::default()
    })?;

    let mut rng = seeded(derive_seed(cfg.seed, 5));
    let mut normal = StandardNormal::new();
    let samples = cfg.samples.max(r + 2);
    let mut group_sets = Vec::with_capacity(traffic.groups);
    for _ in 0..traffic.groups {
        let points: Vec<Vec<f64>> = (0..samples)
            .map(|_| normal.sample_vec(&mut rng, r))
            .collect();
        group_sets.push((service.register_points(points.clone())?, points));
    }
    let payloads: Vec<(Vec<Option<f64>>, Vec<f64>)> = (0..traffic.jobs)
        .map(|j| {
            let truth: Vec<f64> = (0..=r)
                .map(|i| ((i + 3 * j) as f64 * 0.37).sin() * (1.0 + j as f64 * 0.06))
                .collect();
            let values = study::linear_values(&truth, &group_sets[j % traffic.groups].1);
            let prior = truth.iter().map(|t| Some(t * 1.03)).collect();
            (prior, values)
        })
        .collect();
    let probe: Vec<f64> = normal.sample_vec(&mut rng, r);

    // Replay: drain lazily, only when admission pressure demands it, so
    // the tiny queue genuinely fills, sheds, and lets queued deadlines
    // expire before their drain.
    let mut last_at = 0u64;
    for ev in &events {
        last_at = ev.at_ns;
        let job = ev.job % traffic.jobs;
        match ev.kind {
            RequestKind::Fit => {
                let (prior, values) = payloads[job].clone();
                let request = FitRequest {
                    job_id: format!("job{job}"),
                    basis: basis.clone(),
                    points: group_sets[job % traffic.groups].0,
                    prior,
                    values,
                };
                match service.submit_fit_with_deadline(request, ev.deadline_ns) {
                    Ok(_) => {}
                    Err(BmfError::Overloaded { .. }) => {
                        // Shed at admission: drain so the *next* burst
                        // finds room, exactly like a load-shedding
                        // server catching its breath.
                        service.drain_at(ev.at_ns);
                    }
                    Err(e) => return Err(e),
                }
            }
            RequestKind::Predict => {
                let _ = service.predict(&format!("job{job}"), &probe);
            }
            RequestKind::Evict => {
                let _ = service.evict(&format!("job{job}"));
            }
        }
    }
    service.drain_at(last_at.saturating_add(cfg.deadline_slack_ns.saturating_add(1)));
    Ok(service.counters())
}

/// The crash-exhaustion script: publish three snapshots (one
/// superseding) and compact, over the given VFS.
fn crash_script(vfs: Arc<dyn Vfs>) {
    let snap = |job: &str, salt: f64| {
        let basis = OrthonormalBasis::linear(3);
        let coeffs: Vec<f64> = (0..basis.len())
            .map(|i| ((i as f64 + salt) * 0.41).sin())
            .collect();
        ModelSnapshot::from_model(job, PerformanceModel::new(basis, coeffs).expect("finite"))
    };
    let Ok(store) = ArtifactStore::open_with(ROOT, vfs) else {
        return;
    };
    let _ = store.put(&snap("gain", 0.0));
    let _ = store.put(&snap("bandwidth", 4.0));
    let _ = store.put(&snap("gain", 8.0));
    let _ = store.compact();
}

/// Crash leg: returns `(total_ops, tested, recovered)`.
fn crash_leg(cfg: &ChaosConfig) -> Result<(u64, usize, usize), BmfError> {
    // Dry run to size the op budget.
    let disk = Arc::new(MemVfs::new());
    let counter = Arc::new(FaultVfs::new(Arc::clone(&disk), FaultPlan::default()));
    crash_script(Arc::clone(&counter) as Arc<dyn Vfs>);
    let total = counter.ops();

    let stride = cfg.crash_stride.max(1) as u64;
    let mut tested = 0usize;
    let mut recovered = 0usize;
    let mut c = 0u64;
    while c < total {
        tested += 1;
        let disk = Arc::new(MemVfs::new());
        let faulty = Arc::new(FaultVfs::new(
            Arc::clone(&disk),
            FaultPlan {
                seed: derive_seed(cfg.seed, 6_000 + c),
                crash_at_op: Some(c),
                ..FaultPlan::default()
            },
        ));
        crash_script(faulty as Arc<dyn Vfs>);

        // Reboot on the raw disk: recovery must yield a valid store and
        // repair must leave it clean.
        let store = ArtifactStore::open_with(ROOT, Arc::clone(&disk) as Arc<dyn Vfs>)
            .map_err(persist_err)?;
        if !store.check().map_err(persist_err)?.is_clean() {
            store.repair().map_err(persist_err)?;
        }
        if store.check().map_err(persist_err)?.is_clean() {
            recovered += 1;
        }
        c += stride;
    }
    Ok((total, tested, recovered))
}

/// Runs all three chaos legs and assembles the deterministic report.
///
/// # Errors
///
/// Propagates service and persistence failures; an unclean store after
/// any leg is an error, never a data point. So is a run that tests no
/// crash point, sheds nothing, serves no overload fit, or recovers no
/// warm start.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosOutcome, BmfError> {
    let (disk, blob_bytes) = seed_store(cfg)?;
    let policy = RetryPolicy::default();

    let mut sweep = Vec::with_capacity(cfg.fault_permilles.len());
    for (li, &pm) in cfg.fault_permilles.iter().enumerate() {
        let mut level = SweepLevel {
            error_permille: pm,
            trials: cfg.trials,
            recovered: 0,
            open_retries: 0,
            read_retries: 0,
            injected: 0,
            backoff_ns: 0,
        };
        for t in 0..cfg.trials {
            let seed = derive_seed(cfg.seed, 10_000 + (li as u64) * 1_000 + t as u64);
            let (ok, open_retries, read_retries, backoff_ns, injected) =
                sweep_trial(&disk, cfg.jobs, pm, &policy, seed)?;
            if ok {
                level.recovered += 1;
                level.backoff_ns += backoff_ns;
            }
            level.open_retries += open_retries;
            level.read_retries += read_retries;
            level.injected += injected;
        }
        sweep.push(level);
    }
    // The fault-free level is the control: it must always recover.
    if let Some(control) = sweep.iter().find(|l| l.error_permille == 0) {
        if control.recovered != control.trials {
            return Err(BmfError::Snapshot {
                detail: "fault-free warm start failed to recover".to_string(),
            });
        }
    }

    let counters = overload_leg(cfg)?;
    let (crash_ops, crash_tested, crash_recovered) = crash_leg(cfg)?;
    if crash_recovered != crash_tested {
        return Err(BmfError::Snapshot {
            detail: format!("crash leg: {crash_recovered}/{crash_tested} points recovered clean"),
        });
    }

    let offered = counters.fits_ok + counters.fits_failed + counters.shed_fits;
    let shed_permille = counters.shed_fits * 1000 / offered.max(1);
    let sweep_trials: usize = sweep.iter().map(|l| l.trials).sum();
    let sweep_ok: usize = sweep.iter().map(|l| l.recovered).sum();
    let recovery_rate_permille = sweep_ok * 1000 / sweep_trials.max(1);
    study::ensure("chaos_study", crash_tested > 0, "crash.points_tested > 0")?;
    study::ensure(
        "chaos_study",
        counters.shed_fits > 0,
        "overload.shed_fits > 0",
    )?;
    study::ensure("chaos_study", counters.fits_ok > 0, "overload.fits_ok > 0")?;
    study::ensure(
        "chaos_study",
        recovery_rate_permille > 0,
        "headline.recovery_rate_permille > 0",
    )?;

    let mut report = ReportWriter::default();
    report.section("scenario", |s| {
        s.field("jobs", cfg.jobs);
        s.field("vars", cfg.num_vars.max(1));
        s.field("samples", cfg.samples.max(cfg.num_vars.max(1) + 2));
        s.field("trials", cfg.trials);
        s.field("requests", cfg.requests);
        s.field("queue_capacity", cfg.queue_capacity.max(1));
        s.field("deadline_slack_ns", cfg.deadline_slack_ns);
        s.field("crash_stride", cfg.crash_stride.max(1));
        s.field("seed", cfg.seed);
    });
    report.section("seed_store", |s| {
        s.field("artifacts", cfg.jobs);
        s.field("blob_bytes", blob_bytes);
    });
    report.rows("fault_sweep", &sweep, |row, l| {
        row.field("error_permille", l.error_permille);
        row.field("trials", l.trials);
        row.field("recovered", l.recovered);
        row.field("open_retries", l.open_retries);
        row.field("read_retries", l.read_retries);
        row.field("injected_faults", l.injected);
        row.field("backoff_ns", l.backoff_ns);
    });
    report.section("overload", |s| {
        s.field("offered_fits", offered);
        s.field("fits_ok", counters.fits_ok);
        s.field("shed_fits", counters.shed_fits);
        s.field("shed_permille", shed_permille);
        s.field("expired_fits", counters.expired_fits);
        s.field("shed_appends", counters.shed_appends);
        s.field("predicts", counters.predicts);
        s.field("evictions", counters.evictions);
    });
    report.section("crash", |s| {
        s.field("script_ops", crash_ops);
        s.field("points_tested", crash_tested);
        s.field("recovered_clean", crash_recovered);
    });
    report.section("headline", |s| {
        s.field("recovery_rate_permille", recovery_rate_permille);
        s.field("shed_permille", shed_permille);
        s.field("crash_points_clean", crash_recovered);
    });

    Ok(ChaosOutcome {
        json: report.finish()?,
        sweep,
        shed_fits: counters.shed_fits,
        fits_ok: counters.fits_ok,
        crash_points: crash_tested,
        crash_recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig {
            jobs: 3,
            trials: 2,
            fault_permilles: vec![0, 120],
            requests: 1_200,
            crash_stride: 7,
            ..ChaosConfig::smoke()
        }
    }

    #[test]
    fn chaos_run_is_byte_deterministic() {
        let a = run_chaos(&tiny()).expect("chaos run");
        let b = run_chaos(&tiny()).expect("chaos run");
        assert_eq!(a.json, b.json);
    }

    #[test]
    fn chaos_run_exercises_every_leg() {
        let out = run_chaos(&tiny()).expect("chaos run");
        assert_eq!(out.sweep.len(), 2);
        let control = &out.sweep[0];
        assert_eq!(control.error_permille, 0);
        assert_eq!(control.recovered, control.trials);
        assert_eq!(control.injected, 0);
        assert_eq!(control.backoff_ns, 0, "no fault, no retry, no backoff");
        let stressed = &out.sweep[1];
        assert!(stressed.injected > 0, "faults must actually inject");
        assert!(out.shed_fits > 0, "tiny queue must shed under burst load");
        assert!(out.fits_ok > 0, "accepted fits must still be served");
        assert!(out.crash_points > 0);
        assert_eq!(out.crash_recovered, out.crash_points);
        study::assert_has_keys(
            &out.json,
            "scenario seed_store fault_sweep overload crash headline \
             error_permille recovered read_retries backoff_ns shed_fits \
             shed_permille expired_fits points_tested recovered_clean \
             recovery_rate_permille",
        );
        assert!(
            !out.json.contains("wall"),
            "wall time must stay out of the JSON"
        );
    }
}
