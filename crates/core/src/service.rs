//! Fitting-as-a-service: a long-lived request-serving facade over the
//! batch engine.
//!
//! A characterization *flow* is not one fit — it is a stream of
//! requests: fit this metric from those samples, predict a performance
//! number for that candidate, drop the stale model for a re-spun block.
//! [`FitService`] turns the batch engine behind
//! [`BatchFitter`](crate::batch::BatchFitter) into that long-lived
//! engine:
//!
//! * a **sharded snapshot registry** holds fitted models — as
//!   [`ModelSnapshot`] handles carrying full provenance — keyed by job
//!   id, with explicit [`evict`](FitService::evict),
//!   [`export_model`](FitService::export_model) (evict-to-disk), and
//!   [`import_snapshot`](FitService::import_snapshot) (warm-start from a
//!   persisted artifact); predictions are answered lock-light — a shard
//!   mutex is held only long enough to clone an [`Arc`] handle, never
//!   across the polynomial evaluation;
//! * an **MPSC work queue** accepts fit requests from any thread
//!   ([`FitService`] is `Sync`); [`drain`](FitService::drain) feeds the
//!   queue to the existing `std::thread::scope` worker pool inside the
//!   batch engine;
//! * a **coalescer** groups queued requests that share a registered point
//!   set and basis into one batch-engine run, so the shared design
//!   matrix, missing-column projections and per-pattern sample-space
//!   systems are paid once per group instead of once per request;
//! * **admission control** bounds both queues
//!   ([`ServiceConfig::queue_capacity`] /
//!   [`ServiceConfig::append_capacity`]): a submission past the bound is
//!   shed *at the boundary* with a structured [`BmfError::Overloaded`]
//!   and a per-class counter, so overload degrades into explicit,
//!   retryable rejections instead of unbounded queue growth — and
//!   requests may carry a virtual-time deadline
//!   ([`submit_fit_with_deadline`](FitService::submit_fit_with_deadline)
//!   \+ [`drain_at`](FitService::drain_at)) that expires stale work
//!   before it is batched;
//! * a **streaming front** ([`register_stream`](FitService::register_stream)
//!   / [`append_sample`](FitService::append_sample)) keeps per-job
//!   [`SequentialBmf`] estimators up to date one late-stage sample at a
//!   time, republishing the model snapshot after every applied update —
//!   bit-identical to an offline sequential fit at any pool size, since
//!   appends are applied in ticket order on the draining thread.
//!
//! # Determinism
//!
//! For a fixed submission sequence, results are **bit-identical to
//! direct library calls at any pool size**: the coalescer only regroups
//! requests, and each job's fit is bit-identical to a direct
//! [`BmfFitter`](crate::fusion::BmfFitter) run, which is a one-job run
//! of the same engine. Group processing order is fixed by content
//! fingerprints (`BTreeMap`), never by arrival timing or thread
//! schedule, and drained outcomes are returned in ticket (submission)
//! order.
//!
//! # Failure isolation
//!
//! Requests are screened at submission (shape + finiteness), so a
//! malformed request is rejected before it can poison a batch. When a
//! coalesced batch still fails numerically, the coalescer degrades to
//! per-request fits — a one-job run of the engine is exactly a direct
//! [`BmfFitter::fit`](crate::fusion::BmfFitter::fit) — so one
//! pathological request cannot fail its neighbors; only the
//! guilty ticket carries the structured error. Every fitted outcome
//! surfaces its own [`ResilienceReport`], preserving the PR 4 panic-free
//! discipline end to end.
//!
//! ```
//! use bmf_basis::basis::OrthonormalBasis;
//! use bmf_core::options::FitOptions;
//! use bmf_core::service::{FitRequest, FitService, ServiceConfig};
//!
//! # fn main() -> Result<(), bmf_core::BmfError> {
//! let service = FitService::new(ServiceConfig::default())?;
//! let points: Vec<Vec<f64>> = (0..8)
//!     .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()])
//!     .collect();
//! let gain: Vec<f64> = points.iter().map(|p| 1.0 + 0.5 * p[0]).collect();
//! let ps = service.register_points(points)?;
//!
//! let basis = OrthonormalBasis::linear(2);
//! service.submit_fit(FitRequest {
//!     job_id: "gain".into(),
//!     basis,
//!     points: ps,
//!     prior: vec![Some(1.0), Some(0.5), Some(0.0)],
//!     values: gain,
//! })?;
//! let report = service.drain();
//! assert_eq!(report.outcomes.len(), 1);
//! let pred = service.predict("gain", &[0.0, 0.0])?;
//! assert!(pred.is_finite());
//! service.evict("gain")?;
//! assert!(service.predict("gain", &[0.0, 0.0]).is_err());
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bmf_basis::basis::OrthonormalBasis;

use bmf_stat::fnv::{fnv1a, fnv1a_u64};

use crate::batch::{fit_jobs, BatchReport, JobRef, PhaseTimings};
use crate::fusion::{BmfFit, FitCounters, ResilienceReport};
use crate::options::FitOptions;
use crate::prior::Prior;
use crate::sequential::SequentialBmf;
use crate::snapshot::ModelSnapshot;
use crate::workspace::SeqWorkspace;
use crate::{BmfError, Result};

/// Number of model-registry shards. More shards spread predict-path
/// lock traffic across independent mutexes.
pub const SHARDS: usize = 8;

/// Maximum fit requests coalesced into one batch run by
/// [`ServiceConfig::default`].
pub const DEFAULT_MAX_COALESCE: usize = 64;

/// Fit-queue admission capacity used by [`ServiceConfig::default`] —
/// far above any sane drain cadence, so the bound only engages under
/// genuine overload.
pub const DEFAULT_QUEUE_CAPACITY: usize = 65_536;

/// Append-queue admission capacity used by [`ServiceConfig::default`].
pub const DEFAULT_APPEND_CAPACITY: usize = 65_536;

/// Configuration for a [`FitService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Upper bound on fit requests coalesced into a single batch run
    /// (clamped to at least 1). Bounds per-drain latency under bursts.
    pub max_coalesce: usize,
    /// Admission bound on the fit queue (clamped to at least 1). A
    /// submission arriving while this many fits are already queued is
    /// shed with a structured [`BmfError::Overloaded`] instead of
    /// growing the queue without bound.
    pub queue_capacity: usize,
    /// Admission bound on the streaming-append queue (clamped to at
    /// least 1); same shedding discipline as `queue_capacity`.
    pub append_capacity: usize,
    /// Fitting configuration shared by every coalesced batch (selection,
    /// grid, solver, worker threads, ...).
    pub options: FitOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_coalesce: DEFAULT_MAX_COALESCE,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            append_capacity: DEFAULT_APPEND_CAPACITY,
            options: FitOptions::default(),
        }
    }
}

/// Opaque handle to a registered shared point set.
///
/// Registration is content-addressed: registering byte-identical points
/// twice yields the same id, so independent producers coalesce
/// naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointSetId(u64);

/// Opaque, monotonically increasing receipt for a submitted fit request.
/// Drained outcomes are returned in ticket order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

/// One fit request: a job id (registry key), the late-stage basis, a
/// registered shared point set, the early-stage prior, and the observed
/// response values.
#[derive(Debug, Clone)]
pub struct FitRequest {
    /// Registry key under which the fitted model is stored.
    pub job_id: String,
    /// Late-stage basis to fit over. Requests sharing both `points` and
    /// an identical basis coalesce into one batch run.
    pub basis: OrthonormalBasis,
    /// Handle from [`FitService::register_points`].
    pub points: PointSetId,
    /// Per-term early-coefficient knowledge (`None` = missing prior).
    pub prior: Vec<Option<f64>>,
    /// Late-stage response values, one per shared sample point.
    pub values: Vec<f64>,
}

impl FitRequest {
    /// The request as the batch engine reads it.
    fn job(&self) -> JobRef<'_> {
        JobRef {
            label: &self.job_id,
            prior: &self.prior,
            values: &self.values,
        }
    }
}

/// A successfully served fit.
#[derive(Debug, Clone)]
pub struct ServedFit {
    /// The completed fit, including its per-request [`ResilienceReport`]
    /// and work counters.
    pub fit: BmfFit,
    /// How many requests shared the batch run this fit rode in (1 = it
    /// ran alone).
    pub coalesced: usize,
}

/// Outcome of one drained fit request.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// The receipt returned by [`FitService::submit_fit`].
    pub ticket: Ticket,
    /// The request's job id.
    pub job_id: String,
    /// Index into [`DrainReport::batches`] of the run that served this
    /// request; `None` when the request failed before producing a fit.
    pub batch: Option<usize>,
    /// The fit, or the request's own structured error.
    pub result: Result<ServedFit>,
}

/// One coalesced batch run executed during a drain.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Jobs fitted in this run.
    pub jobs: usize,
    /// Work counters summed over the run (kernel cache hits/misses, MAP
    /// solves, ladder activity).
    pub counters: FitCounters,
    /// Per-phase wall time of the run.
    pub timings: PhaseTimings,
    /// Degradation-ladder summary aggregated over the run.
    pub resilience: ResilienceReport,
    /// `true` when this run was an isolation refit after a coalesced
    /// batch failed as a whole.
    pub isolated: bool,
}

/// Outcome of one drained [`FitService::append_sample`] request.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// The receipt returned by [`FitService::append_sample`].
    pub ticket: Ticket,
    /// The stream's job id.
    pub job_id: String,
    /// On success, the stream's sample count after this update; on
    /// failure, the append's own structured error (the stream state is
    /// left untouched and later appends proceed).
    pub result: Result<usize>,
}

/// Everything one [`FitService::drain`] call reports.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Per-request outcomes in ticket (submission) order.
    pub outcomes: Vec<FitOutcome>,
    /// The coalesced batch runs, in deterministic (fingerprint, chunk)
    /// order.
    pub batches: Vec<BatchSummary>,
    /// Per-append outcomes in ticket (submission) order.
    pub appends: Vec<AppendOutcome>,
    /// Wall time spent applying the drained appends, in nanoseconds
    /// (0 when none were queued).
    pub append_ns: u64,
}

impl DrainReport {
    /// Number of requests whose result is `Ok`.
    pub fn served(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of appends whose result is `Ok`.
    pub fn appended(&self) -> usize {
        self.appends.iter().filter(|a| a.result.is_ok()).count()
    }
}

/// Monotonic service-wide work counters; see [`FitService::counters`].
///
/// All counts are exact and, for a fixed request sequence, independent of
/// thread count and wall-clock timing — except [`ServiceCounters::append_ns`],
/// which accumulates measured wall time and is excluded from the
/// determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Fit requests completed with an `Ok` fit.
    pub fits_ok: u64,
    /// Fit requests that drained to a structured error.
    pub fits_failed: u64,
    /// Batch runs executed (coalesced groups plus isolation refits).
    pub batches: u64,
    /// Fit requests that shared their batch run with at least one other
    /// request.
    pub coalesced_fits: u64,
    /// Largest number of requests coalesced into a single batch run.
    pub max_batch: u64,
    /// Single-request refits forced by a whole-batch failure.
    pub isolation_refits: u64,
    /// Jobs that reused their prior pattern's sample-space system, built
    /// for an earlier job of the same batch (summed
    /// [`FitCounters::kernel_cache_hits`]).
    pub kernel_cache_hits: u64,
    /// Jobs that built their prior pattern's sample-space system (summed
    /// [`FitCounters::kernel_cache_misses`]).
    pub kernel_cache_misses: u64,
    /// MAP systems solved across all batch runs.
    pub map_solves: u64,
    /// Fits whose degradation ladder engaged (rung > 0 anywhere).
    pub degraded_fits: u64,
    /// Predictions served from the registry.
    pub predicts: u64,
    /// Predictions that missed the registry (no model under the key).
    pub predict_misses: u64,
    /// Successful evictions.
    pub evictions: u64,
    /// Evictions of keys that were not registered.
    pub evict_misses: u64,
    /// Snapshots installed via [`FitService::import_snapshot`] — the
    /// warm-start path for models persisted by an earlier process.
    pub imports: u64,
    /// Snapshots cloned out via [`FitService::export_model`].
    pub exports: u64,
    /// Streaming updates applied with an `Ok` result.
    pub appends_ok: u64,
    /// Streaming updates that drained to a structured error.
    pub appends_failed: u64,
    /// Append submissions naming a job with no registered stream.
    pub append_misses: u64,
    /// Fit submissions shed at admission because the fit queue was at
    /// capacity.
    pub shed_fits: u64,
    /// Streaming appends shed at admission because the append queue was
    /// at capacity.
    pub shed_appends: u64,
    /// Queued fits that expired at drain time: their virtual deadline
    /// passed before the drain reached them.
    pub expired_fits: u64,
    /// Cumulative wall time spent applying streaming updates, in
    /// nanoseconds (the one timing-dependent counter).
    pub append_ns: u64,
}

#[derive(Debug, Default)]
struct AtomicCounters {
    fits_ok: AtomicU64,
    fits_failed: AtomicU64,
    batches: AtomicU64,
    coalesced_fits: AtomicU64,
    max_batch: AtomicU64,
    isolation_refits: AtomicU64,
    kernel_cache_hits: AtomicU64,
    kernel_cache_misses: AtomicU64,
    map_solves: AtomicU64,
    degraded_fits: AtomicU64,
    predicts: AtomicU64,
    predict_misses: AtomicU64,
    evictions: AtomicU64,
    evict_misses: AtomicU64,
    imports: AtomicU64,
    exports: AtomicU64,
    appends_ok: AtomicU64,
    appends_failed: AtomicU64,
    append_misses: AtomicU64,
    shed_fits: AtomicU64,
    shed_appends: AtomicU64,
    expired_fits: AtomicU64,
    append_ns: AtomicU64,
}

/// A registered shared point set.
#[derive(Debug)]
struct PointSet {
    dim: usize,
    rows: Vec<Vec<f64>>,
}

/// A queued fit request plus its receipt, precomputed grouping key, and
/// optional virtual-time deadline.
#[derive(Debug)]
struct Pending {
    ticket: Ticket,
    basis_fp: u64,
    deadline_ns: Option<u64>,
    request: FitRequest,
}

/// A registered streaming model: the sequential estimator plus the basis
/// that maps sample points to design rows, and its private scratch.
#[derive(Debug)]
struct Stream {
    seq: SequentialBmf,
    basis: OrthonormalBasis,
    ws: SeqWorkspace,
    /// Reusable basis-row buffer for incoming sample points.
    row: Vec<f64>,
}

/// A queued streaming update plus its receipt.
#[derive(Debug)]
struct PendingAppend {
    ticket: Ticket,
    job_id: String,
    point: Vec<f64>,
    value: f64,
}

/// The request-serving facade; see the [module docs](self).
#[derive(Debug)]
pub struct FitService {
    config: ServiceConfig,
    point_sets: Mutex<BTreeMap<u64, Arc<PointSet>>>,
    shards: Vec<Mutex<BTreeMap<String, Arc<ModelSnapshot>>>>,
    queue: Mutex<VecDeque<Pending>>,
    streams: Mutex<BTreeMap<String, Stream>>,
    append_queue: Mutex<VecDeque<PendingAppend>>,
    tickets: AtomicU64,
    counters: AtomicCounters,
}

/// Locks a mutex, recovering from poisoning: a poisoned lock only means
/// another thread panicked mid-update, and every critical section here
/// leaves the map in a consistent state at any panic point (single
/// insert/remove/pop operations), so continuing with the inner value
/// preserves the panic-free serving contract.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FitService {
    /// Creates a service.
    ///
    /// `max_coalesce`, `queue_capacity`, and `append_capacity` are
    /// clamped to at least 1.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::Config`] when `config.options` is invalid (the
    /// error names the offending parameter).
    pub fn new(config: ServiceConfig) -> Result<Self> {
        config.options.validate()?;
        let mut config = config;
        config.max_coalesce = config.max_coalesce.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        config.append_capacity = config.append_capacity.max(1);
        let shards = (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect();
        Ok(FitService {
            config,
            point_sets: Mutex::new(BTreeMap::new()),
            shards,
            queue: Mutex::new(VecDeque::new()),
            streams: Mutex::new(BTreeMap::new()),
            append_queue: Mutex::new(VecDeque::new()),
            tickets: AtomicU64::new(0),
            counters: AtomicCounters::default(),
        })
    }

    /// The service configuration (after clamping).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Registers a shared point set and returns its content-addressed
    /// handle. Re-registering identical points returns the same id
    /// without storing a second copy.
    ///
    /// # Errors
    ///
    /// * [`BmfError::NonFiniteInput`] when any coordinate is NaN/±∞.
    /// * [`BmfError::Config`] (`"points"`) when the set is empty or rows
    ///   disagree in dimension.
    pub fn register_points(&self, points: Vec<Vec<f64>>) -> Result<PointSetId> {
        crate::screen::finite_rows("sample points", &points)?;
        let Some(first) = points.first() else {
            return Err(BmfError::config("points", "point set must be non-empty"));
        };
        let dim = first.len();
        if points.iter().any(|p| p.len() != dim) {
            return Err(BmfError::config(
                "points",
                "all points in a set must share one dimension",
            ));
        }
        let id = fingerprint_points(&points);
        let mut sets = lock(&self.point_sets);
        sets.entry(id)
            .or_insert_with(|| Arc::new(PointSet { dim, rows: points }));
        Ok(PointSetId(id))
    }

    /// Number of sample points in a registered set.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::NotFound`] for an unregistered handle.
    pub fn point_count(&self, id: PointSetId) -> Result<usize> {
        Ok(self.point_set(id)?.rows.len())
    }

    /// Enqueues a fit request, validating it at the boundary so a
    /// malformed request is rejected *now* — never later, where it could
    /// fail a coalesced batch.
    ///
    /// Equivalent to [`submit_fit_with_deadline`](Self::submit_fit_with_deadline)
    /// with no deadline.
    ///
    /// # Errors
    ///
    /// * [`BmfError::NonFiniteInput`] for NaN/±∞ values or prior entries.
    /// * [`BmfError::NotFound`] for an unregistered point-set handle.
    /// * [`BmfError::PriorShape`] / [`BmfError::SampleShape`] for
    ///   prior/basis and value/point-count mismatches.
    /// * [`BmfError::Overloaded`] (`"fit"`) when the queue is at
    ///   [`ServiceConfig::queue_capacity`].
    pub fn submit_fit(&self, request: FitRequest) -> Result<Ticket> {
        self.submit_fit_with_deadline(request, None)
    }

    /// Enqueues a fit request carrying a virtual-time deadline: if the
    /// drain that would serve it runs at a virtual `now` past the
    /// deadline ([`drain_at`](Self::drain_at)), the request expires with
    /// a structured [`BmfError::DeadlineExceeded`] instead of being
    /// fitted — decided *before* batching, so an expired member never
    /// perturbs the cohort it would have coalesced with.
    ///
    /// Admission control happens here, under the queue lock: when
    /// [`ServiceConfig::queue_capacity`] requests are already queued the
    /// submission is shed with [`BmfError::Overloaded`] and counted in
    /// [`ServiceCounters::shed_fits`]. Validation runs first, so a
    /// malformed request is reported as malformed even under overload.
    ///
    /// # Errors
    ///
    /// The conditions of [`submit_fit`](Self::submit_fit).
    pub fn submit_fit_with_deadline(
        &self,
        request: FitRequest,
        deadline_ns: Option<u64>,
    ) -> Result<Ticket> {
        crate::screen::finite_values("response values", &request.values)?;
        crate::screen::finite_early("prior early coefficients", &request.prior)?;
        let points = self.point_set(request.points)?;
        if request.prior.len() != request.basis.len() {
            return Err(BmfError::PriorShape {
                basis_terms: request.basis.len(),
                prior_entries: request.prior.len(),
            });
        }
        if points.dim != request.basis.num_vars() {
            return Err(BmfError::SampleShape {
                detail: format!(
                    "job `{}`: point set {:?} has dimension {}, basis expects {}",
                    request.job_id,
                    request.points,
                    points.dim,
                    request.basis.num_vars()
                ),
            });
        }
        if request.values.len() != points.rows.len() {
            return Err(BmfError::SampleShape {
                detail: format!(
                    "job `{}` has {} values but its point set has {} points",
                    request.job_id,
                    request.values.len(),
                    points.rows.len()
                ),
            });
        }
        let basis_fp = fingerprint_basis(&request.basis);
        // The capacity check and the push happen under one lock
        // acquisition, so concurrent submitters cannot race past the
        // bound; the ticket is only minted once admission succeeds.
        let mut queue = lock(&self.queue);
        if queue.len() >= self.config.queue_capacity {
            self.counters.shed_fits.fetch_add(1, Ordering::Relaxed);
            return Err(BmfError::Overloaded {
                class: "fit",
                capacity: self.config.queue_capacity,
            });
        }
        let ticket = Ticket(self.tickets.fetch_add(1, Ordering::Relaxed));
        queue.push_back(Pending {
            ticket,
            basis_fp,
            deadline_ns,
            request,
        });
        Ok(ticket)
    }

    /// Fit requests currently queued (submitted but not yet drained).
    pub fn queued(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Registers a streaming model under `job_id`: a
    /// [`SequentialBmf`] estimator (fixed prior family and
    /// hyper-parameter) that [`FitService::append_sample`] updates one
    /// late-stage sample at a time. The prior-mean model is published to
    /// the registry immediately, so the job serves predictions before the
    /// first sample lands.
    ///
    /// # Errors
    ///
    /// * [`BmfError::Snapshot`] for an empty job id.
    /// * [`BmfError::PriorShape`] when `prior.len() != basis.len()`.
    /// * The conditions of [`SequentialBmf::new`] (invalid hyper,
    ///   missing/zero prior entries, non-finite prior).
    /// * [`BmfError::Config`] (`"stream"`) when the job already has a
    ///   registered stream.
    pub fn register_stream(
        &self,
        job_id: impl Into<String>,
        basis: OrthonormalBasis,
        prior: &Prior,
        hyper: f64,
    ) -> Result<()> {
        let job_id = job_id.into();
        if job_id.is_empty() {
            return Err(BmfError::Snapshot {
                detail: "job id must be non-empty".to_string(),
            });
        }
        if prior.len() != basis.len() {
            return Err(BmfError::PriorShape {
                basis_terms: basis.len(),
                prior_entries: prior.len(),
            });
        }
        let seq = SequentialBmf::new(prior, hyper)?;
        let mut stream = Stream {
            seq,
            basis,
            ws: SeqWorkspace::new(),
            row: Vec::new(),
        };
        let mut streams = lock(&self.streams);
        if streams.contains_key(&job_id) {
            return Err(BmfError::config(
                "stream",
                format!("job `{job_id}` already has a registered stream"),
            ));
        }
        let snap = stream
            .seq
            .snapshot(&job_id, &stream.basis, &mut stream.ws)?;
        lock(self.shard_for(&job_id)).insert(job_id.clone(), Arc::new(snap));
        streams.insert(job_id, stream);
        Ok(())
    }

    /// Enqueues one late-stage sample for a registered stream, validating
    /// at the boundary: the point and value are screened, the stream must
    /// exist, and the point dimension must match the stream's basis — a
    /// malformed append is rejected *now*, never at drain time where it
    /// could sit between healthy updates.
    ///
    /// Appends are applied by [`FitService::drain`] in ticket order;
    /// after each successful update the stream's refreshed model snapshot
    /// replaces the registry entry, bit-identical to an offline
    /// [`SequentialBmf`] fed the same samples in the same order at any
    /// pool size.
    ///
    /// # Errors
    ///
    /// * [`BmfError::NonFiniteInput`] when the point or value is NaN/±∞.
    /// * [`BmfError::NotFound`] (`"stream"`) when no stream is registered
    ///   under the key.
    /// * [`BmfError::SampleShape`] when the point dimension differs from
    ///   the stream basis.
    /// * [`BmfError::Overloaded`] (`"append"`) when the queue is at
    ///   [`ServiceConfig::append_capacity`].
    pub fn append_sample(&self, job_id: &str, point: &[f64], value: f64) -> Result<Ticket> {
        crate::screen::finite_values("sample point", point)?;
        if !value.is_finite() {
            return Err(BmfError::NonFiniteInput {
                what: "sample value",
            });
        }
        {
            let streams = lock(&self.streams);
            let Some(stream) = streams.get(job_id) else {
                self.counters.append_misses.fetch_add(1, Ordering::Relaxed);
                return Err(BmfError::NotFound {
                    what: "stream",
                    key: job_id.to_string(),
                });
            };
            if point.len() != stream.basis.num_vars() {
                return Err(BmfError::SampleShape {
                    detail: format!(
                        "append point has dimension {}, stream `{job_id}` expects {}",
                        point.len(),
                        stream.basis.num_vars()
                    ),
                });
            }
        }
        // Same admission discipline as the fit queue: check and push
        // under one lock acquisition, mint the ticket only on admission.
        let mut queue = lock(&self.append_queue);
        if queue.len() >= self.config.append_capacity {
            self.counters.shed_appends.fetch_add(1, Ordering::Relaxed);
            return Err(BmfError::Overloaded {
                class: "append",
                capacity: self.config.append_capacity,
            });
        }
        let ticket = Ticket(self.tickets.fetch_add(1, Ordering::Relaxed));
        queue.push_back(PendingAppend {
            ticket,
            job_id: job_id.to_string(),
            point: point.to_vec(),
            value,
        });
        Ok(ticket)
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        lock(&self.streams).len()
    }

    /// Samples absorbed so far by the stream registered under `job_id`
    /// (queued-but-undrained appends are not counted).
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::NotFound`] (`"stream"`) for an unregistered
    /// key.
    pub fn stream_samples(&self, job_id: &str) -> Result<usize> {
        lock(&self.streams)
            .get(job_id)
            .map(|s| s.seq.num_samples())
            .ok_or_else(|| BmfError::NotFound {
                what: "stream",
                key: job_id.to_string(),
            })
    }

    /// Streaming updates currently queued (submitted but not yet
    /// drained).
    pub fn queued_appends(&self) -> usize {
        lock(&self.append_queue).len()
    }

    /// Drains the whole queue: coalesces requests by (point set, basis),
    /// runs each group through the batch engine's worker pool, installs
    /// the fitted models in the registry, and returns per-request
    /// outcomes in ticket order. Queued streaming appends are then
    /// applied in ticket order on the draining thread — the worker pool
    /// never touches stream state, so streamed models are bit-identical
    /// at any pool size.
    ///
    /// Failures are per-request — they surface in
    /// [`FitOutcome::result`] / [`AppendOutcome::result`], never as a
    /// drain-level error — so a bad request cannot wedge the queue.
    ///
    /// Equivalent to [`drain_at`](Self::drain_at) at virtual time 0,
    /// where no deadline can have passed.
    pub fn drain(&self) -> DrainReport {
        self.drain_at(0)
    }

    /// Drains the queue at virtual time `now_ns`: queued fits whose
    /// deadline passed (`deadline_ns < now_ns`) expire with a structured
    /// [`BmfError::DeadlineExceeded`] *before* grouping, so the surviving
    /// cohort coalesces and fits exactly as if the expired members had
    /// never been submitted — their results stay bit-identical.
    ///
    /// Expiry is strict (`<`): a request drained exactly at its deadline
    /// is still served.
    pub fn drain_at(&self, now_ns: u64) -> DrainReport {
        let pending: Vec<Pending> = lock(&self.queue).drain(..).collect();
        let appends: Vec<PendingAppend> = lock(&self.append_queue).drain(..).collect();
        let (live, expired): (Vec<Pending>, Vec<Pending>) = pending
            .into_iter()
            .partition(|p| p.deadline_ns.is_none_or(|d| d >= now_ns));
        let mut report = self.serve(live);
        for p in expired {
            self.counters.expired_fits.fetch_add(1, Ordering::Relaxed);
            self.counters.fits_failed.fetch_add(1, Ordering::Relaxed);
            report.outcomes.push(FitOutcome {
                ticket: p.ticket,
                job_id: p.request.job_id,
                batch: None,
                result: Err(BmfError::DeadlineExceeded {
                    // Partition kept only `Some(d)` with `d < now_ns`.
                    deadline_ns: p.deadline_ns.unwrap_or(0),
                    now_ns,
                }),
            });
        }
        report.outcomes.sort_unstable_by_key(|o| o.ticket);
        self.apply_appends(appends, &mut report);
        report
    }

    /// Applies drained streaming updates in ticket order, republishing
    /// each touched stream's snapshot after a successful update. A failed
    /// update errors only its own ticket (the estimator guarantees its
    /// state is untouched on error), and later appends proceed.
    fn apply_appends(&self, appends: Vec<PendingAppend>, report: &mut DrainReport) {
        if appends.is_empty() {
            return;
        }
        let start = Instant::now();
        let mut streams = lock(&self.streams);
        for a in appends {
            let result = match streams.get_mut(&a.job_id) {
                // Streams cannot be removed today, so a submitted append
                // can't lose its stream; handled for completeness.
                None => Err(BmfError::NotFound {
                    what: "stream",
                    key: a.job_id.clone(),
                }),
                Some(stream) => {
                    let Stream {
                        seq,
                        basis,
                        ws,
                        row,
                    } = stream;
                    row.clear();
                    row.resize(basis.len(), 0.0);
                    basis.fill_row(&a.point, row);
                    seq.add_sample(row, a.value, ws)
                        .and_then(|()| seq.snapshot(&a.job_id, basis, ws))
                        .map(|snap| {
                            lock(self.shard_for(&a.job_id))
                                .insert(a.job_id.clone(), Arc::new(snap));
                            seq.num_samples()
                        })
                }
            };
            match &result {
                Ok(_) => self.counters.appends_ok.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.counters.appends_failed.fetch_add(1, Ordering::Relaxed),
            };
            report.appends.push(AppendOutcome {
                ticket: a.ticket,
                job_id: a.job_id,
                result,
            });
        }
        drop(streams);
        let ns = start.elapsed().as_nanos() as u64;
        report.append_ns = ns;
        self.counters.append_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Looks up the snapshot currently registered under `job_id`. The
    /// shard lock is held only for the `Arc` clone, so callers evaluate
    /// the polynomial (via `snapshot.model`) without blocking writers.
    pub fn snapshot(&self, job_id: &str) -> Option<Arc<ModelSnapshot>> {
        lock(self.shard_for(job_id)).get(job_id).cloned()
    }

    /// Predicts the registered model for `job_id` at `x`.
    ///
    /// # Errors
    ///
    /// * [`BmfError::NonFiniteInput`] when `x` contains NaN/±∞.
    /// * [`BmfError::NotFound`] when no model is registered under the key
    ///   (including after an evict).
    /// * [`BmfError::SampleShape`] when `x` has the wrong dimension.
    pub fn predict(&self, job_id: &str, x: &[f64]) -> Result<f64> {
        crate::screen::finite_values("prediction point", x)?;
        let Some(snap) = self.snapshot(job_id) else {
            self.counters.predict_misses.fetch_add(1, Ordering::Relaxed);
            return Err(BmfError::NotFound {
                what: "model",
                key: job_id.to_string(),
            });
        };
        let model = &snap.model;
        if x.len() != model.basis().num_vars() {
            return Err(BmfError::SampleShape {
                detail: format!(
                    "prediction point has dimension {}, model `{job_id}` expects {}",
                    x.len(),
                    model.basis().num_vars()
                ),
            });
        }
        self.counters.predicts.fetch_add(1, Ordering::Relaxed);
        Ok(model.predict(x))
    }

    /// Removes the model registered under `job_id`.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::NotFound`] when the key holds no model, so an
    /// operator script can distinguish "evicted" from "was never there".
    pub fn evict(&self, job_id: &str) -> Result<()> {
        let removed = lock(self.shard_for(job_id)).remove(job_id);
        if removed.is_some() {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            self.counters.evict_misses.fetch_add(1, Ordering::Relaxed);
            Err(BmfError::NotFound {
                what: "model",
                key: job_id.to_string(),
            })
        }
    }

    /// Clones out the snapshot registered under `job_id` — the first half
    /// of the evict-to-disk flow (`export_model` → persist → `evict`),
    /// and the handle `bmf-persist` serializes.
    ///
    /// The registry keeps serving the model; exporting does not evict.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::NotFound`] when no model is registered under
    /// the key.
    pub fn export_model(&self, job_id: &str) -> Result<ModelSnapshot> {
        let Some(snap) = self.snapshot(job_id) else {
            return Err(BmfError::NotFound {
                what: "model",
                key: job_id.to_string(),
            });
        };
        self.counters.exports.fetch_add(1, Ordering::Relaxed);
        // Clone: the caller gets an owned snapshot to serialize or ship
        // while the registry keeps serving its own handle.
        Ok(snap.as_ref().clone())
    }

    /// Installs (or replaces) a snapshot under its own job id, bypassing
    /// fitting — the warm-start path for models persisted by an earlier
    /// process. The snapshot is screened first
    /// ([`ModelSnapshot::validate`]), so a corrupted or contaminated
    /// artifact is rejected with a structured error before it can serve
    /// predictions.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelSnapshot::validate`]:
    /// [`BmfError::NonFiniteInput`], [`BmfError::Snapshot`], or
    /// [`BmfError::Config`].
    pub fn import_snapshot(&self, snapshot: ModelSnapshot) -> Result<()> {
        snapshot.validate()?;
        let key = snapshot.job_id.clone();
        lock(self.shard_for(&key)).insert(key, Arc::new(snapshot));
        self.counters.imports.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of snapshots currently registered across all shards.
    pub fn snapshot_count(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// The job ids of every registered snapshot, sorted — the
    /// deterministic iteration order for exporting a whole registry.
    pub fn job_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| lock(s).keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A snapshot of the service-wide counters.
    pub fn counters(&self) -> ServiceCounters {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServiceCounters {
            fits_ok: get(&c.fits_ok),
            fits_failed: get(&c.fits_failed),
            batches: get(&c.batches),
            coalesced_fits: get(&c.coalesced_fits),
            max_batch: get(&c.max_batch),
            isolation_refits: get(&c.isolation_refits),
            kernel_cache_hits: get(&c.kernel_cache_hits),
            kernel_cache_misses: get(&c.kernel_cache_misses),
            map_solves: get(&c.map_solves),
            degraded_fits: get(&c.degraded_fits),
            predicts: get(&c.predicts),
            predict_misses: get(&c.predict_misses),
            evictions: get(&c.evictions),
            evict_misses: get(&c.evict_misses),
            imports: get(&c.imports),
            exports: get(&c.exports),
            appends_ok: get(&c.appends_ok),
            appends_failed: get(&c.appends_failed),
            append_misses: get(&c.append_misses),
            shed_fits: get(&c.shed_fits),
            shed_appends: get(&c.shed_appends),
            expired_fits: get(&c.expired_fits),
            append_ns: get(&c.append_ns),
        }
    }

    fn point_set(&self, id: PointSetId) -> Result<Arc<PointSet>> {
        lock(&self.point_sets)
            .get(&id.0)
            .cloned()
            .ok_or_else(|| BmfError::NotFound {
                what: "point set",
                key: format!("{:#018x}", id.0),
            })
    }

    fn shard_for(&self, job_id: &str) -> &Mutex<BTreeMap<String, Arc<ModelSnapshot>>> {
        let i = fnv1a(0, job_id.as_bytes()) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Coalesces and runs a drained request list; see [`drain`](Self::drain).
    fn serve(&self, pending: Vec<Pending>) -> DrainReport {
        // Group by (point set, basis): every request in a group shares
        // the batch engine's design matrix and its pattern systems.
        // BTreeMap fixes the processing order by content, not arrival.
        let mut groups: BTreeMap<(u64, u64), Vec<Pending>> = BTreeMap::new();
        for p in pending {
            groups
                .entry((p.request.points.0, p.basis_fp))
                .or_default()
                .push(p);
        }
        let mut report = DrainReport::default();
        for ((points_id, _), mut group) in groups {
            let rows = match self.point_set(PointSetId(points_id)) {
                Ok(ps) => ps,
                Err(e) => {
                    // Point sets are never evicted, so a submitted request
                    // can't lose its set; handled for completeness.
                    for p in group {
                        self.counters.fits_failed.fetch_add(1, Ordering::Relaxed);
                        report.outcomes.push(FitOutcome {
                            ticket: p.ticket,
                            job_id: p.request.job_id,
                            batch: None,
                            result: Err(e.clone()),
                        });
                    }
                    continue;
                }
            };
            while !group.is_empty() {
                let tail = group.split_off(group.len().min(self.config.max_coalesce));
                self.run_chunk(&rows.rows, group, &mut report);
                group = tail;
            }
        }
        report.outcomes.sort_unstable_by_key(|o| o.ticket);
        report
    }

    /// Runs one coalesced chunk; on whole-batch failure, degrades to
    /// per-request isolation refits.
    fn run_chunk(&self, rows: &[Vec<f64>], chunk: Vec<Pending>, report: &mut DrainReport) {
        let Some(first) = chunk.first() else { return };
        let options = &self.config.options;
        let threads = options.effective_threads();
        let jobs: Vec<JobRef<'_>> = chunk.iter().map(|p| p.request.job()).collect();
        match fit_jobs(&first.request.basis, rows, &jobs, options, threads) {
            Ok(batch) => self.absorb(chunk, batch, false, report),
            Err(_) => {
                // Whole-batch failure: refit each request alone so only
                // the guilty ticket errors. A one-job run of the engine is
                // exactly what `BmfFitter::fit` runs, so surviving
                // neighbors stay bit-identical to it.
                for p in chunk {
                    self.counters
                        .isolation_refits
                        .fetch_add(1, Ordering::Relaxed);
                    match fit_jobs(&p.request.basis, rows, &[p.request.job()], options, threads) {
                        Ok(batch) => self.absorb(vec![p], batch, true, report),
                        Err(e) => {
                            self.counters.fits_failed.fetch_add(1, Ordering::Relaxed);
                            report.outcomes.push(FitOutcome {
                                ticket: p.ticket,
                                job_id: p.request.job_id,
                                batch: None,
                                result: Err(e),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Installs a completed batch's models and records its outcomes.
    fn absorb(
        &self,
        chunk: Vec<Pending>,
        batch: BatchReport,
        isolated: bool,
        report: &mut DrainReport,
    ) {
        let n = chunk.len();
        let c = &self.counters;
        c.batches.fetch_add(1, Ordering::Relaxed);
        if n > 1 {
            c.coalesced_fits.fetch_add(n as u64, Ordering::Relaxed);
        }
        c.max_batch.fetch_max(n as u64, Ordering::Relaxed);
        c.kernel_cache_hits
            .fetch_add(batch.counters.kernel_cache_hits as u64, Ordering::Relaxed);
        c.kernel_cache_misses
            .fetch_add(batch.counters.kernel_cache_misses as u64, Ordering::Relaxed);
        c.map_solves
            .fetch_add(batch.counters.map_solves as u64, Ordering::Relaxed);
        let batch_index = report.batches.len();
        report.batches.push(BatchSummary {
            jobs: n,
            counters: batch.counters,
            timings: batch.timings,
            resilience: batch.resilience,
            isolated,
        });
        for (p, fit) in chunk.into_iter().zip(batch.fits) {
            c.fits_ok.fetch_add(1, Ordering::Relaxed);
            if fit.resilience.is_degraded() {
                c.degraded_fits.fetch_add(1, Ordering::Relaxed);
            }
            // The registry keeps a snapshot (model + provenance, cloned
            // out of the fit) while the fit itself is returned to the
            // submitter.
            let snap =
                ModelSnapshot::from_fit(p.request.job_id.clone(), &fit, &self.config.options);
            lock(self.shard_for(&p.request.job_id))
                .insert(p.request.job_id.clone(), Arc::new(snap));
            report.outcomes.push(FitOutcome {
                ticket: p.ticket,
                job_id: p.request.job_id,
                batch: Some(batch_index),
                result: Ok(ServedFit { fit, coalesced: n }),
            });
        }
    }
}

/// Content fingerprint of a point set: dimensions plus every coordinate's
/// exact bit pattern, so "same id" means "bit-identical design matrix".
fn fingerprint_points(points: &[Vec<f64>]) -> u64 {
    let mut h = fnv1a_u64(0, points.len() as u64);
    for row in points {
        h = fnv1a_u64(h, row.len() as u64);
        for &x in row {
            h = fnv1a_u64(h, x.to_bits());
        }
    }
    h
}

/// Structural fingerprint of a basis: variable count plus each term's
/// (variable, degree) pairs.
fn fingerprint_basis(basis: &OrthonormalBasis) -> u64 {
    let mut h = fnv1a_u64(0, basis.num_vars() as u64);
    h = fnv1a_u64(h, basis.len() as u64);
    for term in basis.terms() {
        for &(var, deg) in term.pairs() {
            h = fnv1a_u64(h, var as u64);
            h = fnv1a_u64(h, u64::from(deg));
        }
        // Term separator so [(0,1)],[(1,1)] differs from [(0,1),(1,1)].
        h = fnv1a_u64(h, u64::MAX);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()])
            .collect()
    }

    #[test]
    fn service_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<FitService>();
    }

    #[test]
    fn point_registration_is_content_addressed() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let a = svc.register_points(demo_points(8)).unwrap();
        let b = svc.register_points(demo_points(8)).unwrap();
        assert_eq!(a, b);
        let c = svc.register_points(demo_points(9)).unwrap();
        assert_ne!(a, c);
        assert_eq!(svc.point_count(a).unwrap(), 8);
    }

    #[test]
    fn register_rejects_empty_ragged_and_nonfinite() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        assert!(matches!(
            svc.register_points(vec![]),
            Err(BmfError::Config {
                parameter: "points",
                ..
            })
        ));
        assert!(matches!(
            svc.register_points(vec![vec![1.0], vec![1.0, 2.0]]),
            Err(BmfError::Config {
                parameter: "points",
                ..
            })
        ));
        assert!(matches!(
            svc.register_points(vec![vec![f64::NAN]]),
            Err(BmfError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn submit_validates_at_the_boundary() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let ps = svc.register_points(demo_points(8)).unwrap();
        let basis = OrthonormalBasis::linear(2);
        let bad_prior = svc.submit_fit(FitRequest {
            job_id: "j".into(),
            basis: basis.clone(),
            points: ps,
            prior: vec![Some(1.0)],
            values: vec![0.0; 8],
        });
        assert!(matches!(bad_prior, Err(BmfError::PriorShape { .. })));
        let bad_values = svc.submit_fit(FitRequest {
            job_id: "j".into(),
            basis,
            points: ps,
            prior: vec![Some(1.0); 3],
            values: vec![0.0; 5],
        });
        assert!(matches!(bad_values, Err(BmfError::SampleShape { .. })));
        let bad_dim = svc.submit_fit(FitRequest {
            job_id: "j".into(),
            basis: OrthonormalBasis::linear(3),
            points: ps,
            prior: vec![Some(1.0); 4],
            values: vec![0.0; 8],
        });
        assert!(matches!(bad_dim, Err(BmfError::SampleShape { .. })));
        assert_eq!(svc.queued(), 0);
    }

    #[test]
    fn unknown_point_set_is_not_found() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let err = svc
            .submit_fit(FitRequest {
                job_id: "j".into(),
                basis: OrthonormalBasis::linear(2),
                points: PointSetId(42),
                prior: vec![Some(1.0); 3],
                values: vec![0.0; 8],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            BmfError::NotFound {
                what: "point set",
                ..
            }
        ));
    }

    #[test]
    fn fingerprints_separate_term_boundaries() {
        use bmf_basis::multi_index::MultiIndex;
        let a = OrthonormalBasis::from_terms(
            2,
            vec![
                MultiIndex::from_pairs(&[(0, 1)]),
                MultiIndex::from_pairs(&[(1, 1)]),
            ],
        );
        let b = OrthonormalBasis::from_terms(2, vec![MultiIndex::from_pairs(&[(0, 1), (1, 1)])]);
        assert_ne!(fingerprint_basis(&a), fingerprint_basis(&b));
    }

    #[test]
    fn drain_on_empty_queue_is_empty() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let report = svc.drain();
        assert!(report.outcomes.is_empty());
        assert!(report.batches.is_empty());
        assert!(report.appends.is_empty());
        assert_eq!(report.append_ns, 0);
    }

    fn demo_request(svc: &FitService, job: &str, n: usize) -> FitRequest {
        let ps = svc.register_points(demo_points(n)).unwrap();
        FitRequest {
            job_id: job.into(),
            basis: OrthonormalBasis::linear(2),
            points: ps,
            prior: vec![Some(1.0), Some(0.5), Some(0.0)],
            values: (0..n).map(|i| 1.0 + 0.1 * i as f64).collect(),
        }
    }

    #[test]
    fn fit_queue_sheds_at_capacity_with_structured_overloaded() {
        let svc = FitService::new(ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let req = demo_request(&svc, "j", 8);
        svc.submit_fit(req.clone()).unwrap();
        svc.submit_fit(req.clone()).unwrap();
        let shed = svc.submit_fit(req.clone()).unwrap_err();
        assert!(matches!(
            shed,
            BmfError::Overloaded {
                class: "fit",
                capacity: 2,
            }
        ));
        assert_eq!(svc.queued(), 2);
        assert_eq!(svc.counters().shed_fits, 1);
        // A drain frees the capacity; admission resumes.
        let report = svc.drain();
        assert_eq!(report.served(), 2);
        svc.submit_fit(req).unwrap();
        assert_eq!(svc.queued(), 1);
    }

    #[test]
    fn append_queue_sheds_at_capacity_with_structured_overloaded() {
        let svc = FitService::new(ServiceConfig {
            append_capacity: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let basis = OrthonormalBasis::linear(2);
        let prior = stream_prior(&basis);
        svc.register_stream("s", basis, &prior, 1.0).unwrap();
        svc.append_sample("s", &[0.1, 0.2], 1.0).unwrap();
        let shed = svc.append_sample("s", &[0.3, 0.4], 2.0).unwrap_err();
        assert!(matches!(
            shed,
            BmfError::Overloaded {
                class: "append",
                capacity: 1,
            }
        ));
        assert_eq!(svc.counters().shed_appends, 1);
        assert_eq!(svc.drain().appended(), 1);
        svc.append_sample("s", &[0.3, 0.4], 2.0).unwrap();
    }

    #[test]
    fn drain_at_expires_strictly_past_the_deadline() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let req = demo_request(&svc, "due", 8);
        // Due exactly at the drain time: still served.
        svc.submit_fit_with_deadline(
            FitRequest {
                job_id: "exact".into(),
                ..req.clone()
            },
            Some(1_000),
        )
        .unwrap();
        // Already past due: expired with the structured error.
        let late = svc
            .submit_fit_with_deadline(
                FitRequest {
                    job_id: "late".into(),
                    ..req.clone()
                },
                Some(999),
            )
            .unwrap();
        // No deadline: always served.
        svc.submit_fit(req).unwrap();
        let report = svc.drain_at(1_000);
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.served(), 2);
        let expired = report
            .outcomes
            .iter()
            .find(|o| o.ticket == late)
            .expect("late ticket reported");
        assert!(matches!(
            expired.result,
            Err(BmfError::DeadlineExceeded {
                deadline_ns: 999,
                now_ns: 1_000,
            })
        ));
        assert_eq!(expired.batch, None);
        let c = svc.counters();
        assert_eq!(c.expired_fits, 1);
        assert_eq!(c.fits_failed, 1);
        assert_eq!(c.fits_ok, 2);
    }

    use crate::prior::{Prior, PriorKind};

    fn stream_prior(basis: &OrthonormalBasis) -> Prior {
        let early: Vec<f64> = (0..basis.len()).map(|i| 0.5 / (1.0 + i as f64)).collect();
        Prior::from_coeffs(PriorKind::NonZeroMean, &early)
    }

    #[test]
    fn register_stream_publishes_prior_mean_and_rejects_duplicates() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let basis = OrthonormalBasis::linear(2);
        let prior = stream_prior(&basis);
        svc.register_stream("osc.gain", basis.clone(), &prior, 1.0)
            .unwrap();
        assert_eq!(svc.stream_count(), 1);
        assert_eq!(svc.stream_samples("osc.gain").unwrap(), 0);
        // The prior-mean model serves predictions before any sample.
        assert!(svc.predict("osc.gain", &[0.1, -0.2]).unwrap().is_finite());
        assert!(matches!(
            svc.register_stream("osc.gain", basis.clone(), &prior, 1.0),
            Err(BmfError::Config {
                parameter: "stream",
                ..
            })
        ));
        assert!(matches!(
            svc.register_stream("", basis.clone(), &prior, 1.0),
            Err(BmfError::Snapshot { .. })
        ));
        let short = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0]);
        assert!(matches!(
            svc.register_stream("other", basis, &short, 1.0),
            Err(BmfError::PriorShape { .. })
        ));
    }

    #[test]
    fn append_sample_screens_at_the_boundary() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let basis = OrthonormalBasis::linear(2);
        let prior = stream_prior(&basis);
        svc.register_stream("j", basis, &prior, 1.0).unwrap();
        assert!(matches!(
            svc.append_sample("missing", &[0.0, 0.0], 1.0),
            Err(BmfError::NotFound { what: "stream", .. })
        ));
        assert!(matches!(
            svc.append_sample("j", &[f64::NAN, 0.0], 1.0),
            Err(BmfError::NonFiniteInput { .. })
        ));
        assert!(matches!(
            svc.append_sample("j", &[0.0, 0.0], f64::INFINITY),
            Err(BmfError::NonFiniteInput { .. })
        ));
        assert!(matches!(
            svc.append_sample("j", &[0.0], 1.0),
            Err(BmfError::SampleShape { .. })
        ));
        assert_eq!(svc.queued_appends(), 0);
        assert_eq!(svc.counters().append_misses, 1);
        svc.append_sample("j", &[0.2, 0.3], 1.0).unwrap();
        assert_eq!(svc.queued_appends(), 1);
    }

    #[test]
    fn appends_update_the_registered_model_in_ticket_order() {
        let svc = FitService::new(ServiceConfig::default()).unwrap();
        let basis = OrthonormalBasis::linear(2);
        let prior = stream_prior(&basis);
        svc.register_stream("j", basis.clone(), &prior, 1.0)
            .unwrap();
        let points = [[0.2, -0.1], [-0.4, 0.5], [0.1, 0.9]];
        let mut tickets = Vec::new();
        for (i, p) in points.iter().enumerate() {
            tickets.push(svc.append_sample("j", p, 0.3 * i as f64 - 0.1).unwrap());
        }
        let report = svc.drain();
        assert_eq!(report.appended(), 3);
        assert_eq!(
            report.appends.iter().map(|a| a.ticket).collect::<Vec<_>>(),
            tickets
        );
        assert_eq!(
            report
                .appends
                .iter()
                .map(|a| *a.result.as_ref().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(svc.stream_samples("j").unwrap(), 3);
        let c = svc.counters();
        assert_eq!(c.appends_ok, 3);
        assert_eq!(c.appends_failed, 0);
        assert!(c.append_ns > 0);

        // The registry snapshot matches an offline sequential fit fed the
        // same samples, bit for bit.
        let mut offline = SequentialBmf::new(&prior, 1.0).unwrap();
        let mut ws = SeqWorkspace::new();
        for (i, p) in points.iter().enumerate() {
            offline
                .add_sample(&basis.row(p), 0.3 * i as f64 - 0.1, &mut ws)
                .unwrap();
        }
        let expect = offline.coefficients().unwrap();
        let snap = svc.snapshot("j").unwrap();
        for (a, b) in snap.model.coeffs().iter().zip(expect.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(snap.prior_kind, PriorKind::NonZeroMean);
    }
}
