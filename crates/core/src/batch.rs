//! Parallel batch fitting: many performance metrics, one sample set.
//!
//! A characterization run rarely fits a single metric. The same K
//! late-stage simulations yield gain *and* bandwidth *and* offset *and*
//! power — N responses measured at the same sample points, each with its
//! own early-stage prior. Fitting them through
//! [`BmfFitter`](crate::fusion::BmfFitter) in a loop repeats work that
//! depends only on the shared inputs:
//!
//! * the design matrix `G` (Θ(K·M·basis) to evaluate) is identical for
//!   every job;
//! * the cross-validation fold row-selections depend only on `(K, folds,
//!   seed)`;
//! * the floor gram `Γ = G·diag(1_F)·Gᵀ`, Θ(K²M), depends only on the
//!   points and the prior's *missing columns*: one per finite-column set
//!   serves every prior pattern with that set whose entries mostly sit
//!   on the prior floor, as an OMP early model's do, since such a
//!   pattern's Woodbury kernel is `c₀·Γ + G_S·diag(a⁻¹_S − c₀)·G_Sᵀ`
//!   over its few entries above the floor `c₀`;
//! * each fold's *base* — the QR of the fold's missing columns and the
//!   congruence `QᵀΓQ` — depends only on the gram and the fold, so every
//!   pattern on the gram shares it and adds only its own rank-|S| term;
//!   a dense prior's kernel `G·diag(A⁻¹)·Gᵀ` is its own base;
//! * each fold's sample-space system depends only on the *normalized
//!   prior values*: jobs whose priors coincide after normalization share
//!   it exactly.
//!
//! [`BatchFitter`] evaluates the design matrix once, builds each floor
//! gram once (in row bands every worker shares) and each dense pattern's
//! kernel once, and dispatches the remaining work — one sweep per
//! `(base, fold)` that builds the fold's base once, then each pattern's
//! sample-space system from it, and evaluates every `(hyper, family)`
//! cell of every job of the pattern against that system (one sweep per
//! `(pattern, fold)` where the base misses no column and so costs only a
//! gather); one full-data base and system per missing-prior base; then
//! per-job reduction and the final solve (the pattern's full-data
//! back-projection, or the Woodbury solve of a fully informed prior) —
//! across a scoped worker pool.
//!
//! # Determinism
//!
//! Results are **bit-identical for every thread count**, including 1.
//! Workers only compute pure functions of their task inputs and write
//! into per-task slots; every reduction (fold error accumulation, error
//! propagation, counter totals) happens after the join, in a fixed
//! order. This engine is the only one:
//! [`BmfFitter::fit`](crate::fusion::BmfFitter::fit) is a one-job call of
//! it on one worker, so a one-job batch equals a single fit by
//! construction.
//!
//! ```
//! use bmf_basis::basis::OrthonormalBasis;
//! use bmf_core::batch::{BatchFitter, BatchJob};
//! use bmf_core::options::FitOptions;
//!
//! # fn main() -> Result<(), bmf_core::BmfError> {
//! let basis = OrthonormalBasis::linear(2);
//! let points: Vec<Vec<f64>> = (0..8)
//!     .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()])
//!     .collect();
//! let gain: Vec<f64> = points.iter().map(|p| 1.0 + 0.5 * p[0]).collect();
//! let bw: Vec<f64> = points.iter().map(|p| 2.0 - 0.3 * p[1]).collect();
//!
//! let report = BatchFitter::new(basis)
//!     .with_options(FitOptions::new().folds(4).threads(2))
//!     .job(BatchJob::new("gain", vec![Some(1.0), Some(0.5), Some(0.0)], gain))
//!     .job(BatchJob::new("bw", vec![Some(2.0), Some(0.0), Some(-0.3)], bw))
//!     .fit(&points)?;
//! assert_eq!(report.fits.len(), 2);
//! assert_eq!(report.labels[0], "gain");
//! # Ok(())
//! # }
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bmf_basis::basis::OrthonormalBasis;
use bmf_linalg::view::{gram_runs_band_into, mirror_upper_into};
use bmf_linalg::{Matrix, Vector};

use crate::fusion::{response_scale, BmfFit, FitCounters, ResilienceReport};
use crate::hyper::{reduce_outcomes, FoldErrors, FoldPlan};
use crate::map_estimate::{
    finite_runs, map_estimate_ws, FoldBase, FoldSystem, FoldWork, PriorTerms, SolverKind,
};
use crate::model::PerformanceModel;
use crate::options::{validate_folds, validate_grid, FitOptions};
use crate::prior::{Prior, PriorKind};
use crate::select::{decide, kinds_for};
use crate::workspace::MapScratch;
use crate::{BmfError, Result};

/// One batch job: a response vector plus its early-stage prior, fitted
/// over the batch's shared basis and sample points.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable name reported back in [`BatchReport::labels`].
    pub label: String,
    /// Per-term early-coefficient knowledge (`None` = missing prior).
    pub prior: Vec<Option<f64>>,
    /// Late-stage response values, one per shared sample point.
    pub values: Vec<f64>,
}

impl BatchJob {
    /// Creates a job from a label, per-term prior knowledge, and the
    /// response values observed at the shared sample points.
    pub fn new(label: impl Into<String>, prior: Vec<Option<f64>>, values: Vec<f64>) -> Self {
        BatchJob {
            label: label.into(),
            prior,
            values,
        }
    }

    /// Creates a job whose prior is fully known (no missing entries).
    pub fn from_coeffs(label: impl Into<String>, early: &[f64], values: Vec<f64>) -> Self {
        BatchJob::new(label, early.iter().map(|&a| Some(a)).collect(), values)
    }
}

/// Wall-clock time spent in each phase of a batch fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Design-matrix evaluation, fold planning, and response
    /// normalization (runs once, serially).
    pub prepare: Duration,
    /// Kernel builds (parallel): the floor gram of each finite-column
    /// set, one row band per worker, and one task per dense prior
    /// pattern forming its own kernel over all K rows; every fold then
    /// indexes them.
    pub kernels: Duration,
    /// Cross-validation sweeps (parallel; one task per `(base, fold)`
    /// pair, which builds the fold's base once, then each pattern's
    /// sample-space system from it, and covers every `(hyper, family)`
    /// cell of every job of those patterns — one per `(pattern, fold)`
    /// on a base that misses no column), plus, for the fast solver, one
    /// task per missing-prior base building its full-data base and each
    /// pattern's full-data system.
    pub sweep: Duration,
    /// Per-job reduction, prior selection, and the final full-data MAP
    /// solve (parallel; one task per job): the back-projection of the
    /// pattern's full-data system for a missing prior, `map_estimate`'s
    /// solve otherwise.
    pub solve: Duration,
}

impl PhaseTimings {
    /// Total wall time across all phases.
    pub fn total(&self) -> Duration {
        self.prepare + self.kernels + self.sweep + self.solve
    }
}

/// Everything a completed batch fit reports.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One fit per job, in submission order. Each carries its own
    /// per-job [`FitCounters`].
    pub fits: Vec<BmfFit>,
    /// Job labels, in submission order.
    pub labels: Vec<String>,
    /// Work counters summed over every job.
    pub counters: FitCounters,
    /// Degradation-ladder summary aggregated over every job: the worst
    /// final-solve rung/ridge, the smallest reciprocal-condition
    /// estimate, and batch-wide degraded-solve totals.
    pub resilience: ResilienceReport,
    /// Per-phase wall time.
    pub timings: PhaseTimings,
    /// Worker threads the pool actually used.
    pub threads: usize,
}

/// Parallel batch fitter: N jobs over one shared sample-point set.
///
/// Construction mirrors [`BmfFitter`](crate::fusion::BmfFitter); see the
/// [module docs](self) for the sharing and determinism story.
#[derive(Debug, Clone)]
pub struct BatchFitter {
    basis: OrthonormalBasis,
    jobs: Vec<BatchJob>,
    options: FitOptions,
}

impl BatchFitter {
    /// Creates an empty batch over `basis`.
    pub fn new(basis: OrthonormalBasis) -> Self {
        BatchFitter {
            basis,
            jobs: Vec::new(),
            options: FitOptions::default(),
        }
    }

    /// Replaces the whole fitting configuration (shared by every job).
    pub fn with_options(mut self, options: FitOptions) -> Self {
        self.options = options;
        self
    }

    /// The current fitting configuration.
    pub fn options(&self) -> &FitOptions {
        &self.options
    }

    /// The shared late-stage basis.
    pub fn basis(&self) -> &OrthonormalBasis {
        &self.basis
    }

    /// Adds a job (chainable).
    pub fn job(mut self, job: BatchJob) -> Self {
        self.jobs.push(job);
        self
    }

    /// Adds a job in place.
    pub fn push_job(&mut self, job: BatchJob) {
        self.jobs.push(job);
    }

    /// Replaces the whole job list (chainable), handing a pre-assembled
    /// group to the batch in one move instead of pushing job by job.
    pub fn with_jobs(mut self, jobs: Vec<BatchJob>) -> Self {
        self.jobs = jobs;
        self
    }

    /// The queued jobs, in submission order.
    pub fn jobs(&self) -> &[BatchJob] {
        &self.jobs
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Fits every job over the shared sample points.
    ///
    /// # Errors
    ///
    /// * [`BmfError::Config`] for invalid options (`"grid"`, `"folds"`)
    ///   or an empty batch (`"jobs"`).
    /// * [`BmfError::PriorShape`] when a job's prior length disagrees
    ///   with the basis.
    /// * [`BmfError::SampleShape`] when a job's value count disagrees
    ///   with the point count.
    /// * [`BmfError::NotEnoughSamples`] / [`BmfError::Linalg`] as for
    ///   [`BmfFitter::fit`](crate::fusion::BmfFitter::fit). When several
    ///   jobs fail, the error of the lowest-indexed failing task is
    ///   returned — independent of the thread schedule.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<BatchReport> {
        let jobs: Vec<JobRef<'_>> = self.jobs.iter().map(JobRef::from).collect();
        let threads = self.options.effective_threads();
        fit_jobs(&self.basis, points, &jobs, &self.options, threads)
    }
}

/// One job as the engine reads it, borrowed from a [`BatchJob`], a
/// [`BmfFitter::fit`] call or a service request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobRef<'a> {
    pub(crate) label: &'a str,
    pub(crate) prior: &'a [Option<f64>],
    pub(crate) values: &'a [f64],
}

impl<'a> From<&'a BatchJob> for JobRef<'a> {
    fn from(job: &'a BatchJob) -> Self {
        JobRef {
            label: &job.label,
            prior: &job.prior,
            values: &job.values,
        }
    }
}

/// One prior pattern of a sweep: the scaled prior (nonzero-mean view, so
/// its kernel caches the prior means) and the response of every job
/// that shares it.
pub(crate) type Pattern<'a> = (&'a Prior, Vec<&'a Vector>);

/// The fitting engine: every cross-validated fit runs through here —
/// [`BatchFitter::fit`], [`BmfFitter::fit`] (one job on one worker) and
/// the service's coalesced runs and isolation refits. Screens the jobs,
/// then runs phase 1 (design matrix, fold plan, normalization and
/// grouping by prior pattern), [`sweep`], and per job the reduction,
/// the prior choice and the final full-data solve.
pub(crate) fn fit_jobs(
    basis: &OrthonormalBasis,
    points: &[Vec<f64>],
    jobs: &[JobRef<'_>],
    options: &FitOptions,
    threads: usize,
) -> Result<BatchReport> {
    validate_grid(&options.grid)?;
    validate_folds(options.folds)?;
    if jobs.is_empty() {
        return Err(BmfError::config("jobs", "batch needs at least one job"));
    }
    crate::screen::points(points, basis.num_vars())?;
    for job in jobs {
        if job.prior.len() != basis.len() {
            return Err(BmfError::PriorShape {
                basis_terms: basis.len(),
                prior_entries: job.prior.len(),
            });
        }
        if job.values.len() != points.len() {
            return Err(BmfError::SampleShape {
                detail: format!(
                    "job `{}` has {} values but the batch has {} points",
                    job.label,
                    job.values.len(),
                    points.len()
                ),
            });
        }
        crate::screen::finite_values("response values", job.values)?;
        crate::screen::finite_early("prior early coefficients", job.prior)?;
    }

    // Phase 1 (serial): shared design matrix, fold plan, and per-job
    // normalization.
    let t0 = Instant::now();
    let g = basis.design_matrix(points.iter().map(|p| p.as_slice()));
    let plan = FoldPlan::new(g.nrows(), options.folds, options.seed)?;
    let num_folds = plan.folds.len();
    let prepared: Vec<PreparedJob> = jobs.iter().map(PreparedJob::new).collect();

    // Group jobs by normalized prior bit-pattern, in first-occurrence
    // order: jobs in one group share the Woodbury kernel and every fold
    // system exactly (same `A`, same means). Job `j` is response
    // `place[j].1` of pattern `place[j].0`; response 0 owns the pattern.
    let mut place = Vec::with_capacity(prepared.len());
    let mut patterns: Vec<Pattern<'_>> = Vec::new();
    for p in &prepared {
        let pi = match patterns.iter().position(|(q, _)| same_bits(q, &p.prior)) {
            Some(pi) => pi,
            None => {
                patterns.push((&p.prior, Vec::new()));
                patterns.len() - 1
            }
        };
        place.push((pi, patterns[pi].1.len()));
        patterns[pi].1.push(&p.f);
    }
    let mut timings = PhaseTimings {
        prepare: t0.elapsed(),
        ..PhaseTimings::default()
    };
    let kinds = kinds_for(options.selection);
    let full = options.solver == SolverKind::Fast;
    let swept = sweep(&g, &plan, &patterns, &options.grid, kinds, full, threads)?;
    (timings.kernels, timings.sweep) = (swept.kernels_time, swept.sweep_time);

    // Phase 4 (parallel): per-job reduction (fold-major, fixed order),
    // prior selection, and the final full-data solve.
    let t3 = Instant::now();
    let per_job = kinds.len() * options.grid.len();
    let fits: Vec<Result<BmfFit>> =
        run_indexed_with(threads, prepared.len(), MapScratch::default, |ws, j| {
            let job = &prepared[j];
            let (pi, slot) = place[j];
            let job_cells = |fi: usize| {
                let (task, first) = swept.cells_at[pi * num_folds + fi];
                let r = first + slot;
                swept.errors[task]
                    .as_deref()
                    .map(|e| &e[r * per_job..(r + 1) * per_job])
            };
            let mut counters = FitCounters::default();
            for fi in 0..num_folds {
                // Kernel accounting, one per usable fold: the first job
                // of each pattern built its kernels; later jobs reused
                // them from the cache.
                if let Some(cells) = job_cells(fi) {
                    counters.map_solves += cells.iter().flatten().count();
                    if slot == 0 {
                        counters.kernels_built += 1;
                        counters.kernel_cache_misses += 1;
                    } else {
                        counters.kernel_cache_hits += 1;
                    }
                }
            }
            let outcomes = reduce_outcomes(
                &options.grid,
                kinds.len(),
                (0..num_folds).map(job_cells),
                job.f.len(),
                num_folds,
            )?;
            let selection = decide(options.selection, outcomes)?;
            // A missing prior back-projects its pattern's full-data
            // system, as `map_estimate`'s fast solver does; any other
            // final solve is `map_estimate`'s own.
            let (alpha, final_res) = match &swept.full[pi] {
                Some(system) => {
                    let (base, system) = system.as_ref().map_err(Clone::clone)?;
                    let (f, hyper, terms) = (job.f.as_slice(), selection.hyper, &swept.terms[pi]);
                    system.solve(g.as_view(), base, terms, f, hyper, selection.kind)?
                }
                None => {
                    let chosen = job.prior.with_kind(selection.kind);
                    map_estimate_ws(&g, &job.f, &chosen, selection.hyper, options.solver, ws)?
                }
            };
            counters.map_solves += 1;
            counters.record_resilience(&final_res);
            let coeffs: Vec<f64> = alpha.iter().map(|a| a * job.scale).collect();
            // Clone: once per job (not per grid cell) — each returned
            // model owns its basis.
            let model = PerformanceModel::new(basis.clone(), coeffs)?;
            Ok(BmfFit {
                model,
                prior_kind: selection.kind,
                hyper: selection.hyper,
                cv_error: selection.cv_error,
                selection,
                resilience: ResilienceReport::new(&final_res, &counters),
                counters,
            })
        });
    let fits = first_error(fits)?;
    timings.solve = t3.elapsed();

    let mut counters = FitCounters::default();
    for fit in &fits {
        counters.merge(&fit.counters);
    }
    // Batch-wide resilience: worst final-solve rung/ridge, smallest
    // rcond, totals from the merged counters.
    let mut resilience = ResilienceReport {
        degraded_solves: counters.degraded_solves,
        max_rung: counters.max_ladder_rung,
        ..ResilienceReport::default()
    };
    for fit in &fits {
        resilience.rung = resilience.rung.max(fit.resilience.rung);
        resilience.ridge = resilience.ridge.max(fit.resilience.ridge);
        resilience.rcond = resilience.rcond.min(fit.resilience.rcond);
    }
    Ok(BatchReport {
        labels: jobs.iter().map(|j| j.label.to_owned()).collect(),
        fits,
        counters,
        resilience,
        timings,
        threads,
    })
}

/// A pattern's full-data system, with the full-data base (the QR of its
/// missing columns) it shares with the other patterns on its base.
pub(crate) type FullSystem = (Arc<FoldBase>, FoldSystem);

/// What [`sweep`] leaves for the final solves.
pub(crate) struct Swept {
    /// The error tables, one per `(base, fold)` sweep task in task order,
    /// each over the responses of the task's patterns in order; `None`
    /// for a fold unusable for the base.
    pub(crate) errors: Vec<Option<FoldErrors>>,
    /// Per `(pattern, fold)` (`[pattern · folds + fold]`): the task whose
    /// table holds the pattern's cells, and the pattern's first response
    /// in it.
    pub(crate) cells_at: Vec<(usize, usize)>,
    /// Each pattern's hyper-independent prior quantities.
    pub(crate) terms: Vec<PriorTerms>,
    /// Each pattern's full-data system when it was asked for and the
    /// prior misses a column, with the projection of the full-data base
    /// it was built on (the build's error, for that pattern's jobs to
    /// report), `None` otherwise.
    pub(crate) full: Vec<Option<Result<FullSystem>>>,
    /// Wall time of the kernel phase.
    pub(crate) kernels_time: Duration,
    /// Wall time of the sweep phase.
    pub(crate) sweep_time: Duration,
}

/// One base of the sweep: the floor gram of a finite-column set, which
/// every pattern using the floor gram with those missing columns shares,
/// or a dense pattern's own kernel.
struct Base<'a> {
    missing: &'a [usize],
    floor: bool,
    /// The patterns built on it, in pattern order.
    patterns: Vec<usize>,
}

/// One task of the sweep phase.
enum SweepTask {
    /// A `(base, fold)` sweep over some of the base's patterns.
    Cells(Option<FoldErrors>),
    /// A base's full-data systems, one per pattern of the base.
    Full(Vec<Result<FullSystem>>),
}

/// The engine's kernel and sweep phases, which the cross-validation
/// entry points also call with one pattern. Patterns are grouped into
/// bases: the floor gram of each finite-column set serves every pattern
/// that uses the floor gram with those missing columns, and any other
/// pattern is its own base, its own kernel. Phase 2 builds each floor
/// gram in row bands that every worker shares, and each own kernel as
/// one task; phase 3 runs one sweep per `(base, fold)`, which builds the
/// fold's base once ([`FoldBase`]: the QR of the missing columns and the
/// base's congruence) and then each pattern's system from it, every
/// worker reusing its own [`FoldWork`] (one sweep per `(pattern, fold)`
/// on a base that misses no column). With `full` set, phase 3 also
/// builds, per base whose patterns miss a column, the full-data base and
/// each pattern's full-data system, for the fast final solve.
pub(crate) fn sweep(
    g: &Matrix,
    plan: &FoldPlan,
    patterns: &[Pattern<'_>],
    grid: &[f64],
    kinds: &[PriorKind],
    full: bool,
    threads: usize,
) -> Result<Swept> {
    let t1 = Instant::now();
    let terms = run_indexed(threads, patterns.len(), |pi| {
        PriorTerms::new(g.as_view(), patterns[pi].0)
    });
    let terms = first_error(terms)?;
    let mut bases: Vec<Base<'_>> = Vec::new();
    for (pi, t) in terms.iter().enumerate() {
        let floor = t.uses_floor_gram();
        let shared = bases
            .iter()
            .position(|b| floor && b.floor && b.missing == t.missing());
        let bi = shared.unwrap_or_else(|| {
            bases.push(Base {
                missing: t.missing(),
                floor,
                patterns: Vec::new(),
            });
            bases.len() - 1
        });
        bases[bi].patterns.push(pi);
    }
    let sets: Vec<&[usize]> = bases
        .iter()
        .filter(|b| b.floor)
        .map(|b| b.missing)
        .collect();
    let mut grams = floor_grams(g, &sets, threads)?.into_iter();
    let own = run_indexed(threads, bases.len(), |bi| {
        let base = &bases[bi];
        match base.patterns.first() {
            Some(&pi) if !base.floor => terms[pi].own_kernel(g.as_view()).map(Some),
            _ => Ok(None),
        }
    });
    let kernels: Vec<Matrix> = first_error(own)?
        .into_iter()
        .map(|own| own.or_else(|| grams.next()))
        .collect::<Option<_>>()
        .ok_or(BmfError::Internal {
            detail: "a sweep base has no kernel",
        })?;
    let kernels_time = t1.elapsed();

    // Full-data systems first: each is a fold's work over every row, so
    // starting them early balances the pool.
    let t2 = Instant::now();
    let num_folds = plan.folds.len();
    let needs_full: Vec<usize> = (0..bases.len())
        .filter(|&bi| full && !bases[bi].missing.is_empty())
        .collect();
    // One task per (base, fold) builds the fold's base once for all of
    // the base's patterns. A base whose patterns miss no column costs
    // only a gather (no QR, no congruence), so there each pattern gets a
    // task of its own, which keeps a batch of many such patterns
    // balanced across the pool.
    let mut chunks: Vec<(usize, usize, Range<usize>)> = Vec::new();
    let mut cells_at = vec![(0, 0); patterns.len() * num_folds];
    for (bi, base) in bases.iter().enumerate() {
        let len = base.patterns.len();
        let step = if base.missing.is_empty() {
            1
        } else {
            len.max(1)
        };
        for fi in 0..num_folds {
            for start in (0..len).step_by(step) {
                let range = start..(start + step).min(len);
                let mut first = 0;
                for &pi in &base.patterns[range.clone()] {
                    cells_at[pi * num_folds + fi] = (chunks.len(), first);
                    first += patterns[pi].1.len();
                }
                chunks.push((bi, fi, range));
            }
        }
    }
    let tasks = run_indexed_with(
        threads,
        needs_full.len() + chunks.len(),
        || FoldWork::new(grid, kinds),
        |work, task| {
            if let Some(&bi) = needs_full.get(task) {
                let (base, kernel) = (&bases[bi], &kernels[bi]);
                let systems = match FoldBase::full(g.as_view(), kernel, base.missing) {
                    Ok(full) => {
                        let systems: Vec<Result<FoldSystem>> = base
                            .patterns
                            .iter()
                            .map(|&pi| FoldSystem::full(g.as_view(), &full, &terms[pi]))
                            .collect();
                        let full = Arc::new(full.into_projection());
                        let with_base = |s: FoldSystem| (Arc::clone(&full), s);
                        systems.into_iter().map(|s| s.map(with_base)).collect()
                    }
                    Err(e) => base.patterns.iter().map(|_| Err(e.clone())).collect(),
                };
                return Ok(SweepTask::Full(systems));
            }
            let (bi, fi, range) = &chunks[task - needs_full.len()];
            let base = &bases[*bi];
            let on_base = base.patterns[range.clone()]
                .iter()
                .map(|&pi| (&terms[pi], patterns[pi].1.as_slice()));
            work.sweep(g, &kernels[*bi], base.missing, on_base, &plan.folds[*fi])
                .map(SweepTask::Cells)
        },
    );
    drop(kernels);
    let mut swept = Swept {
        errors: Vec::with_capacity(chunks.len()),
        cells_at,
        terms: Vec::new(),
        full: (0..patterns.len()).map(|_| None).collect(),
        kernels_time,
        sweep_time: Duration::ZERO,
    };
    for (task, done) in first_error(tasks)?.into_iter().enumerate() {
        match done {
            SweepTask::Full(systems) => {
                for (&pi, system) in bases[needs_full[task]].patterns.iter().zip(systems) {
                    swept.full[pi] = Some(system);
                }
            }
            SweepTask::Cells(cells) => swept.errors.push(cells),
        }
    }
    swept.terms = terms;
    swept.sweep_time = t2.elapsed();
    Ok(swept)
}

/// The floor gram `Γ = G·diag(1_F)·Gᵀ` of every finite-column set, each
/// given by its missing columns. Each gram is split into equal-area row
/// bands of its upper triangle, one per worker; every band task writes
/// its rows of the one gram with [`gram_runs_band_into`] over the runs
/// of finite columns, and the lower triangle is mirrored after the join.
/// Each entry is that kernel's fixed reduction of its two rows, so no
/// bit depends on the split or the thread count.
fn floor_grams(g: &Matrix, sets: &[&[usize]], threads: usize) -> Result<Vec<Matrix>> {
    let (k, m) = g.shape();
    let bands = equal_area_bands(k, threads);
    let runs: Vec<Vec<Range<usize>>> = sets.iter().map(|z| finite_runs(m, z)).collect();
    let mut grams: Vec<Matrix> = sets.iter().map(|_| Matrix::zeros(k, k)).collect();
    let mut parts = Vec::with_capacity(sets.len() * bands.len());
    for (si, gram) in grams.iter_mut().enumerate() {
        let mut rest = gram.as_mut_slice();
        for rows in &bands {
            let (band, tail) = rest.split_at_mut(rows.len() * k);
            parts.push((si, rows.clone(), Mutex::new(band)));
            rest = tail;
        }
    }
    let done = run_indexed(threads, parts.len(), |i| {
        let (si, rows, band) = &parts[i];
        // Each index is claimed once, so the lock is never contended.
        let mut band = band.lock().map_err(|_| BmfError::Internal {
            detail: "a floor-gram band lock was poisoned",
        })?;
        gram_runs_band_into(g.as_view(), &runs[*si], rows.clone(), &mut band)?;
        Ok(())
    });
    first_error(done)?;
    drop(parts);
    for gram in &mut grams {
        mirror_upper_into(gram.as_view_mut())?;
    }
    Ok(grams)
}

/// Splits the rows of a `k × k` upper triangle (row `i` holds `k − i`
/// entries) into at most `n` contiguous bands of near-equal area.
fn equal_area_bands(k: usize, n: usize) -> Vec<Range<usize>> {
    let n = n.clamp(1, k.max(1));
    let total = k * (k + 1) / 2;
    let mut bands = Vec::with_capacity(n);
    let (mut start, mut area) = (0, 0);
    for i in 0..k {
        area += k - i;
        if bands.len() + 1 < n && area * n >= (bands.len() + 1) * total {
            bands.push(start..i + 1);
            start = i + 1;
        }
    }
    bands.push(start..k);
    bands
}

/// Whether two priors carry bit-identical early values.
fn same_bits(a: &Prior, b: &Prior) -> bool {
    let (a, b) = (a.early_values().iter(), b.early_values().iter());
    a.map(|v| v.map(f64::to_bits))
        .eq(b.map(|v| v.map(f64::to_bits)))
}

/// A job after normalization: the dimensionless response and the
/// correspondingly scaled prior (nonzero-mean view, as the kernels are
/// built from it).
pub(crate) struct PreparedJob {
    scale: f64,
    pub(crate) f: Vector,
    pub(crate) prior: Prior,
}

impl PreparedJob {
    /// Scales the response to unit RMS and the prior with it: raw units
    /// (hertz, watts) would put the intercept prior variance decades
    /// above the rest, wrecking the conditioning and the meaning of the
    /// fixed grid. Coefficients are rescaled on the way out; the reported
    /// `hyper` lives in the normalized space.
    pub(crate) fn new(job: &JobRef<'_>) -> Self {
        let scale = response_scale(job.values);
        let f = Vector::from_fn(job.values.len(), |i| job.values[i] / scale);
        let prior = Prior::new(
            PriorKind::NonZeroMean,
            job.prior.iter().map(|v| v.map(|a| a / scale)).collect(),
        );
        PreparedJob { scale, f, prior }
    }
}

/// Runs `n` independent tasks on a scoped worker pool and returns their
/// results in task order.
///
/// Work-stealing is a shared atomic cursor: idle workers pull the next
/// unclaimed index, so an expensive task never blocks the queue behind
/// it. Each worker stashes `(index, result)` pairs locally; the merge
/// into ordered slots happens after the join. Task results therefore
/// depend only on the task index — never on the schedule — which is what
/// makes the batch engine bit-identical across thread counts.
fn run_indexed<T, F>(threads: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(threads, n, || (), |(), i| task(i))
}

/// [`run_indexed`] with per-worker mutable state: `init` runs once on
/// each worker (and once on the serial path) and the resulting state is
/// passed to every task that worker claims. Used to give each sweep
/// worker its own [`FoldSystem`] and each solve worker its own
/// [`MapScratch`], so scratch buffers are reused across tasks without
/// any cross-thread sharing. Determinism is unaffected: every
/// workspace-filling kernel fully overwrites its output, so a task's
/// result never depends on which worker (or how warm a workspace) ran
/// it.
fn run_indexed_with<S, T, I, F>(threads: usize, n: usize, init: I, task: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| task(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, task(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // A worker can only panic if a task panicked; re-raise the
            // original payload on the caller's thread instead of masking
            // it behind a generic join error.
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in collected.drain(..).flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        // The atomic cursor hands out each index in 0..n exactly once, so
        // every slot is filled by construction.
        // bmf-lint: allow(panic-reachability) -- the atomic cursor fills every slot; an empty one is unreachable by construction
        .map(|s| s.unwrap_or_else(|| unreachable!("every task index is claimed exactly once")))
        .collect()
}

/// Unwraps a task-ordered result list, returning the error of the
/// lowest-indexed failed task (deterministic under any schedule).
fn first_error<T>(results: Vec<Result<T>>) -> Result<Vec<T>> {
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_estimate::SweepKernel;
    use bmf_stat::prop::vec_in;
    use bmf_stat::rng::Rng;

    /// An OMP-like prior: most entries exactly zero (on the floor), a
    /// few of unit scale, `missing` absent.
    fn sparse_prior(rng: &mut Rng, m: usize, missing: &[usize]) -> Prior {
        let early = (0..m)
            .map(|j| {
                let v = if rng.gen_index(6) == 0 {
                    rng.gen_range(-2.0..2.0)
                } else {
                    0.0
                };
                (!missing.contains(&j)).then_some(v)
            })
            .collect();
        Prior::new(PriorKind::NonZeroMean, early)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn floor_grams_keep_their_bits_at_any_pool_size() {
        let mut shared = 0;
        bmf_stat::prop::check("floor grams: same bits at 1, 2, 5 workers", 24, |rng| {
            let k = 1 + rng.gen_index(24);
            let m = 8 + rng.gen_index(64);
            let g = Matrix::from_row_major(k, m, vec_in(rng, -2.0, 2.0, k * m)).unwrap();
            let z1: Vec<usize> = (0..rng.gen_index(4)).map(|_| rng.gen_index(m)).collect();
            let z2: Vec<usize> = (0..1 + rng.gen_index(4))
                .map(|_| rng.gen_index(m))
                .collect();
            let patterns = [
                sparse_prior(rng, m, &z1),
                sparse_prior(rng, m, &z1),
                sparse_prior(rng, m, &z2),
            ];
            let terms: Vec<PriorTerms> = patterns
                .iter()
                .map(|p| PriorTerms::new(g.as_view(), p).unwrap())
                .collect();
            let sets: Vec<&[usize]> = terms.iter().map(PriorTerms::missing).collect();
            let want: Vec<Vec<u64>> = floor_grams(&g, &sets, 1)
                .unwrap()
                .iter()
                .map(bits)
                .collect();
            for threads in [2, 5] {
                let got: Vec<Vec<u64>> = floor_grams(&g, &sets, threads)
                    .unwrap()
                    .iter()
                    .map(bits)
                    .collect();
                assert_eq!(got, want, "bits moved at {threads} workers");
            }
            // The one-pattern build runs the same kernel in one band.
            for ((p, t), gram) in patterns.iter().zip(&terms).zip(&want) {
                if t.uses_floor_gram() {
                    let alone = SweepKernel::new(g.as_view(), p).unwrap();
                    assert_eq!(&bits(&alone.base), gram);
                    shared += 1;
                }
            }
        });
        assert!(shared > 0, "no pattern read the floor gram");
    }

    #[test]
    fn equal_area_bands_cover_the_rows_in_order() {
        for k in [0usize, 1, 2, 7, 300] {
            for n in [1usize, 2, 3, 5, 16] {
                let bands = equal_area_bands(k, n);
                assert!(!bands.is_empty() && bands.len() <= n.max(1));
                assert_eq!(bands[0].start, 0);
                assert_eq!(bands.last().map(|b| b.end), Some(k));
                for w in bands.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
        // Two bands of a 300-row triangle split its 45 150 entries
        // within two rows' worth: the cut overshoots by under a row.
        let bands = equal_area_bands(300, 2);
        let area = |r: &Range<usize>| r.clone().map(|i| 300 - i).sum::<usize>();
        assert!(area(&bands[0]).abs_diff(area(&bands[1])) <= 2 * 300);
    }

    #[test]
    fn run_indexed_preserves_task_order() {
        for threads in [1, 2, 5, 16] {
            let out = run_indexed(threads, 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn first_error_picks_lowest_index() {
        let r: Result<Vec<i32>> = first_error(vec![
            Ok(1),
            Err(BmfError::config("grid", "a")),
            Err(BmfError::config("folds", "b")),
        ]);
        assert!(matches!(
            r,
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
    }

    #[test]
    fn empty_batch_is_a_config_error() {
        let basis = OrthonormalBasis::linear(2);
        let err = BatchFitter::new(basis).fit(&[vec![0.0, 0.0]]).unwrap_err();
        assert!(matches!(
            err,
            BmfError::Config {
                parameter: "jobs",
                ..
            }
        ));
    }

    #[test]
    fn job_shape_errors_name_the_job() {
        let basis = OrthonormalBasis::linear(2);
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let bad_prior = BatchFitter::new(basis.clone())
            .job(BatchJob::new("g", vec![Some(1.0)], vec![1.0, 2.0]))
            .fit(&points)
            .unwrap_err();
        assert!(matches!(bad_prior, BmfError::PriorShape { .. }));
        let bad_values = BatchFitter::new(basis)
            .job(BatchJob::new("g", vec![Some(1.0); 3], vec![1.0]))
            .fit(&points)
            .unwrap_err();
        match bad_values {
            BmfError::SampleShape { detail } => assert!(detail.contains("`g`")),
            e => panic!("expected SampleShape, got {e:?}"),
        }
    }
}
