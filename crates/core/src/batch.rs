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
//!   on the prior floor, as an OMP early model's do;
//! * the Woodbury kernel — `B_F = c₀·Γ + G_S·diag(a⁻¹_S − c₀)·G_Sᵀ`,
//!   Θ(K²|S|) over the few entries above the floor `c₀`, or for a dense
//!   prior `G·diag(A⁻¹)·Gᵀ` directly — and each fold's sample-space
//!   system depend only on the *normalized prior values*: jobs whose
//!   priors coincide after normalization share them exactly; the kernel,
//!   built over all K rows, serves every fold as a sub-block read
//!   through the fold's rows.
//!
//! [`BatchFitter`] evaluates the design matrix once, builds each floor
//! gram once (in row bands every worker shares) and each distinct prior
//! pattern's kernel once, and dispatches the remaining work — one sweep
//! per `(pattern, fold)` that builds the fold's sample-space system once
//! and evaluates every `(hyper, family)` cell of every job of that
//! pattern against it, one full-data system per missing-prior pattern,
//! then per-job reduction and the final solve (that system's
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
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bmf_basis::basis::OrthonormalBasis;
use bmf_linalg::view::{mirror_upper_into, outer_gram_diag_band_into};
use bmf_linalg::{Matrix, Vector};

use crate::fusion::{response_scale, BmfFit, FitCounters, ResilienceReport};
use crate::hyper::{reduce_outcomes, FoldErrors, FoldPlan};
use crate::map_estimate::{
    finite_indicator, map_estimate_ws, FoldSystem, PriorTerms, SolverKind, SweepKernel,
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
    /// set, one row band per worker, then one task per distinct prior
    /// pattern forming its kernel over all K rows from its gram, which
    /// every fold then indexes.
    pub kernels: Duration,
    /// Cross-validation sweeps (parallel; one task per
    /// `(prior pattern, fold)` pair, which builds the fold's
    /// sample-space system once and covers every `(hyper, family)` cell
    /// of every job of that pattern), plus, for the fast solver, one
    /// task per missing-prior pattern building its full-data system.
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
                swept.errors[pi * num_folds + fi]
                    .as_deref()
                    .map(|e| &e[slot * per_job..(slot + 1) * per_job])
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
                    let system = system.as_ref().map_err(Clone::clone)?;
                    let (f, hyper) = (job.f.as_slice(), selection.hyper);
                    system.solve(g.as_view(), &swept.terms[pi], f, hyper, selection.kind)?
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

/// What [`sweep`] leaves for the final solves.
pub(crate) struct Swept {
    /// The error tables, pattern-major (`[pattern · folds + fold]`),
    /// `None` for a fold unusable for the pattern.
    pub(crate) errors: Vec<Option<FoldErrors>>,
    /// Each pattern's hyper-independent prior quantities.
    pub(crate) terms: Vec<PriorTerms>,
    /// Each pattern's full-data system when it was asked for and the
    /// prior misses a column (the build's error, for that pattern's jobs
    /// to report), `None` otherwise.
    pub(crate) full: Vec<Option<Result<FoldSystem>>>,
    /// Wall time of the kernel phase.
    pub(crate) kernels_time: Duration,
    /// Wall time of the sweep phase.
    pub(crate) sweep_time: Duration,
}

/// One task of the sweep phase.
enum SweepTask {
    /// A `(pattern, fold)` sweep.
    Cells(Option<FoldErrors>),
    /// A pattern's full-data system (boxed: it is the large variant).
    Full(Box<Result<FoldSystem>>),
}

/// The engine's kernel and sweep phases, which the cross-validation
/// entry points also call with one pattern. Phase 2 builds one floor
/// gram per finite-column set, split into row bands that every worker
/// shares, then each pattern's kernel over all K rows from its gram
/// ([`PriorTerms::kernel`]); phase 3 runs one sweep per
/// `(pattern, fold)`, which builds the fold system once for every
/// response of its pattern, each worker reusing its own [`FoldSystem`].
/// With `full` set, phase 3 also builds the full-data system of every
/// pattern whose prior misses a column, for the fast final solve.
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
    // Patterns that read a floor gram, grouped by missing columns in
    // first-occurrence order: one gram per group.
    let mut sets: Vec<&[usize]> = Vec::new();
    let set_of: Vec<Option<usize>> = terms
        .iter()
        .map(|t| {
            let z = t.missing();
            let si = sets.iter().position(|&s| s == z);
            t.uses_floor_gram().then(|| {
                si.unwrap_or_else(|| {
                    sets.push(z);
                    sets.len() - 1
                })
            })
        })
        .collect();
    let grams = floor_grams(g, &sets, threads)?;
    let b_f = run_indexed(threads, patterns.len(), |pi| {
        terms[pi].kernel(g.as_view(), set_of[pi].map(|si| &grams[si]))
    });
    drop(grams);
    let kernels: Vec<SweepKernel> = terms
        .into_iter()
        .zip(first_error(b_f)?)
        .map(|(terms, b_f)| SweepKernel { terms, b_f })
        .collect();
    let kernels_time = t1.elapsed();

    // Full-data systems first: each is a fold's work over every row, so
    // starting them early balances the pool.
    let t2 = Instant::now();
    let num_folds = plan.folds.len();
    let needs_full: Vec<usize> = (0..patterns.len())
        .filter(|&pi| full && !kernels[pi].terms.missing().is_empty())
        .collect();
    let tasks = run_indexed_with(
        threads,
        needs_full.len() + patterns.len() * num_folds,
        FoldSystem::default,
        |fold_system, task| {
            if let Some(&pi) = needs_full.get(task) {
                let system = FoldSystem::full(g.as_view(), &kernels[pi]);
                return Ok(SweepTask::Full(Box::new(system)));
            }
            let task = task - needs_full.len();
            let (pi, fi) = (task / num_folds, task % num_folds);
            let (kernel, responses) = (&kernels[pi], &patterns[pi].1);
            fold_system
                .sweep(g, kernel, &plan.folds[fi], responses, grid, kinds)
                .map(SweepTask::Cells)
        },
    );
    let mut swept = Swept {
        errors: Vec::with_capacity(patterns.len() * num_folds),
        terms: Vec::new(),
        full: (0..patterns.len()).map(|_| None).collect(),
        kernels_time,
        sweep_time: Duration::ZERO,
    };
    let mut full_of = needs_full.iter();
    for task in first_error(tasks)? {
        match task {
            SweepTask::Full(system) => {
                if let Some(&pi) = full_of.next() {
                    swept.full[pi] = Some(*system);
                }
            }
            SweepTask::Cells(cells) => swept.errors.push(cells),
        }
    }
    swept.terms = kernels.into_iter().map(|k| k.terms).collect();
    swept.sweep_time = t2.elapsed();
    Ok(swept)
}

/// The floor gram `Γ = G·diag(1_F)·Gᵀ` of every finite-column set, each
/// given by its missing columns. Each gram is split into equal-area row
/// bands of its upper triangle, one per worker; every band task writes
/// its rows of the one gram, and the lower triangle is mirrored after
/// the join. Each entry is one sequential `dot3` sum, so no bit depends
/// on the split or the thread count.
fn floor_grams(g: &Matrix, sets: &[&[usize]], threads: usize) -> Result<Vec<Matrix>> {
    let (k, m) = g.shape();
    let bands = equal_area_bands(k, threads);
    let weights: Vec<Vec<f64>> = sets.iter().map(|z| finite_indicator(m, z)).collect();
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
        outer_gram_diag_band_into(g.as_view(), &weights[*si], rows.clone(), &mut band)?;
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
        // bmf-lint: allow(no-panic-paths) -- the atomic cursor fills every slot; an empty one is unreachable by construction
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
    use bmf_linalg::view::outer_gram_diag_into;
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

    /// The kernel without the floor gram: `G·diag(A_F⁻¹)·Gᵀ`, with
    /// `A⁻¹ = 0` on the missing columns.
    fn direct_kernel(g: &Matrix, prior: &Prior) -> Matrix {
        let a_inv: Vec<f64> = prior
            .precisions(1.0)
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let mut out = Matrix::zeros(g.nrows(), g.nrows());
        outer_gram_diag_into(g.as_view(), &a_inv, out.as_view_mut()).unwrap();
        out
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernel_oracle_floor_gram_kernels_match_direct_kernels() {
        // Patterns on the direct path, and on the floor-gram path.
        let mut path_hits = [0usize; 2];
        bmf_stat::prop::check("floor-gram kernels == direct kernels", 24, |rng| {
            let k = 1 + rng.gen_index(24);
            let m = 8 + rng.gen_index(64);
            let g = Matrix::from_row_major(k, m, vec_in(rng, -2.0, 2.0, k * m)).unwrap();
            let z1: Vec<usize> = (0..rng.gen_index(4)).map(|_| rng.gen_index(m)).collect();
            let z2: Vec<usize> = (0..1 + rng.gen_index(4))
                .map(|_| rng.gen_index(m))
                .collect();
            // Dense: distinct magnitudes, no entry on the floor.
            let dense: Vec<Option<f64>> = (0..m)
                .map(|j| (!z1.contains(&j)).then(|| rng.gen_range(0.1..3.0)))
                .collect();
            let patterns = [
                sparse_prior(rng, m, &z1),
                sparse_prior(rng, m, &z2),
                Prior::new(PriorKind::NonZeroMean, dense),
                // Degenerate: every entry zero, so every precision is 0.
                Prior::from_coeffs(PriorKind::NonZeroMean, &vec![0.0; m]),
                // No finite column at all.
                Prior::new(PriorKind::NonZeroMean, vec![None; m]),
            ];
            let terms: Vec<PriorTerms> = patterns
                .iter()
                .map(|p| PriorTerms::new(g.as_view(), p).unwrap())
                .collect();
            // Every pattern gets the floor gram of its missing columns,
            // whether or not its kernel reads it.
            let mut sets: Vec<&[usize]> = Vec::new();
            let set_of: Vec<usize> = terms
                .iter()
                .map(|t| {
                    let z = t.missing();
                    sets.iter().position(|&s| s == z).unwrap_or_else(|| {
                        sets.push(z);
                        sets.len() - 1
                    })
                })
                .collect();
            // (gram bits, kernel bits) at the first worker count.
            type Bits = (Vec<Vec<u64>>, Vec<Vec<u64>>);
            let mut first: Option<Bits> = None;
            for threads in [1, 2, 5] {
                let grams = floor_grams(&g, &sets, threads).unwrap();
                let kernels: Vec<Matrix> = terms
                    .iter()
                    .zip(&set_of)
                    .map(|(t, &si)| t.kernel(g.as_view(), Some(&grams[si])).unwrap())
                    .collect();
                let got = (
                    grams.iter().map(bits).collect(),
                    kernels.iter().map(bits).collect(),
                );
                match &first {
                    None => first = Some(got),
                    Some(want) => assert_eq!(&got, want, "bits moved at {threads} workers"),
                }
                if threads > 1 {
                    continue;
                }
                for (p, kernel) in patterns.iter().zip(&kernels) {
                    // The one-pattern build runs the same arithmetic.
                    let alone = SweepKernel::new(g.as_view(), p).unwrap();
                    assert_eq!(bits(&alone.b_f), bits(kernel));
                    let want = direct_kernel(&g, p);
                    let scale = want.as_slice().iter().fold(0.0f64, |s, x| s.max(x.abs()));
                    for (x, y) in kernel.as_slice().iter().zip(want.as_slice()) {
                        assert!((x - y).abs() <= 1e-13 * scale, "{x} vs {y} (max {scale})");
                    }
                }
            }
            // The sparse priors read the gram, the dense one does not.
            for (t, want) in terms.iter().zip([true, true, false, false, false]) {
                if t.uses_floor_gram() == want {
                    path_hits[usize::from(want)] += 1;
                }
            }
        });
        assert!(
            path_hits.iter().all(|&n| n > 0),
            "a kernel path went untested"
        );
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
