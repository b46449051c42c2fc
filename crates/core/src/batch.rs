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
//! * the floor gram `Γ = G·diag(1_F)·Gᵀ`, Θ(K²M), depends only on the
//!   points and the prior's *missing columns*: one per finite-column set
//!   serves every prior pattern with that set whose entries mostly sit
//!   on the prior floor, as an OMP early model's do, since such a
//!   pattern's Woodbury kernel is `c₀·Γ + G_S·diag(a⁻¹_S − c₀)·G_Sᵀ`
//!   over its few entries above the floor `c₀`;
//! * the *base* — the QR of the missing columns, the congruence `QᵀΓQ`
//!   and `Nᵀ` — depends only on the gram and the missing columns, so
//!   every pattern on the gram shares it and adds only its own rank-|S|
//!   term; a dense prior's kernel `G·diag(A⁻¹)·Gᵀ` is its own base;
//! * each pattern's full-data sample-space system, which both the
//!   leave-one-out selection and the final solve read, depends only on
//!   the *normalized prior values*: jobs whose priors coincide after
//!   normalization share it exactly.
//!
//! [`BatchFitter`] evaluates the design matrix once, builds each floor
//! gram once (in row bands every worker shares) and each dense pattern's
//! kernel once, and dispatches the selection as one schedule of tasks
//! over a scoped worker pool: per base its QR, congruence and blocks of
//! `Nᵀ`; per pattern its system; per pattern and fixed-size block of rows
//! the block's leave-one-out sums for every `(hyper, family)` cell of
//! every job of the pattern (see [`crate::hyper`]). Then, per job, the
//! reduction and the final solve (the pattern's full-data
//! back-projection, or the Woodbury solve of a fully informed prior).
//!
//! # Determinism
//!
//! Results are **bit-identical for every thread count**, including 1.
//! Workers only compute pure functions of their task inputs and write
//! into per-task slots; the row blocks have a fixed size, and every
//! reduction (the blocks' leave-one-out sums, error propagation, counter
//! totals) happens after the join, in a fixed order. This engine is the only one:
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
//!     .with_options(FitOptions::new().threads(2))
//!     .job(BatchJob::new("gain", vec![Some(1.0), Some(0.5), Some(0.0)], gain))
//!     .job(BatchJob::new("bw", vec![Some(2.0), Some(0.0), Some(-0.3)], bw))
//!     .fit(&points)?;
//! assert_eq!(report.fits.len(), 2);
//! assert_eq!(report.labels[0], "gain");
//! # Ok(())
//! # }
//! ```

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bmf_basis::basis::OrthonormalBasis;
use bmf_linalg::view::{gram_runs_band_into, mirror_upper_into};
use bmf_linalg::{Matrix, Vector};
use bmf_stat::pool::{run_indexed, run_indexed_with};

use crate::fusion::{response_scale, BmfFit, FitCounters, ResilienceReport};
use crate::hyper::{reduce_outcomes, CvOutcome};
use crate::map_estimate::{
    finite_runs, map_estimate_ws, LooSolves, MissingProjection, PatternSystem, PriorTerms,
    SolverKind,
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
    /// Design-matrix evaluation and response normalization (runs once,
    /// serially).
    pub prepare: Duration,
    /// Kernel builds (parallel): the floor gram of each finite-column
    /// set, one row band per worker, and one task per dense prior
    /// pattern forming its own kernel over all K rows.
    pub kernels: Duration,
    /// Leave-one-out selection (parallel; one schedule of tasks): per
    /// base the QR of its missing columns, its congruence and blocks of
    /// `Nᵀ`; per pattern its full-data system; per pattern and block of
    /// rows the block's sums for every `(hyper, family)` cell of every
    /// job of the pattern.
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
/// then runs phase 1 (design matrix, normalization and grouping by
/// prior pattern), [`sweep`], and per job the reduction, the prior choice
/// and the final full-data solve.
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

    // Phase 1 (serial): shared design matrix and per-job normalization.
    let t0 = Instant::now();
    let g = basis.design_matrix(points.iter().map(|p| p.as_slice()));
    let prepared: Vec<PreparedJob> = jobs.iter().map(PreparedJob::new).collect();

    // Group jobs by normalized prior bit-pattern, in first-occurrence
    // order: jobs in one group share the Woodbury kernel and the
    // pattern's system exactly (same `A`, same means). Job `j` is
    // response `place[j].1` of pattern `place[j].0`; response 0 owns the
    // pattern.
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
    let swept = sweep(&g, &patterns, &options.grid, kinds, threads)?;
    (timings.kernels, timings.sweep) = (swept.kernels_time, swept.sweep_time);

    // Phase 4 (parallel): per-job reduction (block order), prior
    // selection, and the final full-data solve.
    let t3 = Instant::now();
    let fits: Vec<Result<BmfFit>> =
        run_indexed_with(threads, prepared.len(), MapScratch::default, |ws, j, _| {
            let job = &prepared[j];
            let (pi, slot) = place[j];
            let loo = ok(&swept.loo[pi])?;
            let outcomes = loo.outcomes(slot, &options.grid, kinds.len())?;
            // One solve per solved cell; the first job of each pattern
            // built its system, later jobs reused it.
            let built = usize::from(slot == 0);
            let mut counters = FitCounters {
                map_solves: outcomes.iter().map(|o| o.errors.len()).sum(),
                kernels_built: built,
                kernel_cache_misses: built,
                kernel_cache_hits: 1 - built,
                ..FitCounters::default()
            };
            let selection = decide(options.selection, outcomes)?;
            // A missing prior back-projects its pattern's full-data
            // system, as `map_estimate`'s fast solver does; any other
            // final solve is `map_estimate`'s own.
            let (alpha, final_res) = match (&loo.full, options.solver) {
                (Some((base, system)), SolverKind::Fast) => {
                    let (f, hyper, terms) = (job.f.as_slice(), selection.hyper, &swept.terms[pi]);
                    system.solve(g.as_view(), base, terms, f, hyper, selection.kind)?
                }
                _ => {
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

/// Rows per block of the leave-one-out cells. The size is fixed, so the
/// blocks, and the order their sums are added in, do not depend on the
/// pool.
const LOO_BLOCK: usize = 32;

/// One prior pattern's leave-one-out tables.
pub(crate) struct Loo {
    /// Per grid value: whether `T̂ + ηI` factorized.
    solved: Vec<bool>,
    /// Rows, and the rows one held out needs (`|Z| + 1`).
    rows: (usize, usize),
    /// Per block of rows, in block order: per response `[rows held out,
    /// Σf², then per family and grid value Σe²]` (`PatternSystem::loo_block`).
    blocks: Vec<Vec<f64>>,
    /// The full-data system when the prior misses a column, for the fast
    /// final solve, with the projection (the QR of the missing columns)
    /// it shares with the other patterns on its base.
    pub(crate) full: Option<(Arc<MissingProjection>, PatternSystem)>,
}

impl Loo {
    /// The leave-one-out outcomes of response `r`, one per family.
    pub(crate) fn outcomes(&self, r: usize, grid: &[f64], kinds: usize) -> Result<Vec<CvOutcome>> {
        let width = 2 + kinds * grid.len();
        let blocks = self.blocks.iter().map(|b| &b[r * width..(r + 1) * width]);
        reduce_outcomes(grid, kinds, &self.solved, self.rows, blocks)
    }
}

/// What [`sweep`] leaves for the final solves.
pub(crate) struct Swept {
    /// Per pattern: its leave-one-out tables, or the error that stopped
    /// its base or system.
    pub(crate) loo: Vec<Result<Loo>>,
    /// Each pattern's hyper-independent prior quantities.
    pub(crate) terms: Vec<PriorTerms>,
    /// Wall time of the kernel phase.
    pub(crate) kernels_time: Duration,
    /// Wall time of the selection phase.
    pub(crate) sweep_time: Duration,
}

/// One base of the sweep: the floor gram of a finite-column set, which
/// every pattern using the floor gram with those missing columns shares,
/// or a dense pattern's own kernel.
struct Base<'a> {
    missing: &'a [usize],
    floor: bool,
    /// The first pattern built on it.
    first: usize,
}

/// One task of the selection phase: what it leaves for the tasks after
/// it.
enum Step {
    /// A base's kernel turned into its congruence `QᵀBQ`.
    Congruence(Result<Matrix>),
    /// One block of a base's `Nᵀ` columns, with its usable rows.
    Block(Result<(Vec<f64>, Vec<bool>)>),
    /// A pattern's full-data system and per-grid-value solves.
    System(Result<(PatternSystem, LooSolves)>),
    /// One block of a pattern's leave-one-out sums.
    Sums(Result<Vec<f64>>),
}

/// A borrowed result, its error cloned.
fn ok<T>(r: &Result<T>) -> Result<&T> {
    r.as_ref().map_err(Clone::clone)
}

/// The engine's kernel and selection phases, which the cross-validation
/// entry points also call with one pattern. Patterns are grouped into
/// bases: the floor gram of each finite-column set serves every pattern
/// that uses the floor gram with those missing columns, and any other
/// pattern is its own base, its own kernel. Phase 2 builds each floor
/// gram in row bands that every worker shares, and each own kernel as
/// one task. Phase 3 selects by leave-one-out on each pattern's
/// full-data system (see [`crate::hyper`]): each base's QR of its
/// missing columns ([`MissingProjection::new`]) on the calling thread,
/// then one schedule over the pool in which a task waits for the earlier
/// tasks it reads — per base its congruence and, per fixed-size block of
/// rows, that block of `Nᵀ` ([`MissingProjection::n_block`]); per
/// pattern its system and per-grid-value solves ([`PatternSystem::full`],
/// [`PatternSystem::loo_solves`]); per pattern and block the block of `Ψ`
/// and its sums ([`PatternSystem::loo_block`]). A worker takes the next
/// task while another builds a congruence or reduces a system, so both
/// workers of a two-thread pool stay busy.
pub(crate) fn sweep(
    g: &Matrix,
    patterns: &[Pattern<'_>],
    grid: &[f64],
    kinds: &[PriorKind],
    threads: usize,
) -> Result<Swept> {
    let t1 = Instant::now();
    let terms = run_indexed(threads, patterns.len(), |pi| {
        PriorTerms::new(g.as_view(), patterns[pi].0)
    });
    let terms = first_error(terms)?;
    let mut bases: Vec<Base<'_>> = Vec::new();
    let mut base_of = Vec::with_capacity(terms.len());
    for (pi, t) in terms.iter().enumerate() {
        let floor = t.uses_floor_gram();
        let shared = bases
            .iter()
            .position(|b| floor && b.floor && b.missing == t.missing());
        base_of.push(shared.unwrap_or_else(|| {
            let missing = t.missing();
            bases.push(Base {
                missing,
                floor,
                first: pi,
            });
            bases.len() - 1
        }));
    }
    let sets: Vec<&[usize]> = bases
        .iter()
        .filter(|b| b.floor)
        .map(|b| b.missing)
        .collect();
    let mut grams = floor_grams(g, &sets, threads)?.into_iter();
    let own = run_indexed(threads, bases.len(), |bi| {
        let base = &bases[bi];
        (!base.floor)
            .then(|| terms[base.first].own_kernel(g.as_view()))
            .transpose()
    });
    let kernels: Vec<Mutex<Matrix>> = first_error(own)?
        .into_iter()
        .map(|own| own.or_else(|| grams.next()).map(Mutex::new))
        .collect::<Option<_>>()
        .ok_or(BmfError::Internal {
            detail: "a sweep base has no kernel",
        })?;
    let kernels_time = t1.elapsed();

    let t2 = Instant::now();
    let k = g.nrows();
    let blocks: Vec<Range<usize>> = (0..k)
        .step_by(LOO_BLOCK)
        .map(|start| start..k.min(start + LOO_BLOCK))
        .collect();
    let (nb, np, nbase) = (blocks.len(), patterns.len(), bases.len());
    let projections: Vec<Result<MissingProjection>> = bases
        .iter()
        .map(|b| MissingProjection::new(g.as_view(), b.missing))
        .collect();
    // The schedule's sections, in task order.
    let (nblk, sys, sums) = (nbase, (1 + nb) * nbase, (1 + nb) * nbase + np);
    let lost = || BmfError::Internal {
        detail: "a selection task lost its input",
    };
    let steps = run_indexed_with(threads, sums + np * nb, Vec::new, |scratch, task, done| {
        if task < nblk {
            return Step::Congruence(ok(&projections[task]).and_then(|base| {
                let mut kernel = kernels[task].lock().map_err(|_| lost())?;
                let mut kernel = std::mem::take(&mut *kernel);
                base.congruence(&mut kernel)?;
                Ok(kernel)
            }));
        }
        if task < sys {
            let (bi, b) = ((task - nblk) / nb, (task - nblk) % nb);
            let base = ok(&projections[bi]);
            return Step::Block(base.and_then(|base| base.n_block(blocks[b].clone(), scratch)));
        }
        if task < sums {
            let (pi, bi) = (task - sys, base_of[task - sys]);
            let (t, f) = (&terms[pi], &patterns[pi].1);
            return Step::System(ok(&projections[bi]).and_then(|base| {
                let Some(Step::Congruence(cb)) = done.wait(bi) else {
                    return Err(lost());
                };
                let system = PatternSystem::full(g.as_view(), base, ok(cb)?, t)?;
                let solves = system.loo_solves(base, t, f, grid, kinds)?;
                Ok((system, solves))
            }));
        }
        let (pi, b) = ((task - sums) / nb, (task - sums) % nb);
        let (Some(Step::System(system)), Some(Step::Block(block))) =
            (done.wait(sys + pi), done.wait(nblk + base_of[pi] * nb + b))
        else {
            return Step::Sums(Err(lost()));
        };
        Step::Sums(ok(system).and_then(|(system, solves)| {
            let (n_block, usable) = ok(block)?;
            let (cols, responses) = (blocks[b].clone(), &patterns[pi].1);
            let block = (n_block.as_slice(), usable.as_slice());
            system.loo_block(solves, block, cols, responses, kinds.len(), scratch)
        }))
    });
    // A base that misses a column keeps its projection for the final
    // solves of its patterns.
    let projections: Vec<Option<Result<Arc<MissingProjection>>>> = projections
        .into_iter()
        .zip(&bases)
        .map(|(p, base)| (!base.missing.is_empty()).then(|| p.map(Arc::new)))
        .collect();
    let mut steps = steps.into_iter().skip(sys);
    let systems: Vec<Step> = steps.by_ref().take(np).collect();
    let loo = systems
        .into_iter()
        .enumerate()
        .map(|(pi, system)| {
            // Take every block of the pattern before any error returns.
            let (mut blocks, mut failed) = (Vec::with_capacity(nb), None);
            for step in steps.by_ref().take(nb) {
                match step {
                    Step::Sums(Ok(sums)) => blocks.push(sums),
                    Step::Sums(Err(e)) => failed = failed.or(Some(e)),
                    _ => failed = failed.or_else(|| Some(lost())),
                }
            }
            if let Some(e) = failed {
                return Err(e);
            }
            let Step::System(system) = system else {
                return Err(lost());
            };
            let (system, solves) = system?;
            let full = match &projections[base_of[pi]] {
                Some(base) => Some((Arc::clone(ok(base)?), system)),
                None => None,
            };
            Ok(Loo {
                solved: solves.solved,
                rows: (k, terms[pi].missing().len() + 1),
                blocks,
                full,
            })
        })
        .collect();
    Ok(Swept {
        loo,
        terms,
        kernels_time,
        sweep_time: t2.elapsed(),
    })
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
