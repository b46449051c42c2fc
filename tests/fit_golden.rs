//! Golden pin of the BMF-PS fit path: three seeded wide problems (K = 60
//! samples, M = 400 linear terms), each fitted through `BmfFitter::fit`
//! and through a 3-job `BatchFitter::fit` at one, two and five threads:
//!
//! * one whose dense priors each leave a different stride of 10 terms
//!   missing (sample-space final solve: the back-projection of the
//!   pattern's full-data system), so every pattern is its own base;
//! * one fully informed (Woodbury Cholesky core);
//! * one whose three OMP-like priors sit mostly on their floor and all
//!   miss the same 10 columns, so the three patterns share one floor
//!   gram and one base (the QR of the missing columns and the gram's
//!   congruence).
//!
//! Every fit is folded into three FNV-1a hashes:
//!
//! * the full hash: the bits of its coefficients, the chosen
//!   hyper-parameter, the CV error, both families' CV curves, the chosen
//!   prior family and every `FitCounters` field;
//! * the pick hash: the same without any CV error;
//! * the choice hash: the chosen family, the hyper-parameter bits and
//!   every `FitCounters` field, with no coefficient and no CV error.
//!
//! Every hash was re-pinned once when the hyper-parameter selection
//! moved from five per-fold systems to exact leave-one-out on each prior
//! pattern's full-data system: the CV curves are leave-one-out errors,
//! each fit builds one system per pattern (one kernel build or cache hit
//! instead of one per fold), and two of the nine fits pick another η
//! (the fully informed problem's first job 1e-3 → 3.16e-3, the
//! shared-base problem's second 0.316 → 1). The seven fits whose
//! (family, η) held kept their coefficients bit for bit, since the final
//! solves did not change. A change that alters any output bit or any
//! work counter fails here.
//!
//! Three oracles pin the final solve itself: every fit's coefficients
//! equal `map_estimate`'s bit for bit (with sparsified priors too, which
//! read the floor gram), so do the shared-base batch's, whose patterns
//! share their bases while `map_estimate` builds each alone, and the
//! missing-prior fast solver agrees with the direct one within 1e-10.
//!
//! `BmfFitter::fit` is a one-job run of the batch engine, so serial ≡
//! batch holds by construction: the three serial fits hash to the batch
//! constants, kernel-cache misses included (a single fit counts one miss
//! for its pattern's system, as the first job of each prior pattern in a
//! batch does).

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::{response_scale, BmfFit, BmfFitter};
use bmf_core::hyper::CvOutcome;
use bmf_core::map_estimate::{map_estimate, SolverKind};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_linalg::Vector;
use bmf_stat::fnv::fnv1a_u64;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

const K: usize = 60;
const VARS: usize = 399;
const JOBS: usize = 3;
const MISSING_PER_JOB: usize = 10;
/// Columns every job of the shared-base problem misses.
const SHARED_MISSING: usize = 10;

/// Hash of the three fits of the missing-prior problem.
const MISSING_BATCH: u64 = 0x1a9d_1c33_f5f1_7cd0;
/// Hash of the three fits of the fully informed problem.
const INFORMED_BATCH: u64 = 0x263b_2f1d_5c7b_7e1e;

/// Pick hashes: the same fits over their coefficients, chosen family,
/// chosen hyper-parameter and `FitCounters` only, leaving out every CV
/// error. A sweep that moves the CV curves at rounding level, but picks
/// the same (family, hyper-parameter) and does the same work, keeps them.
const MISSING_BATCH_PICKS: u64 = 0xe9bc_769d_33cf_5d2f;
const INFORMED_BATCH_PICKS: u64 = 0x9ecf_76bb_bb8e_8786;

/// Choice hashes: each fit's chosen family, hyper-parameter and
/// `FitCounters`, with no coefficient and no CV error. A change that
/// moves coefficients or CV curves at rounding level, but makes the same
/// choices with the same work, keeps them.
const MISSING_BATCH_CHOICES: u64 = 0x564f_73f2_dd5d_c335;
const INFORMED_BATCH_CHOICES: u64 = 0xcca1_67c5_ced3_d77e;

/// The three hashes of the shared-base problem (see
/// [`shared_base_problem`]).
const SHARED_BATCH: u64 = 0xaef0_fce8_7325_9945;
const SHARED_BATCH_PICKS: u64 = 0x7a61_9b00_bbbe_fb6d;
const SHARED_BATCH_CHOICES: u64 = 0x8dee_73b6_b5bb_5944;

struct Problem {
    points: Vec<Vec<f64>>,
    jobs: Vec<(Vec<Option<f64>>, Vec<f64>)>,
}

fn problem(seed: u64, missing: usize) -> Problem {
    let mut rng = seeded(seed);
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..K).map(|_| normal.sample_vec(&mut rng, VARS)).collect();
    let jobs = (0..JOBS)
        .map(|j| {
            let truth: Vec<f64> = (0..=VARS)
                .map(|i| {
                    let decay = 1.0 / (1.0 + i as f64).powf(1.1);
                    if i == 0 {
                        3.0 + j as f64
                    } else {
                        decay * normal.sample(&mut rng)
                    }
                })
                .collect();
            let values: Vec<f64> = points
                .iter()
                .map(|p| {
                    let clean =
                        truth[0] + p.iter().zip(&truth[1..]).map(|(x, t)| x * t).sum::<f64>();
                    clean + 0.01 * normal.sample(&mut rng)
                })
                .collect();
            // Each job misses a different stride of terms, so every job
            // is its own kernel pattern.
            let early: Vec<Option<f64>> = truth
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let skipped = i > 0 && i % 37 == 3 + j && i / 37 < missing;
                    (!skipped).then_some(t * (1.0 + 0.2 * normal.sample(&mut rng)))
                })
                .collect();
            (early, values)
        })
        .collect();
    Problem { points, jobs }
}

/// Three OMP-like priors over one point set: each keeps the intercept
/// and every seventh term from its own offset, puts every other entry
/// exactly on the floor (zero), and misses the same `SHARED_MISSING`
/// columns, so the three patterns read one floor gram and share one
/// base.
fn shared_base_problem(seed: u64) -> Problem {
    let mut p = problem(seed, 0);
    for (j, (early, _)) in p.jobs.iter_mut().enumerate() {
        for (i, e) in early.iter_mut().enumerate() {
            if i > 0 && i % 37 == 5 && i / 37 < SHARED_MISSING {
                *e = None;
            } else if i > 0 && i % 7 != j {
                *e = e.map(|_| 0.0);
            }
        }
    }
    p
}

fn hash_outcome(mut h: u64, outcome: Option<&CvOutcome>) -> u64 {
    if let Some(o) = outcome {
        for &(hyper, err) in &o.errors {
            h = fnv1a_u64(h, hyper.to_bits());
            h = fnv1a_u64(h, err.to_bits());
        }
    }
    h
}

fn kind_bits(kind: PriorKind) -> u64 {
    match kind {
        PriorKind::ZeroMean => 0,
        PriorKind::NonZeroMean => 1,
    }
}

fn hash_fit(mut h: u64, fit: &BmfFit) -> u64 {
    for c in fit.model.coeffs() {
        h = fnv1a_u64(h, c.to_bits());
    }
    h = fnv1a_u64(h, fit.hyper.to_bits());
    h = fnv1a_u64(h, fit.cv_error.to_bits());
    h = fnv1a_u64(h, kind_bits(fit.prior_kind));
    h = hash_outcome(h, fit.selection.zero_mean.as_ref());
    h = hash_outcome(h, fit.selection.nonzero_mean.as_ref());
    hash_counters(h, fit)
}

fn hash_picks(mut h: u64, fit: &BmfFit) -> u64 {
    for c in fit.model.coeffs() {
        h = fnv1a_u64(h, c.to_bits());
    }
    h = fnv1a_u64(h, fit.hyper.to_bits());
    h = fnv1a_u64(h, kind_bits(fit.prior_kind));
    hash_counters(h, fit)
}

fn hash_choices(mut h: u64, fit: &BmfFit) -> u64 {
    h = fnv1a_u64(h, kind_bits(fit.prior_kind));
    h = fnv1a_u64(h, fit.hyper.to_bits());
    hash_counters(h, fit)
}

fn hash_counters(mut h: u64, fit: &BmfFit) -> u64 {
    let c = &fit.counters;
    for v in [
        c.map_solves,
        c.kernels_built,
        c.kernel_cache_hits,
        c.kernel_cache_misses,
        c.degraded_solves,
        c.ladder_escalations,
        c.lu_fallbacks,
        c.max_ladder_rung as usize,
    ] {
        h = fnv1a_u64(h, v as u64);
    }
    h
}

/// Folds fits into their (full, pick, choice) hashes.
fn hash_fits<'a>(fits: impl IntoIterator<Item = &'a BmfFit>) -> Hashes {
    fits.into_iter()
        .fold((0, 0, 0), |(full, picks, choices), fit| {
            (
                hash_fit(full, fit),
                hash_picks(picks, fit),
                hash_choices(choices, fit),
            )
        })
}

/// `(full, pick, choice)` hashes of a problem's fits.
type Hashes = (u64, u64, u64);

fn serial_hash(p: &Problem) -> Hashes {
    let basis = OrthonormalBasis::linear(VARS);
    let fits: Vec<BmfFit> = p
        .jobs
        .iter()
        .map(|(early, values)| {
            BmfFitter::new(basis.clone(), early.clone())
                .unwrap()
                .fit(&p.points, values)
                .unwrap()
        })
        .collect();
    hash_fits(&fits)
}

fn batch_hash(p: &Problem, threads: usize) -> Hashes {
    let jobs = p
        .jobs
        .iter()
        .map(|(early, values)| BatchJob::new("job", early.clone(), values.clone()))
        .collect();
    let report = BatchFitter::new(OrthonormalBasis::linear(VARS))
        .with_options(FitOptions::new().threads(threads))
        .with_jobs(jobs)
        .fit(&p.points)
        .unwrap();
    hash_fits(&report.fits)
}

/// Checks the serial fits and the batch at one, two and five threads against
/// the problem's constants: the choice hash first, then the pick hash,
/// so a fit whose (family, hyper-parameter) choice or work counters
/// moved is reported as such, and a coefficient change is told apart
/// from a CV-curve change.
fn check(p: &Problem, (full, picks, choices): Hashes) {
    let (serial_full, serial_picks, serial_choices) = serial_hash(p);
    assert_eq!(serial_choices, choices, "serial BmfFitter::fit choice hash");
    assert_eq!(serial_picks, picks, "serial BmfFitter::fit pick hash");
    assert_eq!(serial_full, full, "serial BmfFitter::fit hash");
    for threads in [1, 2, 5] {
        let (batch_full, batch_picks, batch_choices) = batch_hash(p, threads);
        assert_eq!(
            batch_choices, choices,
            "batch choice hash at {threads} threads"
        );
        assert_eq!(batch_picks, picks, "batch pick hash at {threads} threads");
        assert_eq!(batch_full, full, "batch hash at {threads} threads");
    }
}

#[test]
fn missing_prior_fits_match_golden_bits() {
    let p = problem(0x5EED_0001, MISSING_PER_JOB);
    let missing = p.jobs[0].0.iter().filter(|e| e.is_none()).count();
    assert_eq!(missing, MISSING_PER_JOB);
    check(
        &p,
        (MISSING_BATCH, MISSING_BATCH_PICKS, MISSING_BATCH_CHOICES),
    );
}

#[test]
fn fully_informed_fits_match_golden_bits() {
    let p = problem(0x5EED_0002, 0);
    assert!(p
        .jobs
        .iter()
        .all(|(early, _)| early.iter().all(Option::is_some)));
    check(
        &p,
        (INFORMED_BATCH, INFORMED_BATCH_PICKS, INFORMED_BATCH_CHOICES),
    );
}

#[test]
fn shared_base_fits_match_golden_bits() {
    let p = shared_base_problem(0x5EED_0003);
    for (early, _) in &p.jobs {
        let missing: Vec<usize> = (0..early.len()).filter(|&i| early[i].is_none()).collect();
        assert_eq!(missing.len(), SHARED_MISSING);
        assert_eq!(
            missing,
            (0..SHARED_MISSING).map(|r| 37 * r + 5).collect::<Vec<_>>()
        );
        let above = early.iter().flatten().filter(|&&a| a != 0.0).count();
        assert!(4 * above < early.len(), "{above} entries above the floor");
    }
    check(&p, (SHARED_BATCH, SHARED_BATCH_PICKS, SHARED_BATCH_CHOICES));
}

/// An OMP-like copy of `early`: every seventh term kept, the others
/// exactly zero, so they sit on the prior floor and the kernel is formed
/// from the shared floor gram.
fn sparsified(early: &[Option<f64>]) -> Vec<Option<f64>> {
    early
        .iter()
        .enumerate()
        .map(|(i, e)| e.map(|a| if i % 7 == 0 { a } else { 0.0 }))
        .collect()
}

/// The final-solve contract: a fit's coefficients are `map_estimate`'s
/// (fast solver) at the fit's chosen family and hyper-parameter, in the
/// normalized space the fit reports its hyper-parameter in, bit for bit.
/// A missing prior takes the sample-space path in both, a fully informed
/// one the Woodbury core in both. Each prior also runs sparsified, whose
/// kernel reads the floor gram; a two-thread batch, which splits that
/// gram into two row bands, must give the same bits.
#[test]
fn final_solve_equals_map_estimate_bit_for_bit() {
    let basis = OrthonormalBasis::linear(VARS);
    for (seed, missing) in [(0x5EED_0001, MISSING_PER_JOB), (0x5EED_0002, 0)] {
        let p = problem(seed, missing);
        let g = basis.design_matrix(p.points.iter().map(|x| x.as_slice()));
        let (early, values) = &p.jobs[0];
        for early in [early.clone(), sparsified(early)] {
            let fit = BmfFitter::new(basis.clone(), early.clone())
                .unwrap()
                .fit(&p.points, values)
                .unwrap();
            let want = map_estimate_bits(&g, &early, values, &fit);
            assert_eq!(coeff_bits(&fit), want, "missing = {missing}");
            let batch = BatchFitter::new(basis.clone())
                .with_options(FitOptions::new().threads(2))
                .job(BatchJob::new("job", early, values.clone()))
                .fit(&p.points)
                .unwrap();
            let banded = coeff_bits(&batch.fits[0]);
            assert_eq!(banded, want, "two-thread batch, missing = {missing}");
        }
    }
}

/// On the shared-base problem, every fit of one batch, whose three
/// patterns share one base, equals `map_estimate` (which builds
/// its pattern's base alone) at its chosen family and hyper-parameter,
/// bit for bit, at 1, 2 and 5 threads.
#[test]
fn shared_base_batch_equals_map_estimate_bit_for_bit() {
    let basis = OrthonormalBasis::linear(VARS);
    let p = shared_base_problem(0x5EED_0003);
    let g = basis.design_matrix(p.points.iter().map(|x| x.as_slice()));
    let jobs: Vec<BatchJob> = p
        .jobs
        .iter()
        .map(|(early, values)| BatchJob::new("job", early.clone(), values.clone()))
        .collect();
    for threads in [1, 2, 5] {
        let report = BatchFitter::new(basis.clone())
            .with_options(FitOptions::new().threads(threads))
            .with_jobs(jobs.clone())
            .fit(&p.points)
            .unwrap();
        for (j, (fit, (early, values))) in report.fits.iter().zip(&p.jobs).enumerate() {
            let want = map_estimate_bits(&g, early, values, fit);
            assert_eq!(coeff_bits(fit), want, "job {j} at {threads} threads");
        }
    }
}

fn coeff_bits(fit: &BmfFit) -> Vec<u64> {
    fit.model.coeffs().iter().map(|c| c.to_bits()).collect()
}

/// The bits of `map_estimate`'s (fast solver) coefficients for one job
/// at `fit`'s chosen family and hyper-parameter, in the normalized space
/// the fit reports its hyper-parameter in, scaled back.
fn map_estimate_bits(
    g: &bmf_linalg::Matrix,
    early: &[Option<f64>],
    values: &[f64],
    fit: &BmfFit,
) -> Vec<u64> {
    let scale = response_scale(values);
    let f = Vector::from_fn(values.len(), |i| values[i] / scale);
    let prior = Prior::new(
        PriorKind::NonZeroMean,
        early.iter().map(|v| v.map(|a| a / scale)).collect(),
    );
    let alpha = map_estimate(
        g,
        &f,
        &prior.with_kind(fit.prior_kind),
        &FitOptions::new().hyper(fit.hyper),
    )
    .unwrap();
    alpha.iter().map(|a| (a * scale).to_bits()).collect()
}

/// The fast solver of a missing-prior problem agrees with the direct
/// M × M Cholesky solve within 1e-10 relative, for both families over
/// four decades of the hyper-parameter.
#[test]
fn missing_prior_fast_solver_matches_direct() {
    let basis = OrthonormalBasis::linear(VARS);
    let p = problem(0x5EED_0001, MISSING_PER_JOB);
    let g = basis.design_matrix(p.points.iter().map(|x| x.as_slice()));
    let (early, values) = &p.jobs[0];
    let f = Vector::from(values.clone());
    for kind in [PriorKind::ZeroMean, PriorKind::NonZeroMean] {
        let prior = Prior::new(kind, early.clone());
        assert_eq!(prior.num_zero_precision(), MISSING_PER_JOB);
        for hyper in [1e-4, 1e-2, 1.0, 1e2] {
            let opts = FitOptions::new().hyper(hyper);
            let fast = map_estimate(&g, &f, &prior, &opts).unwrap();
            let direct = map_estimate(&g, &f, &prior, &opts.solver(SolverKind::Direct)).unwrap();
            let rel = fast.sub(&direct).unwrap().norm2() / direct.norm2();
            assert!(rel <= 1e-10, "{kind:?} at {hyper}: {rel:e}");
        }
    }
}
