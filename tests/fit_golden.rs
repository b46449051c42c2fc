//! Golden pin of the BMF-PS fit path: two seeded wide problems (K = 60
//! samples, M = 400 linear terms), one whose priors leave 10 terms
//! missing (augmented LU Woodbury core in the final solve) and one fully
//! informed (Cholesky core), each fitted through `BmfFitter::fit` and
//! through a 3-job `BatchFitter::fit` at one and two threads.
//!
//! Every fit is folded into two FNV-1a hashes. The full hash covers the
//! bits of its coefficients, the chosen hyper-parameter, the CV error,
//! both families' CV curves, the chosen prior family and every
//! `FitCounters` field; it was last recorded when the cross-validation
//! sweep moved to the sample-space tridiagonal system, which changes the
//! CV curves at rounding level. The pick hash covers the same fits
//! without any CV error; it was recorded before that change and held
//! through it, so the (family, hyper-parameter) picks, the final
//! coefficients and the work counters were untouched. A change that
//! alters any output bit or any work counter fails here.
//!
//! Each problem has one constant pair. `BmfFitter::fit` is a one-job run
//! of the batch engine, so serial ≡ batch holds by construction: the
//! three serial fits hash to the batch constants, kernel-cache misses
//! included (a single fit counts one miss per usable fold, as the first
//! job of each prior pattern in a batch does).

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::{BmfFit, BmfFitter};
use bmf_core::hyper::CvOutcome;
use bmf_core::options::FitOptions;
use bmf_core::prior::PriorKind;
use bmf_stat::fnv::fnv1a_u64;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

const K: usize = 60;
const VARS: usize = 399;
const JOBS: usize = 3;
const MISSING_PER_JOB: usize = 10;

/// Hash of the three fits of the missing-prior problem.
const MISSING_BATCH: u64 = 0x0131_965a_7825_fa54;
/// Hash of the three fits of the fully informed problem.
const INFORMED_BATCH: u64 = 0xa5f7_b6a6_a48f_0727;

/// Pick hashes: the same fits over their coefficients, chosen family,
/// chosen hyper-parameter and `FitCounters` only, leaving out every CV
/// error. A sweep that moves the CV curves at rounding level, but picks
/// the same (family, hyper-parameter) and does the same work, keeps them.
const MISSING_BATCH_PICKS: u64 = 0xc534_e29a_f3a4_b355;
const INFORMED_BATCH_PICKS: u64 = 0x69e2_5182_a166_c63c;

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

/// Folds fits into their (full, pick) hash pair.
fn hash_fits<'a>(fits: impl IntoIterator<Item = &'a BmfFit>) -> (u64, u64) {
    fits.into_iter().fold((0, 0), |(full, picks), fit| {
        (hash_fit(full, fit), hash_picks(picks, fit))
    })
}

fn serial_hash(p: &Problem) -> (u64, u64) {
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

fn batch_hash(p: &Problem, threads: usize) -> (u64, u64) {
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

/// Checks the serial fits and the batch at one and two threads against
/// the one constant pair; the pick hashes first, so a fit whose
/// (family, hyper-parameter) pick or work counters moved is reported as
/// such rather than as a CV-curve change.
fn check(p: &Problem, (full, picks): (u64, u64)) {
    let (serial_full, serial_picks) = serial_hash(p);
    assert_eq!(serial_picks, picks, "serial BmfFitter::fit pick hash");
    assert_eq!(serial_full, full, "serial BmfFitter::fit hash");
    for threads in [1, 2] {
        let (batch_full, batch_picks) = batch_hash(p, threads);
        assert_eq!(batch_picks, picks, "batch pick hash at {threads} threads");
        assert_eq!(batch_full, full, "batch hash at {threads} threads");
    }
}

#[test]
fn missing_prior_fits_match_golden_bits() {
    let p = problem(0x5EED_0001, MISSING_PER_JOB);
    let missing = p.jobs[0].0.iter().filter(|e| e.is_none()).count();
    assert_eq!(missing, MISSING_PER_JOB);
    check(&p, (MISSING_BATCH, MISSING_BATCH_PICKS));
}

#[test]
fn fully_informed_fits_match_golden_bits() {
    let p = problem(0x5EED_0002, 0);
    assert!(p
        .jobs
        .iter()
        .all(|(early, _)| early.iter().all(Option::is_some)));
    check(&p, (INFORMED_BATCH, INFORMED_BATCH_PICKS));
}
