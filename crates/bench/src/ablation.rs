//! Ablation studies and §IV case studies.
//!
//! These go beyond the paper's tables to probe the design choices the
//! paper discusses qualitatively:
//!
//! * [`prior_quality_sweep`] — ZM vs NZM vs PS as the early/late
//!   coefficient agreement degrades (§III-A2's "which prior when"),
//! * [`hyper_sensitivity`] — error vs hyper-parameter, motivating the
//!   cross-validation of §IV-D,
//! * [`selection_rule`] — the engines' leave-one-out selection against
//!   the 5-fold rule it replaced, on the paper's four error tables,
//! * [`solver_scaling`] — direct vs fast MAP solver across M (the §IV-C
//!   600× claim) including an exactness check,
//! * [`prior_mapping_study`] — the multifinger differential pair of
//!   §IV-A end to end,
//! * [`missing_prior_study`] — §IV-B's infinite-variance handling vs
//!   naively ignoring the new basis functions.

use std::time::Instant;

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::diffpair::{DiffPair, DiffPairConfig};
use bmf_circuits::ro::{RingOscillator, RoMetric};
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::sram::SramReadPath;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_circuits::synthetic::{SyntheticCircuit, SyntheticConfig};
use bmf_core::fusion::BmfFitter;
use bmf_core::hyper::{log_grid, CvConfig};
use bmf_core::map_estimate::{map_estimate, MapSweep, SolverKind};
use bmf_core::omp::{fit_omp, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::select::{select_prior, PriorSelection};
use bmf_core::{BmfError, Result};
use bmf_linalg::view::matvec_into;
use bmf_linalg::Vector;
use bmf_stat::crossval::KFold;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};
use bmf_stat::summary::quantile;

use crate::allocs_study::map_problem;
use crate::report::{pct, secs, Report};
use crate::scale::Scale;
use crate::tables::{table_cells, TableCell};
use crate::timing::median_secs;

/// Ablation: prior family accuracy vs early/late coefficient shift.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn prior_quality_sweep(scale: Scale, seed: u64) -> Result<Report> {
    let shifts = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];
    let (early_vars, k) = match scale {
        Scale::Ci => (60, 25),
        _ => (300, 60),
    };
    let mut r = Report::new(
        "ablation-prior",
        "Prior selection vs early/late coefficient agreement",
    );
    r.para(&format!(
        "Synthetic circuit, {early_vars} early variables, K = {k} late samples, exact \
         early coefficients perturbed by a relative shift. Expectation (§III-A2): the \
         nonzero-mean prior wins when the shift is small, the zero-mean prior degrades \
         more gracefully as it grows, and BMF-PS tracks the better of the two.",
    ));
    let mut rows = Vec::new();
    for (si, &shift) in shifts.iter().enumerate() {
        let cfg = SyntheticConfig {
            early_vars,
            extra_late_vars: 5,
            layout_shift_rel: shift,
            ..SyntheticConfig::default()
        };
        let circuit = SyntheticCircuit::new(cfg, derive_seed(seed, si as u64));
        let late_vars = circuit.num_vars(Stage::PostLayout);
        let basis = OrthonormalBasis::linear(late_vars);
        let mut early: Vec<Option<f64>> = circuit
            .true_early_coeffs()
            .iter()
            .map(|&a| Some(a))
            .collect();
        early.extend(std::iter::repeat_n(None, late_vars - early_vars));

        let train = monte_carlo(
            &circuit,
            Stage::PostLayout,
            k,
            derive_seed(seed, 50 + si as u64),
        )
        .expect("simulation succeeds");
        let test = monte_carlo(
            &circuit,
            Stage::PostLayout,
            300,
            derive_seed(seed, 90 + si as u64),
        )
        .expect("simulation succeeds");

        let mut errs = Vec::new();
        for sel in [
            PriorSelection::Fixed(PriorKind::ZeroMean),
            PriorSelection::Fixed(PriorKind::NonZeroMean),
            PriorSelection::Auto,
        ] {
            let fit = BmfFitter::new(basis.clone(), early.clone())?
                .with_options(FitOptions::new().selection(sel))
                .fit(&train.points, &train.values)?;
            errs.push(
                fit.model
                    .relative_error(test.point_slices(), &test.values)?,
            );
        }
        rows.push(vec![
            format!("{shift:.2}"),
            pct(errs[0]),
            pct(errs[1]),
            pct(errs[2]),
        ]);
    }
    r.table(&["shift", "BMF-ZM (%)", "BMF-NZM (%)", "BMF-PS (%)"], &rows);

    // Second axis: sign corruption at fixed magnitude accuracy — the
    // regime where the zero-mean prior's magnitude-only encoding wins
    // (§III-A2: "if the early-stage and late-stage model coefficients are
    // substantially different, ... a zero-mean prior distribution is
    // preferred").
    r.para(
        "Sign corruption at fixed 10% magnitude shift: the nonzero-mean prior's sign \
         information turns from asset into liability, the zero-mean prior is unaffected, \
         and BMF-PS switches between them.",
    );
    let mut rows = Vec::new();
    for (si, &flip) in [0.0, 0.1, 0.25, 0.5].iter().enumerate() {
        let cfg = SyntheticConfig {
            early_vars,
            extra_late_vars: 5,
            layout_shift_rel: 0.10,
            sign_flip_prob: flip,
            ..SyntheticConfig::default()
        };
        let circuit = SyntheticCircuit::new(cfg, derive_seed(seed, 200 + si as u64));
        let late_vars = circuit.num_vars(Stage::PostLayout);
        let basis = OrthonormalBasis::linear(late_vars);
        let mut early: Vec<Option<f64>> = circuit
            .true_early_coeffs()
            .iter()
            .map(|&a| Some(a))
            .collect();
        early.extend(std::iter::repeat_n(None, late_vars - early_vars));
        let train = monte_carlo(
            &circuit,
            Stage::PostLayout,
            k,
            derive_seed(seed, 250 + si as u64),
        )
        .expect("simulation succeeds");
        let test = monte_carlo(
            &circuit,
            Stage::PostLayout,
            300,
            derive_seed(seed, 290 + si as u64),
        )
        .expect("simulation succeeds");
        let mut errs = Vec::new();
        let mut chosen = String::new();
        for sel in [
            PriorSelection::Fixed(PriorKind::ZeroMean),
            PriorSelection::Fixed(PriorKind::NonZeroMean),
            PriorSelection::Auto,
        ] {
            let fit = BmfFitter::new(basis.clone(), early.clone())?
                .with_options(FitOptions::new().selection(sel))
                .fit(&train.points, &train.values)?;
            errs.push(
                fit.model
                    .relative_error(test.point_slices(), &test.values)?,
            );
            if matches!(sel, PriorSelection::Auto) {
                chosen = fit.prior_kind.to_string();
            }
        }
        rows.push(vec![
            format!("{flip:.2}"),
            pct(errs[0]),
            pct(errs[1]),
            pct(errs[2]),
            chosen,
        ]);
    }
    r.table(
        &[
            "P(sign flip)",
            "BMF-ZM (%)",
            "BMF-NZM (%)",
            "BMF-PS (%)",
            "PS chose",
        ],
        &rows,
    );
    Ok(r)
}

/// Extension: OMP vs LASSO vs least squares vs BMF-PS across sample
/// budgets on the RO frequency metric. LASSO (the ℓ₁ corner of the
/// elastic-net family the paper cites as \[15\]) is a second prior-free
/// sparse baseline; least squares is only defined once K > M.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn baseline_comparison(scale: Scale, seed: u64) -> Result<Report> {
    use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
    use bmf_core::lasso::{fit_lasso_design, LassoConfig};
    use bmf_core::omp::fit_omp_design;

    let cfg = match scale {
        Scale::Ci => RoConfig {
            stages: 7,
            transistors_per_stage: 2,
            params_per_transistor: 6,
            interdie_vars: 6,
            parasitic_vars_per_stage: 1,
            ..RoConfig::small()
        },
        _ => RoConfig {
            stages: 13,
            transistors_per_stage: 3,
            params_per_transistor: 12,
            interdie_vars: 10,
            parasitic_vars_per_stage: 2,
            ..RoConfig::small()
        },
    };
    let ro = RingOscillator::new(cfg, derive_seed(seed, 0));
    let view = ro.metric(RoMetric::Frequency);
    let sch_vars = view.num_vars(Stage::Schematic);
    let lay_vars = view.num_vars(Stage::PostLayout);
    let m_terms = lay_vars + 1;

    // Early model.
    let sch = monte_carlo(&view, Stage::Schematic, 800, derive_seed(seed, 1))
        .expect("simulation succeeds");
    let basis_sch = OrthonormalBasis::linear(sch_vars);
    let early = crate::earlyfit::EarlyModel {
        coeffs: {
            let fit = fit_omp(&basis_sch, &sch.points, &sch.values, &OmpConfig::default())?;
            fit.model.coeffs().to_vec()
        },
        validation_error: 0.0,
        cost_hours: sch.cost_hours,
        num_vars: sch_vars,
    };

    let basis = OrthonormalBasis::linear(lay_vars);
    let k_values: Vec<usize> = match scale {
        Scale::Ci => vec![40, 80],
        _ => vec![60, 150, 400, 2 * m_terms],
    };
    let k_max = *k_values.last().expect("non-empty");
    let train = monte_carlo(&view, Stage::PostLayout, k_max, derive_seed(seed, 2))
        .expect("simulation succeeds");
    let test = monte_carlo(&view, Stage::PostLayout, 300, derive_seed(seed, 3))
        .expect("simulation succeeds");
    let g_full = basis.design_matrix(train.point_slices());
    let g_test = basis.design_matrix(test.point_slices());
    let norm = bmf_core::fusion::response_scale(&train.values);
    let f_test = crate::tables::scaled_values(&test.values, norm);
    let test_norm = f_test.norm2();
    let prior = crate::tables::scaled_prior(&early.late_prior_values(lay_vars), norm);

    let mut r = Report::new(
        "ablation-baselines",
        "Prior-free baselines (OMP, LASSO, least squares) vs BMF-PS",
    );
    r.para(&format!(
        "RO frequency, {m_terms} coefficients. Least squares requires K > M and is \
         marked infeasible below that.",
    ));
    let mut rows = Vec::new();
    for &k in &k_values {
        let g = crate::tables::row_prefix(&g_full, k);
        let f = crate::tables::scaled_values(&train.values[..k], norm);
        let score = |alpha: &Vector| -> Result<f64> {
            Ok(g_test.matvec(alpha)?.sub(&f_test)?.norm2() / test_norm)
        };

        let omp = fit_omp_design(&g, &f, &OmpConfig::default())?;
        let omp_err = score(&Vector::from(omp.coeffs))?;

        let lasso = fit_lasso_design(&g, &f, &LassoConfig::default())?;
        let lasso_err = score(&Vector::from(lasso.coeffs))?;

        let ls = if k > m_terms {
            let coeffs = g.qr()?.solve_least_squares(&f)?;
            Some(score(&coeffs)?)
        } else {
            None
        };

        let cv = CvConfig {
            grid: scale.hyper_grid(),
            ..CvConfig::default()
        };
        let ps = select_prior(&g, &f, &prior, PriorSelection::Auto, &cv)?;
        let alpha = map_estimate(
            &g,
            &f,
            &prior.with_kind(ps.kind),
            &FitOptions::new().hyper(ps.hyper),
        )?;
        let bmf_err = score(&alpha)?;

        rows.push(vec![
            k.to_string(),
            pct(omp_err),
            pct(lasso_err),
            ls.map_or("(K <= M)".into(), pct),
            pct(bmf_err),
        ]);
    }
    r.table(
        &[
            "K",
            "OMP (%)",
            "LASSO (%)",
            "least squares (%)",
            "BMF-PS (%)",
        ],
        &rows,
    );
    r.para(
        "The prior-free baselines converge toward each other as K grows; BMF-PS sits \
         below all of them in the K ≪ M regime the paper targets.",
    );
    Ok(r)
}

/// Ablation: test error vs hyper-parameter for a fixed problem, with the
/// CV choice marked — the U-shape that motivates §IV-D.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn hyper_sensitivity(scale: Scale, seed: u64) -> Result<Report> {
    let (early_vars, k) = match scale {
        Scale::Ci => (60, 25),
        _ => (300, 60),
    };
    let cfg = SyntheticConfig {
        early_vars,
        extra_late_vars: 0,
        layout_shift_rel: 0.2,
        ..SyntheticConfig::default()
    };
    let circuit = SyntheticCircuit::new(cfg, seed);
    let basis = OrthonormalBasis::linear(early_vars);
    let prior = Prior::from_coeffs(PriorKind::NonZeroMean, circuit.true_early_coeffs());
    let train = monte_carlo(&circuit, Stage::PostLayout, k, derive_seed(seed, 1))
        .expect("simulation succeeds");
    let test = monte_carlo(&circuit, Stage::PostLayout, 300, derive_seed(seed, 2))
        .expect("simulation succeeds");
    let g = basis.design_matrix(train.point_slices());
    let f = Vector::from(train.values);
    let g_test = basis.design_matrix(test.point_slices());
    let f_test = Vector::from(test.values);
    let test_norm = f_test.norm2();

    let grid = log_grid(1e-4, 1e4, 13);
    let cv = CvConfig {
        grid: grid.clone(),
        ..CvConfig::default()
    };
    let selection = select_prior(&g, &f, &prior, PriorSelection::Fixed(prior.kind()), &cv)?;
    let outcome = selection
        .zero_mean
        .or(selection.nonzero_mean)
        .ok_or(BmfError::Internal {
            detail: "cross-validation produced no outcome for the prior's family",
        })?;

    let mut r = Report::new(
        "ablation-eta",
        "Modeling error vs hyper-parameter η (motivates cross-validation)",
    );
    let mut rows = Vec::new();
    let mut best_test = (0.0f64, f64::INFINITY);
    for &h in &grid {
        let alpha = map_estimate(&g, &f, &prior, &FitOptions::new().hyper(h))?;
        let test_err = g_test.matvec(&alpha)?.sub(&f_test)?.norm2() / test_norm;
        if test_err < best_test.1 {
            best_test = (h, test_err);
        }
        let cv_err = outcome
            .errors
            .iter()
            .find(|(hh, _)| (hh - h).abs() < 1e-12 * h)
            .map(|&(_, e)| e);
        rows.push(vec![
            format!("{h:.1e}"),
            cv_err.map_or("-".into(), pct),
            pct(test_err),
            if (h - outcome.best_hyper).abs() < 1e-12 * h {
                "<- CV pick".into()
            } else {
                String::new()
            },
        ]);
    }
    r.table(&["η", "CV error (%)", "test error (%)", ""], &rows);
    r.para(&format!(
        "CV picked η = {:.1e}; the test-optimal value was {:.1e} with error {}% \
         (CV pick achieves {}%). Too-small η under-uses the prior, too-large η \
         over-trusts it.",
        outcome.best_hyper,
        best_test.0,
        pct(best_test.1),
        pct({
            let alpha = map_estimate(&g, &f, &prior, &FitOptions::new().hyper(outcome.best_hyper))?;
            g_test.matvec(&alpha)?.sub(&f_test)?.norm2() / test_norm
        }),
    ));
    Ok(r)
}

/// One table cell's BMF-PS pick under each selection rule: the family,
/// the hyper-parameter, the held-out error of the fit at them, and the
/// selection's wall time.
struct Picks {
    loo: (PriorKind, f64, f64),
    kfold: (PriorKind, f64, f64),
    secs: [f64; 2],
}

/// Folds of the rule the fitting engines used before leave-one-out.
const KFOLD_FOLDS: usize = 5;

/// The 5-fold rule the fitting engines used before leave-one-out, by
/// brute force: the cell's seeded split of its K rows into
/// [`KFOLD_FOLDS`] folds, and per fold one [`MapSweep`] on the training
/// rows whose every `(grid, family)` solve is scored on the validation
/// rows (eq. 59); the fold errors are averaged per cell, each family keeps
/// its best grid value, and BMF-PS's rule picks (zero-mean unless
/// nonzero-mean is strictly lower). A fold whose training rows cannot
/// identify the missing-prior columns is skipped, as the engine skipped
/// it.
fn kfold_pick(cell: &TableCell<'_>) -> Result<(PriorKind, f64)> {
    let (g, f, grid) = (cell.g, cell.f, &cell.cv.grid);
    let kfold = KFold::new(g.nrows(), KFOLD_FOLDS, cell.cv.seed).map_err(|_| {
        BmfError::NotEnoughSamples {
            available: g.nrows(),
            required: KFOLD_FOLDS,
            context: "cross-validation folds",
        }
    })?;
    let kinds = [PriorKind::ZeroMean, PriorKind::NonZeroMean];
    let prior = cell.prior.with_kind(PriorKind::NonZeroMean);
    let mut sums = vec![(0.0, 0usize); kinds.len() * grid.len()];
    for fold in kfold.iter() {
        let Ok(sweep) = MapSweep::from_view(g.rows_view(&fold.train), &prior) else {
            continue;
        };
        let f_train: Vector = fold.train.iter().map(|&i| f[i]).collect();
        let f_val: Vector = fold.validate.iter().map(|&i| f[i]).collect();
        let mut pred = vec![0.0; fold.validate.len()];
        let cells = kinds
            .iter()
            .flat_map(|&k| grid.iter().map(move |&h| (k, h)));
        for ((kind, h), sum) in cells.zip(&mut sums) {
            let Ok(alpha) = sweep.solve_with_kind(&f_train, h, kind) else {
                continue;
            };
            matvec_into(g.rows_view(&fold.validate), alpha.as_slice(), &mut pred)?;
            let diff: f64 = pred
                .iter()
                .zip(f_val.iter())
                .map(|(p, y)| (p - y) * (p - y))
                .sum();
            let err = diff.sqrt() / f_val.norm2().max(f64::MIN_POSITIVE);
            if err.is_finite() {
                *sum = (sum.0 + err, sum.1 + 1);
            }
        }
    }
    let best = |family: &[(f64, usize)]| {
        let means = grid.iter().zip(family).filter(|(_, s)| s.1 > 0);
        means
            .map(|(&h, s)| (h, s.0 / s.1 as f64))
            .fold(None, |b: Option<(f64, f64)>, c| match b {
                Some(b) if b.1 <= c.1 => Some(b),
                _ => Some(c),
            })
    };
    let (zm, nzm) = sums.split_at(grid.len());
    match (best(zm), best(nzm)) {
        (Some(z), Some(n)) if z.1 > n.1 => Ok((PriorKind::NonZeroMean, n.0)),
        (Some(z), _) => Ok((PriorKind::ZeroMean, z.0)),
        (None, Some(n)) => Ok((PriorKind::NonZeroMean, n.0)),
        (None, None) => Err(BmfError::Internal {
            detail: "the 5-fold reference solved no cell",
        }),
    }
}

/// Ablation: the engines' exact leave-one-out selection against the
/// 5-fold rule it replaced, on the paper's four error tables.
///
/// Per table (I–III: the RO's power, phase noise and frequency; V: the
/// SRAM read delay, each built as `repro table1`…`table5` builds it) and
/// K, every repeat of the table's sweep picks BMF-PS's (family, η) twice:
/// by leave-one-out ([`select_prior`]) and by the 5-fold rule, as
/// brute-force refits on each fold's training rows (`kfold_pick`). Each
/// pick is fitted on the K rows and scored on the table's held-out set.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn selection_rule(scale: Scale, seed: u64) -> Result<Report> {
    let ro = RingOscillator::new(scale.ro_config(), seed);
    let sram = SramReadPath::new(scale.sram_config(), seed);
    let (power, noise, freq) = (
        ro.metric(RoMetric::Power),
        ro.metric(RoMetric::PhaseNoise),
        ro.metric(RoMetric::Frequency),
    );
    let delay = sram.read_delay();
    let tables: [(&str, &dyn CircuitPerformance); 4] = [
        ("I (RO power)", &power),
        ("II (RO phase noise)", &noise),
        ("III (RO frequency)", &freq),
        ("V (SRAM read delay)", &delay),
    ];
    let mut r = Report::new(
        "ablation-select",
        "Hyper-parameter selection: exact leave-one-out vs the 5-fold rule",
    );
    r.para(&format!(
        "Scale `{scale}`, {} repeats per K, the tables' own data and {}-point grid. \
         Per repeat, BMF-PS picks its prior family and η by the engines' exact \
         leave-one-out (LOO) and by the 5-fold rule they used before (seeded folds as \
         the tables' `CvConfig` splits them; brute-force refits on each fold's training \
         rows, each `(η, family)` scored on its validation rows). Errors are relative \
         L2 (eq. 59) on the held-out set, in percent, averaged over the repeats; `same \
         pick` counts the repeats whose (family, η) agree; the picks shown are the first \
         repeat's. Selection times are medians over the repeats of one single-threaded \
         selection each; the 5-fold time is that of the brute-force reference, which \
         builds a kernel per fold, not of the engine path it replaces.",
        scale.repeats(),
        scale.hyper_grid().len(),
    ));
    let show = |(kind, hyper, _): (PriorKind, f64, f64)| format!("{kind} {hyper:.1e}");
    let (mut within, mut rows_total, mut worst) = (0, 0, (0.0f64, "I (RO power)", 0));
    for (name, circuit) in tables {
        let (cells, _) = table_cells(circuit, scale, seed, |cell| {
            let t0 = Instant::now();
            let loo = select_prior(cell.g, cell.f, cell.prior, PriorSelection::Auto, cell.cv)?;
            let loo_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let (kind, hyper) = kfold_pick(cell)?;
            let kfold_s = t0.elapsed().as_secs_f64();
            Ok(Picks {
                loo: (loo.kind, loo.hyper, cell.score_map(loo.kind, loo.hyper)?),
                kfold: (kind, hyper, cell.score_map(kind, hyper)?),
                secs: [loo_s, kfold_s],
            })
        })?;
        let mut rows = Vec::new();
        for (k, reps) in scale.k_values().into_iter().zip(&cells) {
            let mean =
                |f: fn(&Picks) -> f64| reps.iter().fold(0.0, |s, p| s + f(p)) / reps.len() as f64;
            let (loo, kfold) = (mean(|p| p.loo.2), mean(|p| p.kfold.2));
            let change = (loo - kfold) / kfold;
            rows_total += 1;
            within += usize::from(change.abs() <= 0.01);
            if rows_total == 1 || change.abs() > worst.0.abs() {
                worst = (change, name, k);
            }
            let same = reps
                .iter()
                .filter(|p| p.loo.0 == p.kfold.0 && p.loo.1.to_bits() == p.kfold.1.to_bits())
                .count();
            let median =
                |i: usize| quantile(&reps.iter().map(|p| p.secs[i]).collect::<Vec<_>>(), 0.5);
            rows.push(vec![
                k.to_string(),
                pct(loo),
                pct(kfold),
                format!("{:+.2}%", 100.0 * change),
                format!("{same}/{}", reps.len()),
                show(reps[0].loo),
                show(reps[0].kfold),
                secs(median(0)),
                secs(median(1)),
            ]);
        }
        r.para(&format!("**Table {name}**"));
        r.table(
            &[
                "K",
                "LOO error (%)",
                "5-fold error (%)",
                "change",
                "same pick",
                "LOO pick",
                "5-fold pick",
                "LOO select (s)",
                "5-fold select (s)",
            ],
            &rows,
        );
    }
    let (change, table, k) = worst;
    r.para(&format!(
        "LOO's held-out error lies within 1 % relative of the 5-fold rule's on \
         **{within} of {rows_total}** rows; the largest change is {:+.2} % \
         (Table {table}, K = {k}).",
        100.0 * change,
    ));
    Ok(r)
}

/// §IV-C: direct vs fast MAP solver across problem size M, with an
/// exactness check (the identity is algebraic, not approximate).
///
/// # Errors
///
/// Propagates fitting errors.
pub fn solver_scaling(scale: Scale, seed: u64) -> Result<Report> {
    let sizes: &[usize] = match scale {
        Scale::Ci => &[100, 200],
        Scale::Default => &[250, 500, 1000, 2000],
        Scale::Paper => &[500, 1000, 2000, 4000, 7177],
    };
    let k = 100;
    let mut r = Report::new(
        "solver",
        "Fast low-rank MAP solver vs conventional Cholesky (paper §IV-C / Fig. 5)",
    );
    r.para(&format!(
        "K = {k} samples; each time is the median of five runs of one MAP solve. \
         The fast solver factorizes only a K×K core, so its cost is flat in M while \
         Cholesky grows as M³; both return the same coefficients to rounding error.",
    ));
    let mut rows = Vec::new();
    for (i, &m) in sizes.iter().enumerate() {
        let (g, f, prior) = map_problem(k, m, derive_seed(seed, i as u64))?;
        let (fast, fast_s) =
            median_secs(|| map_estimate(&g, &f, &prior, &FitOptions::new().hyper(1.0)))?;
        let (direct, direct_s) = median_secs(|| {
            map_estimate(
                &g,
                &f,
                &prior,
                &FitOptions::new().hyper(1.0).solver(SolverKind::Direct),
            )
        })?;
        let diff = fast.sub(&direct)?.norm_inf();
        rows.push(vec![
            m.to_string(),
            secs(direct_s),
            secs(fast_s),
            format!("{:.0}x", direct_s / fast_s.max(1e-9)),
            format!("{diff:.2e}"),
        ]);
    }
    r.table(
        &["M", "Cholesky (s)", "fast (s)", "speedup", "max |Δα|"],
        &rows,
    );
    Ok(r)
}

/// Extension of the paper's closing §V note: BMF on a *nonlinear*
/// (degree-2 Hermite) performance model. A quadratic truth over 12
/// variables (91 orthonormal terms) is fitted from few late samples with
/// a perturbed-early-coefficient prior; a linear-basis fit shows the
/// model-order floor, and OMP on the quadratic basis shows the
/// prior-free cost.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn nonlinear_study(scale: Scale, seed: u64) -> Result<Report> {
    use bmf_basis::basis::OrthonormalBasis;

    let vars = 12usize;
    let basis2 = OrthonormalBasis::total_degree(vars, 2, 10_000);
    let m2 = basis2.len();
    let k = match scale {
        Scale::Ci => 45,
        _ => 60,
    };

    // Quadratic ground truth with decaying spectrum, plus a perturbed
    // early model.
    let mut rng = seeded(derive_seed(seed, 0));
    let mut sampler = StandardNormal::new();
    let mut truth = vec![0.0f64; m2];
    truth[0] = 5.0;
    for (i, t) in truth.iter_mut().enumerate().skip(1) {
        *t = sampler.sample(&mut rng) / (i as f64).powf(1.1);
    }
    let mut early = Vec::with_capacity(m2);
    for &t in &truth {
        early.push(Some(t * (1.0 + 0.15 * sampler.sample(&mut rng))));
    }

    let sample_points = |n: usize, s: u64| -> Vec<Vec<f64>> {
        let mut rng = seeded(derive_seed(seed, s));
        let mut smp = StandardNormal::new();
        (0..n).map(|_| smp.sample_vec(&mut rng, vars)).collect()
    };
    let train = sample_points(k, 1);
    let test = sample_points(300, 2);
    let eval = |p: &[f64]| basis2.evaluate_model(&truth, p);
    let train_vals: Vec<f64> = train.iter().map(|p| eval(p)).collect();
    let test_vals: Vec<f64> = test.iter().map(|p| eval(p)).collect();

    // BMF on the quadratic basis.
    let fit2 = BmfFitter::new(basis2.clone(), early)?.fit(&train, &train_vals)?;
    let bmf2_err = fit2
        .model
        .relative_error(test.iter().map(|p| p.as_slice()), &test_vals)?;

    // OMP on the quadratic basis (no prior).
    let omp2 = fit_omp(&basis2, &train, &train_vals, &OmpConfig::default())?;
    let omp2_err = omp2
        .model
        .relative_error(test.iter().map(|p| p.as_slice()), &test_vals)?;

    // BMF on the *linear* basis: shows the model-order floor.
    let basis1 = OrthonormalBasis::linear(vars);
    let early1: Vec<Option<f64>> = truth[..=vars].iter().map(|&t| Some(t * 1.05)).collect();
    let fit1 = BmfFitter::new(basis1, early1)?.fit(&train, &train_vals)?;
    let bmf1_err = fit1
        .model
        .relative_error(test.iter().map(|p| p.as_slice()), &test_vals)?;

    let mut r = Report::new(
        "nonlinear",
        "BMF with high-order orthonormal basis functions (paper §V closing note)",
    );
    r.para(&format!(
        "Quadratic truth over {vars} variables ({m2} orthonormal Hermite terms, eq. 5 \
         family), K = {k} late samples.",
    ));
    r.table(
        &["model", "basis terms", "test error (%)"],
        &[
            vec![
                "BMF-PS, degree-2 basis".into(),
                m2.to_string(),
                pct(bmf2_err),
            ],
            vec!["OMP, degree-2 basis".into(), m2.to_string(), pct(omp2_err)],
            vec![
                "BMF-PS, linear basis (model-order floor)".into(),
                (vars + 1).to_string(),
                pct(bmf1_err),
            ],
        ],
    );
    r.para(&format!(
        "Shape checks — quadratic BMF beats quadratic OMP: **{}**; the linear model \
         hits its missing-curvature floor well above both: **{}**.",
        bmf2_err < omp2_err,
        bmf1_err > 2.0 * bmf2_err
    ));
    Ok(r)
}

/// §IV-A case study: the multifinger differential pair, end to end.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn prior_mapping_study(scale: Scale, seed: u64) -> Result<Report> {
    let dp = DiffPair::new(DiffPairConfig::default());
    let vos = dp.offset_voltage();
    let mut r = Report::new(
        "priormap",
        "Prior mapping for multifinger layout (paper §IV-A, eq. 36-49)",
    );

    // Early: fit the 4-variable schematic model from schematic samples.
    let n_early = match scale {
        Scale::Ci => 100,
        _ => 500,
    };
    let sch = monte_carlo(&vos, Stage::Schematic, n_early, derive_seed(seed, 1))
        .expect("simulation succeeds");
    let sch_basis = OrthonormalBasis::linear(4);
    let early_fit = fit_omp(
        &sch_basis,
        &sch.points,
        &sch.values,
        &OmpConfig {
            seed,
            ..OmpConfig::default()
        },
    )?;
    let alpha_e = early_fit.model.coeffs().to_vec();

    // Map onto the layout basis through the finger expansion (eq. 49).
    let expansion = dp.finger_expansion().expect("finger counts are positive");
    let expanded = expansion
        .expand_basis(&sch_basis)
        .expect("schematic V_OS basis is multilinear");
    let fingers = dp.config().fingers;
    r.para(&format!(
        "Schematic V_OS coefficients (OMP, {n_early} samples): {:?}. Each input \
         transistor has {fingers} fingers post-layout; eq. 49 maps the V_TH \
         coefficients as β = α_E/√{fingers}.",
        alpha_e
            .iter()
            .map(|a| (a * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    ));

    // Late: fit with very few layout samples.
    let k = match scale {
        Scale::Ci => 6,
        _ => 8,
    };
    let lay =
        monte_carlo(&vos, Stage::PostLayout, k, derive_seed(seed, 2)).expect("simulation succeeds");
    let test = monte_carlo(&vos, Stage::PostLayout, 300, derive_seed(seed, 3))
        .expect("simulation succeeds");

    let fitter = BmfFitter::from_mapped_early_model(&expanded, &alpha_e, vec![])?;
    let fit = fitter.fit(&lay.points, &lay.values)?;
    let bmf_err = fit
        .model
        .relative_error(test.point_slices(), &test.values)?;

    // Baseline: OMP on the same few layout samples, no prior.
    let lay_basis = expanded.basis().clone();
    let omp_fit = fit_omp(
        &lay_basis,
        &lay.points,
        &lay.values,
        &OmpConfig {
            seed,
            validation_fraction: 0.3,
            ..OmpConfig::default()
        },
    )?;
    let omp_err = omp_fit
        .model
        .relative_error(test.point_slices(), &test.values)?;

    r.table(
        &["method", "layout samples", "test error (%)"],
        &[
            vec!["OMP (no prior)".into(), k.to_string(), pct(omp_err)],
            vec![
                format!("BMF mapped prior ({})", fit.prior_kind),
                k.to_string(),
                pct(bmf_err),
            ],
        ],
    );
    r.para(&format!(
        "With only {k} post-layout simulations the mapped prior already pins the \
         per-finger coefficients; shape check BMF < OMP: **{}**.",
        bmf_err < omp_err
    ));
    Ok(r)
}

/// §IV-B case study: missing prior knowledge for post-layout-only basis
/// functions.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn missing_prior_study(scale: Scale, seed: u64) -> Result<Report> {
    let (early_vars, extra, k) = match scale {
        Scale::Ci => (40, 6, 30),
        _ => (200, 20, 80),
    };
    let cfg = SyntheticConfig {
        early_vars,
        extra_late_vars: extra,
        ..SyntheticConfig::default()
    };
    let circuit = SyntheticCircuit::new(cfg, seed);
    let late_vars = circuit.num_vars(Stage::PostLayout);
    let train = monte_carlo(&circuit, Stage::PostLayout, k, derive_seed(seed, 1))
        .expect("simulation succeeds");
    let test = monte_carlo(&circuit, Stage::PostLayout, 300, derive_seed(seed, 2))
        .expect("simulation succeeds");

    // (a) Proper §IV-B handling: infinite-variance priors on the extras.
    let basis = OrthonormalBasis::linear(late_vars);
    let mut early: Vec<Option<f64>> = circuit
        .true_early_coeffs()
        .iter()
        .map(|&a| Some(a))
        .collect();
    early.extend(std::iter::repeat_n(None, extra));
    let with_missing = BmfFitter::new(basis, early)?.fit(&train.points, &train.values)?;
    let err_missing = with_missing
        .model
        .relative_error(test.point_slices(), &test.values)?;

    // (b) Naive: ignore the new variables entirely (truncate the basis).
    let trunc_basis = OrthonormalBasis::linear(early_vars);
    let trunc_points: Vec<Vec<f64>> = train
        .points
        .iter()
        .map(|p| p[..early_vars].to_vec())
        .collect();
    let trunc_early: Vec<Option<f64>> = circuit
        .true_early_coeffs()
        .iter()
        .map(|&a| Some(a))
        .collect();
    let naive = BmfFitter::new(trunc_basis, trunc_early)?.fit(&trunc_points, &train.values)?;
    let naive_model = naive.model;
    let trunc_test: Vec<Vec<f64>> = test
        .points
        .iter()
        .map(|p| p[..early_vars].to_vec())
        .collect();
    let err_naive =
        naive_model.relative_error(trunc_test.iter().map(|p| p.as_slice()), &test.values)?;

    let mut r = Report::new(
        "missing",
        "Missing prior knowledge for post-layout-only terms (paper §IV-B)",
    );
    r.para(&format!(
        "Synthetic truth with {extra} post-layout-only variables (layout parasitics). \
         K = {k} late samples.",
    ));
    r.table(
        &["handling", "test error (%)"],
        &[
            vec!["ignore new variables".into(), pct(err_naive)],
            vec![
                "infinite-variance prior (eq. 50-52)".into(),
                pct(err_missing),
            ],
        ],
    );
    r.para(&format!(
        "Shape check — modeling the parasitic terms with flat priors beats dropping \
         them: **{}**.",
        err_missing < err_naive
    ));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_scaling_shows_speedup_and_exactness() {
        let r = solver_scaling(Scale::Ci, 1).unwrap();
        assert!(r.body.contains("speedup"));
        assert!(
            r.body.contains("e-"),
            "exactness column missing: {}",
            r.body
        );
    }

    #[test]
    fn prior_quality_sweep_runs_at_ci_scale() {
        let r = prior_quality_sweep(Scale::Ci, 2).unwrap();
        assert!(r.body.contains("BMF-PS"));
        // Six magnitude-shift rows plus four sign-flip rows.
        assert_eq!(r.body.matches("\n| 0.").count(), 10, "shift + flip rows");
        assert!(r.body.contains("PS chose"));
    }

    #[test]
    fn hyper_sensitivity_marks_cv_pick() {
        let r = hyper_sensitivity(Scale::Ci, 3).unwrap();
        assert!(r.body.contains("<- CV pick"));
    }

    #[test]
    fn selection_rule_runs() {
        let r = selection_rule(Scale::Ci, 4).unwrap();
        for table in ["I (RO power)", "II", "III", "V (SRAM read delay)"] {
            assert!(r.body.contains(&format!("**Table {table}")), "{}", r.body);
        }
        // Two K rows per table, each comparing both rules.
        assert_eq!(r.body.matches("\n| 40 |").count(), 4, "{}", r.body);
        assert!(r.body.contains("within 1 % relative"));
    }

    #[test]
    fn nonlinear_study_shape_checks_pass() {
        let r = nonlinear_study(Scale::Ci, 7).unwrap();
        assert!(
            r.body.contains("quadratic OMP: **true**"),
            "BMF should beat OMP on the quadratic basis:\n{}",
            r.body
        );
        assert!(
            r.body.contains("floor well above both: **true**"),
            "{}",
            r.body
        );
    }

    #[test]
    fn baseline_comparison_runs_and_bmf_wins_small_k() {
        let r = baseline_comparison(Scale::Ci, 9).unwrap();
        assert!(r.body.contains("LASSO"));
        assert!(r.body.contains("(K <= M)"));
    }

    #[test]
    fn prior_mapping_study_beats_omp() {
        let r = prior_mapping_study(Scale::Ci, 5).unwrap();
        assert!(r.body.contains("BMF < OMP: **true**"), "{}", r.body);
    }

    #[test]
    fn missing_prior_study_shows_benefit() {
        let r = missing_prior_study(Scale::Ci, 6).unwrap();
        assert!(r.body.contains("**true**"), "{}", r.body);
    }
}
