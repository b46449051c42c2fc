//! Integration test: the full RO modeling flow across all crates —
//! circuit substrate → Monte-Carlo engine → early OMP fit → BMF fusion →
//! error evaluation — exercising only public APIs.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
use bmf_circuits::sim::{monte_carlo, CostLedger};
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::fusion::BmfFitter;
use bmf_core::omp::{fit_omp, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::PriorKind;
use bmf_core::select::PriorSelection;

fn test_ro() -> RingOscillator {
    RingOscillator::new(
        RoConfig {
            stages: 9,
            transistors_per_stage: 2,
            params_per_transistor: 6,
            interdie_vars: 6,
            parasitic_vars_per_stage: 1,
            ..RoConfig::small()
        },
        77,
    )
}

/// The headline paper behaviour: with a schematic prior, few post-layout
/// samples model a high-dimensional response better than prior-free
/// sparse regression with the same budget.
#[test]
fn fused_model_beats_prior_free_baseline() {
    let ro = test_ro();
    for metric in [RoMetric::Power, RoMetric::Frequency] {
        let view = ro.metric(metric);
        let sch_vars = view.num_vars(Stage::Schematic);
        let lay_vars = view.num_vars(Stage::PostLayout);

        let sch = monte_carlo(&view, Stage::Schematic, 600, 1).expect("simulation succeeds");
        let early = fit_omp(
            &OrthonormalBasis::linear(sch_vars),
            &sch.points,
            &sch.values,
            &OmpConfig::default(),
        )
        .expect("early fit");

        let k = 50;
        let lay = monte_carlo(&view, Stage::PostLayout, k, 2).expect("simulation succeeds");
        let test = monte_carlo(&view, Stage::PostLayout, 300, 3).expect("simulation succeeds");

        let mut prior: Vec<Option<f64>> = early.model.coeffs().iter().map(|&a| Some(a)).collect();
        prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));
        let fit = BmfFitter::new(OrthonormalBasis::linear(lay_vars), prior)
            .expect("fitter")
            .with_options(FitOptions::new().seed(5))
            .fit(&lay.points, &lay.values)
            .expect("bmf fit");
        let bmf_err = fit
            .model
            .relative_error(test.point_slices(), &test.values)
            .expect("error");

        let omp = fit_omp(
            &OrthonormalBasis::linear(lay_vars),
            &lay.points,
            &lay.values,
            &OmpConfig::default(),
        )
        .expect("omp fit");
        let omp_err = omp
            .model
            .relative_error(test.point_slices(), &test.values)
            .expect("error");

        assert!(
            bmf_err < omp_err,
            "{metric:?}: BMF {bmf_err} should beat OMP {omp_err}"
        );
        assert!(bmf_err < 0.05, "{metric:?}: BMF error {bmf_err} too large");
    }
}

/// More post-layout data must not hurt the fused model (learning curve).
#[test]
fn bmf_error_improves_with_more_samples() {
    let ro = test_ro();
    let view = ro.metric(RoMetric::Frequency);
    let sch_vars = view.num_vars(Stage::Schematic);
    let lay_vars = view.num_vars(Stage::PostLayout);
    let sch = monte_carlo(&view, Stage::Schematic, 600, 4).expect("simulation succeeds");
    let early = fit_omp(
        &OrthonormalBasis::linear(sch_vars),
        &sch.points,
        &sch.values,
        &OmpConfig::default(),
    )
    .expect("early fit");
    let mut prior: Vec<Option<f64>> = early.model.coeffs().iter().map(|&a| Some(a)).collect();
    prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));

    let lay = monte_carlo(&view, Stage::PostLayout, 160, 5).expect("simulation succeeds");
    let test = monte_carlo(&view, Stage::PostLayout, 300, 6).expect("simulation succeeds");
    let mut errs = Vec::new();
    for k in [40usize, 160] {
        let fit = BmfFitter::new(OrthonormalBasis::linear(lay_vars), prior.clone())
            .expect("fitter")
            .with_options(FitOptions::new().seed(9))
            .fit(&lay.points[..k], &lay.values[..k])
            .expect("fit");
        errs.push(
            fit.model
                .relative_error(test.point_slices(), &test.values)
                .expect("error"),
        );
    }
    assert!(
        errs[1] <= errs[0] * 1.2,
        "error should not degrade with 4x data: {errs:?}"
    );
}

/// Forcing each prior family through the public API works and PS matches
/// the better of the two on its own cross-validation estimate.
#[test]
fn prior_selection_is_consistent() {
    let ro = test_ro();
    let view = ro.metric(RoMetric::Power);
    let sch_vars = view.num_vars(Stage::Schematic);
    let lay_vars = view.num_vars(Stage::PostLayout);
    let sch = monte_carlo(&view, Stage::Schematic, 500, 7).expect("simulation succeeds");
    let early = fit_omp(
        &OrthonormalBasis::linear(sch_vars),
        &sch.points,
        &sch.values,
        &OmpConfig::default(),
    )
    .expect("early fit");
    let mut prior: Vec<Option<f64>> = early.model.coeffs().iter().map(|&a| Some(a)).collect();
    prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));
    let lay = monte_carlo(&view, Stage::PostLayout, 60, 8).expect("simulation succeeds");

    let basis = OrthonormalBasis::linear(lay_vars);
    let mut cv_errors = Vec::new();
    for sel in [
        PriorSelection::Fixed(PriorKind::ZeroMean),
        PriorSelection::Fixed(PriorKind::NonZeroMean),
        PriorSelection::Auto,
    ] {
        let fit = BmfFitter::new(basis.clone(), prior.clone())
            .expect("fitter")
            .with_options(FitOptions::new().selection(sel).seed(3))
            .fit(&lay.points, &lay.values)
            .expect("fit");
        cv_errors.push(fit.cv_error);
    }
    let best_fixed = cv_errors[0].min(cv_errors[1]);
    assert!(
        (cv_errors[2] - best_fixed).abs() < 1e-12,
        "PS cv error {} should equal min of fixed {:?}",
        cv_errors[2],
        &cv_errors[..2]
    );
}

/// The ledger books every Monte-Carlo sample at the stage's simulated cost.
#[test]
fn monte_carlo_ledger_books_simulation_cost() {
    let ro = test_ro();
    let view = ro.metric(RoMetric::PhaseNoise);
    let samples = monte_carlo(&view, Stage::PostLayout, 37, 11).expect("simulation succeeds");

    let mut ledger = CostLedger::new();
    ledger.charge_samples(&samples);
    assert!(
        (ledger.simulation_hours - 37.0 * view.sim_cost_hours(Stage::PostLayout)).abs() < 1e-12
    );
}
