//! BMF on a current mirror solved by the nonlinear (Newton) DC engine,
//! plus the paper's other motivating application: worst-case corner
//! extraction from the fitted model.
//!
//! ```text
//! cargo run --release --example current_mirror
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::mirror::{CurrentMirror, MirrorConfig};
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::applications::worst_case_corner;
use bmf_core::fusion::BmfFitter;
use bmf_core::omp::{fit_omp, OmpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mirror = CurrentMirror::new(MirrorConfig::default(), 2026);
    let iout = mirror.output_current();
    let sch_vars = iout.num_vars(Stage::Schematic);
    let lay_vars = iout.num_vars(Stage::PostLayout);

    let nominal_sch = iout
        .evaluate(Stage::Schematic, &vec![0.0; sch_vars])
        .expect("simulation succeeds");
    let nominal_lay = iout
        .evaluate(Stage::PostLayout, &vec![0.0; lay_vars])
        .expect("simulation succeeds");
    println!(
        "mirror output current (Newton DC solve per sample): schematic {:.2} µA, \
         post-layout {:.2} µA (stress-shifted V_TH)",
        nominal_sch * 1e6,
        nominal_lay * 1e6
    );

    // Early model from schematic Newton solves.
    let sch = monte_carlo(&iout, Stage::Schematic, 400, 1).expect("simulation succeeds");
    let early = fit_omp(
        &OrthonormalBasis::linear(sch_vars),
        &sch.points,
        &sch.values,
        &OmpConfig::default(),
    )?;

    // Post-layout fusion with few samples.
    let k = 20;
    let lay = monte_carlo(&iout, Stage::PostLayout, k, 2).expect("simulation succeeds");
    let test = monte_carlo(&iout, Stage::PostLayout, 300, 3).expect("simulation succeeds");
    let mut prior: Vec<Option<f64>> = early.model.coeffs().iter().map(|&a| Some(a)).collect();
    prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));
    let fit =
        BmfFitter::new(OrthonormalBasis::linear(lay_vars), prior)?.fit(&lay.points, &lay.values)?;
    let err = fit
        .model
        .relative_error(test.point_slices(), &test.values)?;
    println!(
        "\npost-layout model from {k} Newton simulations: {:.2}% test error ({} prior)",
        err * 100.0,
        fit.prior_kind
    );

    // Application: worst-case corner on the 3-sigma sphere.
    let worst_low = worst_case_corner(&fit.model, 3.0, false, 20)?;
    let worst_high = worst_case_corner(&fit.model, 3.0, true, 20)?;
    println!(
        "model worst-case corners at 3σ: I_out ∈ [{:.2}, {:.2}] µA",
        worst_low.value * 1e6,
        worst_high.value * 1e6
    );
    // Check the corner against the actual circuit at the same point.
    let actual_low = iout
        .evaluate(Stage::PostLayout, &worst_low.point)
        .expect("simulation succeeds");
    println!(
        "circuit at the predicted low corner: {:.2} µA (model said {:.2} µA)",
        actual_low * 1e6,
        worst_low.value * 1e6
    );
    let rel = (actual_low - worst_low.value).abs() / actual_low;
    assert!(rel < 0.05, "corner prediction off by {rel}");
    Ok(())
}
