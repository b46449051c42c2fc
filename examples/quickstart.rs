//! Quickstart: fuse an early-stage model with a handful of late-stage
//! samples.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A synthetic "circuit" with 80 variation variables plays the role of an
//! expensive simulator. We fit its schematic-stage model once, then show
//! that 25 post-layout samples plus the prior beat a prior-free sparse
//! fit on the same 25 samples by a wide margin.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_circuits::synthetic::{SyntheticCircuit, SyntheticConfig};
use bmf_core::fusion::BmfFitter;
use bmf_core::omp::{fit_omp, OmpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "circuit": 80 schematic variables, 8 extra post-layout
    // parasitic variables, coefficients shifted ~15% by layout.
    let circuit = SyntheticCircuit::new(
        SyntheticConfig {
            early_vars: 80,
            extra_late_vars: 8,
            layout_shift_rel: 0.15,
            ..SyntheticConfig::default()
        },
        42,
    );
    let early_vars = circuit.num_vars(Stage::Schematic);
    let late_vars = circuit.num_vars(Stage::PostLayout);

    // Step 1 — early stage: plenty of cheap schematic simulations.
    let sch = monte_carlo(&circuit, Stage::Schematic, 600, 1).expect("simulation succeeds");
    let sch_basis = OrthonormalBasis::linear(early_vars);
    let early_fit = fit_omp(&sch_basis, &sch.points, &sch.values, &OmpConfig::default())?;
    println!(
        "early model: {} terms selected, holdout error {:.3}%",
        early_fit.selected.len(),
        early_fit.validation_error * 100.0
    );

    // Step 2 — late stage: only 25 expensive post-layout simulations.
    let k = 25;
    let lay = monte_carlo(&circuit, Stage::PostLayout, k, 2).expect("simulation succeeds");
    let test = monte_carlo(&circuit, Stage::PostLayout, 400, 3).expect("simulation succeeds");

    // The late basis embeds the early one; parasitic terms get missing
    // priors (handled by `None`).
    let late_basis = OrthonormalBasis::linear(late_vars);
    let mut prior: Vec<Option<f64>> = early_fit.model.coeffs().iter().map(|&a| Some(a)).collect();
    prior.extend(std::iter::repeat_n(None, late_vars - early_vars));

    let fit = BmfFitter::new(late_basis.clone(), prior)?.fit(&lay.points, &lay.values)?;
    let bmf_err = fit
        .model
        .relative_error(test.point_slices(), &test.values)?;
    println!(
        "BMF-PS ({} prior, hyper {:.2e}) with K={k}: test error {:.3}%",
        fit.prior_kind,
        fit.hyper,
        bmf_err * 100.0
    );

    // Baseline: OMP on the same 25 late samples, no prior.
    let omp_fit = fit_omp(&late_basis, &lay.points, &lay.values, &OmpConfig::default())?;
    let omp_err = omp_fit
        .model
        .relative_error(test.point_slices(), &test.values)?;
    println!(
        "OMP (no prior)        with K={k}: test error {:.3}%",
        omp_err * 100.0
    );

    println!(
        "\nsimulated cost: late-stage samples {:.2} h; reusing early data was free",
        lay.cost_hours
    );
    assert!(bmf_err < omp_err, "BMF should beat the prior-free baseline");
    Ok(())
}
