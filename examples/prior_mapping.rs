//! §IV-A end to end: prior mapping for multifinger layout extraction,
//! on the differential-pair offset voltage solved through the MNA
//! mini-SPICE engine.
//!
//! ```text
//! cargo run --example prior_mapping
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::diffpair::{DiffPair, DiffPairConfig};
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::Stage;
use bmf_core::fusion::BmfFitter;
use bmf_core::omp::{fit_omp, OmpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dp = DiffPair::new(DiffPairConfig::default());
    let vos = dp.offset_voltage();
    let w = dp.config().fingers;

    // Schematic stage: V_OS over 4 lumped variables (eq. 36).
    let sch = monte_carlo(&vos, Stage::Schematic, 400, 1).expect("simulation succeeds");
    let sch_basis = OrthonormalBasis::linear(4);
    let early = fit_omp(&sch_basis, &sch.points, &sch.values, &OmpConfig::default())?;
    let alpha_e = early.model.coeffs();
    println!("schematic V_OS coefficients (x1e3): {:?}", scaled(alpha_e));

    // Layout: each input transistor splits into W fingers (eq. 37-43).
    let expansion = dp.finger_expansion().expect("finger counts are positive");
    let expanded = expansion.expand_basis(&sch_basis)?;
    println!(
        "finger expansion: {} schematic terms -> {} layout terms",
        expanded.num_schematic_terms(),
        expanded.basis().len()
    );
    let beta = expanded.map_coefficients(alpha_e);
    println!(
        "mapped prior beta = alpha/sqrt({w}) (x1e3): {:?}",
        scaled(&beta)
    );

    // Fit the post-layout model from very few layout simulations.
    let k = 8;
    let lay = monte_carlo(&vos, Stage::PostLayout, k, 2).expect("simulation succeeds");
    let test = monte_carlo(&vos, Stage::PostLayout, 400, 3).expect("simulation succeeds");
    let fit = BmfFitter::from_mapped_early_model(&expanded, alpha_e, vec![])?
        .fit(&lay.points, &lay.values)?;
    let bmf_err = fit
        .model
        .relative_error(test.point_slices(), &test.values)?;

    let omp = fit_omp(
        &expanded.basis().clone(),
        &lay.points,
        &lay.values,
        &OmpConfig {
            validation_fraction: 0.3,
            ..OmpConfig::default()
        },
    )?;
    let omp_err = omp
        .model
        .relative_error(test.point_slices(), &test.values)?;

    println!("\nwith only {k} post-layout simulations:");
    println!("  BMF + mapped prior: {:.2}% test error", bmf_err * 100.0);
    println!("  OMP (no prior):     {:.2}% test error", omp_err * 100.0);
    assert!(bmf_err < omp_err);
    Ok(())
}

fn scaled(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 1e3 * 1e3).round() / 1e3).collect()
}
