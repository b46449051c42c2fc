//! §IV-B end to end: handling late-stage basis functions whose prior
//! knowledge is missing (layout parasitics), using the infinite-variance
//! prior of eq. 50-52 — and showing why ignoring those terms is worse.
//!
//! ```text
//! cargo run --example missing_prior
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_circuits::synthetic::{SyntheticCircuit, SyntheticConfig};
use bmf_core::fusion::BmfFitter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let early_vars = 60;
    let extra = 8;
    let circuit = SyntheticCircuit::new(
        SyntheticConfig {
            early_vars,
            extra_late_vars: extra,
            ..SyntheticConfig::default()
        },
        13,
    );
    let late_vars = circuit.num_vars(Stage::PostLayout);
    println!("truth: {early_vars} early variables + {extra} post-layout-only parasitic variables");

    let k = 40;
    let train = monte_carlo(&circuit, Stage::PostLayout, k, 1).expect("simulation succeeds");
    let test = monte_carlo(&circuit, Stage::PostLayout, 400, 2).expect("simulation succeeds");

    // The synthetic circuit exposes its exact early coefficients, so the
    // prior is the best case; only the parasitic terms are unknown.
    let known: Vec<Option<f64>> = circuit
        .true_early_coeffs()
        .iter()
        .map(|&a| Some(a))
        .collect();

    // (a) Correct: flat (infinite-variance) priors on the parasitic terms.
    let mut with_missing = known.clone();
    with_missing.extend(std::iter::repeat_n(None, extra));
    let fit = BmfFitter::new(OrthonormalBasis::linear(late_vars), with_missing)?
        .fit(&train.points, &train.values)?;
    let err_flat = fit
        .model
        .relative_error(test.point_slices(), &test.values)?;
    println!(
        "\ninfinite-variance priors on parasitics: {:.3}% error ({} prior)",
        err_flat * 100.0,
        fit.prior_kind
    );
    // The parasitic coefficients were learned purely from the K samples:
    let tail = &fit.model.coeffs()[1 + early_vars..];
    let truth_tail = &circuit.true_late_coeffs()[1 + early_vars..];
    let worst: f64 = tail
        .iter()
        .zip(truth_tail)
        .map(|(a, t)| (a - t).abs())
        .fold(0.0, f64::max);
    println!("  worst parasitic-coefficient error: {worst:.4}");

    // (b) Naive: drop the parasitic variables from the model entirely.
    let trunc: Vec<Vec<f64>> = train
        .points
        .iter()
        .map(|p| p[..early_vars].to_vec())
        .collect();
    let fit_naive =
        BmfFitter::new(OrthonormalBasis::linear(early_vars), known)?.fit(&trunc, &train.values)?;
    let trunc_test: Vec<Vec<f64>> = test
        .points
        .iter()
        .map(|p| p[..early_vars].to_vec())
        .collect();
    let err_naive = fit_naive
        .model
        .relative_error(trunc_test.iter().map(|p| p.as_slice()), &test.values)?;
    println!(
        "ignoring the parasitic variables:        {:.3}% error",
        err_naive * 100.0
    );

    assert!(err_flat < err_naive);
    println!("\nmodeling the new terms with flat priors wins, as §IV-B prescribes.");
    Ok(())
}
