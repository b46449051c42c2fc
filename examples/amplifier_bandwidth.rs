//! Beyond the paper's testbeds: BMF on an amplifier whose gain and
//! bandwidth come from genuine small-signal AC analysis (complex MNA),
//! with layout parasitics crushing the bandwidth — the classic
//! post-layout surprise that early-stage data alone cannot predict.
//!
//! ```text
//! cargo run --release --example amplifier_bandwidth
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::amplifier::{Amplifier, AmplifierConfig, AmplifierMetric};
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::applications::{yield_monte_carlo, Spec};
use bmf_core::fusion::BmfFitter;
use bmf_core::omp::{fit_omp, OmpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let amp = Amplifier::new(AmplifierConfig::default(), 99);
    let bw = amp.metric(AmplifierMetric::BandwidthHz);
    let sch_vars = bw.num_vars(Stage::Schematic);
    let lay_vars = bw.num_vars(Stage::PostLayout);

    let nom_sch = bw
        .evaluate(Stage::Schematic, &vec![0.0; sch_vars])
        .expect("simulation succeeds");
    let nom_lay = bw
        .evaluate(Stage::PostLayout, &vec![0.0; lay_vars])
        .expect("simulation succeeds");
    println!(
        "nominal -3dB bandwidth: schematic {:.1} MHz -> post-layout {:.1} MHz \
         (parasitic load capacitance)",
        nom_sch / 1e6,
        nom_lay / 1e6
    );

    // Early model from schematic AC sweeps.
    let sch = monte_carlo(&bw, Stage::Schematic, 400, 1).expect("simulation succeeds");
    let early = fit_omp(
        &OrthonormalBasis::linear(sch_vars),
        &sch.points,
        &sch.values,
        &OmpConfig::default(),
    )?;

    // Post-layout fusion: the intercept shift and parasitic terms must be
    // learned from the few late samples.
    let k = 30;
    let lay = monte_carlo(&bw, Stage::PostLayout, k, 2).expect("simulation succeeds");
    let test = monte_carlo(&bw, Stage::PostLayout, 300, 3).expect("simulation succeeds");
    let mut prior: Vec<Option<f64>> = early.model.coeffs().iter().map(|&a| Some(a)).collect();
    prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));

    let fit =
        BmfFitter::new(OrthonormalBasis::linear(lay_vars), prior)?.fit(&lay.points, &lay.values)?;
    let bmf_err = fit
        .model
        .relative_error(test.point_slices(), &test.values)?;
    let omp = fit_omp(
        &OrthonormalBasis::linear(lay_vars),
        &lay.points,
        &lay.values,
        &OmpConfig::default(),
    )?;
    let omp_err = omp
        .model
        .relative_error(test.point_slices(), &test.values)?;
    println!(
        "\nbandwidth model from {k} post-layout AC runs: BMF-PS {:.2}% vs OMP {:.2}%",
        bmf_err * 100.0,
        omp_err * 100.0
    );

    // Downstream use: parametric yield against a bandwidth spec, from the
    // *model* (thousands of cheap evaluations).
    let spec = Spec::LowerBound(nom_lay * 0.93);
    let y_model = yield_monte_carlo(&fit.model, &spec, 20_000, 5)?;
    // Reference: brute-force yield from the actual circuit.
    let brute = monte_carlo(&bw, Stage::PostLayout, 2_000, 6).expect("simulation succeeds");
    let y_true =
        brute.values.iter().filter(|v| spec.passes(**v)).count() as f64 / brute.values.len() as f64;
    println!(
        "yield vs spec(BW >= {:.1} MHz): model {:.1}% +- {:.1}%, circuit MC {:.1}%",
        nom_lay * 0.93 / 1e6,
        y_model.value * 100.0,
        y_model.std_err * 100.0 * 2.0,
        y_true * 100.0
    );
    assert!((y_model.value - y_true).abs() < 0.08);
    Ok(())
}
