//! The paper's §V-A flow on the behavioral ring oscillator: model all
//! three post-layout metrics (power, phase noise, frequency) from few
//! post-layout samples by fusing the schematic-stage models.
//!
//! ```text
//! cargo run --release --example ring_oscillator
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
use bmf_circuits::sim::{monte_carlo, CostLedger};
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::fusion::BmfFitter;
use bmf_core::omp::{fit_omp, OmpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-size RO (run `repro table1 --scale default` for the full
    // experiment with the paper-shape configuration).
    let config = RoConfig {
        stages: 11,
        transistors_per_stage: 2,
        params_per_transistor: 8,
        interdie_vars: 8,
        parasitic_vars_per_stage: 1,
        ..RoConfig::small()
    };
    let ro = RingOscillator::new(config, 2024);
    println!(
        "ring oscillator: {} schematic / {} post-layout variation variables, nominal {:.2} GHz\n",
        ro.config().schematic_vars(),
        ro.config().post_layout_vars(),
        ro.nominal_frequency() / 1e9
    );

    let k_late = 60;
    let mut ledger = CostLedger::new();

    for metric in [RoMetric::Power, RoMetric::PhaseNoise, RoMetric::Frequency] {
        let view = ro.metric(metric);
        let sch_vars = view.num_vars(Stage::Schematic);
        let lay_vars = view.num_vars(Stage::PostLayout);

        // Early stage: reuse the schematic validation data (sunk cost).
        let sch = monte_carlo(&view, Stage::Schematic, 800, 1).expect("simulation succeeds");
        let early = fit_omp(
            &OrthonormalBasis::linear(sch_vars),
            &sch.points,
            &sch.values,
            &OmpConfig::default(),
        )?;

        // Late stage: few expensive post-layout simulations.
        let lay = monte_carlo(&view, Stage::PostLayout, k_late, 2).expect("simulation succeeds");
        ledger.charge_samples(&lay);
        let test = monte_carlo(&view, Stage::PostLayout, 300, 3).expect("simulation succeeds");

        let mut prior: Vec<Option<f64>> = early.model.coeffs().iter().map(|&a| Some(a)).collect();
        prior.extend(std::iter::repeat_n(None, lay_vars - sch_vars));

        let started = std::time::Instant::now();
        let fit = BmfFitter::new(OrthonormalBasis::linear(lay_vars), prior)?
            .fit(&lay.points, &lay.values)?;
        ledger.charge_fitting_seconds(started.elapsed().as_secs_f64());

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
            "{metric:<12} K={k_late}: BMF-PS {:.3}% ({} prior)  vs  OMP {:.3}%",
            bmf_err * 100.0,
            fit.prior_kind,
            omp_err * 100.0
        );
    }

    println!(
        "\nsimulated post-layout simulation cost: {:.2} h; fitting: {:.2} s",
        ledger.simulation_hours, ledger.fitting_seconds
    );
    Ok(())
}
