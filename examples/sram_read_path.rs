//! The paper's §V-B flow on the behavioral SRAM read path: read-delay
//! modeling with thousands of variation variables from a handful of
//! post-layout samples, plus the Fig. 7 histogram.
//!
//! ```text
//! cargo run --release --example sram_read_path
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::sram::{SramConfig, SramReadPath};
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::fusion::BmfFitter;
use bmf_core::omp::{fit_omp, OmpConfig};
use bmf_stat::histogram::Histogram;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SramConfig {
        rows: 32,
        columns: 4,
        params_per_cell: 4,
        driver_vars: 6,
        senseamp_vars: 8,
        interdie_vars: 6,
        parasitic_vars_per_column: 2,
        ..SramConfig::small()
    };
    let sram = SramReadPath::new(config, 7);
    let delay = sram.read_delay();
    let sch_vars = delay.num_vars(Stage::Schematic);
    let lay_vars = delay.num_vars(Stage::PostLayout);
    println!(
        "SRAM read path: {sch_vars} schematic / {lay_vars} post-layout variables, \
         nominal delay {:.1} ps\n",
        sram.nominal_delay() * 1e12
    );

    // Fig.7-style histogram of the post-layout read-delay distribution.
    let mc = monte_carlo(&delay, Stage::PostLayout, 1000, 1).expect("simulation succeeds");
    let ps: Vec<f64> = mc.values.iter().map(|v| v * 1e12).collect();
    let hist = Histogram::from_samples(&ps, 18)?;
    println!("post-layout read-delay distribution (ps):");
    print!("{}", hist.render_ascii(40));
    println!(
        "mean {:.1} ps, sigma {:.2} ps, skewness {:.2}\n",
        hist.summary().mean(),
        hist.summary().std_dev(),
        hist.summary().skewness()
    );

    // Early model from schematic data.
    let sch = monte_carlo(&delay, Stage::Schematic, 1200, 2).expect("simulation succeeds");
    let early = fit_omp(
        &OrthonormalBasis::linear(sch_vars),
        &sch.points,
        &sch.values,
        &OmpConfig::default(),
    )?;
    println!(
        "early model: {} of {} terms selected, holdout error {:.3}%",
        early.selected.len(),
        sch_vars + 1,
        early.validation_error * 100.0
    );

    // Late-stage fusion with K far below the coefficient count.
    let k = 80;
    let lay = monte_carlo(&delay, Stage::PostLayout, k, 3).expect("simulation succeeds");
    let test = monte_carlo(&delay, Stage::PostLayout, 300, 4).expect("simulation succeeds");
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
        "\nK={k} post-layout samples ({} coefficients to determine):",
        lay_vars + 1
    );
    println!(
        "  BMF-PS: {:.3}%  ({} prior, η={:.1e})",
        bmf_err * 100.0,
        fit.prior_kind,
        fit.hyper
    );
    println!("  OMP:    {:.3}%", omp_err * 100.0);
    assert!(bmf_err < omp_err);
    Ok(())
}
