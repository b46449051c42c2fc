//! Figure reproductions (paper Figs. 1–8).
//!
//! Figures are regenerated as text: distribution tables for the prior
//! illustrations (Figs. 1–2), structure dumps for the circuit schematics
//! (Figs. 3 and 6), ASCII histograms for the Monte-Carlo distributions
//! (Figs. 4 and 7), and fitting-cost tables for the solver comparisons
//! (Figs. 5 and 8).

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::ro::{RingOscillator, RoMetric};
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::sram::SramReadPath;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::hyper::CvConfig;
use bmf_core::map_estimate::{map_estimate, SolverKind};
use bmf_core::omp::{fit_omp_design, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::PriorKind;
use bmf_core::select::{select_prior, PriorSelection};
use bmf_core::Result;
use bmf_stat::histogram::Histogram;
use bmf_stat::normal::Normal;
use bmf_stat::rng::derive_seed;

use crate::earlyfit::fit_early_model;
use crate::report::{secs, Report};
use crate::scale::Scale;
use crate::tables::row_prefix;
use crate::timing::median_secs;

/// Fig. 1 / Fig. 2: prior-distribution illustrations for one small and one
/// large early-stage coefficient.
pub fn prior_illustration(kind: PriorKind) -> Report {
    let (id, title) = match kind {
        PriorKind::ZeroMean => ("fig1", "Zero-mean prior distributions (paper Fig. 1)"),
        PriorKind::NonZeroMean => ("fig2", "Nonzero-mean prior distributions (paper Fig. 2)"),
    };
    let mut r = Report::new(id, title);
    let (alpha_small, alpha_large) = (0.25, 2.0);
    let lambda = 0.5;
    let (d1, d2) = match kind {
        PriorKind::ZeroMean => (Normal::new(0.0, alpha_small), Normal::new(0.0, alpha_large)),
        PriorKind::NonZeroMean => (
            Normal::new(alpha_small, lambda * alpha_small),
            Normal::new(alpha_large, lambda * alpha_large),
        ),
    };
    r.para(&format!(
        "Early coefficients: α_E,1 = {alpha_small} (small), α_E,2 = {alpha_large} (large). \
         {} prior: pdf(α_L,1) is narrowly peaked, pdf(α_L,2) spreads widely — the paper's \
         qualitative picture.",
        kind
    ));
    let mut rows = Vec::new();
    let mut chart = String::new();
    for i in 0..41 {
        let x = -4.0 + 0.2 * i as f64;
        let (p1, p2) = (d1.pdf(x), d2.pdf(x));
        rows.push(vec![
            format!("{x:.1}"),
            format!("{p1:.4}"),
            format!("{p2:.4}"),
        ]);
        let bar1 = "#".repeat((p1 * 25.0).round() as usize);
        let bar2 = "*".repeat((p2 * 25.0).round() as usize);
        chart.push_str(&format!("{x:>5.1} | {bar1}{bar2}\n"));
    }
    r.table(&["α_L", "pdf(α_L,1)", "pdf(α_L,2)"], &rows[14..27]);
    r.pre(&chart);
    r
}

/// Fig. 3: RO structure dump.
pub fn ro_structure(scale: Scale, seed: u64) -> Report {
    let ro = RingOscillator::new(scale.ro_config(), seed);
    let mut r = Report::new("fig3", "Ring-oscillator structure (paper Fig. 3)");
    let cfg = ro.config();
    r.para(&format!(
        "{} inverter stages, {} transistors/stage, {} mismatch variables/transistor, \
         {} interdie variables, {} parasitic variables/stage (post-layout only). \
         Nominal frequency {:.3} GHz. Schematic variables: {}; post-layout: {} \
         (paper: 7177 at `--scale paper`).",
        cfg.stages,
        cfg.transistors_per_stage,
        cfg.params_per_transistor,
        cfg.interdie_vars,
        cfg.parasitic_vars_per_stage,
        ro.nominal_frequency() / 1e9,
        cfg.schematic_vars(),
        cfg.post_layout_vars(),
    ));
    let mut dump = String::new();
    for g in ro.var_space(Stage::PostLayout).groups().iter().take(6) {
        dump.push_str(&format!("{:<24} vars {:?}\n", g.name, g.range));
    }
    dump.push_str("...\n");
    let groups = ro.var_space(Stage::PostLayout).groups();
    for g in groups.iter().skip(groups.len().saturating_sub(2)) {
        dump.push_str(&format!("{:<24} vars {:?}\n", g.name, g.range));
    }
    r.pre(&dump);
    r
}

/// Fig. 6: SRAM read-path structure dump.
pub fn sram_structure(scale: Scale, seed: u64) -> Report {
    let sram = SramReadPath::new(scale.sram_config(), seed);
    let mut r = Report::new("fig6", "SRAM read-path structure (paper Fig. 6)");
    let cfg = sram.config();
    r.para(&format!(
        "{} rows × {} columns, {} mismatch variables/cell, wordline driver ({} vars), \
         sense amp ({} vars), {} parasitic variables/column (post-layout). Nominal read \
         delay {:.1} ps. Schematic variables: {}; post-layout: {} (paper: 66117 at \
         `--scale paper`).",
        cfg.rows,
        cfg.columns,
        cfg.params_per_cell,
        cfg.driver_vars,
        cfg.senseamp_vars,
        cfg.parasitic_vars_per_column,
        sram.nominal_delay() * 1e12,
        cfg.schematic_vars(),
        cfg.post_layout_vars(),
    ));
    let groups = sram.var_space(Stage::PostLayout).groups();
    let mut dump = String::new();
    for g in groups.iter().take(5) {
        dump.push_str(&format!("{:<28} vars {:?}\n", g.name, g.range));
    }
    dump.push_str("...\n");
    for g in groups.iter().skip(groups.len().saturating_sub(2)) {
        dump.push_str(&format!("{:<28} vars {:?}\n", g.name, g.range));
    }
    r.pre(&dump);
    r
}

fn histogram_section(r: &mut Report, label: &str, values: &[f64], unit: &str, scale_to: f64) {
    let scaled: Vec<f64> = values.iter().map(|v| v * scale_to).collect();
    let h = Histogram::from_samples(&scaled, 24).expect("non-empty samples");
    let s = h.summary();
    r.para(&format!(
        "**{label}** ({} samples): mean {:.4} {unit}, σ {:.4} {unit} \
         (CoV {:.2}%), skewness {:.2}, range [{:.4}, {:.4}] {unit}.",
        s.count(),
        s.mean(),
        s.std_dev(),
        s.coefficient_of_variation() * 100.0,
        s.skewness(),
        s.min(),
        s.max(),
    ));
    r.pre(&h.render_ascii(46));
}

/// Fig. 4: histograms of RO power / phase noise / frequency from
/// post-layout Monte-Carlo samples.
pub fn ro_histograms(scale: Scale, seed: u64) -> Report {
    let ro = RingOscillator::new(scale.ro_config(), seed);
    let mut r = Report::new(
        "fig4",
        "Post-layout Monte-Carlo histograms for the RO (paper Fig. 4)",
    );
    let n = scale.histogram_samples();
    for (metric, label, unit, factor) in [
        (RoMetric::Power, "(a) power", "µW", 1e6),
        (RoMetric::PhaseNoise, "(b) phase noise", "dBc/Hz", 1.0),
        (RoMetric::Frequency, "(c) frequency", "GHz", 1e-9),
    ] {
        let view = ro.metric(metric);
        let set = monte_carlo(
            &view,
            Stage::PostLayout,
            n,
            derive_seed(seed, metric as u64),
        )
        .expect("simulation succeeds");
        histogram_section(&mut r, label, &set.values, unit, factor);
    }
    r
}

/// Fig. 7: histogram of SRAM read delay.
pub fn sram_histogram(scale: Scale, seed: u64) -> Report {
    let sram = SramReadPath::new(scale.sram_config(), seed);
    let mut r = Report::new(
        "fig7",
        "Post-layout Monte-Carlo histogram of SRAM read delay (paper Fig. 7)",
    );
    let view = sram.read_delay();
    let set = monte_carlo(&view, Stage::PostLayout, scale.histogram_samples(), seed)
        .expect("simulation succeeds");
    histogram_section(&mut r, "read delay", &set.values, "ps", 1e12);
    r
}

/// One measured fitting-cost row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRow {
    /// Training samples.
    pub k: usize,
    /// OMP fit, seconds.
    pub omp_s: f64,
    /// BMF-PS full pipeline with the fast solver (CV + final), seconds.
    pub bmf_fast_s: f64,
    /// Single MAP solve with the conventional M×M Cholesky, seconds
    /// (`None` when skipped as infeasible, as the paper does for the
    /// SRAM).
    pub direct_s: Option<f64>,
    /// Single MAP solve with the fast solver, seconds.
    pub fast_solve_s: f64,
}

/// Measures fitting cost vs K for one circuit metric (Figs. 5 and 8).
///
/// # Errors
///
/// Propagates fitting errors.
pub fn fitting_cost_sweep(
    circuit: &dyn CircuitPerformance,
    scale: Scale,
    seed: u64,
    include_direct: bool,
) -> Result<Vec<CostRow>> {
    let (early, _) = fit_early_model(circuit, scale, derive_seed(seed, 1))?;
    let late_vars = circuit.num_vars(Stage::PostLayout);
    let basis = OrthonormalBasis::linear(late_vars);
    let prior_raw = early.late_prior_values(late_vars);
    let k_values = scale.k_values();
    let k_max = *k_values.last().expect("non-empty");
    let train = monte_carlo(circuit, Stage::PostLayout, k_max, derive_seed(seed, 2))
        .expect("simulation succeeds");
    let norm = bmf_core::fusion::response_scale(&train.values);
    let prior = crate::tables::scaled_prior(&prior_raw, norm);
    let g_full = basis.design_matrix(train.point_slices());
    let cv = CvConfig {
        grid: scale.hyper_grid(),
        ..CvConfig::default()
    };

    let mut rows = Vec::new();
    for &k in &k_values {
        let g = row_prefix(&g_full, k);
        let f = crate::tables::scaled_values(&train.values[..k], norm);

        let (_, omp_s) = median_secs(|| fit_omp_design(&g, &f, &OmpConfig::default()))?;

        let (ps, bmf_fast_s) = median_secs(|| {
            let ps = select_prior(&g, &f, &prior, PriorSelection::Auto, &cv)?;
            map_estimate(
                &g,
                &f,
                &prior.with_kind(ps.kind),
                &FitOptions::new().hyper(ps.hyper),
            )?;
            Ok(ps)
        })?;
        let chosen = prior.with_kind(ps.kind);
        let solve = |solver| {
            median_secs(|| {
                map_estimate(
                    &g,
                    &f,
                    &chosen,
                    &FitOptions::new().hyper(ps.hyper).solver(solver),
                )
            })
        };
        let (_, fast_solve_s) = solve(SolverKind::Fast)?;
        let direct_s = if include_direct {
            Some(solve(SolverKind::Direct)?.1)
        } else {
            None
        };
        rows.push(CostRow {
            k,
            omp_s,
            bmf_fast_s,
            direct_s,
            fast_solve_s,
        });
    }
    Ok(rows)
}

/// Renders a fitting-cost sweep.
pub fn render_cost_figure(id: &str, title: &str, rows: &[CostRow], m: usize) -> Report {
    let mut r = Report::new(id, title);
    r.para(&format!(
        "Fitting cost in wall-clock seconds (M = {m} basis functions). \
         Each time is the median of five runs: `MAP direct` and `MAP fast` time one \
         posterior solve with the conventional M×M Cholesky vs the low-rank update of \
         §IV-C; `BMF-PS (fast)` is the complete pipeline (both-prior cross-validation \
         + final solve). The paper reports up to 600× between the two solvers at its \
         scale.",
    ));
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.k.to_string(),
                secs(row.omp_s),
                secs(row.bmf_fast_s),
                row.direct_s.map_or("(infeasible)".into(), secs),
                secs(row.fast_solve_s),
                row.direct_s.map_or("-".into(), |d| {
                    format!("{:.0}x", d / row.fast_solve_s.max(1e-9))
                }),
            ]
        })
        .collect();
    r.table(
        &[
            "K",
            "OMP (s)",
            "BMF-PS fast (s)",
            "MAP direct (s)",
            "MAP fast (s)",
            "solver speedup",
        ],
        &table_rows,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_illustrations_have_expected_shape() {
        let f1 = prior_illustration(PriorKind::ZeroMean);
        assert_eq!(f1.id, "fig1");
        assert!(f1.body.contains("pdf"));
        let f2 = prior_illustration(PriorKind::NonZeroMean);
        assert_eq!(f2.id, "fig2");
    }

    #[test]
    fn structure_dumps_mention_counts() {
        let r = ro_structure(Scale::Ci, 1);
        assert!(r.body.contains("interdie"));
        let s = sram_structure(Scale::Ci, 1);
        assert!(s.body.contains("columns"));
    }

    #[test]
    fn ro_histograms_render() {
        let r = ro_histograms(Scale::Ci, 7);
        assert!(r.body.contains("(a) power"));
        assert!(r.body.contains("(c) frequency"));
        assert!(r.body.contains("#"));
    }

    #[test]
    fn sram_histogram_renders() {
        let r = sram_histogram(Scale::Ci, 7);
        assert!(r.body.contains("read delay"));
    }

    #[test]
    fn cost_sweep_produces_rows() {
        let scale = Scale::Ci;
        let ro = RingOscillator::new(scale.ro_config(), 2);
        let metric = ro.metric(RoMetric::Frequency);
        let rows = fitting_cost_sweep(&metric, scale, 5, true).unwrap();
        assert_eq!(rows.len(), scale.k_values().len());
        for row in &rows {
            assert!(row.omp_s > 0.0);
            assert!(row.bmf_fast_s > 0.0);
            assert!(row.direct_s.unwrap() > 0.0);
        }
        let rep = render_cost_figure("fig5", "t", &rows, 123);
        assert!(rep.body.contains("solver speedup"));
    }
}
