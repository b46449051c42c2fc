//! Bench: end-to-end fitting cost of the four methods at a few
//! training-set sizes — the Fig. 5/8 comparison as a repeatable benchmark.
//! Runs on the in-tree timing harness; pass `--smoke` for a one-iteration
//! CI run at a reduced size.

use bmf_basis::basis::OrthonormalBasis;
use bmf_bench::timing::Harness;
use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::hyper::{log_grid, CvConfig};
use bmf_core::map_estimate::{map_estimate, SolverKind};
use bmf_core::omp::{fit_omp_design, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::select::{select_prior, PriorSelection};
use bmf_linalg::{Matrix, Vector};

struct Setup {
    g: Matrix,
    f: Vector,
    prior: Prior,
    cv: CvConfig,
}

fn setup(k: usize) -> Setup {
    // A mid-size RO so one bench iteration is milliseconds-to-seconds.
    let cfg = RoConfig {
        stages: 13,
        transistors_per_stage: 2,
        params_per_transistor: 10,
        interdie_vars: 8,
        parasitic_vars_per_stage: 1,
        ..RoConfig::small()
    };
    let ro = RingOscillator::new(cfg, 7);
    let metric = ro.metric(RoMetric::Frequency);
    let set = monte_carlo(&metric, Stage::PostLayout, k, 11).expect("simulation succeeds");
    let m_vars = metric.num_vars(Stage::PostLayout);
    let basis = OrthonormalBasis::linear(m_vars);
    let g = basis.design_matrix(set.point_slices());
    // Work in the normalized response space (see
    // bmf_core::fusion::response_scale): raw hertz would wreck both the
    // prior scaling and the dimensionless hyper grid.
    let norm = bmf_core::fusion::response_scale(&set.values);
    let f = Vector::from_fn(set.values.len(), |i| set.values[i] / norm);
    // Early knowledge: rough stand-in prior in the normalized space.
    let sch_vars = metric.num_vars(Stage::Schematic);
    let mut early: Vec<Option<f64>> = vec![Some(0.01); sch_vars + 1];
    early[0] = Some(ro.nominal_frequency() / norm);
    early.extend(std::iter::repeat_n(None, m_vars - sch_vars));
    let prior = Prior::new(PriorKind::ZeroMean, early);
    let cv = CvConfig {
        folds: 5,
        grid: log_grid(1e-3, 1e3, 7),
        seed: 3,
    };
    Setup { g, f, prior, cv }
}

fn main() {
    let h = Harness::from_cli();
    let sizes: &[usize] = if h.is_smoke() { &[60] } else { &[100, 300] };
    for &k in sizes {
        let s = setup(k);
        h.bench(&format!("fitting_cost/omp/{k}"), || {
            fit_omp_design(&s.g, &s.f, &OmpConfig::default()).expect("omp")
        });
        h.bench(&format!("fitting_cost/bmf_ps_fast/{k}"), || {
            let ps = select_prior(&s.g, &s.f, &s.prior, PriorSelection::Auto, &s.cv).expect("cv");
            map_estimate(
                &s.g,
                &s.f,
                &s.prior.with_kind(ps.kind),
                &FitOptions::new().hyper(ps.hyper),
            )
            .expect("map")
        });
        h.bench(&format!("fitting_cost/bmf_map_direct/{k}"), || {
            map_estimate(
                &s.g,
                &s.f,
                &s.prior,
                &FitOptions::new().hyper(1.0).solver(SolverKind::Direct),
            )
            .expect("map")
        });
    }
}
