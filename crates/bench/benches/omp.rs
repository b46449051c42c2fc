//! Bench: OMP baseline cost scaling in K and M, plus the Monte-Carlo
//! engine and design-matrix assembly it feeds on. The full run adds the
//! shape of the `fit_wide` workload's early-stage models: K = 600,
//! M = 1918 linear terms, `max_terms` 100 and no patience stop, so every
//! fit runs all 100 greedy steps. Runs on the in-tree timing harness;
//! pass `--smoke` for a one-iteration CI run at reduced sizes.

use bmf_basis::basis::OrthonormalBasis;
use bmf_bench::timing::Harness;
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::sram::{SramConfig, SramReadPath};
use bmf_circuits::stage::Stage;
use bmf_core::omp::{fit_omp_design, OmpConfig};
use bmf_linalg::{Matrix, Vector};
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

fn sparse_problem(k: usize, m: usize) -> (Matrix, Vector) {
    let mut rng = seeded(5);
    let mut s = StandardNormal::new();
    let g = Matrix::from_fn(k, m, |_, _| s.sample(&mut rng));
    let mut truth = vec![0.0; m];
    for i in 0..10 {
        truth[i * (m / 10)] = 1.0 / (1.0 + i as f64);
    }
    let f = g.matvec(&Vector::from(truth)).expect("shapes");
    (g, f)
}

fn main() {
    let h = Harness::from_cli();
    let shapes: &[(usize, usize)] = if h.is_smoke() {
        &[(60, 300)]
    } else {
        &[(100, 500), (100, 2000), (300, 2000)]
    };
    for &(k, m) in shapes {
        let (g, f) = sparse_problem(k, m);
        h.bench(&format!("omp/fit/k{k}_m{m}"), || {
            fit_omp_design(&g, &f, &OmpConfig::default()).expect("omp")
        });
    }
    if !h.is_smoke() {
        // Noise keeps the residual above `min_relative_residual`, as the
        // circuits' nonlinear terms do, so no early exit cuts the run short.
        let (g, mut f) = sparse_problem(600, 1918);
        let mut rng = seeded(6);
        let mut s = StandardNormal::new();
        for i in 0..f.len() {
            f[i] += 0.05 * s.sample(&mut rng);
        }
        let cfg = OmpConfig {
            max_terms: Some(100),
            patience: usize::MAX,
            ..OmpConfig::default()
        };
        h.bench("omp/fit_wide_early/k600_m1918", || {
            fit_omp_design(&g, &f, &cfg).expect("omp")
        });
    }

    let mc = if h.is_smoke() { 50 } else { 100 };
    let sram = SramReadPath::new(SramConfig::small(), 3);
    let view = sram.read_delay();
    h.bench(&format!("substrate/sram_mc_{mc}"), || {
        monte_carlo(&view, Stage::PostLayout, mc, 1).expect("simulation succeeds")
    });
    let set = monte_carlo(&view, Stage::PostLayout, mc, 1).expect("simulation succeeds");
    let basis = OrthonormalBasis::linear(set.points[0].len());
    h.bench(&format!("substrate/design_matrix_{mc}"), || {
        basis.design_matrix(set.point_slices())
    });
}
