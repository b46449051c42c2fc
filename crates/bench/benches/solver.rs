//! Bench: direct (Cholesky) vs fast (low-rank) MAP solver across problem
//! size M — the §IV-C comparison behind Fig. 5's solver curves and the
//! 600× claim. Runs on the in-tree timing harness; pass `--smoke` for a
//! one-iteration CI run at reduced sizes.

use bmf_bench::allocs_study::map_problem;
use bmf_bench::timing::Harness;
use bmf_core::map_estimate::{map_estimate, SolverKind};
use bmf_core::options::FitOptions;

fn main() {
    let h = Harness::from_cli();
    let k = 100;
    let sizes: &[usize] = if h.is_smoke() {
        &[100, 250]
    } else {
        &[250, 500, 1000, 2000]
    };
    for &m in sizes {
        let (g, f, prior) = map_problem(k, m, 42).expect("shapes match");
        h.bench(&format!("map_solver/fast/{m}"), || {
            map_estimate(&g, &f, &prior, &FitOptions::new().hyper(1.0)).expect("solve")
        });
        // Direct solver only up to 1000 to keep bench wall time sane; the
        // gap is already decisive there.
        if m <= 1000 {
            h.bench(&format!("map_solver/direct/{m}"), || {
                map_estimate(
                    &g,
                    &f,
                    &prior,
                    &FitOptions::new().hyper(1.0).solver(SolverKind::Direct),
                )
                .expect("solve")
            });
        }
    }
}
