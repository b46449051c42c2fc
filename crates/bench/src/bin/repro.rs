//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale ci|default|paper] [--seed N] [--out DIR]
//! repro all
//! repro list
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bmf_bench::ablation;
use bmf_bench::costs::{render_cost_table, run_cost_comparison};
use bmf_bench::figures;
use bmf_bench::report::Report;
use bmf_bench::scale::Scale;
use bmf_bench::tables::{paper_data, render_error_table, run_error_table};
use bmf_circuits::ro::{RingOscillator, RoMetric};
use bmf_circuits::sram::SramReadPath;
use bmf_core::prior::PriorKind;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "zero-mean prior illustration"),
    ("fig2", "nonzero-mean prior illustration"),
    ("fig3", "RO structure"),
    ("fig4", "RO Monte-Carlo histograms"),
    ("table1", "RO power error vs K"),
    ("table2", "RO phase-noise error vs K"),
    ("table3", "RO frequency error vs K"),
    ("fig5", "RO fitting cost vs K"),
    ("table4", "RO error/cost summary"),
    ("fig6", "SRAM structure"),
    ("fig7", "SRAM read-delay histogram"),
    ("table5", "SRAM read-delay error vs K"),
    ("fig8", "SRAM fitting cost vs K"),
    ("table6", "SRAM error/cost summary"),
    ("solver", "direct vs fast MAP solver scaling"),
    ("priormap", "multifinger prior mapping case study"),
    ("missing", "missing-prior case study"),
    ("ablation-prior", "prior family vs early/late shift"),
    ("ablation-eta", "error vs hyper-parameter"),
    ("ablation-select", "LOO vs 5-fold hyper-parameter selection"),
    ("ablation-baselines", "OMP vs LASSO vs LS vs BMF-PS"),
    ("nonlinear", "BMF with a degree-2 Hermite basis"),
    ("batch", "batch fitting vs serial loop throughput"),
    ("allocs", "heap allocations per cross-validated fit"),
];

struct Args {
    experiment: String,
    scale: Scale,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    let mut scale = Scale::Default;
    let mut seed = 20130602; // DAC 2013 :-)
    let mut out = PathBuf::from(".");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse::<Scale>()?;
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(Args {
        experiment,
        scale,
        seed,
        out,
    })
}

fn usage() -> String {
    let mut s = String::from(
        "usage: repro <experiment|all|list> [--scale ci|default|paper] [--seed N] [--out DIR]\n\nexperiments:\n",
    );
    for (id, desc) in EXPERIMENTS {
        s.push_str(&format!("  {id:<16} {desc}\n"));
    }
    s
}

fn run_experiment(id: &str, scale: Scale, seed: u64) -> Result<Report, String> {
    let err = |e: bmf_core::BmfError| e.to_string();
    match id {
        "fig1" => Ok(figures::prior_illustration(PriorKind::ZeroMean)),
        "fig2" => Ok(figures::prior_illustration(PriorKind::NonZeroMean)),
        "fig3" => Ok(figures::ro_structure(scale, seed)),
        "fig4" => Ok(figures::ro_histograms(scale, seed)),
        "fig6" => Ok(figures::sram_structure(scale, seed)),
        "fig7" => Ok(figures::sram_histogram(scale, seed)),
        "table1" | "table2" | "table3" => {
            let ro = RingOscillator::new(scale.ro_config(), seed);
            let (metric, title, paper) = match id {
                "table1" => (
                    RoMetric::Power,
                    "Relative modeling error of power for RO (paper Table I)",
                    paper_data::TABLE1,
                ),
                "table2" => (
                    RoMetric::PhaseNoise,
                    "Relative modeling error of phase noise for RO (paper Table II)",
                    paper_data::TABLE2,
                ),
                _ => (
                    RoMetric::Frequency,
                    "Relative modeling error of frequency for RO (paper Table III)",
                    paper_data::TABLE3,
                ),
            };
            let view = ro.metric(metric);
            let table = run_error_table(&view, scale, seed).map_err(err)?;
            Ok(render_error_table(id, title, &table, paper, scale))
        }
        "table5" => {
            let sram = SramReadPath::new(scale.sram_config(), seed);
            let view = sram.read_delay();
            let table = run_error_table(&view, scale, seed).map_err(err)?;
            Ok(render_error_table(
                id,
                "Relative modeling error of read delay for SRAM read path (paper Table V)",
                &table,
                paper_data::TABLE5,
                scale,
            ))
        }
        "fig5" => {
            let ro = RingOscillator::new(scale.ro_config(), seed);
            let view = ro.metric(RoMetric::Frequency);
            let rows = figures::fitting_cost_sweep(&view, scale, seed, true).map_err(err)?;
            Ok(figures::render_cost_figure(
                "fig5",
                "Fitting cost for the RO (paper Fig. 5)",
                &rows,
                scale.ro_config().post_layout_vars() + 1,
            ))
        }
        "fig8" => {
            let sram = SramReadPath::new(scale.sram_config(), seed);
            let view = sram.read_delay();
            // As in the paper, the conventional M×M solver is skipped at
            // SRAM scale (Fig. 8 omits it as computationally infeasible).
            let include_direct = scale == Scale::Ci;
            let rows =
                figures::fitting_cost_sweep(&view, scale, seed, include_direct).map_err(err)?;
            Ok(figures::render_cost_figure(
                "fig8",
                "Fitting cost for the SRAM read path (paper Fig. 8)",
                &rows,
                scale.sram_config().post_layout_vars() + 1,
            ))
        }
        "table4" => {
            let ro = RingOscillator::new(scale.ro_config(), seed);
            let view = ro.metric(RoMetric::Power);
            let (k_omp, k_bmf) = match scale {
                Scale::Ci => (80, 40),
                _ => (900, 100),
            };
            let cmp = run_cost_comparison(&view, scale, seed, k_omp, k_bmf).map_err(err)?;
            Ok(render_cost_table(
                "table4",
                "Relative modeling error and cost for RO (paper Table IV)",
                &cmp,
                12.58,
                1.40,
                140.31,
                7.42,
                "9x",
            ))
        }
        "table6" => {
            let sram = SramReadPath::new(scale.sram_config(), seed);
            let view = sram.read_delay();
            let (k_omp, k_bmf) = match scale {
                Scale::Ci => (80, 40),
                _ => (400, 100),
            };
            let cmp = run_cost_comparison(&view, scale, seed, k_omp, k_bmf).map_err(err)?;
            Ok(render_cost_table(
                "table6",
                "Relative modeling error and cost for SRAM read path (paper Table VI)",
                &cmp,
                38.77,
                9.69,
                112.53,
                20.79,
                "4x",
            ))
        }
        "solver" => ablation::solver_scaling(scale, seed).map_err(err),
        "priormap" => ablation::prior_mapping_study(scale, seed).map_err(err),
        "missing" => ablation::missing_prior_study(scale, seed).map_err(err),
        "ablation-prior" => ablation::prior_quality_sweep(scale, seed).map_err(err),
        "ablation-eta" => ablation::hyper_sensitivity(scale, seed).map_err(err),
        "ablation-select" => ablation::selection_rule(scale, seed).map_err(err),
        "ablation-baselines" => ablation::baseline_comparison(scale, seed).map_err(err),
        "nonlinear" => ablation::nonlinear_study(scale, seed).map_err(err),
        "batch" => bmf_bench::batch_study::batch_throughput(scale, seed).map_err(err),
        "allocs" => bmf_bench::allocs_study::allocation_study(scale, seed)
            .map(|out| out.report)
            .map_err(err),
        other => Err(format!("unknown experiment '{other}'\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.experiment == "list" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let ids: Vec<&str> = if args.experiment == "all" {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        vec![args.experiment.as_str()]
    };
    for id in ids {
        eprintln!("==> {id} (scale {}, seed {})", args.scale, args.seed);
        let started = std::time::Instant::now();
        match run_experiment(id, args.scale, args.seed) {
            Ok(report) => {
                if let Err(e) = report.emit(&args.out) {
                    eprintln!("failed to write report for {id}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("<== {id} done in {:.1}s", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
