//! Error-vs-sample-count tables (paper Tables I, II, III, V).
//!
//! For each training-set size K the four methods of §V are fitted on the
//! same post-layout samples and scored on an independent test set with the
//! relative error of eq. 59, averaged over repeated runs:
//!
//! * **OMP** — sparse regression with no early-stage information,
//! * **BMF-ZM** — zero-mean prior, hyper-parameter by cross-validation,
//! * **BMF-NZM** — nonzero-mean prior, hyper-parameter by cross-validation,
//! * **BMF-PS** — prior selection: the better of the two by CV.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::hyper::CvConfig;
use bmf_core::map_estimate::map_estimate;
use bmf_core::omp::{fit_omp_design, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::select::{select_prior, PriorSelection};
use bmf_core::{BmfError, Result};
use bmf_linalg::{Matrix, Vector};
use bmf_stat::rng::derive_seed;

use crate::earlyfit::fit_early_model;
use crate::report::{pct, Report};
use crate::scale::Scale;

/// One row of measured mean errors (fractions, not percent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRow {
    /// Number of post-layout training samples.
    pub k: usize,
    /// Mean OMP error.
    pub omp: f64,
    /// Mean BMF-ZM error.
    pub zm: f64,
    /// Mean BMF-NZM error.
    pub nzm: f64,
    /// Mean BMF-PS error.
    pub ps: f64,
}

/// A full measured table.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorTable {
    /// Rows in increasing K.
    pub rows: Vec<ErrorRow>,
    /// Validation error of the early-stage model used as the prior.
    pub early_error: f64,
}

/// Paper-reported values for one K (percent, as printed in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Number of post-layout training samples.
    pub k: usize,
    /// OMP / BMF-ZM / BMF-NZM / BMF-PS errors in percent.
    pub values: [f64; 4],
}

/// Paper Tables I–III and V, transcribed verbatim.
pub mod paper_data {
    use super::PaperRow;

    /// Table I: relative modeling error (%) of power for the RO.
    pub const TABLE1: &[PaperRow] = &[
        PaperRow {
            k: 100,
            values: [2.7187, 0.7466, 0.5558, 0.5558],
        },
        PaperRow {
            k: 200,
            values: [1.3645, 0.6032, 0.5253, 0.5253],
        },
        PaperRow {
            k: 300,
            values: [1.0390, 0.5411, 0.5078, 0.5110],
        },
        PaperRow {
            k: 400,
            values: [0.9644, 0.5055, 0.4922, 0.4925],
        },
        PaperRow {
            k: 500,
            values: [0.9281, 0.4848, 0.4810, 0.4848],
        },
        PaperRow {
            k: 600,
            values: [0.9049, 0.4719, 0.4716, 0.4736],
        },
        PaperRow {
            k: 700,
            values: [0.8879, 0.4622, 0.4636, 0.4640],
        },
        PaperRow {
            k: 800,
            values: [0.8738, 0.4544, 0.4567, 0.4546],
        },
        PaperRow {
            k: 900,
            values: [0.8671, 0.4501, 0.4525, 0.4518],
        },
    ];

    /// Table II: relative modeling error (%) of phase noise for the RO.
    pub const TABLE2: &[PaperRow] = &[
        PaperRow {
            k: 100,
            values: [0.2871, 0.1033, 0.0974, 0.0982],
        },
        PaperRow {
            k: 200,
            values: [0.1594, 0.1006, 0.0924, 0.0925],
        },
        PaperRow {
            k: 300,
            values: [0.1289, 0.0984, 0.0909, 0.0909],
        },
        PaperRow {
            k: 400,
            values: [0.1175, 0.0948, 0.0887, 0.0887],
        },
        PaperRow {
            k: 500,
            values: [0.1145, 0.0916, 0.0869, 0.0869],
        },
        PaperRow {
            k: 600,
            values: [0.1110, 0.0893, 0.0857, 0.0857],
        },
        PaperRow {
            k: 700,
            values: [0.1087, 0.0876, 0.0848, 0.0848],
        },
        PaperRow {
            k: 800,
            values: [0.1068, 0.0863, 0.0839, 0.0839],
        },
        PaperRow {
            k: 900,
            values: [0.1053, 0.0849, 0.0830, 0.0830],
        },
    ];

    /// Table III: relative modeling error (%) of frequency for the RO.
    pub const TABLE3: &[PaperRow] = &[
        PaperRow {
            k: 100,
            values: [1.8346, 0.5800, 0.6664, 0.6069],
        },
        PaperRow {
            k: 200,
            values: [1.0677, 0.4080, 0.4905, 0.4080],
        },
        PaperRow {
            k: 300,
            values: [0.9081, 0.3311, 0.3674, 0.3311],
        },
        PaperRow {
            k: 400,
            values: [0.8592, 0.2954, 0.3062, 0.2954],
        },
        PaperRow {
            k: 500,
            values: [0.8166, 0.2781, 0.2841, 0.2779],
        },
        PaperRow {
            k: 600,
            values: [0.7948, 0.2672, 0.2705, 0.2672],
        },
        PaperRow {
            k: 700,
            values: [0.7794, 0.2589, 0.2609, 0.2590],
        },
        PaperRow {
            k: 800,
            values: [0.7667, 0.2530, 0.2544, 0.2530],
        },
        PaperRow {
            k: 900,
            values: [0.7471, 0.2487, 0.2500, 0.2487],
        },
    ];

    /// Table V: relative modeling error (%) of read delay for the SRAM
    /// read path.
    pub const TABLE5: &[PaperRow] = &[
        PaperRow {
            k: 100,
            values: [3.2320, 1.0592, 1.1130, 1.0804],
        },
        PaperRow {
            k: 200,
            values: [1.8538, 0.9645, 0.9512, 0.9630],
        },
        PaperRow {
            k: 300,
            values: [1.3691, 0.9055, 0.8643, 0.8791],
        },
        PaperRow {
            k: 400,
            values: [1.1330, 0.8573, 0.8141, 0.8250],
        },
        PaperRow {
            k: 500,
            values: [1.0669, 0.8156, 0.7833, 0.7916],
        },
        PaperRow {
            k: 600,
            values: [1.0319, 0.7777, 0.7582, 0.7609],
        },
        PaperRow {
            k: 700,
            values: [1.0174, 0.7455, 0.7323, 0.7344],
        },
        PaperRow {
            k: 800,
            values: [1.0081, 0.7216, 0.7159, 0.7174],
        },
        PaperRow {
            k: 900,
            values: [0.9974, 0.6986, 0.6958, 0.6989],
        },
    ];
}

/// Takes the first `k` rows of a row-major matrix.
pub(crate) fn row_prefix(g: &Matrix, k: usize) -> Matrix {
    let m = g.ncols();
    Matrix::from_row_major(k, m, g.as_slice()[..k * m].to_vec())
        .expect("prefix length is consistent")
}

/// Scales raw prior values (physical units) into the normalized response
/// space (see [`bmf_core::fusion::response_scale`]).
pub(crate) fn scaled_prior(values: &[Option<f64>], scale: f64) -> Prior {
    Prior::new(
        PriorKind::ZeroMean,
        values.iter().map(|v| v.map(|a| a / scale)).collect(),
    )
}

/// Divides a value slice by `scale` into a [`Vector`].
pub(crate) fn scaled_values(values: &[f64], scale: f64) -> Vector {
    Vector::from_fn(values.len(), |i| values[i] / scale)
}

/// Per-method errors from one (repeat, K) cell.
struct CellErrors {
    omp: f64,
    zm: f64,
    nzm: f64,
    ps: f64,
}

/// One (repeat, K) cell of an error table, in the normalized response
/// space: the first K training rows, the scaled prior, the held-out set,
/// the cross-validation configuration and the repeat's seed.
pub(crate) struct TableCell<'a> {
    pub(crate) g: &'a Matrix,
    pub(crate) f: &'a Vector,
    pub(crate) prior: &'a Prior,
    pub(crate) g_test: &'a Matrix,
    pub(crate) f_test: &'a Vector,
    pub(crate) cv: &'a CvConfig,
    pub(crate) rep_seed: u64,
}

impl TableCell<'_> {
    /// Relative held-out error (eq. 59) of the coefficients `alpha`.
    pub(crate) fn score(&self, alpha: &Vector) -> Result<f64> {
        let pred = self.g_test.matvec(alpha)?;
        Ok(pred.sub(self.f_test)?.norm2() / self.f_test.norm2())
    }

    /// The held-out error of the MAP fit at `kind` and `hyper`.
    pub(crate) fn score_map(&self, kind: PriorKind, hyper: f64) -> Result<f64> {
        let prior = self.prior.with_kind(kind);
        self.score(&map_estimate(
            self.g,
            self.f,
            &prior,
            &FitOptions::new().hyper(hyper),
        )?)
    }
}

/// Fits the four methods on the cell's training rows and scores them
/// against its held-out set.
fn run_cell(cell: &TableCell<'_>) -> Result<CellErrors> {
    let omp_cfg = OmpConfig {
        seed: derive_seed(cell.rep_seed, 2),
        ..OmpConfig::default()
    };
    let omp_fit = fit_omp_design(cell.g, cell.f, &omp_cfg)?;
    let omp = cell.score(&Vector::from(omp_fit.coeffs))?;

    let sel = select_prior(cell.g, cell.f, cell.prior, PriorSelection::Auto, cell.cv)?;
    let (Some(zm_cv), Some(nzm_cv)) = (&sel.zero_mean, &sel.nonzero_mean) else {
        return Err(BmfError::Internal {
            detail: "BMF-PS cross-validated fewer than both prior families",
        });
    };
    let zm = cell.score_map(PriorKind::ZeroMean, zm_cv.best_hyper)?;
    let nzm = cell.score_map(PriorKind::NonZeroMean, nzm_cv.best_hyper)?;
    // BMF-PS keeps whichever prior cross-validated better (on training
    // data only; the test set stays untouched, matching §V's note that
    // PS is not guaranteed to pick the test-set winner).
    let ps = match sel.kind {
        PriorKind::ZeroMean => zm,
        PriorKind::NonZeroMean => nzm,
    };
    Ok(CellErrors { omp, zm, nzm, ps })
}

/// Runs `cell` on every (repeat, K) cell of `circuit`'s error table,
/// repeat-major, and returns its results per K in repeat order, with the
/// early-stage model's validation error.
///
/// # Errors
///
/// Propagates fitting errors from the early model and any cell.
pub(crate) fn table_cells<T>(
    circuit: &dyn CircuitPerformance,
    scale: Scale,
    seed: u64,
    mut cell: impl FnMut(&TableCell<'_>) -> Result<T>,
) -> Result<(Vec<Vec<T>>, f64)> {
    let (early, _sch_set) = fit_early_model(circuit, scale, derive_seed(seed, 1))?;
    let late_vars = circuit.num_vars(Stage::PostLayout);
    let basis = OrthonormalBasis::linear(late_vars);
    let prior_raw = early.late_prior_values(late_vars);

    let k_values = scale.k_values();
    let k_max = *k_values.last().expect("non-empty K sweep");
    let cv = CvConfig {
        grid: scale.hyper_grid(),
        seed: derive_seed(seed, 2),
        ..CvConfig::default()
    };

    let mut out: Vec<Vec<T>> = k_values.iter().map(|_| Vec::new()).collect();
    for rep in 0..scale.repeats() {
        let rep_seed = derive_seed(seed, 100 + rep as u64);
        let train = monte_carlo(circuit, Stage::PostLayout, k_max, derive_seed(rep_seed, 0))
            .expect("simulation succeeds");
        let test = monte_carlo(
            circuit,
            Stage::PostLayout,
            scale.test_samples(),
            derive_seed(rep_seed, 1),
        )
        .expect("simulation succeeds");
        let g_full = basis.design_matrix(train.point_slices());
        let g_test = basis.design_matrix(test.point_slices());
        // Work in the normalized response space (see
        // `bmf_core::fusion::response_scale`); relative errors are
        // unaffected.
        let norm = bmf_core::fusion::response_scale(&train.values);
        let f_test = scaled_values(&test.values, norm);
        let prior = scaled_prior(&prior_raw, norm);

        for (&k, out) in k_values.iter().zip(&mut out) {
            let g = row_prefix(&g_full, k);
            let f = scaled_values(&train.values[..k], norm);
            out.push(cell(&TableCell {
                g: &g,
                f: &f,
                prior: &prior,
                g_test: &g_test,
                f_test: &f_test,
                cv: &cv,
                rep_seed,
            })?);
        }
    }
    Ok((out, early.validation_error))
}

/// Runs the full error table for one circuit metric.
///
/// # Errors
///
/// Propagates fitting errors from any cell.
pub fn run_error_table(
    circuit: &dyn CircuitPerformance,
    scale: Scale,
    seed: u64,
) -> Result<ErrorTable> {
    let (cells, early_error) = table_cells(circuit, scale, seed, run_cell)?;
    let repeats = scale.repeats() as f64;
    let rows = scale
        .k_values()
        .into_iter()
        .zip(&cells)
        .map(|(k, reps)| {
            let mean = |f: fn(&CellErrors) -> f64| reps.iter().fold(0.0, |s, c| s + f(c)) / repeats;
            ErrorRow {
                k,
                omp: mean(|c| c.omp),
                zm: mean(|c| c.zm),
                nzm: mean(|c| c.nzm),
                ps: mean(|c| c.ps),
            }
        })
        .collect();
    Ok(ErrorTable { rows, early_error })
}

/// Renders a measured table against the paper's reference values.
pub fn render_error_table(
    id: &str,
    title: &str,
    table: &ErrorTable,
    paper: &[PaperRow],
    scale: Scale,
) -> Report {
    let mut r = Report::new(id, title);
    r.para(&format!(
        "Scale `{scale}`; errors are relative L2 (eq. 59) in percent, averaged over {} runs. \
         Early-stage model holdout error: {}%. Paper values (50 runs, full-size circuit) \
         shown in parentheses for shape comparison — absolute values are not expected to \
         match, orderings and trends are.",
        scale.repeats(),
        pct(table.early_error),
    ));
    let headers = ["K", "OMP", "BMF-ZM", "BMF-NZM", "BMF-PS"];
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|row| {
            let p = paper.iter().find(|p| p.k == row.k);
            let fmt = |v: f64, col: usize| -> String {
                match p {
                    Some(p) => format!("{} ({:.4})", pct(v), p.values[col]),
                    None => pct(v),
                }
            };
            vec![
                row.k.to_string(),
                fmt(row.omp, 0),
                fmt(row.zm, 1),
                fmt(row.nzm, 2),
                fmt(row.ps, 3),
            ]
        })
        .collect();
    r.table(&headers, &rows);

    // Shape checks, printed so EXPERIMENTS.md can quote them.
    let first = table.rows.first().expect("rows");
    let last = table.rows.last().expect("rows");
    let ps_beats_omp = table.rows.iter().all(|row| row.ps < row.omp);
    let nzm_beats_omp = table.rows.iter().all(|row| row.nzm < row.omp);
    let zm_beats_omp = table.rows.iter().all(|row| row.zm < row.omp);
    r.para(&format!(
        "Shape checks — BMF-PS beats OMP at every K: **{ps_beats_omp}** \
         (BMF-NZM: {nzm_beats_omp}, BMF-ZM: {zm_beats_omp}); \
         OMP error K_min→K_max: {}% → {}%; BMF-PS: {}% → {}%; \
         BMF-PS at K={} vs OMP at K={}: {}% vs {}% (the paper's headline \
         few-samples-match-many comparison).",
        pct(first.omp),
        pct(last.omp),
        pct(first.ps),
        pct(last.ps),
        first.k,
        last.k,
        pct(first.ps),
        pct(last.omp),
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_circuits::ro::{RingOscillator, RoMetric};

    #[test]
    fn paper_tables_are_complete() {
        for t in [
            paper_data::TABLE1,
            paper_data::TABLE2,
            paper_data::TABLE3,
            paper_data::TABLE5,
        ] {
            assert_eq!(t.len(), 9);
            assert_eq!(t[0].k, 100);
            assert_eq!(t[8].k, 900);
            // In every paper row all BMF variants beat OMP.
            for row in t {
                for i in 1..4 {
                    assert!(row.values[i] < row.values[0]);
                }
            }
        }
    }

    #[test]
    fn row_prefix_takes_leading_rows() {
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let p = row_prefix(&g, 2);
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn ci_scale_table_shows_bmf_advantage() {
        let scale = Scale::Ci;
        let ro = RingOscillator::new(scale.ro_config(), 1);
        let metric = ro.metric(RoMetric::Frequency);
        let table = run_error_table(&metric, scale, 42).unwrap();
        assert_eq!(table.rows.len(), scale.k_values().len());
        for row in &table.rows {
            assert!(
                row.ps < row.omp,
                "BMF-PS ({}) should beat OMP ({}) at K={}",
                row.ps,
                row.omp,
                row.k
            );
            assert!(row.ps > 0.0 && row.omp.is_finite());
        }
    }

    #[test]
    fn render_includes_paper_values() {
        let table = ErrorTable {
            rows: vec![ErrorRow {
                k: 100,
                omp: 0.02,
                zm: 0.01,
                nzm: 0.011,
                ps: 0.01,
            }],
            early_error: 0.005,
        };
        let r = render_error_table("t", "x", &table, paper_data::TABLE1, Scale::Ci);
        assert!(r.body.contains("2.0000 (2.7187)"));
    }
}
