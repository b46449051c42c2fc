//! Integration test: the experiment harness reproduces the paper's
//! qualitative shapes at CI scale — the same checks EXPERIMENTS.md quotes
//! at default scale. BMF-PS stays below OMP at every K on all four error
//! tables (RO power, phase noise and frequency, SRAM read delay), which
//! pins the prior and hyper-parameter selection rule on each.

use bmf_bench::costs::run_cost_comparison;
use bmf_bench::scale::Scale;
use bmf_bench::tables::run_error_table;
use bmf_circuits::ro::{RingOscillator, RoMetric};
use bmf_circuits::sram::SramReadPath;

#[test]
fn ro_error_table_shape() {
    let scale = Scale::Ci;
    let ro = RingOscillator::new(scale.ro_config(), 1);
    let view = ro.metric(RoMetric::Power);
    let table = run_error_table(&view, scale, 7).expect("table");
    // Shape 1: every BMF variant beats OMP at every K.
    for row in &table.rows {
        assert!(
            row.ps < row.omp,
            "K={}: PS {} !< OMP {}",
            row.k,
            row.ps,
            row.omp
        );
        assert!(row.zm < row.omp);
        assert!(row.nzm < row.omp);
    }
    // Shape 2: the BMF-PS headline — smallest-K PS at least matches
    // largest-K OMP.
    let first = table.rows.first().unwrap();
    let last = table.rows.last().unwrap();
    assert!(
        first.ps <= last.omp * 1.05,
        "PS@{} ({}) should match OMP@{} ({})",
        first.k,
        first.ps,
        last.k,
        last.omp
    );
}

/// BMF-PS below OMP at every K on one RO metric's ci-scale table.
fn ps_beats_omp(metric: RoMetric) {
    let scale = Scale::Ci;
    let ro = RingOscillator::new(scale.ro_config(), 1);
    let view = ro.metric(metric);
    let table = run_error_table(&view, scale, 7).expect("table");
    for row in &table.rows {
        assert!(
            row.ps < row.omp,
            "{metric:?} K={}: PS {} !< OMP {}",
            row.k,
            row.ps,
            row.omp
        );
    }
}

#[test]
fn ro_phase_noise_table_shape() {
    ps_beats_omp(RoMetric::PhaseNoise);
}

#[test]
fn ro_frequency_table_shape() {
    ps_beats_omp(RoMetric::Frequency);
}

#[test]
fn sram_error_table_shape() {
    let scale = Scale::Ci;
    let sram = SramReadPath::new(scale.sram_config(), 2);
    let view = sram.read_delay();
    let table = run_error_table(&view, scale, 9).expect("table");
    for row in &table.rows {
        assert!(
            row.ps < row.omp,
            "K={}: PS {} !< OMP {}",
            row.k,
            row.ps,
            row.omp
        );
    }
}

#[test]
fn cost_comparison_shape() {
    let scale = Scale::Ci;
    let ro = RingOscillator::new(scale.ro_config(), 3);
    let view = ro.metric(RoMetric::Frequency);
    let cmp = run_cost_comparison(&view, scale, 5, 80, 40).expect("comparison");
    // The ledger speedup equals the sample ratio up to fitting seconds.
    assert!(
        cmp.speedup() > 1.8 && cmp.speedup() <= 2.05,
        "speedup {}",
        cmp.speedup()
    );
    // No accuracy surrendered (within a small tolerance).
    assert!(cmp.bmf.error <= cmp.omp.error * 1.1);
}
