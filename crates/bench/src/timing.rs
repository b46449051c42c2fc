//! Minimal in-tree timing harness for the `harness = false` benches.
//!
//! Replaces the external `criterion` dependency so the workspace builds
//! fully offline. The harness keeps the parts of Criterion the solver
//! benches actually relied on — warmup, repeated samples, and a robust
//! (median) location estimate — and adds a `--smoke` mode so CI can prove
//! every timing bench still runs without paying full measurement time.
//!
//! # Usage
//!
//! ```text
//! cargo bench --bench solver                 # full measurement
//! cargo bench --bench solver -- --smoke      # one-iteration smoke run
//! cargo bench --bench solver -- fast         # only benches matching "fast"
//! ```
//!
//! A bench binary builds a [`Harness`] from the CLI, registers closures
//! with [`Harness::bench`], and prints one summary line per bench:
//!
//! ```no_run
//! use bmf_bench::timing::Harness;
//!
//! let h = Harness::from_cli();
//! h.bench("group/case", || 2 + 2);
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target time for one measurement sample in full mode; iteration counts
/// are calibrated so a sample takes at least roughly this long.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Samples collected per bench in full mode (median-of-N reporting).
const FULL_SAMPLES: usize = 11;

/// Command-line driven bench harness.
#[derive(Debug, Clone)]
pub struct Harness {
    smoke: bool,
    filter: Option<String>,
}

impl Harness {
    /// Builds a harness from `std::env::args`.
    ///
    /// Recognizes `--smoke` (single-iteration mode) and treats the first
    /// non-flag argument as a substring filter on bench names. Flags cargo
    /// passes through (`--bench`, `--exact`, ...) are ignored.
    pub fn from_cli() -> Self {
        let mut smoke = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if arg == "--smoke" {
                smoke = true;
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        Harness { smoke, filter }
    }

    /// Builds a harness explicitly (used by the harness's own tests).
    pub fn new(smoke: bool, filter: Option<String>) -> Self {
        Harness { smoke, filter }
    }

    /// `true` when `--smoke` was passed: benches should shrink problem
    /// sizes and the harness runs a single timed iteration per bench.
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// `true` when `name` passes the CLI filter.
    pub fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Measures `f`, printing `name` with median/min/mean per-call times.
    ///
    /// Full mode calibrates an iteration count so one sample lasts at
    /// least [`TARGET_SAMPLE`], warms up for one sample, then times
    /// [`FULL_SAMPLES`] samples. Smoke mode runs a single call and reports
    /// it — enough to prove the bench still executes end to end.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if !self.selected(name) {
            return;
        }
        if self.smoke {
            let t = Instant::now();
            black_box(f());
            let once = t.elapsed();
            println!("{name:<40} smoke {:>12}", format_duration(once));
            return;
        }

        // Calibrate: how many calls fill one sample window?
        let t = Instant::now();
        black_box(f());
        let once = t.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 10_000) as usize;

        // Warmup sample (also faults in caches after calibration).
        for _ in 0..iters {
            black_box(f());
        }

        let mut per_call: Vec<f64> = Vec::with_capacity(FULL_SAMPLES);
        for _ in 0..FULL_SAMPLES {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_call.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        per_call.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = per_call[per_call.len() / 2];
        let min = per_call[0];
        let mean = per_call.iter().sum::<f64>() / per_call.len() as f64;
        println!(
            "{name:<40} median {:>10}   min {:>10}   mean {:>10}   ({FULL_SAMPLES} samples × {iters} iters)",
            format_secs(median),
            format_secs(min),
            format_secs(mean),
        );
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::from_cli()
    }
}

fn format_secs(s: f64) -> String {
    format_duration(Duration::from_secs_f64(s))
}

/// Renders a duration with an SI prefix chosen for 3–4 significant digits.
fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_exactly_once() {
        let h = Harness::new(true, None);
        let mut calls = 0;
        h.bench("unit/smoke", || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn filter_skips_unmatched_benches() {
        let h = Harness::new(true, Some("solver".into()));
        let mut calls = 0;
        h.bench("omp/fit", || calls += 1);
        assert_eq!(calls, 0);
        h.bench("solver/fast", || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn full_mode_collects_samples() {
        let h = Harness::new(false, None);
        let mut calls = 0u64;
        h.bench("unit/full", || calls += 1);
        // calibration + warmup + FULL_SAMPLES samples, each ≥ 1 call
        assert!(calls as usize >= 2 + FULL_SAMPLES);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.000 s");
    }
}
