//! Monte-Carlo sampling engine with a simulated-cost ledger.
//!
//! The paper's cost analysis (Tables IV and VI) splits the total modeling
//! cost into *simulation cost* (dominant: hours of transistor-level
//! Monte-Carlo) and *fitting cost* (seconds of solver time). Our substitute
//! circuits evaluate in microseconds, so the engine carries a ledger that
//! charges each sample its *simulated* cost — the per-sample hours a
//! commercial simulator would have spent — while fitting cost is measured
//! as real wall-clock by the harness.
//!
//! Sampling is deterministic and *stable under parallelism*: each sample's
//! variation vector is generated from a seed derived from `(master seed,
//! sample index)`, so [`monte_carlo`] and [`monte_carlo_par`] produce
//! identical sample sets.

use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::error::CircuitError;
use crate::stage::{CircuitPerformance, Stage};

/// A set of Monte-Carlo samples of one metric at one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSet {
    /// Stage the samples were collected at.
    pub stage: Stage,
    /// Variation vectors, one per sample (each of length `num_vars(stage)`).
    pub points: Vec<Vec<f64>>,
    /// Metric values, one per sample.
    pub values: Vec<f64>,
    /// Simulated cost of producing this set, in hours.
    pub cost_hours: f64,
}

impl SampleSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the sample points as slices (the shape design-matrix
    /// builders expect).
    pub fn point_slices(&self) -> impl Iterator<Item = &[f64]> {
        self.points.iter().map(|p| p.as_slice())
    }

    /// Splits off the first `k` samples into a new set, keeping the rest.
    /// Cost is split proportionally.
    ///
    /// # Panics
    ///
    /// Panics when `k > self.len()`.
    pub fn take_prefix(&self, k: usize) -> SampleSet {
        assert!(k <= self.len(), "cannot take {k} of {}", self.len());
        let frac = if self.is_empty() {
            0.0
        } else {
            k as f64 / self.len() as f64
        };
        SampleSet {
            stage: self.stage,
            points: self.points[..k].to_vec(),
            values: self.values[..k].to_vec(),
            cost_hours: self.cost_hours * frac,
        }
    }

    /// Selects the samples at `indices` (used by cross-validation folds).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn select(&self, indices: &[usize]) -> SampleSet {
        let frac = if self.is_empty() {
            0.0
        } else {
            indices.len() as f64 / self.len() as f64
        };
        SampleSet {
            stage: self.stage,
            points: indices.iter().map(|&i| self.points[i].clone()).collect(),
            values: indices.iter().map(|&i| self.values[i]).collect(),
            cost_hours: self.cost_hours * frac,
        }
    }
}

/// Draws `k` Monte-Carlo samples of `circuit` at `stage`.
///
/// Each sample's variation vector is standard normal, generated from
/// `derive_seed(seed, index)`; the ledger is charged
/// `k · circuit.sim_cost_hours(stage)`.
///
/// # Errors
///
/// Propagates the first [`CircuitError`] any sample evaluation produces.
pub fn monte_carlo(
    circuit: &dyn CircuitPerformance,
    stage: Stage,
    k: usize,
    seed: u64,
) -> Result<SampleSet, CircuitError> {
    let n = circuit.num_vars(stage);
    let mut points = Vec::with_capacity(k);
    let mut values = Vec::with_capacity(k);
    for i in 0..k {
        let x = sample_point(n, seed, i as u64);
        let f = circuit.evaluate(stage, &x)?;
        points.push(x);
        values.push(f);
    }
    Ok(SampleSet {
        stage,
        points,
        values,
        cost_hours: k as f64 * circuit.sim_cost_hours(stage),
    })
}

/// Parallel variant of [`monte_carlo`] fanning chunks out over scoped
/// threads. Produces a bit-identical result to the sequential version.
///
/// # Errors
///
/// Propagates the lowest-indexed [`CircuitError`] any sample evaluation
/// produces (workers stop at their first error; the sequential and
/// parallel variants report the same error for the same inputs).
pub fn monte_carlo_par(
    circuit: &dyn CircuitPerformance,
    stage: Stage,
    k: usize,
    seed: u64,
    threads: usize,
) -> Result<SampleSet, CircuitError> {
    let threads = threads.max(1);
    if threads == 1 || k < 2 * threads {
        return monte_carlo(circuit, stage, k, seed);
    }
    let n = circuit.num_vars(stage);
    let chunk = k.div_ceil(threads);
    let mut results: Vec<ChunkResult> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(k);
            if lo >= hi {
                break;
            }
            handles.push(scope.spawn(move || {
                (lo..hi)
                    .map(|i| {
                        let x = sample_point(n, seed, i as u64);
                        let f = circuit.evaluate(stage, &x)?;
                        Ok((x, f))
                    })
                    .collect::<Result<Vec<_>, CircuitError>>()
            }));
        }
        for h in handles {
            // bmf-lint: allow(panic-reachability) -- re-raising a worker panic on join is the only sane propagation
            results.push(h.join().expect("sampler thread panicked"));
        }
    });

    let mut points = Vec::with_capacity(k);
    let mut values = Vec::with_capacity(k);
    for chunk in results {
        for (x, f) in chunk? {
            points.push(x);
            values.push(f);
        }
    }
    Ok(SampleSet {
        stage,
        points,
        values,
        cost_hours: k as f64 * circuit.sim_cost_hours(stage),
    })
}

/// One worker's output: its chunk of `(point, value)` samples, or the
/// first evaluation error it hit.
type ChunkResult = Result<Vec<(Vec<f64>, f64)>, CircuitError>;

fn sample_point(n: usize, seed: u64, index: u64) -> Vec<f64> {
    let mut rng = seeded(derive_seed(seed, index));
    let mut sampler = StandardNormal::new();
    sampler.sample_vec(&mut rng, n)
}

/// Accumulates the two cost components of a modeling run, mirroring the
/// rows of the paper's Tables IV/VI.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostLedger {
    /// Simulated transistor-level simulation cost, in hours.
    pub simulation_hours: f64,
    /// Measured model-fitting cost, in seconds.
    pub fitting_seconds: f64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charges the simulation cost of `set`.
    pub fn charge_samples(&mut self, set: &SampleSet) {
        self.simulation_hours += set.cost_hours;
    }

    /// Charges `seconds` of fitting time.
    pub fn charge_fitting_seconds(&mut self, seconds: f64) {
        self.fitting_seconds += seconds;
    }

    /// Total modeling cost in hours (simulation + fitting).
    pub fn total_hours(&self) -> f64 {
        self.simulation_hours + self.fitting_seconds / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum {
        vars: usize,
    }
    impl CircuitPerformance for Sum {
        fn name(&self) -> &str {
            "sum"
        }
        fn num_vars(&self, _stage: Stage) -> usize {
            self.vars
        }
        fn evaluate(&self, _stage: Stage, x: &[f64]) -> Result<f64, CircuitError> {
            Ok(x.iter().sum())
        }
        fn sim_cost_hours(&self, stage: Stage) -> f64 {
            match stage {
                Stage::Schematic => 0.001,
                Stage::PostLayout => 0.014,
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = Sum { vars: 5 };
        let a = monte_carlo(&c, Stage::Schematic, 8, 42).unwrap();
        let b = monte_carlo(&c, Stage::Schematic, 8, 42).unwrap();
        assert_eq!(a, b);
        let c2 = monte_carlo(&c, Stage::Schematic, 8, 43).unwrap();
        assert_ne!(a.values, c2.values);
    }

    #[test]
    fn extending_k_preserves_prefix() {
        // Sample i depends only on (seed, i): growing K must not change
        // earlier samples.
        let c = Sum { vars: 3 };
        let small = monte_carlo(&c, Stage::PostLayout, 4, 7).unwrap();
        let big = monte_carlo(&c, Stage::PostLayout, 10, 7).unwrap();
        assert_eq!(&big.points[..4], &small.points[..]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = Sum { vars: 4 };
        let seq = monte_carlo(&c, Stage::Schematic, 23, 5).unwrap();
        let par = monte_carlo_par(&c, Stage::Schematic, 23, 5, 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn cost_charged_per_sample() {
        let c = Sum { vars: 2 };
        let s = monte_carlo(&c, Stage::PostLayout, 100, 1).unwrap();
        assert!((s.cost_hours - 1.4).abs() < 1e-12);
    }

    #[test]
    fn take_prefix_splits_cost() {
        let c = Sum { vars: 2 };
        let s = monte_carlo(&c, Stage::Schematic, 10, 1).unwrap();
        let head = s.take_prefix(4);
        assert_eq!(head.len(), 4);
        assert!((head.cost_hours - 0.4 * s.cost_hours / 1.0).abs() < 1e-12);
        assert_eq!(head.points[3], s.points[3]);
    }

    #[test]
    fn select_picks_indices() {
        let c = Sum { vars: 2 };
        let s = monte_carlo(&c, Stage::Schematic, 5, 9).unwrap();
        let sel = s.select(&[4, 0]);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.values[0], s.values[4]);
        assert_eq!(sel.values[1], s.values[0]);
    }

    #[test]
    fn samples_look_standard_normal() {
        let c = Sum { vars: 1 };
        let s = monte_carlo(&c, Stage::Schematic, 20_000, 3).unwrap();
        let mean: f64 = s.values.iter().sum::<f64>() / s.len() as f64;
        let var: f64 = s
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (s.len() - 1) as f64;
        assert!(mean.abs() < 0.03);
        assert!((var - 1.0).abs() < 0.05);
    }

    #[test]
    fn ledger_accumulates() {
        let c = Sum { vars: 2 };
        let s = monte_carlo(&c, Stage::PostLayout, 10, 1).unwrap();
        let mut ledger = CostLedger::new();
        ledger.charge_samples(&s);
        ledger.charge_fitting_seconds(7.2);
        assert!((ledger.simulation_hours - 0.14).abs() < 1e-12);
        assert!((ledger.total_hours() - (0.14 + 7.2 / 3600.0)).abs() < 1e-12);
    }
}
