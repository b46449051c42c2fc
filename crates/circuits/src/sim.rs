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
//! Sampling is deterministic: each sample's variation vector is generated
//! from a seed derived from `(master seed, sample index)`, so a sample
//! does not depend on how many are drawn — a larger `k` extends a
//! smaller one. Nor does it depend on the pool size: a draw runs in
//! fixed-size chunks of samples on the workspace's worker pool
//! ([`bmf_stat::pool`]), every sample from its own seed, and the chunks
//! are joined in index order, so the points, the values and the error
//! returned are the same bits at any `BMF_THREADS`.

use bmf_stat::normal::StandardNormal;
use bmf_stat::pool::{default_threads, run_indexed};
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

    /// Selects the samples at `indices`, in that order.
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
/// `k · circuit.sim_cost_hours(stage)`. A draw of more than one chunk
/// (2¹⁶ normals) runs on the default pool
/// ([`bmf_stat::pool::default_threads`]), with the same bits as one
/// worker.
///
/// # Errors
///
/// Returns the [`CircuitError`] of the lowest-index sample whose
/// evaluation fails.
pub fn monte_carlo(
    circuit: &dyn CircuitPerformance,
    stage: Stage,
    k: usize,
    seed: u64,
) -> Result<SampleSet, CircuitError> {
    // Resolving the default pool reads the environment and the CPU
    // affinity; a one-task draw does not need it.
    let one_task = k <= samples_per_task(circuit.num_vars(stage));
    let threads = if one_task { 1 } else { default_threads() };
    monte_carlo_on(threads, circuit, stage, k, seed)
}

/// Normal draws per pool task, about a millisecond of sampling: a task
/// draws `NORMALS_PER_TASK / num_vars` samples (at least one), so a draw
/// that fits in one task, such as 2 000 samples of 12 variables, runs on
/// the calling thread and spawns nothing.
const NORMALS_PER_TASK: usize = 1 << 16;

/// Samples of `n` variables per pool task.
fn samples_per_task(n: usize) -> usize {
    (NORMALS_PER_TASK / n.max(1)).max(1)
}

/// [`monte_carlo`] on a pool of `threads` workers.
pub(crate) fn monte_carlo_on(
    threads: usize,
    circuit: &dyn CircuitPerformance,
    stage: Stage,
    k: usize,
    seed: u64,
) -> Result<SampleSet, CircuitError> {
    let n = circuit.num_vars(stage);
    let per_task = samples_per_task(n);
    let chunks = run_indexed(threads, k.div_ceil(per_task), |c| {
        let range = c * per_task..k.min((c + 1) * per_task);
        let mut points = Vec::with_capacity(range.len());
        let mut values = Vec::with_capacity(range.len());
        for i in range {
            let x = sample_point(n, seed, i as u64);
            values.push(circuit.evaluate(stage, &x)?);
            points.push(x);
        }
        Ok((points, values))
    });
    // The first chunk's vectors grow into the whole set, so a one-task
    // draw moves nothing.
    let mut chunks = chunks.into_iter();
    let (mut points, mut values) = chunks.next().transpose()?.unwrap_or_default();
    points.reserve_exact(k - points.len());
    values.reserve_exact(k - values.len());
    for chunk in chunks {
        let (p, v) = chunk?;
        points.extend(p);
        values.extend(v);
    }
    Ok(SampleSet {
        stage,
        points,
        values,
        cost_hours: k as f64 * circuit.sim_cost_hours(stage),
    })
}

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

    /// Fails every sample whose first variable exceeds `limit`, naming
    /// that variable's bits, so two failures never render alike.
    struct Picky {
        vars: usize,
        limit: f64,
    }
    impl CircuitPerformance for Picky {
        fn name(&self) -> &str {
            "picky"
        }
        fn num_vars(&self, _stage: Stage) -> usize {
            self.vars
        }
        fn evaluate(&self, _stage: Stage, x: &[f64]) -> Result<f64, CircuitError> {
            if x[0] > self.limit {
                return Err(CircuitError::Solver {
                    circuit: self.name().to_string(),
                    detail: format!("{:016x}", x[0].to_bits()),
                });
            }
            Ok(x.iter().sum())
        }
        fn sim_cost_hours(&self, _stage: Stage) -> f64 {
            0.001
        }
    }

    /// The serial loop the pooled draw replaced: one sample per index, in
    /// index order, stopping at the first failure.
    fn serial_reference(
        c: &dyn CircuitPerformance,
        stage: Stage,
        k: usize,
        seed: u64,
    ) -> Result<SampleSet, CircuitError> {
        let n = c.num_vars(stage);
        let mut points = Vec::new();
        let mut values = Vec::new();
        for i in 0..k {
            let x = sample_point(n, seed, i as u64);
            values.push(c.evaluate(stage, &x)?);
            points.push(x);
        }
        Ok(SampleSet {
            stage,
            points,
            values,
            cost_hours: k as f64 * c.sim_cost_hours(stage),
        })
    }

    fn bits(s: &SampleSet) -> (Vec<Vec<u64>>, Vec<u64>, u64) {
        (
            s.points
                .iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect(),
            s.values.iter().map(|x| x.to_bits()).collect(),
            s.cost_hours.to_bits(),
        )
    }

    /// Draws of one task (40 samples of 5 variables: the calling thread
    /// only) and of five (90 samples of 3 000 variables, 21 per task).
    const SHAPES: [(usize, usize); 2] = [(5, 40), (3_000, 90)];

    #[test]
    fn pool_size_keeps_every_bit() {
        for (vars, k) in SHAPES {
            let c = Sum { vars };
            let want = serial_reference(&c, Stage::Schematic, k, 11).unwrap();
            for threads in [1, 2, 5] {
                let got = monte_carlo_on(threads, &c, Stage::Schematic, k, 11).unwrap();
                assert_eq!(bits(&got), bits(&want), "{k} × {vars} at {threads} workers");
            }
        }
    }

    #[test]
    fn pool_returns_the_lowest_index_error() {
        let (seed, limit) = (5, 1.0);
        for (vars, k) in SHAPES {
            // Failures must fall in more than one task, so a later task's
            // error could come back first if the join were not in order.
            let per_task = samples_per_task(vars);
            let failing_tasks: Vec<usize> = (0..k)
                .filter(|&i| sample_point(vars, seed, i as u64)[0] > limit)
                .map(|i| i / per_task)
                .collect();
            assert!(failing_tasks.len() >= 2, "{k} × {vars}: too few failures");
            if k > per_task {
                assert!(failing_tasks.first() != failing_tasks.last());
            }
            let c = Picky { vars, limit };
            let want = serial_reference(&c, Stage::PostLayout, k, seed).unwrap_err();
            for threads in [1, 2, 5] {
                let got = monte_carlo_on(threads, &c, Stage::PostLayout, k, seed).unwrap_err();
                assert_eq!(got, want, "{k} × {vars} at {threads} workers");
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
