//! Behavioral ring-oscillator model (the paper's Fig. 3 circuit).
//!
//! The RO is a chain of N current-starved inverter stages. Each stage's
//! delay, leakage and load capacitance are affine functions of the
//! variation variables (interdie + per-transistor mismatch, plus parasitic
//! variables after layout); the three paper metrics are then *smooth
//! nonlinear* functions of the stage quantities:
//!
//! * frequency `f = 1 / (2 Σ_s t_s)` — reciprocal of the total delay,
//! * power `P = V_DD²·f·Σ_s C_s + P_leak·mean_s exp(δ_s)` — dynamic plus
//!   exponential subthreshold leakage (the exponential produces the right
//!   skew in the Fig. 4(a) histogram),
//! * phase noise `PN = PN₀ + 10·log₁₀(noise) − 10·log₁₀(P/P₀) −
//!   20·log₁₀(f/f₀)` — a Leeson-style expression.
//!
//! For small variations all three are near-linear in `x`, matching the
//! paper's use of linear performance models (§V-A), while the residual
//! nonlinearity plays the role of simulator "modeling error" ε (eq. 23).
//!
//! The schematic and post-layout stages share the same underlying truth:
//! post-layout scales every sensitivity weight by a systematic layout
//! factor `(1 + shift·ζ)`, inflates the nominal delay, and appends
//! per-stage parasitic variables — exactly the early/late relationship
//! BMF's priors assume.

use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::error::{check_var_count, CircuitError};
use crate::process::{Sensitivity, VarSpace};
use crate::stage::{CircuitPerformance, Stage};

/// Configuration of the behavioral ring oscillator.
#[derive(Debug, Clone, PartialEq)]
pub struct RoConfig {
    /// Number of inverter stages (use an odd count for a real RO).
    pub stages: usize,
    /// Transistors per stage contributing mismatch variables.
    pub transistors_per_stage: usize,
    /// Mismatch variables per transistor (the paper cites ~40 for its
    /// 32 nm SOI process).
    pub params_per_transistor: usize,
    /// Shared interdie variation variables.
    pub interdie_vars: usize,
    /// Post-layout-only parasitic variables per stage.
    pub parasitic_vars_per_stage: usize,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Nominal per-stage delay in seconds (schematic).
    pub nominal_stage_delay: f64,
    /// Nominal per-stage switched capacitance in farads.
    pub nominal_stage_cap: f64,
    /// Nominal total leakage power in watts.
    pub leakage_power: f64,
    /// Relative 1σ of one stage delay from its mismatch variables.
    pub mismatch_delay_sigma: f64,
    /// Relative 1σ of stage delay from interdie variables (common mode).
    pub interdie_delay_sigma: f64,
    /// Magnitude of the systematic schematic→layout coefficient shift.
    pub layout_shift_rel: f64,
    /// Multiplicative nominal delay increase after layout extraction.
    pub layout_delay_factor: f64,
    /// Relative 1σ of stage delay from post-layout parasitic variables.
    pub parasitic_delay_sigma: f64,
    /// Simulated cost of one schematic Monte-Carlo sample, hours.
    pub sch_cost_hours: f64,
    /// Simulated cost of one post-layout Monte-Carlo sample, hours.
    pub lay_cost_hours: f64,
}

impl RoConfig {
    /// A tiny configuration for unit tests (≈50 variables).
    pub fn small() -> Self {
        RoConfig {
            stages: 5,
            transistors_per_stage: 2,
            params_per_transistor: 4,
            interdie_vars: 4,
            parasitic_vars_per_stage: 2,
            ..RoConfig::base()
        }
    }

    /// The default experiment shape (~2 000 post-layout variables): large
    /// enough to show every BMF effect, small enough for repeated sweeps
    /// on one core. The parasitic count (50) is kept below the smallest
    /// K (100), so every leave-one-out training set of K − 1 rows keeps
    /// the exact infinite-variance missing priors identifiable. See
    /// DESIGN.md §2 for the scaling argument.
    pub fn default_shape() -> Self {
        RoConfig {
            stages: 25,
            transistors_per_stage: 4,
            params_per_transistor: 19,
            interdie_vars: 17,
            parasitic_vars_per_stage: 2,
            ..RoConfig::base()
        }
    }

    /// The paper-scale configuration: 7 177 post-layout variables
    /// (25 stages × 11 transistors × 25 params + 27 interdie + 25 × 11
    /// parasitics).
    pub fn paper() -> Self {
        RoConfig {
            stages: 25,
            transistors_per_stage: 11,
            params_per_transistor: 25,
            interdie_vars: 27,
            parasitic_vars_per_stage: 11,
            ..RoConfig::base()
        }
    }

    fn base() -> Self {
        RoConfig {
            stages: 5,
            transistors_per_stage: 2,
            params_per_transistor: 4,
            interdie_vars: 4,
            parasitic_vars_per_stage: 2,
            vdd: 0.9,
            nominal_stage_delay: 8.0e-12,
            nominal_stage_cap: 1.5e-15,
            leakage_power: 8.0e-6,
            mismatch_delay_sigma: 0.03,
            interdie_delay_sigma: 0.04,
            layout_shift_rel: 0.20,
            layout_delay_factor: 1.15,
            parasitic_delay_sigma: 0.02,
            // Table IV: 900 post-layout samples = 12.58 h -> 50.3 s each.
            sch_cost_hours: 5.0 / 3600.0,
            lay_cost_hours: 50.3 / 3600.0,
        }
    }

    /// Schematic-stage variable count.
    pub fn schematic_vars(&self) -> usize {
        self.interdie_vars + self.stages * self.transistors_per_stage * self.params_per_transistor
    }

    /// Post-layout variable count.
    pub fn post_layout_vars(&self) -> usize {
        self.schematic_vars() + self.stages * self.parasitic_vars_per_stage
    }
}

/// The three RO performance metrics of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoMetric {
    /// Total power (dynamic + leakage), watts. Fig. 4(a), Table I.
    Power,
    /// Phase noise at the reference offset, dBc/Hz. Fig. 4(b), Table II.
    PhaseNoise,
    /// Oscillation frequency, hertz. Fig. 4(c), Table III.
    Frequency,
}

impl std::fmt::Display for RoMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoMetric::Power => write!(f, "power"),
            RoMetric::PhaseNoise => write!(f, "phase-noise"),
            RoMetric::Frequency => write!(f, "frequency"),
        }
    }
}

/// Per-stage sensitivity triplet for one design stage.
#[derive(Debug, Clone)]
struct StageSens {
    delay: Sensitivity,
    leak: Sensitivity,
    cap: Sensitivity,
}

/// A seeded behavioral ring oscillator with schematic and post-layout
/// views of the same silicon.
///
/// # Example
///
/// ```
/// use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
/// use bmf_circuits::stage::{CircuitPerformance, Stage};
///
/// let ro = RingOscillator::new(RoConfig::small(), 1);
/// let f = ro.metric(RoMetric::Frequency);
/// let nominal = f.evaluate(Stage::Schematic, &vec![0.0; f.num_vars(Stage::Schematic)])?;
/// assert!(nominal > 1.0e9); // GHz-class oscillator
/// # Ok::<(), bmf_circuits::error::CircuitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RingOscillator {
    config: RoConfig,
    sch_space: VarSpace,
    lay_space: VarSpace,
    sch: Vec<StageSens>,
    lay: Vec<StageSens>,
    nominal_freq: f64,
    nominal_power: f64,
}

impl RingOscillator {
    /// Builds a ring oscillator with sensitivities drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate (zero stages or
    /// transistors).
    pub fn new(config: RoConfig, seed: u64) -> Self {
        assert!(config.stages > 0, "need at least one stage");
        assert!(
            config.transistors_per_stage > 0 && config.params_per_transistor > 0,
            "need mismatch variables"
        );

        let mut sch_space = VarSpace::new();
        let interdie = sch_space.alloc("interdie", config.interdie_vars);
        let mut stage_mismatch = Vec::with_capacity(config.stages);
        for s in 0..config.stages {
            let mut tr = Vec::new();
            for t in 0..config.transistors_per_stage {
                tr.push(sch_space.alloc(
                    &format!("stage{s}.m{t}.mismatch"),
                    config.params_per_transistor,
                ));
            }
            stage_mismatch.push(tr);
        }
        let mut lay_space = sch_space.clone();
        let mut stage_parasitic = Vec::with_capacity(config.stages);
        for s in 0..config.stages {
            stage_parasitic.push(lay_space.alloc(
                &format!("stage{s}.parasitic"),
                config.parasitic_vars_per_stage,
            ));
        }

        // Interdie delay weights, shared by every stage (common process
        // corner): decaying profile normalized to interdie_delay_sigma.
        let interdie_delay =
            decaying_weights(interdie.clone(), config.interdie_delay_sigma, 1.0, seed, 0);
        let interdie_leak = decaying_weights(interdie.clone(), 0.10, 1.2, seed, 1);
        let interdie_cap = decaying_weights(interdie, 0.015, 1.5, seed, 2);

        let mut sch = Vec::with_capacity(config.stages);
        for (s, trs) in stage_mismatch.iter().enumerate() {
            let sbase = derive_seed(seed, 1000 + s as u64);
            let mut delay = Sensitivity::constant(0.0);
            let mut leak = Sensitivity::constant(0.0);
            let mut cap = Sensitivity::constant(0.0);
            delay.weights.extend_from_slice(&interdie_delay);
            leak.weights.extend_from_slice(&interdie_leak);
            cap.weights.extend_from_slice(&interdie_cap);
            // Per-transistor mismatch: split the stage budget evenly.
            let per_tr_delay =
                config.mismatch_delay_sigma / (config.transistors_per_stage as f64).sqrt();
            for (t, range) in trs.iter().enumerate() {
                let tseed = derive_seed(sbase, t as u64);
                delay
                    .weights
                    .extend(decaying_weights(range.clone(), per_tr_delay, 1.3, tseed, 0));
                leak.weights.extend(decaying_weights(
                    range.clone(),
                    0.12 / (config.transistors_per_stage as f64).sqrt(),
                    1.8,
                    tseed,
                    1,
                ));
                cap.weights.extend(decaying_weights(
                    range.clone(),
                    0.01 / (config.transistors_per_stage as f64).sqrt(),
                    2.0,
                    tseed,
                    2,
                ));
            }
            sch.push(StageSens { delay, leak, cap });
        }

        // Post-layout view: systematic coefficient shift + parasitics.
        let mut lay = Vec::with_capacity(config.stages);
        for (s, base) in sch.iter().enumerate() {
            let lseed = derive_seed(seed, 2000 + s as u64);
            let mut delay = shift_weights(&base.delay, config.layout_shift_rel, lseed, 0);
            let leak = shift_weights(&base.leak, config.layout_shift_rel, lseed, 1);
            let mut cap = shift_weights(&base.cap, config.layout_shift_rel, lseed, 2);
            let par = stage_parasitic[s].clone();
            delay.weights.extend(decaying_weights(
                par.clone(),
                config.parasitic_delay_sigma,
                1.0,
                lseed,
                3,
            ));
            cap.weights
                .extend(decaying_weights(par, 0.01, 1.0, lseed, 4));
            lay.push(StageSens { delay, leak, cap });
        }

        let nominal_freq = 1.0 / (2.0 * config.stages as f64 * config.nominal_stage_delay);
        let nominal_power = config.vdd
            * config.vdd
            * nominal_freq
            * (config.stages as f64 * config.nominal_stage_cap)
            + config.leakage_power;

        RingOscillator {
            config,
            sch_space,
            lay_space,
            sch,
            lay,
            nominal_freq,
            nominal_power,
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &RoConfig {
        &self.config
    }

    /// The variable-space registry at `stage` (self-describing layout).
    pub fn var_space(&self, stage: Stage) -> &VarSpace {
        match stage {
            Stage::Schematic => &self.sch_space,
            Stage::PostLayout => &self.lay_space,
        }
    }

    /// Nominal (variation-free, schematic) oscillation frequency in Hz.
    pub fn nominal_frequency(&self) -> f64 {
        self.nominal_freq
    }

    /// A [`CircuitPerformance`] view of one metric.
    pub fn metric(&self, metric: RoMetric) -> RoPerformance<'_> {
        let name = match metric {
            RoMetric::Power => "ro.power",
            RoMetric::PhaseNoise => "ro.phase_noise",
            RoMetric::Frequency => "ro.frequency",
        };
        RoPerformance {
            ro: self,
            metric,
            name,
        }
    }

    /// Evaluates all three metrics at once (shared stage computation).
    fn evaluate_all(&self, stage: Stage, x: &[f64]) -> Result<(f64, f64, f64), CircuitError> {
        let expected = match stage {
            Stage::Schematic => self.config.schematic_vars(),
            Stage::PostLayout => self.config.post_layout_vars(),
        };
        check_var_count("ro", stage, expected, x.len())?;
        let (sens, delay_factor) = match stage {
            Stage::Schematic => (&self.sch, 1.0),
            Stage::PostLayout => (&self.lay, self.config.layout_delay_factor),
        };
        let t0 = self.config.nominal_stage_delay * delay_factor;
        let c0 = self.config.nominal_stage_cap * delay_factor.sqrt();

        let mut total_delay = 0.0;
        let mut total_cap = 0.0;
        let mut leak_sum = 0.0;
        let mut noise_sum = 0.0;
        for st in sens {
            let d = (1.0 + st.delay.eval(x)).max(0.2);
            let c = (1.0 + st.cap.eval(x)).max(0.2);
            let l = st.leak.eval(x).clamp(-2.0, 2.0);
            total_delay += t0 * d;
            total_cap += c0 * c;
            leak_sum += l.exp();
            // Stage noise contribution grows with leakage and delay spread.
            noise_sum += 1.0 + 0.3 * l + 0.2 * (d - 1.0);
        }
        let n = self.config.stages as f64;
        let freq = 1.0 / (2.0 * total_delay);
        let p_dyn = self.config.vdd * self.config.vdd * freq * total_cap;
        let p_leak = self.config.leakage_power * leak_sum / n;
        let power = p_dyn + p_leak;

        // Leeson-style phase noise around -100 dBc/Hz.
        let pn0 = -100.0;
        let noise = (noise_sum / n).max(0.05);
        let pn = pn0 + 10.0 * noise.log10() - 10.0 * (power / self.nominal_power).log10()
            + 20.0 * (freq / self.nominal_freq).log10();
        Ok((power, pn, freq))
    }
}

/// A single-metric [`CircuitPerformance`] view borrowed from a
/// [`RingOscillator`].
#[derive(Debug, Clone, Copy)]
pub struct RoPerformance<'a> {
    ro: &'a RingOscillator,
    metric: RoMetric,
    name: &'static str,
}

impl CircuitPerformance for RoPerformance<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn num_vars(&self, stage: Stage) -> usize {
        match stage {
            Stage::Schematic => self.ro.config.schematic_vars(),
            Stage::PostLayout => self.ro.config.post_layout_vars(),
        }
    }

    fn evaluate(&self, stage: Stage, x: &[f64]) -> Result<f64, CircuitError> {
        let (power, pn, freq) = self.ro.evaluate_all(stage, x)?;
        Ok(match self.metric {
            RoMetric::Power => power,
            RoMetric::PhaseNoise => pn,
            RoMetric::Frequency => freq,
        })
    }

    fn sim_cost_hours(&self, stage: Stage) -> f64 {
        match stage {
            Stage::Schematic => self.ro.config.sch_cost_hours,
            Stage::PostLayout => self.ro.config.lay_cost_hours,
        }
    }
}

/// Draws `range.len()` weights with a `1/(1+j)^decay` magnitude profile and
/// random N(0,1) scatter, normalized so `Σ w² = sigma²`.
fn decaying_weights(
    range: std::ops::Range<usize>,
    sigma: f64,
    decay: f64,
    seed: u64,
    stream: u64,
) -> Vec<(usize, f64)> {
    if range.is_empty() || bmf_linalg::is_exact_zero(sigma) {
        return Vec::new();
    }
    let mut rng = seeded(derive_seed(seed, 77_000 + stream));
    let mut sampler = StandardNormal::new();
    let mut w: Vec<(usize, f64)> = range
        .enumerate()
        .map(|(j, var)| {
            let u = sampler.sample(&mut rng);
            (var, u / (1.0 + j as f64).powf(decay))
        })
        .collect();
    let norm: f64 = w.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        let scale = sigma / norm;
        for (_, v) in &mut w {
            *v *= scale;
        }
    }
    w
}

/// Clones `base` with each weight scaled by `(1 + rel·ζ)`, ζ ~ N(0,1).
fn shift_weights(base: &Sensitivity, rel: f64, seed: u64, stream: u64) -> Sensitivity {
    let mut rng = seeded(derive_seed(seed, 88_000 + stream));
    let mut sampler = StandardNormal::new();
    let weights = base
        .weights
        .iter()
        .map(|&(var, w)| (var, w * (1.0 + rel * sampler.sample(&mut rng))))
        .collect();
    Sensitivity {
        offset: base.offset,
        weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ro() -> RingOscillator {
        RingOscillator::new(RoConfig::small(), 42)
    }

    #[test]
    fn nominal_point_matches_closed_form() {
        let ro = small_ro();
        let x = vec![0.0; ro.config().schematic_vars()];
        let f = ro
            .metric(RoMetric::Frequency)
            .evaluate(Stage::Schematic, &x)
            .unwrap();
        assert!((f - ro.nominal_frequency()).abs() / ro.nominal_frequency() < 1e-12);
        let p = ro
            .metric(RoMetric::Power)
            .evaluate(Stage::Schematic, &x)
            .unwrap();
        // Power at nominal = vdd^2 f C_total + leak.
        let cfg = ro.config();
        let expect =
            cfg.vdd * cfg.vdd * f * (cfg.stages as f64 * cfg.nominal_stage_cap) + cfg.leakage_power;
        assert!((p - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn var_counts_match_config() {
        let ro = small_ro();
        let c = ro.config();
        assert_eq!(c.schematic_vars(), 4 + 5 * 2 * 4);
        assert_eq!(c.post_layout_vars(), c.schematic_vars() + 5 * 2);
        assert_eq!(ro.var_space(Stage::Schematic).len(), c.schematic_vars());
        assert_eq!(ro.var_space(Stage::PostLayout).len(), c.post_layout_vars());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RingOscillator::new(RoConfig::small(), 5);
        let b = RingOscillator::new(RoConfig::small(), 5);
        let x: Vec<f64> = (0..a.config().post_layout_vars())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        for m in [RoMetric::Power, RoMetric::PhaseNoise, RoMetric::Frequency] {
            assert_eq!(
                a.metric(m).evaluate(Stage::PostLayout, &x),
                b.metric(m).evaluate(Stage::PostLayout, &x)
            );
        }
    }

    #[test]
    fn layout_delay_is_slower() {
        let ro = small_ro();
        let xs = vec![0.0; ro.config().schematic_vars()];
        let xl = vec![0.0; ro.config().post_layout_vars()];
        let fs = ro
            .metric(RoMetric::Frequency)
            .evaluate(Stage::Schematic, &xs)
            .unwrap();
        let fl = ro
            .metric(RoMetric::Frequency)
            .evaluate(Stage::PostLayout, &xl)
            .unwrap();
        assert!(
            fl < fs,
            "post-layout frequency {fl} should be below schematic {fs}"
        );
        assert!((fs / fl - ro.config().layout_delay_factor).abs() < 1e-9);
    }

    #[test]
    fn parasitic_vars_only_affect_layout() {
        let ro = small_ro();
        let n_sch = ro.config().schematic_vars();
        let n_lay = ro.config().post_layout_vars();
        let mut x = vec![0.0; n_lay];
        let base = ro
            .metric(RoMetric::Frequency)
            .evaluate(Stage::PostLayout, &x)
            .unwrap();
        x[n_sch] = 2.0; // first parasitic variable
        let bumped = ro
            .metric(RoMetric::Frequency)
            .evaluate(Stage::PostLayout, &x)
            .unwrap();
        assert_ne!(base, bumped, "parasitic variable must matter post-layout");
    }

    #[test]
    fn near_linearity_for_small_perturbations() {
        // f(t*x) ~ f(0) + t*(f(x)-f(0)) for small t: check 1% perturbation
        // scales ~linearly within 5%.
        let ro = small_ro();
        let n = ro.config().schematic_vars();
        let dir: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64 - 3.0) / 3.0).collect();
        let m = ro.metric(RoMetric::Frequency);
        let f0 = m.evaluate(Stage::Schematic, &vec![0.0; n]).unwrap();
        let f1 = m
            .evaluate(
                Stage::Schematic,
                &dir.iter().map(|d| d * 0.1).collect::<Vec<_>>(),
            )
            .unwrap();
        let f2 = m
            .evaluate(
                Stage::Schematic,
                &dir.iter().map(|d| d * 0.2).collect::<Vec<_>>(),
            )
            .unwrap();
        let d1 = f1 - f0;
        let d2 = f2 - f0;
        assert!(
            (d2 / d1 - 2.0).abs() < 0.1,
            "nonlinearity too strong: d2/d1 = {}",
            d2 / d1
        );
    }

    #[test]
    fn schematic_and_layout_sensitivities_correlate() {
        // Finite-difference coefficient vectors at the two stages should be
        // strongly but not perfectly correlated (the BMF premise).
        let ro = RingOscillator::new(RoConfig::small(), 9);
        let n_sch = ro.config().schematic_vars();
        let n_lay = ro.config().post_layout_vars();
        let m = ro.metric(RoMetric::Frequency);
        let h = 0.01;
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        let f0s = m.evaluate(Stage::Schematic, &vec![0.0; n_sch]).unwrap();
        let f0l = m.evaluate(Stage::PostLayout, &vec![0.0; n_lay]).unwrap();
        for i in 0..n_sch {
            let mut xs = vec![0.0; n_sch];
            xs[i] = h;
            let gs = (m.evaluate(Stage::Schematic, &xs).unwrap() - f0s) / h / f0s;
            let mut xl = vec![0.0; n_lay];
            xl[i] = h;
            let gl = (m.evaluate(Stage::PostLayout, &xl).unwrap() - f0l) / h / f0l;
            dot += gs * gl;
            na += gs * gs;
            nb += gl * gl;
        }
        let corr = dot / (na.sqrt() * nb.sqrt());
        assert!(
            corr > 0.9,
            "early/late sensitivity correlation too weak: {corr}"
        );
        assert!(corr < 0.99999, "stages should not be identical: {corr}");
    }

    #[test]
    fn monte_carlo_spread_is_plausible() {
        use crate::sim::monte_carlo;
        let ro = small_ro();
        let m = ro.metric(RoMetric::Frequency);
        let set = monte_carlo(&m, Stage::PostLayout, 400, 3).unwrap();
        let s = bmf_stat::summary::Summary::from_slice(&set.values);
        let cov = s.coefficient_of_variation();
        // A few percent frequency spread, like the paper's Fig. 4(c).
        assert!(cov > 0.005 && cov < 0.2, "cov = {cov}");
    }

    #[test]
    fn phase_noise_is_in_dbc_range() {
        let ro = small_ro();
        let x = vec![0.0; ro.config().schematic_vars()];
        let pn = ro
            .metric(RoMetric::PhaseNoise)
            .evaluate(Stage::Schematic, &x)
            .unwrap();
        assert!(pn < -80.0 && pn > -130.0, "pn = {pn}");
    }

    #[test]
    fn paper_config_variable_count() {
        let c = RoConfig::paper();
        assert_eq!(c.post_layout_vars(), 7177);
    }
}
