//! Moment summaries and quantiles for simulation outputs.
//!
//! Used to characterize the Monte-Carlo performance distributions shown in
//! the paper's Fig. 4 and Fig. 7, and to validate the synthetic circuit
//! substrate (the reproduction checks that, e.g., ring-oscillator frequency
//! spreads a few percent around nominal like the paper's histograms do).

/// Moment summary of a sample: count, mean, variance, skewness, extrema.
///
/// Central moments are accumulated in one pass with Welford/Chan-style
/// updates, so the summary is numerically stable for large samples with
/// small relative spread (exactly the regime of circuit performance
/// distributions: e.g. delay ≈ 100 ps ± 2 ps).
///
/// # Example
///
/// ```
/// use bmf_stat::summary::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample skewness `g₁` (0 when degenerate).
    pub fn skewness(&self) -> f64 {
        if self.n < 3 || is_exact_zero(self.m2) {
            0.0
        } else {
            let n = self.n as f64;
            (n.sqrt() * self.m3) / self.m2.powf(1.5)
        }
    }

    /// Minimum observed value (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation `σ/|μ|` (0 when the mean is zero).
    pub fn coefficient_of_variation(&self) -> f64 {
        if is_exact_zero(self.mean) {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Merges another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let d2 = delta * delta;
        let d3 = d2 * delta;

        let m2 = self.m2 + other.m2 + d2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + d3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;

        self.mean = (na * self.mean + nb * other.mean) / n;
        self.m2 = m2;
        self.m3 = m3;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `xs` using linear interpolation
/// between order statistics (type-7, the R/NumPy default).
///
/// # Panics
///
/// Panics when `xs` is empty or `q` is outside `[0, 1]`.
///
/// ```
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(bmf_stat::summary::quantile(&xs, 0.5), 2.5);
/// ```
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let h = (sorted.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Relative L2 error `‖a − b‖₂ / ‖b‖₂` between a prediction vector `a` and a
/// reference vector `b` — the paper's modeling-error metric (eq. 59).
///
/// # Panics
///
/// Panics when the slices have different lengths or `b` is all zeros.
pub fn relative_l2_error(predicted: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        reference.len(),
        "relative_l2_error length mismatch"
    );
    let num: f64 = predicted
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f64 = reference.iter().map(|b| b * b).sum();
    assert!(den > 0.0, "reference vector is zero");
    (num / den).sqrt()
}

/// Exact `±0.0` sentinel test (named so the `no-float-eq` lint can see
/// the comparison is deliberate; `bmf-stat` has no `bmf-linalg` dep).
fn is_exact_zero(x: f64) -> bool {
    x == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn mean_variance_match_two_pass() {
        let xs = [1.5, 2.5, 3.5, -1.0, 0.0, 10.0];
        let s = Summary::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn skewness_sign_detects_asymmetry() {
        // Right-skewed sample.
        let xs = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(Summary::from_slice(&xs).skewness() > 0.5);
        // Left-skewed sample.
        let xs = [-10.0, 1.0, 1.0, 1.0, 1.0];
        assert!(Summary::from_slice(&xs).skewness() < -0.5);
    }

    #[test]
    fn merge_equals_combined() {
        let xs: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.7).sin() * 3.0 + 1.0)
            .collect();
        let (a, b) = xs.split_at(17);
        let mut sa = Summary::from_slice(a);
        let sb = Summary::from_slice(b);
        sa.merge(&sb);
        let all = Summary::from_slice(&xs);
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-12);
        assert!((sa.variance() - all.variance()).abs() < 1e-10);
        assert!((sa.skewness() - all.skewness()).abs() < 1e-8);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0];
        let mut s = Summary::from_slice(&xs);
        s.merge(&Summary::new());
        assert_eq!(s.count(), 2);
        let mut e = Summary::new();
        e.merge(&Summary::from_slice(&xs));
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), 1.5);
    }

    #[test]
    fn extrema_tracking() {
        let s = Summary::from_slice(&[3.0, -5.0, 7.0]);
        assert_eq!(s.min(), -5.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn quantile_median_even_odd() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0, 1.0], 0.0), 1.0);
        assert_eq!(quantile(&[5.0, 1.0], 1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn relative_error_matches_paper_metric() {
        let pred = [1.1, 2.0, 2.9];
        let act = [1.0, 2.0, 3.0];
        let num = (0.1f64 * 0.1 + 0.1 * 0.1).sqrt();
        let den = (1.0f64 + 4.0 + 9.0).sqrt();
        assert!((relative_l2_error(&pred, &act) - num / den).abs() < 1e-12);
    }

    #[test]
    fn relative_error_zero_for_exact_prediction() {
        assert_eq!(relative_l2_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn coefficient_of_variation() {
        let s = Summary::from_slice(&[9.0, 10.0, 11.0]);
        assert!((s.coefficient_of_variation() - 1.0 / 10.0).abs() < 1e-12);
    }
}
