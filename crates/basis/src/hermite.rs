//! Normalized probabilists' Hermite polynomials.
//!
//! The probabilists' Hermite polynomials `Heₙ` satisfy the three-term
//! recurrence `Heₙ₊₁(x) = x·Heₙ(x) − n·Heₙ₋₁(x)` with `He₀ = 1`,
//! `He₁ = x`, and are orthogonal under the standard normal weight with
//! `E[Heᵢ Heⱼ] = i!·δᵢⱼ`. Dividing by `√(n!)` yields the *orthonormal*
//! family used as basis functions throughout the paper (eq. 3–5):
//! `he₀ = 1`, `he₁ = x`, `he₂ = (x²−1)/√2`, `he₃ = (x³−3x)/√6`, …

/// Evaluates the unnormalized probabilists' Hermite polynomial `Heₙ(x)`.
///
/// ```
/// use bmf_basis::hermite::hermite;
/// assert_eq!(hermite(0, 2.0), 1.0);
/// assert_eq!(hermite(1, 2.0), 2.0);
/// assert_eq!(hermite(2, 2.0), 3.0);       // x² − 1
/// assert_eq!(hermite(3, 2.0), 2.0);       // x³ − 3x
/// ```
pub fn hermite(n: usize, x: f64) -> f64 {
    match n {
        0 => 1.0,
        1 => x,
        _ => {
            let mut prev = 1.0; // He₀
            let mut cur = x; // He₁
            for k in 1..n {
                let next = x * cur - k as f64 * prev;
                prev = cur;
                cur = next;
            }
            cur
        }
    }
}

/// Evaluates the orthonormal Hermite polynomial `heₙ(x) = Heₙ(x)/√(n!)`.
///
/// These are exactly the paper's 1-D basis functions (eq. 4):
/// `he₂(x) = (x² − 1)/√2`.
///
/// ```
/// use bmf_basis::hermite::hermite_normalized;
/// let x = 1.7;
/// let expected = (x * x - 1.0) / 2.0f64.sqrt();
/// assert!((hermite_normalized(2, x) - expected).abs() < 1e-12);
/// ```
pub fn hermite_normalized(n: usize, x: f64) -> f64 {
    hermite(n, x) / factorial_sqrt(n)
}

/// Derivative of the orthonormal Hermite polynomial:
/// `heₙ'(x) = √n · heₙ₋₁(x)` (from `Heₙ' = n·Heₙ₋₁`).
///
/// Used for analytic model gradients (worst-case corner extraction).
///
/// ```
/// use bmf_basis::hermite::{hermite_normalized, hermite_normalized_derivative};
/// // he₂'(x) = √2·x / √2·... check numerically:
/// let x = 0.8;
/// let h = 1e-6;
/// let fd = (hermite_normalized(3, x + h) - hermite_normalized(3, x - h)) / (2.0 * h);
/// assert!((hermite_normalized_derivative(3, x) - fd).abs() < 1e-6);
/// ```
pub fn hermite_normalized_derivative(n: usize, x: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        (n as f64).sqrt() * hermite_normalized(n - 1, x)
    }
}

/// Returns `√(n!)`.
fn factorial_sqrt(n: usize) -> f64 {
    (1..=n).map(|k| k as f64).product::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    #[test]
    fn low_order_closed_forms() {
        for &x in &[-2.0, -0.3, 0.0, 0.7, 3.1] {
            assert_eq!(hermite(0, x), 1.0);
            assert_eq!(hermite(1, x), x);
            assert!((hermite(2, x) - (x * x - 1.0)).abs() < 1e-12);
            assert!((hermite(3, x) - (x * x * x - 3.0 * x)).abs() < 1e-12);
            assert!(
                (hermite(4, x) - (x.powi(4) - 6.0 * x * x + 3.0)).abs() < 1e-10,
                "x={x}"
            );
        }
    }

    #[test]
    fn normalization_constants() {
        // he₂ = He₂/√2, he₃ = He₃/√6.
        let x = 1.3;
        assert!((hermite_normalized(2, x) - hermite(2, x) / 2.0f64.sqrt()).abs() < 1e-14);
        assert!((hermite_normalized(3, x) - hermite(3, x) / 6.0f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn monte_carlo_orthonormality() {
        // E[heᵢ heⱼ] should be δᵢⱼ under the standard normal measure.
        let mut rng = seeded(2024);
        let mut sampler = StandardNormal::new();
        let n = 400_000;
        let max = 4;
        let mut acc = vec![vec![0.0f64; max + 1]; max + 1];
        for _ in 0..n {
            let x = sampler.sample(&mut rng);
            let h: Vec<f64> = (0..=max).map(|i| hermite_normalized(i, x)).collect();
            for i in 0..=max {
                for j in i..=max {
                    acc[i][j] += h[i] * h[j];
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (j, sum) in row.iter().enumerate().skip(i) {
                let v = sum / n as f64;
                let target = if i == j { 1.0 } else { 0.0 };
                // MC error grows with the order; 4th-order moments are noisy.
                let tol = 0.03 * (1.0 + (i + j) as f64);
                assert!(
                    (v - target).abs() < tol,
                    "E[he_{i} he_{j}] = {v}, want {target}"
                );
            }
        }
    }

    #[test]
    fn parity() {
        // Heₙ(−x) = (−1)ⁿ Heₙ(x).
        for n in 0..8 {
            let x = 1.234;
            let sign = if n % 2 == 0 { 1.0 } else { -1.0 };
            assert!(
                (hermite(n, -x) - sign * hermite(n, x)).abs() < 1e-9,
                "n={n}"
            );
        }
    }
}
