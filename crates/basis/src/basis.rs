//! Orthonormal basis term lists and design-matrix assembly.

use bmf_linalg::Matrix;

use crate::hermite::{hermite_normalized, hermite_normalized_derivative};
use crate::multi_index::{graded_indices, MultiIndex};

/// An ordered list of orthonormal multivariate Hermite basis terms over a
/// fixed number of variation variables.
///
/// The term order defines the coefficient order of every model fitted
/// against this basis, and the columns of the design matrix `G` (eq. 9).
/// By convention term 0 is the constant whenever the basis was built by
/// [`OrthonormalBasis::linear`] or [`OrthonormalBasis::total_degree`].
///
/// # Example
///
/// ```
/// use bmf_basis::basis::OrthonormalBasis;
///
/// let basis = OrthonormalBasis::total_degree(2, 2, 1 << 20);
/// // 1, x0, x1, he2(x0), x0*x1, he2(x1)
/// assert_eq!(basis.len(), 6);
/// let row = basis.row(&[1.0, 2.0]);
/// assert!((row[3] - 0.0).abs() < 1e-12); // he2(1) = (1-1)/sqrt(2) = 0
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrthonormalBasis {
    num_vars: usize,
    terms: Vec<MultiIndex>,
}

impl OrthonormalBasis {
    /// Builds a basis from explicit terms.
    ///
    /// # Panics
    ///
    /// Panics when a term references a variable `>= num_vars`.
    pub fn from_terms(num_vars: usize, terms: Vec<MultiIndex>) -> Self {
        for t in &terms {
            if let Some(v) = t.max_var() {
                assert!(
                    v < num_vars,
                    "term {t} references variable {v} >= num_vars {num_vars}"
                );
            }
        }
        OrthonormalBasis { num_vars, terms }
    }

    /// The linear basis `{1, x₁, …, x_R}` used for the paper's RO and SRAM
    /// experiments (§V: "linear functions of these random variables").
    pub fn linear(num_vars: usize) -> Self {
        let mut terms = Vec::with_capacity(num_vars + 1);
        terms.push(MultiIndex::constant());
        terms.extend((0..num_vars).map(MultiIndex::linear));
        OrthonormalBasis { num_vars, terms }
    }

    /// The full graded basis of all terms with total degree ≤ `max_degree`
    /// (including the constant).
    ///
    /// # Panics
    ///
    /// Panics when the term count would exceed `limit` — the combinatorial
    /// growth makes this constructor suitable only for small dimensions.
    pub fn total_degree(num_vars: usize, max_degree: u32, limit: usize) -> Self {
        let mut terms = vec![MultiIndex::constant()];
        terms.extend(graded_indices(num_vars, max_degree, limit));
        OrthonormalBasis { num_vars, terms }
    }

    /// Number of variation variables the basis is defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of basis terms `M`.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the basis has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The terms, in coefficient order.
    pub fn terms(&self) -> &[MultiIndex] {
        &self.terms
    }

    /// Borrows term `m`.
    ///
    /// # Panics
    ///
    /// Panics when `m >= self.len()`.
    pub fn term(&self, m: usize) -> &MultiIndex {
        &self.terms[m]
    }

    /// Evaluates every term at `x`, producing one design-matrix row
    /// `[g₁(x), …, g_M(x)]`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.num_vars()`.
    pub fn row(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.terms.len()];
        self.fill_row(x, &mut out);
        out
    }

    /// Evaluates every term at `x` into a caller-owned row buffer
    /// (fully overwritten) — the allocation-free core of [`Self::row`],
    /// used by the design-matrix assembly loop.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.num_vars()` or
    /// `out.len() != self.len()`.
    pub fn fill_row(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.num_vars, "point dimension mismatch");
        assert_eq!(out.len(), self.terms.len(), "row buffer length mismatch");
        for (o, t) in out.iter_mut().zip(&self.terms) {
            *o = t
                .pairs()
                .iter()
                .map(|&(v, d)| hermite_normalized(d as usize, x[v]))
                .product();
        }
    }

    /// Builds the K × M design matrix `G` (eq. 9) for K sample points given
    /// as rows of an iterator of slices.
    ///
    /// # Panics
    ///
    /// Panics when any sample has the wrong dimension.
    pub fn design_matrix<'a, I>(&self, samples: I) -> Matrix
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let m = self.len();
        let mut data: Vec<f64> = Vec::new();
        let mut rows = 0;
        for x in samples {
            data.resize(data.len() + m, 0.0);
            let start = data.len() - m;
            self.fill_row(x, &mut data[start..]);
            rows += 1;
        }
        // bmf-lint: allow(panic-reachability) -- every row is written with self.len() entries just above
        Matrix::from_row_major(rows, self.len(), data).expect("rows are uniform by construction")
    }

    /// Evaluates the model `Σ_m coeffs[m]·g_m(x)` at `x`.
    ///
    /// # Panics
    ///
    /// Panics when `coeffs.len() != self.len()` or `x` has the wrong
    /// dimension.
    pub fn evaluate_model(&self, coeffs: &[f64], x: &[f64]) -> f64 {
        assert_eq!(coeffs.len(), self.len(), "coefficient count mismatch");
        assert_eq!(x.len(), self.num_vars, "point dimension mismatch");
        self.terms
            .iter()
            .zip(coeffs)
            .map(|(t, a)| {
                let g: f64 = t
                    .pairs()
                    .iter()
                    .map(|&(v, d)| hermite_normalized(d as usize, x[v]))
                    .product();
                g * a
            })
            .sum()
    }

    /// Analytic gradient `∇_x Σ_m coeffs[m]·g_m(x)`, using
    /// `heₙ' = √n·heₙ₋₁`.
    ///
    /// Cost is Θ(#non-zero exponents) per term — for the linear bases of
    /// the paper's experiments this is Θ(M).
    ///
    /// # Panics
    ///
    /// Panics when `coeffs.len() != self.len()` or `x` has the wrong
    /// dimension.
    pub fn model_gradient(&self, coeffs: &[f64], x: &[f64]) -> Vec<f64> {
        assert_eq!(coeffs.len(), self.len(), "coefficient count mismatch");
        assert_eq!(x.len(), self.num_vars, "point dimension mismatch");
        let mut grad = vec![0.0; self.num_vars];
        for (term, &a) in self.terms.iter().zip(coeffs) {
            if bmf_linalg::is_exact_zero(a) || term.is_constant() {
                continue;
            }
            let pairs = term.pairs();
            // Common fast path: a single linear factor.
            if pairs.len() == 1 && pairs[0].1 == 1 {
                grad[pairs[0].0] += a;
                continue;
            }
            // Product rule over the factors.
            for (di, &(dv, dd)) in pairs.iter().enumerate() {
                let mut g = hermite_normalized_derivative(dd as usize, x[dv]);
                if bmf_linalg::is_exact_zero(g) {
                    continue;
                }
                for (j, &(v, d)) in pairs.iter().enumerate() {
                    if j != di {
                        g *= hermite_normalized(d as usize, x[v]);
                    }
                }
                grad[dv] += a * g;
            }
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    #[test]
    fn linear_basis_layout() {
        let b = OrthonormalBasis::linear(4);
        assert_eq!(b.len(), 5);
        assert!(b.term(0).is_constant());
        assert_eq!(b.term(3), &MultiIndex::linear(2));
        let row = b.row(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(row, vec![1.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn total_degree_2_matches_paper_eq5() {
        // Paper eq. (5): 1, x1, x2, (x1²−1)/√2, x1·x2, (x2²−1)/√2.
        let b = OrthonormalBasis::total_degree(2, 2, 100);
        assert_eq!(b.len(), 6);
        let x = [1.5, -0.5];
        let row = b.row(&x);
        assert_eq!(row[0], 1.0);
        assert_eq!(row[1], 1.5);
        assert_eq!(row[2], -0.5);
        let he2 = |v: f64| (v * v - 1.0) / 2.0f64.sqrt();
        // Terms of degree 2 in graded-lex order: he2(x0), x0*x1, he2(x1).
        assert!((row[3] - he2(1.5)).abs() < 1e-12);
        assert!((row[4] - 1.5 * -0.5).abs() < 1e-12);
        assert!((row[5] - he2(-0.5)).abs() < 1e-12);
    }

    #[test]
    fn design_matrix_shape_and_rows() {
        let b = OrthonormalBasis::linear(2);
        let pts = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]];
        let g = b.design_matrix(pts.iter().map(|p| p.as_slice()));
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn evaluate_model_is_linear_combination() {
        let b = OrthonormalBasis::linear(2);
        let coeffs = [10.0, 1.0, -2.0];
        let v = b.evaluate_model(&coeffs, &[3.0, 4.0]);
        assert_eq!(v, 10.0 + 3.0 - 8.0);
    }

    #[test]
    fn monte_carlo_gram_is_identity() {
        // E[G row ⊗ G row] = I for orthonormal terms under N(0, I).
        let b = OrthonormalBasis::total_degree(3, 2, 100);
        let m = b.len();
        let mut rng = seeded(5);
        let mut sampler = StandardNormal::new();
        let n = 60_000;
        let mut acc = vec![0.0f64; m * m];
        for _ in 0..n {
            let x = sampler.sample_vec(&mut rng, 3);
            let row = b.row(&x);
            for i in 0..m {
                for j in 0..m {
                    acc[i * m + j] += row[i] * row[j];
                }
            }
        }
        for i in 0..m {
            for j in 0..m {
                let v = acc[i * m + j] / n as f64;
                let target = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (v - target).abs() < 0.06,
                    "gram[{i}][{j}] = {v}, want {target}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn from_terms_validates_vars() {
        OrthonormalBasis::from_terms(2, vec![MultiIndex::linear(5)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn row_validates_dimension() {
        OrthonormalBasis::linear(3).row(&[1.0, 2.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let b = OrthonormalBasis::total_degree(3, 3, 1000);
        let coeffs: Vec<f64> = (0..b.len())
            .map(|m| ((m * 13 % 7) as f64 - 3.0) / 5.0)
            .collect();
        let x = [0.4, -0.8, 1.2];
        let grad = b.model_gradient(&coeffs, &x);
        let h = 1e-6;
        for v in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[v] += h;
            xm[v] -= h;
            let fd = (b.evaluate_model(&coeffs, &xp) - b.evaluate_model(&coeffs, &xm)) / (2.0 * h);
            assert!(
                (grad[v] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "var {v}: analytic {} vs fd {}",
                grad[v],
                fd
            );
        }
    }

    #[test]
    fn linear_model_gradient_is_coefficients() {
        let b = OrthonormalBasis::linear(4);
        let coeffs = [9.0, 1.0, -2.0, 3.0, 0.5];
        let grad = b.model_gradient(&coeffs, &[0.3, 0.1, -0.2, 0.9]);
        assert_eq!(grad, vec![1.0, -2.0, 3.0, 0.5]);
    }

    #[test]
    fn high_dimensional_linear_row_is_fast_shape() {
        // Smoke: a 10_000-variable linear basis builds rows of length 10_001.
        let b = OrthonormalBasis::linear(10_000);
        let x = vec![0.1; 10_000];
        assert_eq!(b.row(&x).len(), 10_001);
    }
}
