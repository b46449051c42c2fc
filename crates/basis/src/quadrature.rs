//! Gauss–Hermite quadrature (probabilists' convention).
//!
//! An n-point rule integrates polynomials of degree ≤ 2n−1 *exactly*
//! against the standard normal weight:
//!
//! ```text
//! ∫ p(x)·φ(x) dx = Σ_i w_i · p(x_i)
//! ```
//!
//! Nodes and weights come from the Golub–Welsch algorithm: the
//! eigenvalues of the Jacobi (three-term-recurrence) matrix of the
//! probabilists' Hermite family are the nodes, and the squared first
//! eigenvector components are the weights. The Jacobi matrix is
//! tridiagonal, so an implicit-QL iteration on its (diagonal,
//! off-diagonal) form carrying only the first components suffices. This gives the test suite an
//! *exact* (not Monte-Carlo) verification of the basis orthonormality
//! that the paper's variance bookkeeping relies on, and lets models be
//! projected onto the basis by quadrature in low dimensions.

use bmf_linalg::tridiagonal;

/// A Gauss–Hermite quadrature rule for the standard normal weight.
///
/// # Example
///
/// ```
/// use bmf_basis::quadrature::GaussHermite;
/// let rule = GaussHermite::new(5);
/// // E[x²] = 1 for x ~ N(0,1), integrated exactly.
/// let m2: f64 = rule.nodes().iter().zip(rule.weights())
///     .map(|(&x, &w)| w * x * x).sum();
/// assert!((m2 - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussHermite {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussHermite {
    /// Builds the n-point rule.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "quadrature needs at least one node");
        // Jacobi matrix of probabilists' Hermite: diagonal 0,
        // off-diagonal sqrt(k).
        let off: Vec<f64> = (1..n).map(|k| (k as f64).sqrt()).collect();
        let diag = vec![0.0; n];
        // bmf-lint: allow(panic-reachability) -- the lengths match by construction and QL converges on this well-separated spectrum
        let (values, first) = tridiagonal::eigen_first(&diag, &off).expect("Hermite Jacobi matrix");
        // Weights: first-row components squared (total mass 1 for the
        // normalized normal weight).
        let mut pairs: Vec<(f64, f64)> = values
            .into_iter()
            .zip(first)
            .map(|(x, v0)| (x, v0 * v0))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        GaussHermite {
            nodes: pairs.iter().map(|p| p.0).collect(),
            weights: pairs.iter().map(|p| p.1).collect(),
        }
    }

    /// Quadrature nodes in ascending order.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Quadrature weights (summing to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the rule has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Integrates `f` against the standard normal weight in 1-D.
    pub fn integrate<F: FnMut(f64) -> f64>(&self, mut f: F) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::OrthonormalBasis;
    use crate::hermite::hermite_normalized;
    use bmf_linalg::Matrix;

    /// Computes the Gram matrix `E[g_i g_j]` of a basis over `dims ≤ 3`
    /// variables by tensorized Gauss–Hermite quadrature — exact when the
    /// rule order covers twice the basis degree.
    ///
    /// Intended for verification at small dimension (the tensor grid has
    /// `n^dims` points).
    ///
    /// # Panics
    ///
    /// Panics when the basis has more than 3 variables (use Monte-Carlo
    /// checks beyond that).
    fn basis_gram_exact(basis: &OrthonormalBasis, points_per_dim: usize) -> Matrix {
        let d = basis.num_vars();
        assert!(d <= 3, "tensor quadrature is for small dimensions");
        let rule = GaussHermite::new(points_per_dim);
        let m = basis.len();
        let mut gram = Matrix::zeros(m, m);
        let n = rule.len();
        let total = n.pow(d as u32);
        let mut x = vec![0.0; d];
        for flat in 0..total {
            let mut rem = flat;
            let mut w = 1.0;
            for xv in x.iter_mut() {
                let idx = rem % n;
                rem /= n;
                *xv = rule.nodes()[idx];
                w *= rule.weights()[idx];
            }
            let row = basis.row(&x);
            for i in 0..m {
                for j in i..m {
                    gram[(i, j)] += w * row[i] * row[j];
                }
            }
        }
        for i in 0..m {
            for j in (i + 1)..m {
                gram[(j, i)] = gram[(i, j)];
            }
        }
        gram
    }

    #[test]
    fn weights_sum_to_one_and_nodes_symmetric() {
        for n in [1usize, 2, 3, 5, 8, 12] {
            let rule = GaussHermite::new(n);
            let wsum: f64 = rule.weights().iter().sum();
            assert!((wsum - 1.0).abs() < 1e-12, "n={n}: weight sum {wsum}");
            for (a, b) in rule.nodes().iter().zip(rule.nodes().iter().rev()) {
                assert!((a + b).abs() < 1e-9, "n={n}: asymmetric nodes");
            }
        }
    }

    #[test]
    fn known_three_point_rule() {
        // Probabilists' 3-point rule: nodes -sqrt(3), 0, sqrt(3);
        // weights 1/6, 2/3, 1/6.
        let r = GaussHermite::new(3);
        let s3 = 3.0f64.sqrt();
        assert!((r.nodes()[0] + s3).abs() < 1e-10);
        assert!(r.nodes()[1].abs() < 1e-10);
        assert!((r.nodes()[2] - s3).abs() < 1e-10);
        assert!((r.weights()[0] - 1.0 / 6.0).abs() < 1e-10);
        assert!((r.weights()[1] - 2.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn gaussian_moments_exact() {
        let r = GaussHermite::new(6);
        // Moments of N(0,1): 1, 0, 1, 0, 3, 0, 15 (up to degree 2*6-1).
        let moments = [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0];
        for (p, &want) in moments.iter().enumerate() {
            let got = r.integrate(|x| x.powi(p as i32));
            assert!((got - want).abs() < 1e-9, "moment {p}: {got} vs {want}");
        }
    }

    #[test]
    fn hermite_orthonormality_exact_1d() {
        // E[he_i he_j] = delta_ij, verified by quadrature (degree i+j <=
        // 8 needs >= 5 points).
        let r = GaussHermite::new(6);
        for i in 0..=4usize {
            for j in 0..=4usize {
                let v = r.integrate(|x| hermite_normalized(i, x) * hermite_normalized(j, x));
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (v - want).abs() < 1e-9,
                    "<he_{i}, he_{j}> = {v}, want {want}"
                );
            }
        }
    }

    #[test]
    fn multivariate_basis_gram_is_identity() {
        // The paper's eq. 3 condition, verified exactly for the degree-2
        // basis over 2 variables (the eq. 5 example).
        let basis = OrthonormalBasis::total_degree(2, 2, 100);
        let gram = basis_gram_exact(&basis, 5);
        let m = basis.len();
        for i in 0..m {
            for j in 0..m {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (gram[(i, j)] - want).abs() < 1e-9,
                    "gram[{i}][{j}] = {}",
                    gram[(i, j)]
                );
            }
        }
    }

    #[test]
    fn degree3_basis_in_3_vars_is_orthonormal() {
        let basis = OrthonormalBasis::total_degree(3, 3, 1000);
        let gram = basis_gram_exact(&basis, 6);
        let m = basis.len();
        let mut worst = 0.0f64;
        for i in 0..m {
            for j in 0..m {
                let want = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((gram[(i, j)] - want).abs());
            }
        }
        assert!(worst < 1e-8, "worst orthonormality defect {worst}");
    }
}
