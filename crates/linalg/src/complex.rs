//! Complex scalars, matrices, and a complex LU solver.
//!
//! Small-signal AC analysis assembles the MNA system over ℂ (capacitors
//! stamp `jωC`). The offline crate set has no complex-number crate, so
//! this module provides the minimal field + dense solve the AC engine
//! needs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::LinalgError;

/// A complex number with `f64` components.
///
/// ```
/// use bmf_linalg::complex::C64;
/// let j = C64::new(0.0, 1.0);
/// assert_eq!(j * j, C64::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const J: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates `re + j·im`.
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real value.
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on division by (exact) zero.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        assert!(d > 0.0, "complex division by zero");
        C64::new(self.re / d, -self.im / d)
    }

    /// `true` when both parts are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, o: C64) {
        *self = *self + o;
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl SubAssign for C64 {
    fn sub_assign(&mut self, o: C64) {
        *self = *self - o;
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl MulAssign for C64 {
    fn mul_assign(&mut self, o: C64) {
        *self = *self * o;
    }
}

impl Div for C64 {
    type Output = C64;
    // Division by reciprocal is the intended numerically-stable route here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, o: C64) -> C64 {
        self * o.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

/// A dense row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics out of bounds (debug) / index arithmetic (release).
    pub fn get(&self, i: usize, j: usize) -> C64 {
        self.data[i * self.cols + j]
    }

    /// Mutable element access.
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }

    /// Adds `v` to element `(i, j)` (the MNA "stamp" operation).
    pub fn stamp(&mut self, i: usize, j: usize, v: C64) {
        *self.get_mut(i, j) += v;
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[C64]) -> Vec<C64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut s = C64::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    s += self.get(i, j) * xj;
                }
                s
            })
            .collect()
    }

    /// Solves `A x = b` by partially pivoted LU, consuming a copy of the
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::DimensionMismatch`]
    /// or [`LinalgError::Singular`].
    pub fn solve(&self, b: &[C64]) -> Result<Vec<C64>, LinalgError> {
        let n = self.rows;
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "complex solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Clone-as-output: elimination consumes the copy in place.
        let mut a = self.data.clone();
        let mut x: Vec<C64> = b.to_vec();
        let scale = a.iter().fold(0.0f64, |m, z| m.max(z.abs())).max(1.0);
        let tol = 1e-14 * scale;

        for k in 0..n {
            // Pivot on magnitude.
            let mut p = k;
            let mut best = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < tol {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                x.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let mul = a[i * n + k] / pivot;
                if mul == C64::ZERO {
                    continue;
                }
                a[i * n + k] = mul;
                for j in (k + 1)..n {
                    let akj = a[k * n + j];
                    let v = a[i * n + j] - mul * akj;
                    a[i * n + j] = v;
                }
                let xk = x[k];
                x[i] -= mul * xk;
            }
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= a[i * n + j] * x[j];
            }
            x[i] = s / a[i * n + i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spot_checks() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-0.5, 3.0);
        assert_eq!(a + b, C64::new(0.5, 5.0));
        assert_eq!(a - b, C64::new(1.5, -1.0));
        assert_eq!(a * b, C64::new(-0.5 - 6.0, 3.0 - 1.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-12);
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::new(2.0 * 0.7f64.cos(), 2.0 * 0.7f64.sin());
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn conjugate_properties() {
        let z = C64::new(3.0, -4.0);
        let conj = C64::new(3.0, 4.0);
        assert!((z * conj - C64::real(z.norm_sqr())).abs() < 1e-12);
        assert_eq!(z.abs(), 5.0);
    }

    #[test]
    fn solve_identity() {
        let mut a = CMatrix::zeros(3, 3);
        for i in 0..3 {
            *a.get_mut(i, i) = C64::ONE;
        }
        let b = [C64::new(1.0, 1.0), C64::new(2.0, -1.0), C64::real(3.0)];
        let x = a.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_complex_system_roundtrip() {
        let mut a = CMatrix::zeros(3, 3);
        let vals = [
            [(2.0, 1.0), (0.5, -0.3), (0.0, 0.0)],
            [(0.1, 0.0), (1.5, -2.0), (0.7, 0.2)],
            [(0.0, 1.0), (0.0, 0.0), (3.0, 0.5)],
        ];
        for (i, row) in vals.iter().enumerate() {
            for (j, &(re, im)) in row.iter().enumerate() {
                *a.get_mut(i, j) = C64::new(re, im);
            }
        }
        let x_true = [C64::new(1.0, -1.0), C64::new(0.5, 2.0), C64::new(-0.7, 0.1)];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((*u - *v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn pivoting_handles_zero_leading() {
        let mut a = CMatrix::zeros(2, 2);
        *a.get_mut(0, 1) = C64::ONE;
        *a.get_mut(1, 0) = C64::ONE;
        let x = a.solve(&[C64::real(3.0), C64::real(5.0)]).unwrap();
        assert!((x[0] - C64::real(5.0)).abs() < 1e-14);
        assert!((x[1] - C64::real(3.0)).abs() < 1e-14);
    }

    #[test]
    fn singular_detected() {
        let a = CMatrix::zeros(2, 2);
        assert!(matches!(
            a.solve(&[C64::ZERO, C64::ZERO]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn stamp_accumulates() {
        let mut a = CMatrix::zeros(1, 1);
        a.stamp(0, 0, C64::new(1.0, 0.5));
        a.stamp(0, 0, C64::new(2.0, -0.25));
        assert_eq!(a.get(0, 0), C64::new(3.0, 0.25));
    }
}
