use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Result};

/// A dense column vector of `f64` values.
///
/// `Vector` is a thin, owned wrapper over `Vec<f64>` that adds the BLAS-1
/// operations the BMF pipeline needs (dot products, norms, axpy updates)
/// with eager dimension validation.
///
/// # Example
///
/// ```
/// use bmf_linalg::Vector;
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let a = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(a.norm2(), 5.0);
/// let b = Vector::from(vec![1.0, 0.0]);
/// assert_eq!(a.dot(&b)?, 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `n` zeros.
    ///
    /// ```
    /// let v = bmf_linalg::Vector::zeros(3);
    /// assert_eq!(v.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector from a generator function over indices `0..n`.
    ///
    /// ```
    /// let v = bmf_linalg::Vector::from_fn(3, |i| i as f64);
    /// assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    /// ```
    pub fn from_fn<F: FnMut(usize) -> f64>(n: usize, f: F) -> Self {
        Vector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the elements as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element, or `0.0` for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// In-place scaled addition `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        // Clone-as-output: the owned wrappers in this file copy the input
        // into the result buffer and run the in-place kernel on it.
        let mut out = self.clone();
        out.axpy(1.0, other)?;
        Ok(out)
    }

    /// Returns `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        let mut out = self.clone();
        out.axpy(-1.0, other)?;
        Ok(out)
    }

    /// Arithmetic mean, or `0.0` for an empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dot_matches_hand_computation() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_rejects_mismatched_lengths() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { op: "dot", .. })
        ));
    }

    #[test]
    fn norms() {
        let v = Vector::from(vec![-3.0, 4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        let b = Vector::from(vec![2.0, 3.0]);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![0.5, -0.5]);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Vector::zeros(0).mean(), 0.0);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let mut v: Vector = (0..3).map(|i| i as f64).collect();
        v.extend([3.0, 4.0]);
        assert_eq!(v.len(), 5);
        assert_eq!(v[4], 4.0);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut v = Vector::zeros(2);
        assert!(v.is_finite());
        v[1] = f64::NAN;
        assert!(!v.is_finite());
    }

    #[test]
    fn display_renders_contents() {
        let v = Vector::from(vec![1.0]);
        assert!(format!("{v}").contains("1.0"));
    }
}
