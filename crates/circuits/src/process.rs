//! Process-variation bookkeeping: a registry of independent standard
//! normal variation variables.
//!
//! The process design kit convention the paper adopts (eq. 1) models all
//! device-level variations as a vector of independent `N(0, 1)` variables;
//! physical magnitudes live in per-device *sensitivities*. [`VarSpace`]
//! allocates contiguous, named ranges of such variables (interdie
//! parameters, per-device mismatch groups, parasitic groups) so circuit
//! models can document and address their variation layout, and
//! [`pelgrom_sigma`] supplies the classic area scaling law used to set
//! mismatch sensitivities.

use std::ops::Range;

/// Pelgrom mismatch coefficient for threshold voltage, in V·µm.
///
/// Representative of a 32 nm-class process: `σ(ΔV_TH) = A_VT / √(W·L)`.
pub const A_VT: f64 = 1.8e-3;

/// Pelgrom mismatch coefficient for the current factor β (relative), in
/// %·µm ≈ fraction·µm.
pub const A_BETA: f64 = 0.01;

/// Pelgrom area scaling: `σ = a / √(w_um · l_um)`.
///
/// # Panics
///
/// Panics when the area is not positive.
///
/// ```
/// let s = bmf_circuits::process::pelgrom_sigma(1.8e-3, 1.0, 0.032);
/// assert!(s > 0.0);
/// ```
pub fn pelgrom_sigma(a: f64, w_um: f64, l_um: f64) -> f64 {
    assert!(w_um > 0.0 && l_um > 0.0, "device area must be positive");
    a / (w_um * l_um).sqrt()
}

/// A named, contiguous group of variation variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarGroup {
    /// Group label, e.g. `"stage3.nmos.mismatch"`.
    pub name: String,
    /// Index range within the variation vector.
    pub range: Range<usize>,
}

/// An append-only registry of variation variables.
///
/// Circuit models allocate their variables through a `VarSpace` so the
/// final vector layout is self-describing. Allocation order is the vector
/// order; the schematic stage allocates first and the post-layout stage
/// appends parasitic groups, which realizes the embedding convention of
/// [`crate::stage`].
///
/// # Example
///
/// ```
/// use bmf_circuits::process::VarSpace;
///
/// let mut vs = VarSpace::new();
/// let interdie = vs.alloc("interdie", 10);
/// let m1 = vs.alloc("m1.mismatch", 40);
/// assert_eq!(interdie, 0..10);
/// assert_eq!(m1, 10..50);
/// assert_eq!(vs.len(), 50);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarSpace {
    groups: Vec<VarGroup>,
    len: usize,
}

impl VarSpace {
    /// Creates an empty registry.
    pub fn new() -> Self {
        VarSpace::default()
    }

    /// Allocates `count` fresh variables under `name`, returning their
    /// index range.
    pub fn alloc(&mut self, name: &str, count: usize) -> Range<usize> {
        let range = self.len..self.len + count;
        self.groups.push(VarGroup {
            name: name.to_owned(),
            range: range.clone(),
        });
        self.len += count;
        range
    }

    /// Total number of variables allocated.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All groups, in allocation order.
    pub fn groups(&self) -> &[VarGroup] {
        &self.groups
    }

    /// Finds a group by exact name.
    pub fn group(&self, name: &str) -> Option<&VarGroup> {
        self.groups.iter().find(|g| g.name == name)
    }
}

/// A linear sensitivity map: a sparse list of `(variable, weight)` pairs
/// plus an offset, representing `v(x) = offset + Σ w_i·x_i`.
///
/// Device parameters (ΔV_TH, Δβ, parasitic ΔC, …) are affine functions of
/// the standard normal variation vector; this is the common representation
/// the behavioral circuit models evaluate per sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sensitivity {
    /// Nominal value.
    pub offset: f64,
    /// Sparse `(variable index, weight)` pairs.
    pub weights: Vec<(usize, f64)>,
}

impl Sensitivity {
    /// A constant with no variation dependence.
    pub fn constant(offset: f64) -> Self {
        Sensitivity {
            offset,
            weights: Vec::new(),
        }
    }

    /// Creates an affine map with the given nominal and weights.
    pub fn new(offset: f64, weights: Vec<(usize, f64)>) -> Self {
        Sensitivity { offset, weights }
    }

    /// Adds a dependence `weight · x_var`.
    pub fn push(&mut self, var: usize, weight: f64) {
        self.weights.push((var, weight));
    }

    /// Evaluates at the variation vector `x`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when a referenced variable is out of
    /// bounds.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut v = self.offset;
        for &(i, w) in &self.weights {
            debug_assert!(i < x.len(), "sensitivity references variable {i}");
            v += w * x[i];
        }
        v
    }

    /// Total variance contributed when `x ~ N(0, I)`: `Σ w_i²`.
    pub fn variance(&self) -> f64 {
        self.weights.iter().map(|&(_, w)| w * w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_contiguous_and_ordered() {
        let mut vs = VarSpace::new();
        let a = vs.alloc("a", 3);
        let b = vs.alloc("b", 2);
        assert_eq!(a, 0..3);
        assert_eq!(b, 3..5);
        assert_eq!(vs.len(), 5);
        assert!(!vs.is_empty());
    }

    #[test]
    fn group_lookup() {
        let mut vs = VarSpace::new();
        vs.alloc("interdie", 4);
        vs.alloc("m1", 2);
        assert_eq!(vs.group("m1").unwrap().range, 4..6);
        assert!(vs.group("missing").is_none());
    }

    #[test]
    fn zero_size_group_allowed() {
        let mut vs = VarSpace::new();
        let r = vs.alloc("empty", 0);
        assert_eq!(r, 0..0);
        assert_eq!(vs.len(), 0);
    }

    #[test]
    fn pelgrom_scales_inverse_sqrt_area() {
        let s1 = pelgrom_sigma(1.0, 1.0, 1.0);
        let s4 = pelgrom_sigma(1.0, 2.0, 2.0);
        assert!((s1 / s4 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn pelgrom_rejects_zero_area() {
        pelgrom_sigma(1.0, 0.0, 1.0);
    }

    #[test]
    fn sensitivity_eval_and_variance() {
        let s = Sensitivity::new(2.0, vec![(0, 0.5), (2, -0.25)]);
        assert_eq!(s.eval(&[1.0, 9.0, 4.0]), 2.0 + 0.5 - 1.0);
        assert!((s.variance() - (0.25 + 0.0625)).abs() < 1e-12);
    }

    #[test]
    fn constant_has_no_variance() {
        let s = Sensitivity::constant(3.3);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.eval(&[]), 3.3);
    }
}
