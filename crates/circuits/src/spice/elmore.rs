//! Elmore delay of RC trees.
//!
//! Post-layout netlists carry interconnect parasitics; the first-moment
//! (Elmore) delay is the standard closed-form estimate for RC trees and is
//! what the behavioral circuit models use to fold parasitic variation into
//! stage delays:
//!
//! ```text
//! T_D(n) = Σ_e∈path(root→n)  R_e · C_downstream(e)
//! ```

/// One segment of an RC tree: a resistance from its parent plus a
/// capacitance to ground at its far end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcSegment {
    /// Parent segment index, or `None` for segments hanging off the root.
    pub parent: Option<usize>,
    /// Segment resistance in ohms (from parent toward this node).
    pub resistance: f64,
    /// Node capacitance to ground in farads.
    pub capacitance: f64,
}

/// An RC tree rooted at an ideal driver.
///
/// # Example — two-segment ladder
///
/// ```
/// use bmf_circuits::spice::elmore::{RcSegment, RcTree};
///
/// let tree = RcTree::new(vec![
///     RcSegment { parent: None, resistance: 100.0, capacitance: 1e-12 },
///     RcSegment { parent: Some(0), resistance: 200.0, capacitance: 2e-12 },
/// ]).unwrap();
/// // T(1) = R0*(C0+C1) + R1*C1 = 100*3e-12 + 200*2e-12 = 0.7 ns
/// assert!((tree.delay(1) - 0.7e-9).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RcTree {
    segments: Vec<RcSegment>,
    downstream_cap: Vec<f64>,
}

/// Error constructing an [`RcTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RcTreeError {
    /// A segment's parent index is not smaller than its own index
    /// (segments must be listed in topological order).
    BadTopology {
        /// The offending segment.
        segment: usize,
    },
    /// A resistance or capacitance is negative or non-finite.
    BadValue {
        /// The offending segment.
        segment: usize,
    },
}

impl std::fmt::Display for RcTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RcTreeError::BadTopology { segment } => write!(
                f,
                "segment {segment}: parent must precede child (topological order)"
            ),
            RcTreeError::BadValue { segment } => {
                write!(
                    f,
                    "segment {segment}: R and C must be finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for RcTreeError {}

impl RcTree {
    /// Builds a tree from topologically ordered segments (every parent
    /// index precedes its children).
    ///
    /// # Errors
    ///
    /// Returns [`RcTreeError::BadTopology`] or [`RcTreeError::BadValue`].
    pub fn new(segments: Vec<RcSegment>) -> Result<Self, RcTreeError> {
        for (i, s) in segments.iter().enumerate() {
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(RcTreeError::BadTopology { segment: i });
                }
            }
            if s.resistance < 0.0
                || s.capacitance < 0.0
                || !s.resistance.is_finite()
                || !s.capacitance.is_finite()
            {
                return Err(RcTreeError::BadValue { segment: i });
            }
        }
        // Downstream capacitance: accumulate children into parents in
        // reverse topological order.
        let mut down: Vec<f64> = segments.iter().map(|s| s.capacitance).collect();
        for i in (0..segments.len()).rev() {
            if let Some(p) = segments[i].parent {
                down[p] += down[i];
            }
        }
        Ok(RcTree {
            segments,
            downstream_cap: down,
        })
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` when the tree has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Elmore delay from the root driver to segment `i`'s node, in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn delay(&self, i: usize) -> f64 {
        let mut t = 0.0;
        let mut cur = Some(i);
        while let Some(k) = cur {
            t += self.segments[k].resistance * self.downstream_cap[k];
            cur = self.segments[k].parent;
        }
        t
    }

    /// The largest Elmore delay over all leaf nodes (the critical sink).
    pub fn max_delay(&self) -> f64 {
        let mut has_child = vec![false; self.segments.len()];
        for s in &self.segments {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        (0..self.segments.len())
            .filter(|&i| !has_child[i])
            .map(|i| self.delay(i))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(parent: Option<usize>, r: f64, c: f64) -> RcSegment {
        RcSegment {
            parent,
            resistance: r,
            capacitance: c,
        }
    }

    #[test]
    fn single_segment_is_rc() {
        let t = RcTree::new(vec![seg(None, 1_000.0, 1e-12)]).unwrap();
        assert!((t.delay(0) - 1e-9).abs() < 1e-18);
        assert_eq!(t.max_delay(), t.delay(0));
    }

    #[test]
    fn ladder_delay_accumulates_downstream_caps() {
        // R1-C1-R2-C2-R3-C3 ladder.
        let t = RcTree::new(vec![
            seg(None, 100.0, 1e-12),
            seg(Some(0), 100.0, 1e-12),
            seg(Some(1), 100.0, 1e-12),
        ])
        .unwrap();
        // T(2) = R1*3C + R2*2C + R3*C = 100e-12*(3+2+1) = 600 ps.
        assert!((t.delay(2) - 6e-10).abs() < 1e-16);
    }

    #[test]
    fn branching_tree_downstream_caps() {
        //       0
        //      / \
        //     1   2
        let t = RcTree::new(vec![
            seg(None, 50.0, 1e-12),
            seg(Some(0), 100.0, 2e-12),
            seg(Some(0), 200.0, 3e-12),
        ])
        .unwrap();
        // Delay to node 2: R0*(C0+C1+C2) + R2*C2.
        let expect = 50.0 * 6e-12 + 200.0 * 3e-12;
        assert!((t.delay(2) - expect).abs() < 1e-16);
        // Critical sink is node 2 (3e-10+6e-10 > delay(1)).
        assert_eq!(t.max_delay(), t.delay(2));
    }

    #[test]
    fn sibling_resistance_does_not_count() {
        // Delay to node 1 must not include node 2's resistance.
        let t = RcTree::new(vec![
            seg(None, 100.0, 0.0),
            seg(Some(0), 100.0, 1e-12),
            seg(Some(0), 1e6, 1e-12),
        ])
        .unwrap();
        let expect = 100.0 * 2e-12 + 100.0 * 1e-12;
        assert!((t.delay(1) - expect).abs() < 1e-16);
    }

    #[test]
    fn topology_validation() {
        assert!(matches!(
            RcTree::new(vec![seg(Some(0), 1.0, 1.0)]),
            Err(RcTreeError::BadTopology { segment: 0 })
        ));
        assert!(matches!(
            RcTree::new(vec![seg(None, -1.0, 1.0)]),
            Err(RcTreeError::BadValue { segment: 0 })
        ));
    }

    #[test]
    fn empty_tree() {
        let t = RcTree::new(vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.max_delay(), 0.0);
    }
}
