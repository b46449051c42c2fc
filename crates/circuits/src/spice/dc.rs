//! DC operating-point analysis via modified nodal analysis (MNA).
//!
//! The MNA system has one row per non-ground node (KCL) plus one row per
//! voltage source (branch equation). Capacitors are open circuits in DC.
//! The assembled matrix is unsymmetric (voltage-source stamps), so it is
//! factorized with the partially pivoted LU from `bmf-linalg`.

use bmf_linalg::{LinalgError, Matrix, Vector};

use super::circuit::{Circuit, Element, Node};

/// A DC solution: node voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    voltages: Vec<f64>,
}

impl DcSolution {
    /// Voltage at `node` (ground is exactly 0).
    ///
    /// # Panics
    ///
    /// Panics when the node does not belong to the solved circuit.
    pub fn voltage(&self, node: Node) -> f64 {
        if node.0 == 0 {
            0.0
        } else {
            self.voltages[node.0 - 1]
        }
    }
}

/// Assembles and solves the MNA system for `circuit`.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] when the circuit has floating nodes or
/// is otherwise ill-posed (every node needs a DC path to ground).
pub fn solve_dc(circuit: &Circuit) -> Result<DcSolution, LinalgError> {
    let n = circuit.num_nodes() - 1; // unknown node voltages
    let m = circuit.num_voltage_sources();
    let dim = n + m;
    if dim == 0 {
        return Ok(DcSolution {
            voltages: Vec::new(),
        });
    }
    let mut a = Matrix::zeros(dim, dim);
    let mut rhs = Vector::zeros(dim);

    // Map node -> matrix row/col (ground drops out).
    let idx = |node: Node| -> Option<usize> { (node.0 > 0).then(|| node.0 - 1) };

    let mut vs_index = 0usize;
    for e in circuit.elements() {
        match *e {
            Element::Resistor { a: na, b: nb, ohms } => {
                let g = 1.0 / ohms;
                stamp_conductance(&mut a, idx(na), idx(nb), g);
            }
            Element::Capacitor { .. } => { /* open in DC */ }
            Element::CurrentSource { from, to, amps } => {
                if let Some(i) = idx(from) {
                    rhs[i] -= amps;
                }
                if let Some(i) = idx(to) {
                    rhs[i] += amps;
                }
            }
            Element::VoltageSource { plus, minus, volts } => {
                let row = n + vs_index;
                if let Some(i) = idx(plus) {
                    a[(row, i)] += 1.0;
                    a[(i, row)] += 1.0;
                }
                if let Some(i) = idx(minus) {
                    a[(row, i)] -= 1.0;
                    a[(i, row)] -= 1.0;
                }
                rhs[row] = volts;
                vs_index += 1;
            }
            Element::Vccs {
                from,
                to,
                cp,
                cm,
                gm,
            } => {
                // Current gm*(Vcp - Vcm) leaves `from`, enters `to`.
                for (node, sign) in [(from, 1.0), (to, -1.0)] {
                    if let Some(r) = idx(node) {
                        if let Some(c) = idx(cp) {
                            a[(r, c)] += sign * gm;
                        }
                        if let Some(c) = idx(cm) {
                            a[(r, c)] -= sign * gm;
                        }
                    }
                }
            }
        }
    }

    let lu = a.lu()?;
    let x = lu.solve(&rhs)?;
    let xs = x.as_slice();
    Ok(DcSolution {
        voltages: xs[..n].to_vec(),
    })
}

/// Stamps a conductance `g` between two (possibly grounded) nodes.
pub(crate) fn stamp_conductance(a: &mut Matrix, na: Option<usize>, nb: Option<usize>, g: f64) {
    if let Some(i) = na {
        a[(i, i)] += g;
    }
    if let Some(j) = nb {
        a[(j, j)] += g;
    }
    if let (Some(i), Some(j)) = (na, nb) {
        a[(i, j)] -= g;
        a[(j, i)] -= g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node();
        let vout = c.node();
        c.voltage_source(vin, Circuit::GND, 3.0);
        c.resistor(vin, vout, 2_000.0);
        c.resistor(vout, Circuit::GND, 1_000.0);
        let s = solve_dc(&c).unwrap();
        assert!((s.voltage(vout) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node();
        c.current_source(Circuit::GND, a, 2e-3);
        c.resistor(a, Circuit::GND, 500.0);
        let s = solve_dc(&c).unwrap();
        assert!((s.voltage(a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wheatstone_bridge_balance() {
        // Balanced bridge: no voltage across the detector diagonal.
        let mut c = Circuit::new();
        let top = c.node();
        let left = c.node();
        let right = c.node();
        c.voltage_source(top, Circuit::GND, 10.0);
        c.resistor(top, left, 1_000.0);
        c.resistor(top, right, 2_000.0);
        c.resistor(left, Circuit::GND, 1_000.0);
        c.resistor(right, Circuit::GND, 2_000.0);
        c.resistor(left, right, 5_000.0); // detector
        let s = solve_dc(&c).unwrap();
        assert!((s.voltage(left) - s.voltage(right)).abs() < 1e-9);
        assert!((s.voltage(left) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_amplifier_gain() {
        // Common-source small-signal stage: vout = -gm * RL * vin.
        let mut c = Circuit::new();
        let vin = c.node();
        let vout = c.node();
        c.voltage_source(vin, Circuit::GND, 0.01);
        c.vccs(vout, Circuit::GND, vin, Circuit::GND, 2e-3); // gm = 2 mS
        c.resistor(vout, Circuit::GND, 10_000.0);
        let s = solve_dc(&c).unwrap();
        // gain = -gm*RL = -20; vout = -0.2 V.
        assert!((s.voltage(vout) + 0.2).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut c = Circuit::new();
        let a = c.node();
        let b = c.node();
        c.voltage_source(a, Circuit::GND, 1.0);
        c.resistor(a, b, 1_000.0);
        c.capacitor(b, Circuit::GND, 1e-12);
        // b floats through the capacitor only -> also needs the resistor
        // path; with no DC path from b, add a large bleed to keep it
        // well-posed.
        c.resistor(b, Circuit::GND, 1e9);
        let s = solve_dc(&c).unwrap();
        // Nearly no current flows: V(b) ~ 1 V.
        assert!((s.voltage(b) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut c = Circuit::new();
        let a = c.node();
        let b = c.node();
        c.voltage_source(a, Circuit::GND, 1.0);
        c.resistor(a, Circuit::GND, 100.0);
        // b is completely floating.
        let _ = b;
        assert!(solve_dc(&c).is_err());
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let c = Circuit::new();
        let s = solve_dc(&c).unwrap();
        assert_eq!(s.voltage(Circuit::GND), 0.0);
    }

    #[test]
    fn two_voltage_sources_in_series_chain() {
        let mut c = Circuit::new();
        let a = c.node();
        let b = c.node();
        c.voltage_source(a, Circuit::GND, 1.0);
        c.voltage_source(b, a, 0.5);
        c.resistor(b, Circuit::GND, 1_000.0);
        let s = solve_dc(&c).unwrap();
        assert!((s.voltage(b) - 1.5).abs() < 1e-9);
    }
}
