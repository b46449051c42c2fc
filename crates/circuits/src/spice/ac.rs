//! Small-signal AC analysis over the complex MNA system.
//!
//! At angular frequency ω the element stamps are: resistor `1/R`,
//! capacitor `jωC`, VCCS `gm` (real), independent sources at their
//! netlist values (interpreted as AC amplitudes). Solving the complex
//! system per frequency point yields node phasors, from which transfer
//! magnitudes/phases and −3 dB bandwidths follow.

use bmf_linalg::complex::{CMatrix, C64};
use bmf_linalg::LinalgError;

use super::circuit::{Circuit, Element, Node};

/// Node phasors at one frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSolution {
    voltages: Vec<C64>,
}

impl AcSolution {
    /// Phasor voltage at `node` (ground is exactly 0).
    ///
    /// # Panics
    ///
    /// Panics when the node does not belong to the solved circuit.
    pub fn voltage(&self, node: Node) -> C64 {
        if node.0 == 0 {
            C64::ZERO
        } else {
            self.voltages[node.0 - 1]
        }
    }

    /// Magnitude of the node voltage in dB (20·log₁₀|V|).
    pub fn magnitude_db(&self, node: Node) -> f64 {
        20.0 * self.voltage(node).abs().max(1e-300).log10()
    }
}

/// Solves the AC system at one frequency.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] for ill-posed circuits.
///
/// # Panics
///
/// Panics when `freq_hz` is negative or non-finite.
pub fn solve_ac(circuit: &Circuit, freq_hz: f64) -> Result<AcSolution, LinalgError> {
    assert!(
        freq_hz >= 0.0 && freq_hz.is_finite(),
        "frequency must be non-negative"
    );
    let omega = 2.0 * std::f64::consts::PI * freq_hz;
    let n = circuit.num_nodes() - 1;
    let m = circuit.num_voltage_sources();
    let dim = n + m;
    if dim == 0 {
        return Ok(AcSolution {
            voltages: Vec::new(),
        });
    }
    let idx = |node: Node| -> Option<usize> { (node.0 > 0).then(|| node.0 - 1) };
    let mut a = CMatrix::zeros(dim, dim);
    let mut rhs = vec![C64::ZERO; dim];

    let stamp_admittance = |a: &mut CMatrix, na: Option<usize>, nb: Option<usize>, y: C64| {
        if let Some(i) = na {
            a.stamp(i, i, y);
        }
        if let Some(j) = nb {
            a.stamp(j, j, y);
        }
        if let (Some(i), Some(j)) = (na, nb) {
            a.stamp(i, j, -y);
            a.stamp(j, i, -y);
        }
    };

    let mut vs_index = 0usize;
    for e in circuit.elements() {
        match *e {
            Element::Resistor { a: na, b: nb, ohms } => {
                stamp_admittance(&mut a, idx(na), idx(nb), C64::real(1.0 / ohms));
            }
            Element::Capacitor {
                a: na,
                b: nb,
                farads,
            } => {
                stamp_admittance(&mut a, idx(na), idx(nb), C64::new(0.0, omega * farads));
            }
            Element::CurrentSource { from, to, amps } => {
                if let Some(i) = idx(from) {
                    rhs[i] -= C64::real(amps);
                }
                if let Some(i) = idx(to) {
                    rhs[i] += C64::real(amps);
                }
            }
            Element::VoltageSource { plus, minus, volts } => {
                let row = n + vs_index;
                if let Some(i) = idx(plus) {
                    a.stamp(row, i, C64::ONE);
                    a.stamp(i, row, C64::ONE);
                }
                if let Some(i) = idx(minus) {
                    a.stamp(row, i, -C64::ONE);
                    a.stamp(i, row, -C64::ONE);
                }
                rhs[row] = C64::real(volts);
                vs_index += 1;
            }
            Element::Vccs {
                from,
                to,
                cp,
                cm,
                gm,
            } => {
                for (node, sign) in [(from, 1.0), (to, -1.0)] {
                    if let Some(r) = idx(node) {
                        if let Some(c) = idx(cp) {
                            a.stamp(r, c, C64::real(sign * gm));
                        }
                        if let Some(c) = idx(cm) {
                            a.stamp(r, c, C64::real(-sign * gm));
                        }
                    }
                }
            }
        }
    }

    let x = a.solve(&rhs)?;
    Ok(AcSolution {
        voltages: x[..n].to_vec(),
    })
}

/// Finds the −3 dB bandwidth of the transfer to `node`: the frequency at
/// which the magnitude drops 3 dB below its value at `f_lo`, located by
/// bisection between `f_lo` and `f_hi`.
///
/// Returns `None` when the response never drops 3 dB within the range.
///
/// # Errors
///
/// Propagates solver failures.
pub fn bandwidth_3db(
    circuit: &Circuit,
    node: Node,
    f_lo: f64,
    f_hi: f64,
) -> Result<Option<f64>, LinalgError> {
    let ref_db = solve_ac(circuit, f_lo)?.magnitude_db(node);
    let target = ref_db - 20.0 * (2.0f64).sqrt().log10(); // -3.0103 dB
    let hi_db = solve_ac(circuit, f_hi)?.magnitude_db(node);
    if hi_db > target {
        return Ok(None);
    }
    let (mut lo, mut hi) = (f_lo, f_hi);
    for _ in 0..60 {
        let mid = (lo * hi).sqrt(); // geometric bisection
        let db = solve_ac(circuit, mid)?.magnitude_db(node);
        if db > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some((lo * hi).sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RC low-pass: vin -- R -- vout -- C -- gnd.
    fn rc_lowpass(r: f64, c: f64) -> (Circuit, Node) {
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Circuit::GND, 1.0);
        ckt.resistor(vin, vout, r);
        ckt.capacitor(vout, Circuit::GND, c);
        (ckt, vout)
    }

    #[test]
    fn rc_lowpass_matches_transfer_function() {
        let (ckt, vout) = rc_lowpass(1_000.0, 1e-9); // fc = 159.2 kHz
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1_000.0 * 1e-9);
        // At f = fc: |H| = 1/sqrt(2), phase = -45 deg.
        let s = solve_ac(&ckt, fc).unwrap();
        assert!((s.voltage(vout).abs() - 1.0 / 2.0f64.sqrt()).abs() < 1e-6);
        assert!((s.voltage(vout).arg().to_degrees() + 45.0).abs() < 1e-3);
        // Deep in the stopband the slope is -20 dB/dec.
        let d1 = solve_ac(&ckt, 100.0 * fc).unwrap().magnitude_db(vout);
        let d2 = solve_ac(&ckt, 1000.0 * fc).unwrap().magnitude_db(vout);
        assert!((d1 - d2 - 20.0).abs() < 0.1, "slope {}", d1 - d2);
    }

    #[test]
    fn dc_limit_matches_dc_solver() {
        let (ckt, vout) = rc_lowpass(2_000.0, 1e-12);
        let ac = solve_ac(&ckt, 0.0).unwrap();
        assert!((ac.voltage(vout).abs() - 1.0).abs() < 1e-9);
        assert!(ac.voltage(vout).im.abs() < 1e-12);
    }

    #[test]
    fn bandwidth_matches_analytic_pole() {
        let (ckt, vout) = rc_lowpass(1_000.0, 1e-9);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1_000.0 * 1e-9);
        let bw = bandwidth_3db(&ckt, vout, 1.0, 1e9).unwrap().unwrap();
        assert!((bw - fc).abs() / fc < 1e-3, "bw {bw} vs analytic {fc}");
    }

    #[test]
    fn no_rolloff_returns_none() {
        // Pure resistive divider has flat response.
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Circuit::GND, 1.0);
        ckt.resistor(vin, vout, 1_000.0);
        ckt.resistor(vout, Circuit::GND, 1_000.0);
        assert_eq!(bandwidth_3db(&ckt, vout, 1.0, 1e6).unwrap(), None);
    }

    #[test]
    fn vccs_gain_stage_with_load_cap() {
        // gm stage: -gm*RL gain at DC, pole at 1/(2 pi RL CL).
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Circuit::GND, 1.0);
        ckt.vccs(vout, Circuit::GND, vin, Circuit::GND, 1e-3);
        ckt.resistor(vout, Circuit::GND, 10_000.0);
        ckt.capacitor(vout, Circuit::GND, 1e-12);
        let dc = solve_ac(&ckt, 1.0).unwrap();
        assert!((dc.voltage(vout).abs() - 10.0).abs() < 1e-6);
        let fp = 1.0 / (2.0 * std::f64::consts::PI * 1e4 * 1e-12);
        let bw = bandwidth_3db(&ckt, vout, 1.0, 1e12).unwrap().unwrap();
        assert!((bw - fp).abs() / fp < 1e-3, "bw {bw} vs pole {fp}");
    }
}
