//! Nonlinear DC analysis with square-law MOSFETs (Newton–Raphson).
//!
//! The linear MNA solver covers small-signal work; large-signal operating
//! points (bias currents, inverter thresholds, the diode-connected loads
//! of real analog stages) need device nonlinearity. This module adds a
//! level-1 (square-law) MOSFET model and a Newton–Raphson DC solver that
//! relinearizes every device each iteration — the textbook SPICE
//! algorithm, built on the same MNA stamps and LU factorization as the
//! linear analyses.

use bmf_linalg::{LinalgError, Matrix, Vector};

use super::circuit::{Circuit, Element, Node};
use super::dc::stamp_conductance;

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// N-channel: conducts for `v_gs > v_th`.
    Nmos,
    /// P-channel: conducts for `v_gs < −v_th` (model `v_th` given
    /// positive).
    Pmos,
}

/// Square-law (SPICE level-1) MOSFET parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetModel {
    /// Polarity.
    pub polarity: Polarity,
    /// Threshold voltage magnitude, volts.
    pub vth: f64,
    /// Transconductance parameter `k = µ·C_ox·W/L`, A/V².
    pub k: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
}

impl MosfetModel {
    /// An NMOS with the given threshold and k.
    pub fn nmos(vth: f64, k: f64) -> Self {
        MosfetModel {
            polarity: Polarity::Nmos,
            vth,
            k,
            lambda: 0.02,
        }
    }

    /// Drain current and partial derivatives `(i_d, g_m, g_ds)` at the
    /// given terminal voltages (drain/gate/source potentials).
    ///
    /// Current flows drain→source for NMOS (source→drain for PMOS).
    pub fn evaluate(&self, vd: f64, vg: f64, vs: f64) -> (f64, f64, f64) {
        // Fold PMOS onto the NMOS equations by sign reversal.
        let sign = match self.polarity {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        };
        let vgs = sign * (vg - vs);
        let vds = sign * (vd - vs);
        let vov = vgs - self.vth;
        // Minimum conductance keeps the Jacobian nonsingular in cutoff.
        const G_MIN: f64 = 1e-12;
        if vov <= 0.0 {
            return (sign * G_MIN * vds, 0.0, G_MIN);
        }
        let (id, gm, gds) = if vds < vov {
            // Triode.
            let id = self.k * (vov * vds - 0.5 * vds * vds);
            let gm = self.k * vds;
            let gds = self.k * (vov - vds) + G_MIN;
            (id, gm, gds)
        } else {
            // Saturation with channel-length modulation.
            let id0 = 0.5 * self.k * vov * vov;
            let id = id0 * (1.0 + self.lambda * vds);
            let gm = self.k * vov * (1.0 + self.lambda * vds);
            let gds = id0 * self.lambda + G_MIN;
            (id, gm, gds)
        };
        (sign * id, gm, gds)
    }
}

/// A MOSFET instance in a nonlinear netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Drain node.
    pub drain: Node,
    /// Gate node.
    pub gate: Node,
    /// Source node.
    pub source: Node,
    /// Device model.
    pub model: MosfetModel,
}

/// A netlist of linear elements plus MOSFETs, solved by Newton–Raphson.
#[derive(Debug, Clone, Default)]
pub struct NonlinearCircuit {
    /// The linear part (resistors, sources, …).
    pub linear: Circuit,
    /// The MOSFET devices.
    pub mosfets: Vec<Mosfet>,
}

/// Newton iteration controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations before declaring non-convergence.
    pub max_iterations: usize,
    /// Voltage-update convergence tolerance, volts.
    pub tol_v: f64,
    /// Per-iteration voltage step clamp (damping), volts.
    pub max_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 200,
            tol_v: 1e-9,
            max_step: 0.5,
        }
    }
}

/// Errors from the nonlinear solve.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NewtonError {
    /// The linearized system was singular.
    Linalg(LinalgError),
    /// The iteration did not converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final max voltage update.
        residual: f64,
    },
}

impl std::fmt::Display for NewtonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NewtonError::Linalg(e) => write!(f, "newton linear solve failed: {e}"),
            NewtonError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "newton did not converge after {iterations} iterations (residual {residual:e} V)"
            ),
        }
    }
}

impl std::error::Error for NewtonError {}

impl From<LinalgError> for NewtonError {
    fn from(e: LinalgError) -> Self {
        NewtonError::Linalg(e)
    }
}

/// The converged nonlinear operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    voltages: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Drain currents per MOSFET, in netlist order.
    pub drain_currents: Vec<f64>,
}

impl OperatingPoint {
    /// Voltage at `node` (ground is 0).
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

/// Solves the nonlinear DC operating point by Newton–Raphson with
/// voltage-step damping.
///
/// # Errors
///
/// Returns [`NewtonError::NoConvergence`] or a wrapped linear-algebra
/// failure.
pub fn solve_dc_nonlinear(
    ckt: &NonlinearCircuit,
    opts: &NewtonOptions,
) -> Result<OperatingPoint, NewtonError> {
    let n = ckt.linear.num_nodes() - 1;
    let m = ckt.linear.num_voltage_sources();
    let dim = n + m;
    let idx = |node: Node| -> Option<usize> { (node.0 > 0).then(|| node.0 - 1) };
    let mut v = vec![0.0f64; n];

    let mut iterations = 0;
    let mut last_update = f64::INFINITY;
    while iterations < opts.max_iterations {
        iterations += 1;
        // Assemble the linear part.
        let mut a = Matrix::zeros(dim, dim);
        let mut rhs = Vector::zeros(dim);
        let mut vs_index = 0usize;
        for e in ckt.linear.elements() {
            match *e {
                Element::Resistor { a: na, b: nb, ohms } => {
                    stamp_conductance(&mut a, idx(na), idx(nb), 1.0 / ohms);
                }
                Element::Capacitor { .. } => {}
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
        // Linearized MOSFET companion models.
        let getv = |node: Node, v: &[f64]| -> f64 { idx(node).map_or(0.0, |i| v[i]) };
        for mos in &ckt.mosfets {
            let (vd, vg, vs) = (
                getv(mos.drain, &v),
                getv(mos.gate, &v),
                getv(mos.source, &v),
            );
            let (id, gm, gds) = mos.model.evaluate(vd, vg, vs);
            let sign = match mos.model.polarity {
                Polarity::Nmos => 1.0,
                Polarity::Pmos => -1.0,
            };
            // Companion: i_d ≈ Ieq + gm·(vg−vs) + gds·(vd−vs), with
            // polarity folded into gm/gds stamps via `sign` where the
            // controlling differences are sign-reversed for PMOS.
            // Current flows drain→source (NMOS sign convention kept in
            // `id`).
            let ieq = id - sign * gm * (sign * (vg - vs)) - sign * gds * (sign * (vd - vs));
            // gds between drain and source.
            stamp_conductance(&mut a, idx(mos.drain), idx(mos.source), gds);
            // gm: current gm·(vg − vs) from drain to source.
            for (node, s) in [(mos.drain, 1.0), (mos.source, -1.0)] {
                if let Some(r) = idx(node) {
                    if let Some(c) = idx(mos.gate) {
                        a[(r, c)] += s * gm;
                    }
                    if let Some(c) = idx(mos.source) {
                        a[(r, c)] -= s * gm;
                    }
                }
            }
            // Equivalent current source from drain to source.
            if let Some(i) = idx(mos.drain) {
                rhs[i] -= ieq;
            }
            if let Some(i) = idx(mos.source) {
                rhs[i] += ieq;
            }
        }

        let x = a.lu()?.solve(&rhs)?;
        // Damped update.
        let mut update = 0.0f64;
        for i in 0..n {
            let delta = (x[i] - v[i]).clamp(-opts.max_step, opts.max_step);
            update = update.max(delta.abs());
            v[i] += delta;
        }
        last_update = update;
        if update < opts.tol_v {
            let getv2 = |node: Node| -> f64 { idx(node).map_or(0.0, |i| v[i]) };
            let drain_currents = ckt
                .mosfets
                .iter()
                .map(|mos| {
                    mos.model
                        .evaluate(getv2(mos.drain), getv2(mos.gate), getv2(mos.source))
                        .0
                })
                .collect();
            return Ok(OperatingPoint {
                voltages: v,
                iterations,
                drain_currents,
            });
        }
    }
    Err(NewtonError::NoConvergence {
        iterations,
        residual: last_update,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: f64 = 1.8;

    #[test]
    fn device_regions() {
        let m = MosfetModel::nmos(0.4, 1e-3);
        // Cutoff.
        let (id, gm, _) = m.evaluate(1.0, 0.2, 0.0);
        assert!(id.abs() < 1e-9);
        assert_eq!(gm, 0.0);
        // Saturation: vgs=1.0, vov=0.6, vds=1.5 > vov.
        let (id, gm, gds) = m.evaluate(1.5, 1.0, 0.0);
        let id0 = 0.5e-3 * 0.36;
        assert!((id - id0 * (1.0 + 0.02 * 1.5)).abs() < 1e-12);
        assert!(gm > 0.0 && gds > 0.0);
        // Triode: vds = 0.1 < vov.
        let (id_tri, _, _) = m.evaluate(0.1, 1.0, 0.0);
        assert!(id_tri < id);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = MosfetModel::nmos(0.4, 1e-3);
        let p = MosfetModel {
            polarity: Polarity::Pmos,
            ..n
        };
        let (idn, ..) = n.evaluate(1.0, 1.2, 0.0);
        // PMOS with mirrored voltages conducts the mirrored current.
        let (idp, ..) = p.evaluate(-1.0, -1.2, 0.0);
        assert!((idn + idp).abs() < 1e-15);
    }

    #[test]
    fn resistor_biased_nmos_operating_point() {
        // VDD -- R -- drain(N), gate at fixed bias, source grounded.
        let mut lin = Circuit::new();
        let vdd = lin.node();
        let gate = lin.node();
        let drain = lin.node();
        lin.voltage_source(vdd, Circuit::GND, VDD);
        lin.voltage_source(gate, Circuit::GND, 0.9);
        lin.resistor(vdd, drain, 10_000.0);
        let ckt = NonlinearCircuit {
            linear: lin,
            mosfets: vec![Mosfet {
                drain,
                gate,
                source: Circuit::GND,
                model: MosfetModel::nmos(0.4, 1e-3),
            }],
        };
        let op = solve_dc_nonlinear(&ckt, &NewtonOptions::default()).unwrap();
        let vd = op.voltage(drain);
        // KCL check: resistor current equals drain current.
        let ir = (VDD - vd) / 10_000.0;
        assert!((ir - op.drain_currents[0]).abs() < 1e-9, "KCL violated");
        // Sanity: device in saturation (vov = 0.5, vd > 0.5).
        assert!(vd > 0.5 && vd < VDD, "vd = {vd}");
    }

    #[test]
    fn diode_connected_nmos() {
        // VDD -- R -- drain=gate, source grounded: V settles where
        // (VDD-V)/R = k/2 (V-vth)^2 (1+lambda V).
        let mut lin = Circuit::new();
        let vdd = lin.node();
        let d = lin.node();
        lin.voltage_source(vdd, Circuit::GND, VDD);
        lin.resistor(vdd, d, 20_000.0);
        let model = MosfetModel::nmos(0.4, 2e-3);
        let ckt = NonlinearCircuit {
            linear: lin,
            mosfets: vec![Mosfet {
                drain: d,
                gate: d,
                source: Circuit::GND,
                model,
            }],
        };
        let op = solve_dc_nonlinear(&ckt, &NewtonOptions::default()).unwrap();
        let v = op.voltage(d);
        let lhs = (VDD - v) / 20_000.0;
        let vov: f64 = v - 0.4;
        let rhs = 0.5 * 2e-3 * vov * vov * (1.0 + 0.02 * v);
        assert!((lhs - rhs).abs() < 1e-9, "balance: {lhs} vs {rhs}");
        assert!(v > 0.4 && v < VDD);
    }

    #[test]
    fn cmos_inverter_transfer_points() {
        // Standard CMOS inverter; check strong-low input -> high output
        // and strong-high input -> low output.
        let build = |vin: f64| -> NonlinearCircuit {
            let mut lin = Circuit::new();
            let vdd = lin.node();
            let input = lin.node();
            let out = lin.node();
            lin.voltage_source(vdd, Circuit::GND, VDD);
            lin.voltage_source(input, Circuit::GND, vin);
            // Tiny load keeps the output node well-posed in cutoff.
            lin.resistor(out, Circuit::GND, 1e9);
            NonlinearCircuit {
                linear: lin,
                mosfets: vec![
                    Mosfet {
                        drain: out,
                        gate: input,
                        source: Circuit::GND,
                        model: MosfetModel::nmos(0.4, 1e-3),
                    },
                    Mosfet {
                        drain: out,
                        gate: input,
                        source: vdd,
                        model: MosfetModel {
                            polarity: Polarity::Pmos,
                            ..MosfetModel::nmos(0.4, 1e-3)
                        },
                    },
                ],
            }
        };
        let low_in = solve_dc_nonlinear(&build(0.0), &NewtonOptions::default()).unwrap();
        let out_node = Node(3);
        assert!(
            low_in.voltage(out_node) > VDD - 0.05,
            "output should be high"
        );
        let high_in = solve_dc_nonlinear(&build(VDD), &NewtonOptions::default()).unwrap();
        assert!(high_in.voltage(out_node) < 0.05, "output should be low");
        // Symmetric inverter: switching threshold near VDD/2.
        let mid = solve_dc_nonlinear(&build(VDD / 2.0), &NewtonOptions::default()).unwrap();
        let vm = mid.voltage(out_node);
        assert!(
            (vm - VDD / 2.0).abs() < 0.2,
            "midpoint output {vm} should sit near VDD/2"
        );
    }

    #[test]
    fn convergence_is_reported() {
        let opts = NewtonOptions {
            max_iterations: 1,
            ..NewtonOptions::default()
        };
        let mut lin = Circuit::new();
        let vdd = lin.node();
        let d = lin.node();
        lin.voltage_source(vdd, Circuit::GND, VDD);
        lin.resistor(vdd, d, 1_000.0);
        let ckt = NonlinearCircuit {
            linear: lin,
            mosfets: vec![Mosfet {
                drain: d,
                gate: d,
                source: Circuit::GND,
                model: MosfetModel::nmos(0.4, 5e-3),
            }],
        };
        assert!(matches!(
            solve_dc_nonlinear(&ckt, &opts),
            Err(NewtonError::NoConvergence { .. })
        ));
    }
}
