//! A small linear circuit simulator based on modified nodal analysis.
//!
//! The paper's experiments run a commercial transistor-level simulator;
//! this module is the substitute's analytical core. It covers exactly what
//! the reproduction needs:
//!
//! * [`circuit::Circuit`] — netlist builder for linear elements
//!   (resistors, capacitors, independent current/voltage sources, and
//!   voltage-controlled current sources, which is how MOSFET small-signal
//!   models `gm·v_gs` enter),
//! * [`dc`] — DC operating-point solve via MNA + LU,
//! * [`ac`] — small-signal AC analysis over the complex MNA system
//!   (frequency sweeps, −3 dB bandwidth extraction),
//! * [`elmore`] — Elmore delay of RC trees, used for parasitic
//!   interconnect delay in the post-layout models.
//!
//! # Example — voltage divider
//!
//! ```
//! use bmf_circuits::spice::circuit::Circuit;
//! use bmf_circuits::spice::dc::solve_dc;
//!
//! let mut c = Circuit::new();
//! let vin = c.node();
//! let vout = c.node();
//! c.voltage_source(vin, Circuit::GND, 2.0);
//! c.resistor(vin, vout, 1_000.0);
//! c.resistor(vout, Circuit::GND, 1_000.0);
//! let sol = solve_dc(&c).unwrap();
//! assert!((sol.voltage(vout) - 1.0).abs() < 1e-9);
//! ```

pub mod ac;
pub mod circuit;
pub mod dc;
pub mod elmore;
pub mod mosfet;
