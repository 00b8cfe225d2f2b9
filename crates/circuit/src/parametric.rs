//! Parametric circuit skeletons: rotation gates with symbolic angles.
//!
//! Parameter-sweep workloads (QAOA, VQE) compile one circuit *structure*
//! under many rotation-angle vectors. A [`ParametricCircuit`] captures
//! that structure once: every gate is either a fully concrete [`Gate`] or
//! a rotation site carrying a symbolic parameter id instead of an angle.
//! [`ParametricCircuit::bind`] stamps a concrete angle vector into the
//! skeleton in `O(gates)` with a single allocation, producing an ordinary
//! [`Circuit`] the compiler accepts unchanged.
//!
//! ```
//! use qompress_circuit::{Gate, ParametricCircuit, RotationAxis};
//!
//! let mut skeleton = ParametricCircuit::new(2);
//! skeleton.push(Gate::h(0));
//! skeleton.push_param(RotationAxis::Rz, 0, 0);
//! skeleton.push(Gate::cx(0, 1));
//! skeleton.push_param(RotationAxis::Rx, 1, 1);
//! assert_eq!(skeleton.n_params(), 2);
//!
//! let bound = skeleton.bind(&[0.5, -0.25]);
//! assert_eq!(bound.gates()[1], Gate::rz(0.5, 0));
//! assert_eq!(bound.gates()[3], Gate::single(
//!     qompress_circuit::SingleQubitKind::Rx(-0.25), 1));
//! ```

use crate::circuit::Circuit;
use crate::gate::{Gate, Qubit, SingleQubitKind};
use core::fmt;

/// Identifier of one formal parameter of a [`ParametricCircuit`].
///
/// Parameter ids are dense indices into the angle vector passed to
/// [`ParametricCircuit::bind`]; the same id may appear at many rotation
/// sites (all of them receive the same bound angle).
pub type ParamId = usize;

/// The rotation axis of a parametric rotation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationAxis {
    /// X-axis rotation (`rx`).
    Rx,
    /// Y-axis rotation (`ry`).
    Ry,
    /// Z-axis rotation (`rz`).
    Rz,
}

impl RotationAxis {
    /// The concrete [`SingleQubitKind`] for this axis at `angle` radians.
    pub fn kind(self, angle: f64) -> SingleQubitKind {
        match self {
            RotationAxis::Rx => SingleQubitKind::Rx(angle),
            RotationAxis::Ry => SingleQubitKind::Ry(angle),
            RotationAxis::Rz => SingleQubitKind::Rz(angle),
        }
    }

    /// The lowercase gate name (`"rx"`, `"ry"`, `"rz"`).
    pub fn name(self) -> &'static str {
        match self {
            RotationAxis::Rx => "rx",
            RotationAxis::Ry => "ry",
            RotationAxis::Rz => "rz",
        }
    }
}

/// One gate of a [`ParametricCircuit`]: concrete, or a rotation whose
/// angle is a formal parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParametricGate {
    /// A fully concrete gate (including rotations with literal angles).
    Fixed(Gate),
    /// A rotation site: `axis(param)` applied to `qubit`.
    Rotation {
        /// Which rotation axis.
        axis: RotationAxis,
        /// The formal parameter supplying the angle at bind time.
        param: ParamId,
        /// Target qubit.
        qubit: Qubit,
    },
}

/// A circuit skeleton over `n_qubits` qubits whose rotation angles may be
/// symbolic (the module-level comment walks through the sweep workflow).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParametricCircuit {
    n_qubits: usize,
    gates: Vec<ParametricGate>,
    /// One past the largest parameter id referenced so far (= the length
    /// [`ParametricCircuit::bind`] requires of its angle vector).
    n_params: usize,
}

impl ParametricCircuit {
    /// Creates an empty skeleton over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        ParametricCircuit {
            n_qubits,
            gates: Vec::new(),
            n_params: 0,
        }
    }

    /// Number of logical qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates (concrete and parametric).
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` when the skeleton has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Length of the angle vector [`ParametricCircuit::bind`] expects:
    /// one past the largest parameter id referenced by any rotation site.
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of parametric rotation sites (a parameter used at three
    /// sites counts three times).
    pub fn site_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, ParametricGate::Rotation { .. }))
            .count()
    }

    /// The gate stream.
    #[inline]
    pub fn gates(&self) -> &[ParametricGate] {
        &self.gates
    }

    /// Appends a concrete gate.
    ///
    /// # Panics
    ///
    /// Panics if any operand is out of range or a two-qubit gate addresses
    /// the same qubit twice (same contract as [`Circuit::push`]).
    pub fn push(&mut self, gate: Gate) {
        let (slots, used) = gate.operand_slots();
        for &q in &slots[..used] {
            assert!(
                q < self.n_qubits,
                "gate {gate} addresses qubit {q} but skeleton has {} qubits",
                self.n_qubits
            );
        }
        if let Some((a, b)) = gate.qubit_pair() {
            assert_ne!(a, b, "two-qubit gate with identical operands: {gate}");
        }
        self.gates.push(ParametricGate::Fixed(gate));
    }

    /// Appends a parametric rotation site: `axis(param)` on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn push_param(&mut self, axis: RotationAxis, param: ParamId, qubit: Qubit) {
        assert!(
            qubit < self.n_qubits,
            "{}(theta{param}) addresses qubit {qubit} but skeleton has {} qubits",
            axis.name(),
            self.n_qubits
        );
        let needed = param.checked_add(1).expect("parameter id overflow");
        self.n_params = self.n_params.max(needed);
        self.gates
            .push(ParametricGate::Rotation { axis, param, qubit });
    }

    /// Stamps `angles` into the skeleton, producing a concrete [`Circuit`].
    ///
    /// `O(gates)` with a single allocation (the output gate vector):
    /// operands were validated at push time, so no re-validation happens
    /// here.
    ///
    /// # Panics
    ///
    /// Panics when `angles.len() != self.n_params()` or any bound angle is
    /// non-finite (a NaN or infinite angle would poison fingerprints and
    /// simulation downstream).
    pub fn bind(&self, angles: &[f64]) -> Circuit {
        assert_eq!(
            angles.len(),
            self.n_params,
            "skeleton has {} parameter(s) but {} angle(s) were bound",
            self.n_params,
            angles.len()
        );
        for (p, a) in angles.iter().enumerate() {
            assert!(a.is_finite(), "bound angle theta{p} = {a} is not finite");
        }
        let gates = self
            .gates
            .iter()
            .map(|g| match *g {
                ParametricGate::Fixed(gate) => gate,
                ParametricGate::Rotation { axis, param, qubit } => {
                    Gate::single(axis.kind(angles[param]), qubit)
                }
            })
            .collect();
        Circuit::from_validated(self.n_qubits, gates)
    }
}

impl From<&Circuit> for ParametricCircuit {
    /// Wraps a concrete circuit as a skeleton with zero parameters.
    fn from(circuit: &Circuit) -> Self {
        ParametricCircuit {
            n_qubits: circuit.n_qubits(),
            gates: circuit.iter().map(|&g| ParametricGate::Fixed(g)).collect(),
            n_params: 0,
        }
    }
}

impl fmt::Display for ParametricCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "parametric circuit({} qubits, {} gates, {} params)",
            self.n_qubits,
            self.len(),
            self.n_params
        )?;
        for g in &self.gates {
            match g {
                ParametricGate::Fixed(gate) => writeln!(f, "  {gate}")?,
                ParametricGate::Rotation { axis, param, qubit } => {
                    writeln!(f, "  {}(theta{param}) q{qubit}", axis.name())?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skeleton() -> ParametricCircuit {
        let mut s = ParametricCircuit::new(3);
        s.push(Gate::h(0));
        s.push_param(RotationAxis::Rz, 0, 0);
        s.push(Gate::cx(0, 1));
        s.push_param(RotationAxis::Rx, 1, 1);
        s.push_param(RotationAxis::Rz, 0, 2);
        s
    }

    #[test]
    fn bind_stamps_angles_by_param_id() {
        let s = skeleton();
        assert_eq!(s.n_params(), 2);
        assert_eq!(s.site_count(), 3);
        let c = s.bind(&[0.5, -1.25]);
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(
            c.gates(),
            &[
                Gate::h(0),
                Gate::rz(0.5, 0),
                Gate::cx(0, 1),
                Gate::single(SingleQubitKind::Rx(-1.25), 1),
                Gate::rz(0.5, 2), // param 0 reused at a second site
            ]
        );
    }

    #[test]
    fn zero_param_skeleton_binds_empty() {
        let mut s = ParametricCircuit::new(2);
        s.push(Gate::h(0));
        s.push(Gate::cx(0, 1));
        let c = s.bind(&[]);
        assert_eq!(c.gates(), &[Gate::h(0), Gate::cx(0, 1)]);
    }

    #[test]
    fn from_circuit_round_trips() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::rz(0.75, 1));
        c.push(Gate::cx(0, 1));
        let s = ParametricCircuit::from(&c);
        assert_eq!(s.n_params(), 0);
        assert_eq!(s.bind(&[]), c);
    }

    #[test]
    #[should_panic(expected = "2 parameter(s) but 1 angle(s)")]
    fn bind_rejects_wrong_arity() {
        skeleton().bind(&[0.5]);
    }

    #[test]
    #[should_panic(expected = "is not finite")]
    fn bind_rejects_non_finite_angles() {
        skeleton().bind(&[0.5, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "addresses qubit")]
    fn push_param_rejects_out_of_range() {
        let mut s = ParametricCircuit::new(1);
        s.push_param(RotationAxis::Ry, 0, 1);
    }

    #[test]
    #[should_panic(expected = "identical operands")]
    fn push_rejects_self_loop() {
        let mut s = ParametricCircuit::new(2);
        s.push(Gate::Cx {
            control: 1,
            target: 1,
        });
    }

    #[test]
    fn display_names_formal_params() {
        let text = format!("{}", skeleton());
        assert!(text.contains("rz(theta0) q0"), "{text}");
        assert!(text.contains("rx(theta1) q1"), "{text}");
    }
}
