//! Logical gate definitions.
//!
//! Qompress compiles circuits written over the standard qubit gate set
//! `{single-qubit, CX, SWAP}` (the paper decomposes everything else into
//! this set before compilation, §3.4).

use core::fmt;

/// A logical qubit index inside a [`crate::Circuit`].
pub type Qubit = usize;

/// The kind of a single-qubit logical gate.
///
/// The compiler treats all single-qubit gates as having the duration and
/// fidelity of an `X` pulse (paper §3.4), so the distinction only matters to
/// the state-vector simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SingleQubitKind {
    /// Pauli X (NOT).
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// T gate (π/8 phase).
    T,
    /// T-dagger.
    Tdg,
    /// S gate (phase).
    S,
    /// S-dagger.
    Sdg,
    /// Z-axis rotation by the given angle (radians).
    Rz(f64),
    /// X-axis rotation by the given angle (radians).
    Rx(f64),
    /// Y-axis rotation by the given angle (radians).
    Ry(f64),
}

impl fmt::Display for SingleQubitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SingleQubitKind::X => write!(f, "x"),
            SingleQubitKind::Y => write!(f, "y"),
            SingleQubitKind::Z => write!(f, "z"),
            SingleQubitKind::H => write!(f, "h"),
            SingleQubitKind::T => write!(f, "t"),
            SingleQubitKind::Tdg => write!(f, "tdg"),
            SingleQubitKind::S => write!(f, "s"),
            SingleQubitKind::Sdg => write!(f, "sdg"),
            SingleQubitKind::Rz(a) => write!(f, "rz({a:.4})"),
            SingleQubitKind::Rx(a) => write!(f, "rx({a:.4})"),
            SingleQubitKind::Ry(a) => write!(f, "ry({a:.4})"),
        }
    }
}

/// A logical gate acting on one or two qubits.
///
/// ```
/// use qompress_circuit::{Gate, SingleQubitKind};
/// let g = Gate::cx(0, 1);
/// assert_eq!(g.qubits(), vec![0, 1]);
/// assert!(g.is_two_qubit());
/// let h = Gate::single(SingleQubitKind::H, 2);
/// assert_eq!(h.qubits(), vec![2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Gate {
    /// A single-qubit gate.
    Single {
        /// Which unitary.
        kind: SingleQubitKind,
        /// Target qubit.
        qubit: Qubit,
    },
    /// Controlled-X with `control` and `target`.
    Cx {
        /// Control qubit.
        control: Qubit,
        /// Target qubit.
        target: Qubit,
    },
    /// SWAP of two qubits (appears in inputs rarely; mostly inserted by
    /// routing at the physical level).
    Swap {
        /// First qubit.
        a: Qubit,
        /// Second qubit.
        b: Qubit,
    },
}

impl Gate {
    /// Convenience constructor for a single-qubit gate.
    pub fn single(kind: SingleQubitKind, qubit: Qubit) -> Self {
        Gate::Single { kind, qubit }
    }

    /// Convenience constructor for an X gate.
    pub fn x(qubit: Qubit) -> Self {
        Gate::single(SingleQubitKind::X, qubit)
    }

    /// Convenience constructor for an H gate.
    pub fn h(qubit: Qubit) -> Self {
        Gate::single(SingleQubitKind::H, qubit)
    }

    /// Convenience constructor for a Z gate.
    pub fn z(qubit: Qubit) -> Self {
        Gate::single(SingleQubitKind::Z, qubit)
    }

    /// Convenience constructor for a T gate.
    pub fn t(qubit: Qubit) -> Self {
        Gate::single(SingleQubitKind::T, qubit)
    }

    /// Convenience constructor for a T-dagger gate.
    pub fn tdg(qubit: Qubit) -> Self {
        Gate::single(SingleQubitKind::Tdg, qubit)
    }

    /// Convenience constructor for an Rz gate.
    pub fn rz(theta: f64, qubit: Qubit) -> Self {
        Gate::single(SingleQubitKind::Rz(theta), qubit)
    }

    /// Convenience constructor for a CX gate.
    pub fn cx(control: Qubit, target: Qubit) -> Self {
        Gate::Cx { control, target }
    }

    /// Convenience constructor for a SWAP gate.
    pub fn swap(a: Qubit, b: Qubit) -> Self {
        Gate::Swap { a, b }
    }

    /// The qubits this gate touches, in operand order.
    pub fn qubits(&self) -> Vec<Qubit> {
        match *self {
            Gate::Single { qubit, .. } => vec![qubit],
            Gate::Cx { control, target } => vec![control, target],
            Gate::Swap { a, b } => vec![a, b],
        }
    }

    /// [`Gate::qubits`] without the allocation: the operands in a
    /// two-slot array, and how many of the slots are used.
    pub(crate) fn operand_slots(&self) -> ([Qubit; 2], usize) {
        match *self {
            Gate::Single { qubit, .. } => ([qubit, qubit], 1),
            Gate::Cx { control, target } => ([control, target], 2),
            Gate::Swap { a, b } => ([a, b], 2),
        }
    }

    /// Returns `true` for CX and SWAP gates.
    pub fn is_two_qubit(&self) -> bool {
        !matches!(self, Gate::Single { .. })
    }

    /// Returns `true` for single-qubit gates.
    pub fn is_single_qubit(&self) -> bool {
        matches!(self, Gate::Single { .. })
    }

    /// Returns the pair of qubits for a two-qubit gate, `None` otherwise.
    pub fn qubit_pair(&self) -> Option<(Qubit, Qubit)> {
        match *self {
            Gate::Cx { control, target } => Some((control, target)),
            Gate::Swap { a, b } => Some((a, b)),
            Gate::Single { .. } => None,
        }
    }

    /// Remaps qubit indices through `f` (used when embedding subcircuits).
    pub fn map_qubits(&self, mut f: impl FnMut(Qubit) -> Qubit) -> Gate {
        match *self {
            Gate::Single { kind, qubit } => Gate::Single {
                kind,
                qubit: f(qubit),
            },
            Gate::Cx { control, target } => Gate::Cx {
                control: f(control),
                target: f(target),
            },
            Gate::Swap { a, b } => Gate::Swap { a: f(a), b: f(b) },
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Single { kind, qubit } => write!(f, "{kind} q{qubit}"),
            Gate::Cx { control, target } => write!(f, "cx q{control}, q{target}"),
            Gate::Swap { a, b } => write!(f, "swap q{a}, q{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_lists() {
        assert_eq!(Gate::x(3).qubits(), vec![3]);
        assert_eq!(Gate::cx(1, 2).qubits(), vec![1, 2]);
        assert_eq!(Gate::swap(4, 0).qubits(), vec![4, 0]);
    }

    #[test]
    fn arity_predicates() {
        assert!(Gate::h(0).is_single_qubit());
        assert!(!Gate::h(0).is_two_qubit());
        assert!(Gate::cx(0, 1).is_two_qubit());
        assert!(Gate::swap(0, 1).is_two_qubit());
    }

    #[test]
    fn qubit_pair_extraction() {
        assert_eq!(Gate::cx(5, 7).qubit_pair(), Some((5, 7)));
        assert_eq!(Gate::x(1).qubit_pair(), None);
    }

    #[test]
    fn map_qubits_relabels() {
        let g = Gate::cx(0, 1).map_qubits(|q| q + 10);
        assert_eq!(g, Gate::cx(10, 11));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Gate::cx(0, 1)), "cx q0, q1");
        assert_eq!(format!("{}", Gate::rz(0.5, 2)), "rz(0.5000) q2");
    }
}
