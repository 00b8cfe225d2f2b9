//! The logical circuit container.

use crate::gate::{Gate, Qubit, SingleQubitKind};
use core::fmt;

/// An ordered list of logical gates over `n_qubits` qubits.
///
/// ```
/// use qompress_circuit::{Circuit, Gate};
/// let mut c = Circuit::new(3);
/// c.push(Gate::h(0));
/// c.push(Gate::cx(0, 1));
/// c.push(Gate::cx(1, 2));
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.two_qubit_gate_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of logical qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` when the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if any operand is out of range or a two-qubit gate addresses
    /// the same qubit twice.
    pub fn push(&mut self, gate: Gate) {
        let (slots, used) = gate.operand_slots();
        for &q in &slots[..used] {
            assert!(
                q < self.n_qubits,
                "gate {gate} addresses qubit {q} but circuit has {} qubits",
                self.n_qubits
            );
        }
        if let Some((a, b)) = gate.qubit_pair() {
            assert_ne!(a, b, "two-qubit gate with identical operands: {gate}");
        }
        self.gates.push(gate);
    }

    /// Builds a circuit from gates that are already known to be valid for
    /// `n_qubits` (operands in range, no self-loop two-qubit gates).
    ///
    /// Used by the parametric bind path, which validates operands once at
    /// skeleton-construction time and must not pay per-gate re-validation
    /// (or the `Vec` allocation `Gate::qubits` implies) on every stamp-out.
    #[inline]
    pub(crate) fn from_validated(n_qubits: usize, gates: Vec<Gate>) -> Self {
        Circuit { n_qubits, gates }
    }

    /// Appends every gate of `other`, which must act on no more qubits than
    /// `self` has.
    ///
    /// # Panics
    ///
    /// Panics if `other` has more qubits than `self`.
    pub fn extend_from(&mut self, other: &Circuit) {
        assert!(other.n_qubits <= self.n_qubits);
        for g in &other.gates {
            self.push(*g);
        }
    }

    /// Iterates over gates.
    pub fn iter(&self) -> core::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Count of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Indices of the two-qubit gates (CX and SWAP), in circuit order.
    ///
    /// The router's incremental lookahead walks exactly this sequence, so
    /// it is exposed here rather than re-derived per compilation.
    pub fn two_qubit_gate_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_two_qubit())
            .map(|(i, _)| i)
    }

    /// Count of single-qubit gates.
    pub fn single_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_single_qubit()).count()
    }

    /// The set of qubits actually used by at least one gate.
    pub fn used_qubits(&self) -> Vec<Qubit> {
        let mut used = vec![false; self.n_qubits];
        for g in &self.gates {
            for q in g.qubits() {
                used[q] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(q, &u)| u.then_some(q))
            .collect()
    }

    /// Appends a decomposed Toffoli (CCX) using the standard 6-CX,
    /// 9-single-qubit construction.
    ///
    /// The compiler's gate set has no native three-qubit operations, so all
    /// workload generators lower CCX through this helper.
    pub fn push_ccx(&mut self, c0: Qubit, c1: Qubit, target: Qubit) {
        use SingleQubitKind::{Tdg, H, T};
        self.push(Gate::single(H, target));
        self.push(Gate::cx(c1, target));
        self.push(Gate::single(Tdg, target));
        self.push(Gate::cx(c0, target));
        self.push(Gate::single(T, target));
        self.push(Gate::cx(c1, target));
        self.push(Gate::single(Tdg, target));
        self.push(Gate::cx(c0, target));
        self.push(Gate::single(T, c1));
        self.push(Gate::single(T, target));
        self.push(Gate::single(H, target));
        self.push(Gate::cx(c0, c1));
        self.push(Gate::single(T, c0));
        self.push(Gate::single(Tdg, c1));
        self.push(Gate::cx(c0, c1));
    }

    /// Appends a decomposed Fredkin (controlled-SWAP) gate:
    /// `CSWAP(c, a, b) = CX(b,a) · CCX(c,a,b) · CX(b,a)`.
    pub fn push_cswap(&mut self, control: Qubit, a: Qubit, b: Qubit) {
        self.push(Gate::cx(b, a));
        self.push_ccx(control, a, b);
        self.push(Gate::cx(b, a));
    }
}

impl FromIterator<Gate> for Circuit {
    /// Builds a circuit sized to the largest qubit index seen.
    fn from_iter<T: IntoIterator<Item = Gate>>(iter: T) -> Self {
        let gates: Vec<Gate> = iter.into_iter().collect();
        let n = gates
            .iter()
            .flat_map(|g| g.qubits())
            .max()
            .map_or(0, |m| m + 1);
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit({} qubits, {} gates)", self.n_qubits, self.len())?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_counts() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.single_qubit_gate_count(), 1);
        assert_eq!(c.two_qubit_gate_count(), 1);
    }

    #[test]
    fn two_qubit_indices_in_order() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0)); // 0
        c.push(Gate::cx(0, 1)); // 1
        c.push(Gate::x(2)); // 2
        c.push(Gate::swap(1, 2)); // 3
        c.push(Gate::cx(2, 0)); // 4
        let idx: Vec<usize> = c.two_qubit_gate_indices().collect();
        assert_eq!(idx, vec![1, 3, 4]);
        assert_eq!(idx.len(), c.two_qubit_gate_count());
    }

    #[test]
    #[should_panic(expected = "addresses qubit")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(1);
        c.push(Gate::cx(0, 1));
    }

    #[test]
    #[should_panic(expected = "identical operands")]
    fn push_rejects_self_loop() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx {
            control: 1,
            target: 1,
        });
    }

    #[test]
    fn ccx_decomposition_shape() {
        let mut c = Circuit::new(3);
        c.push_ccx(0, 1, 2);
        assert_eq!(c.two_qubit_gate_count(), 6);
        assert_eq!(c.single_qubit_gate_count(), 9);
    }

    #[test]
    fn cswap_decomposition_shape() {
        let mut c = Circuit::new(3);
        c.push_cswap(0, 1, 2);
        assert_eq!(c.two_qubit_gate_count(), 8);
    }

    #[test]
    fn from_iterator_sizes_to_max_qubit() {
        let c: Circuit = vec![Gate::h(0), Gate::cx(2, 4)].into_iter().collect();
        assert_eq!(c.n_qubits(), 5);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn used_qubits_skips_idle() {
        let mut c = Circuit::new(5);
        c.push(Gate::cx(0, 3));
        assert_eq!(c.used_qubits(), vec![0, 3]);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        let s = format!("{c}");
        assert!(s.contains("cx q0, q1"));
    }
}
