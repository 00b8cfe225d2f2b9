//! # qompress-qasm
//!
//! An OpenQASM 2.0 **subset** frontend for the Qompress compiler: enough of
//! the language to ingest the standard benchmark interchange format and to
//! round-trip the compiler's own circuit IR.
//!
//! Supported statements: the `OPENQASM 2.0;` header, `include` (ignored),
//! `qreg`/`creg` declarations (classical registers are accepted and
//! ignored), `barrier` (a scheduling no-op for this compiler, accepted and
//! dropped), the single-qubit gates `x y z h s sdg t tdg rx ry rz`, and the
//! two-qubit gates `cx`, `cz` and `swap`. `cz` is lowered on input to
//! `H(t)·CX(c,t)·H(t)` since the compiler's logical gate set is
//! `{1q, CX, SWAP}` (paper §3.4). Angle expressions accept literals and
//! `pi` with `*`, `/` and unary minus (`-pi/2`, `3*pi/4`, `0.25`).
//! Single-qubit gates accept OpenQASM's whole-register broadcast
//! (`h q;` ≡ `h q[0]; … h q[n-1];`, in register order); two-qubit gates
//! reject broadcast operands.
//!
//! The serializer ([`to_qasm`]) emits only constructs the parser accepts,
//! and formats angles with Rust's shortest-round-trip float notation, so
//! `parse_qasm(&to_qasm(&c))` reproduces `c` exactly — a property pinned by
//! this crate's proptest suite. Angle expressions that evaluate to a
//! non-finite value (`inf`, `NaN`, `pi/0`) are rejected with the offending
//! line.
//!
//! For parameter-sweep traffic the crate also speaks a **parametric**
//! dialect: rotation arguments spelled `theta<id>` (`rz(theta0) q[0];`)
//! parse into [`qompress_circuit::ParametricCircuit`] skeletons via
//! [`parse_parametric_qasm`], serialize back via [`to_parametric_qasm`],
//! and round-trip exactly. This is the wire format the service's
//! `submit_sweep` op ships skeletons in.
//!
//! Both parsers cap the program's total qubit count (the sum of all
//! `qreg` sizes) at [`DEFAULT_MAX_QUBITS`], rejecting an oversized
//! declaration at its own line before anything is allocated — a 24-byte
//! `qreg q[1000000000];` must not size a billion-qubit circuit. Callers
//! admitting untrusted programs can tighten the cap with
//! [`parse_qasm_bounded`] / [`parse_parametric_qasm_bounded`], and cap
//! the gate count too with [`parse_qasm_limited`]: whole-register
//! broadcast makes gates cheap to ask for (`h q;` is 256 gates on a
//! 256-qubit register), so the gate cap stops the parse at the first
//! statement that would cross it, before the gate buffer grows.
//!
//! The parser makes one pass over the source and appends each
//! statement's gates straight to its output buffer, with no allocation
//! per statement or per gate.
//!
//! ```
//! use qompress_qasm::{parse_qasm, random_circuit, to_qasm};
//!
//! let circuit = random_circuit(4, 20, 7);
//! let text = to_qasm(&circuit);
//! let reparsed = parse_qasm(&text).unwrap();
//! assert_eq!(circuit, reparsed);
//! ```

#![warn(missing_docs)]

mod parse;
mod random;
mod write;

pub use parse::{
    parse_parametric_qasm, parse_parametric_qasm_bounded, parse_qasm, parse_qasm_bounded,
    parse_qasm_limited, DEFAULT_MAX_QUBITS,
};
pub use random::{random_circuit, random_parametric_circuit, RandomCircuitOptions};
pub use write::{to_parametric_qasm, to_qasm};

use core::fmt;

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl QasmError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        QasmError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qasm parse error (line {}): {}", self.line, self.message)
    }
}

impl std::error::Error for QasmError {}
