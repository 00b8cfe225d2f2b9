//! Admission limits and backpressure configuration for the wire server.
//!
//! The wire protocol serves untrusted callers, and Qompress-style
//! compilation is superlinear in device size — one hostile request
//! naming a huge topology or qreg is a denial of service. Every knob an
//! operator needs to keep a shared session survivable lives in
//! [`ServiceLimits`]: request-shape bounds (circuit qubits/gates,
//! topology size, sweep width), per-connection quotas (outstanding and
//! lifetime job counts, uploaded topologies), queue-depth backpressure,
//! and the idle-connection timeout. `qompress-serve` exposes each as a
//! flag; `serve_duplex_with`, `serve_tcp` and `serve_unix` thread one
//! config into every connection.
//!
//! Violations are **structured responses, not disconnects**: a request
//! past a shape bound or quota answers `{"ok":false,…}` with a `quota`
//! tag where applicable, a submit against a full queue answers
//! `{"ok":false,"busy":true,"queue_depth":N,…}` so clients can back
//! off, and the connection stays usable either way. Only the idle
//! timeout ends a connection — with a final
//! `{"ok":false,"timeout":true,…}` line so the client knows why.

use std::time::Duration;

/// Per-connection admission limits for the wire server.
///
/// [`ServiceLimits::default`] is deliberately generous — large enough
/// that no legitimate workload in this repository ever trips a bound,
/// small enough that the superlinear compilation costs stay sane.
/// Operators facing hostile traffic should tighten per deployment via
/// the `qompress-serve` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceLimits {
    /// Largest total qubit count a submitted circuit (or sweep skeleton)
    /// may declare; enforced inside the QASM parser before any circuit
    /// storage is sized. Default 256.
    pub max_circuit_qubits: usize,
    /// Largest gate count a submitted circuit (or sweep skeleton) may
    /// carry, counted after lowering and enforced inside the QASM parser:
    /// the parse stops at the first statement that would cross it, so a
    /// whole-register broadcast cannot build the gates first. Default
    /// 100 000.
    pub max_circuit_gates: usize,
    /// Largest size a topology spec or upload may request. Default 4096
    /// (= [`crate::proto::DEFAULT_MAX_TOPOLOGY_NODES`]).
    pub max_topology_nodes: usize,
    /// Most jobs one connection may have outstanding (submitted but not
    /// yet streamed a terminal event) at once. Default 256.
    pub max_concurrent_jobs: usize,
    /// Most jobs one connection may submit over its lifetime. Default
    /// 1 000 000.
    pub max_total_jobs: u64,
    /// Most angle bindings one `submit_sweep` may carry. Default 4096.
    pub max_sweep_bindings: usize,
    /// Most named topologies one connection may hold uploaded at once
    /// (re-uploading an existing name replaces it for free). Default 16.
    pub max_uploaded_topologies: usize,
    /// Queue-depth backpressure bound: a submit is answered `busy` when
    /// the session queue would exceed this many unclaimed jobs. Default
    /// 10 000.
    pub max_queue_depth: usize,
    /// Close a connection after this long without a complete request
    /// line. `None` (the default) disables the timeout — callers owning
    /// the transport, like tests over the loopback, rarely want one;
    /// `qompress-serve` defaults its sockets to 300 s.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            max_circuit_qubits: 256,
            max_circuit_gates: 100_000,
            max_topology_nodes: crate::proto::DEFAULT_MAX_TOPOLOGY_NODES,
            max_concurrent_jobs: 256,
            max_total_jobs: 1_000_000,
            max_sweep_bindings: 4096,
            max_uploaded_topologies: 16,
            max_queue_depth: 10_000,
            idle_timeout: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_safely_ordered() {
        let limits = ServiceLimits::default();
        // The wire-level qubit cap must be tighter than the parser-level
        // default, or the service bound would never bite.
        assert!(limits.max_circuit_qubits < qompress_qasm::DEFAULT_MAX_QUBITS);
        assert_eq!(
            limits.max_topology_nodes,
            crate::proto::DEFAULT_MAX_TOPOLOGY_NODES
        );
        // A full concurrent quota must fit in the queue bound, so a
        // single well-behaved connection can never trip backpressure.
        assert!(limits.max_concurrent_jobs <= limits.max_queue_depth);
        assert!(limits.idle_timeout.is_none());
    }
}
