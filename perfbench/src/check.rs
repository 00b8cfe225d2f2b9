//! Independent correctness checks and the output-quality metrics.
//!
//! The checks run untimed: every result is validated against its device
//! with `Schedule::validate`, and a slice of at most 8 units is simulated
//! with the `qompress-sim` state vector and compared to the logical
//! circuit, as the repository's equivalence tests do.

use qompress::{CompilationResult, Compiler, CompilerConfig, PhysicalOp, ALL_STRATEGIES};
use qompress_arch::Topology;
use qompress_sim::{
    apply_internal, apply_merged, apply_single, apply_two_unit, physical_zero_state,
    simulate_logical, states_equivalent,
};

/// Output quality summed over a workload's distinct jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub comm_ops: f64,
    pub neg_log10_eps: f64,
    pub duration_ms: f64,
}

impl Quality {
    pub fn add(&mut self, result: &CompilationResult, config: &CompilerConfig) {
        self.comm_ops += result.metrics.communication_ops as f64;
        self.neg_log10_eps += neg_log10_eps(result, config);
        self.duration_ms += result.metrics.duration_ns / 1e6;
    }
}

/// −log10 of a result's total EPS, computed from its gate counts and
/// residency times rather than read from `total_eps`, which underflows
/// to exactly 0.0 for the large full-ququart compiles.
pub fn neg_log10_eps(result: &CompilationResult, config: &CompilerConfig) -> f64 {
    let m = &result.metrics;
    let gates: f64 = m
        .gate_counts
        .iter()
        .map(|(&class, &n)| -(n as f64) * config.library.fidelity(class).log10())
        .sum();
    let decay =
        m.qubit_state_ns / config.t1_qubit_ns() + m.ququart_state_ns / config.t1_ququart_ns();
    gates + decay / std::f64::consts::LN_10
}

/// `true` when the schedule is valid on its device.
pub fn valid(result: &CompilationResult, topology: &Topology) -> bool {
    result.schedule.validate(topology).is_empty()
}

/// Compiles each slice circuit with every strategy on a grid just big
/// enough for it and compares the simulated physical state with the
/// logical one. Returns `(attempted, failed)`.
pub fn equivalence_slice() -> (u64, u64) {
    let session = Compiler::builder().caching(false).workers(1).build();
    let (mut attempted, mut failed) = (0, 0);
    for (name, circuit) in crate::corpus::equivalence_slice() {
        let topo = Topology::grid(circuit.n_qubits());
        assert!(
            topo.n_nodes() <= 8,
            "{name}: slice must stay within 8 units"
        );
        let logical = simulate_logical(&circuit, &vec![0; circuit.n_qubits()]);
        for strategy in ALL_STRATEGIES {
            attempted += 1;
            let result = session.compile(&circuit, &topo, strategy);
            let mut phys = physical_zero_state(topo.n_nodes());
            for sop in result.schedule.ops() {
                match sop.op {
                    PhysicalOp::Single { unit, kind, class } => {
                        apply_single(&mut phys, unit, kind, class)
                    }
                    PhysicalOp::Merged { unit, kind0, kind1 } => {
                        apply_merged(&mut phys, unit, kind0, kind1)
                    }
                    PhysicalOp::Internal { unit, class } => apply_internal(&mut phys, unit, class),
                    PhysicalOp::TwoUnit { a, b, class } => apply_two_unit(&mut phys, a, b, class),
                }
            }
            let ok = valid(&result, &topo)
                && states_equivalent(
                    &phys,
                    &result.final_placements,
                    &result.encoded_units,
                    &logical,
                    1e-6,
                );
            if !ok {
                eprintln!("equivalence check failed: {name} / {strategy}");
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
