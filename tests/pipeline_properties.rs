//! Property-based tests of the whole compilation pipeline: random circuits
//! must compile to valid schedules that are state-equivalent to their
//! logical input, under every strategy and several topologies.

use proptest::prelude::*;
use qompress::{Compiler, PhysicalOp, Strategy as CompileStrategy};
use qompress_arch::Topology;
use qompress_circuit::{Circuit, Gate, SingleQubitKind};
use qompress_sim::{
    apply_internal, apply_merged, apply_single, apply_two_unit, physical_zero_state,
    simulate_logical, states_equivalent, State,
};

/// A random logical gate on `n` qubits.
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    prop_oneof![
        (0..n).prop_map(Gate::h),
        (0..n).prop_map(Gate::x),
        (0..n).prop_map(Gate::t),
        ((0..n), -3.0f64..3.0).prop_map(|(q, a)| Gate::rz(a, q)),
        ((0..n), (1..n)).prop_map(move |(a, d)| Gate::cx(a, (a + d) % n)),
        ((0..n), (1..n)).prop_map(move |(a, d)| Gate::swap(a, (a + d) % n)),
    ]
}

fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

fn apply_physical(state: &mut State, op: &PhysicalOp) {
    match *op {
        PhysicalOp::Single { unit, kind, class } => apply_single(state, unit, kind, class),
        PhysicalOp::Merged { unit, kind0, kind1 } => apply_merged(state, unit, kind0, kind1),
        PhysicalOp::Internal { unit, class } => apply_internal(state, unit, class),
        PhysicalOp::TwoUnit { a, b, class } => apply_two_unit(state, a, b, class),
    }
}

fn check_equivalence(
    circuit: &Circuit,
    topo: &Topology,
    strategy: CompileStrategy,
) -> Result<(), String> {
    let result = Compiler::builder()
        .caching(false)
        .build()
        .compile(circuit, topo, strategy);
    let problems = result.schedule.validate(topo);
    if !problems.is_empty() {
        return Err(format!("{strategy}: invalid schedule {problems:?}"));
    }
    let logical = simulate_logical(circuit, &vec![0; circuit.n_qubits()]);
    let mut phys = physical_zero_state(topo.n_nodes());
    for sop in result.schedule.ops() {
        apply_physical(&mut phys, &sop.op);
    }
    if !states_equivalent(
        &phys,
        &result.final_placements,
        &result.encoded_units,
        &logical,
        1e-6,
    ) {
        return Err(format!("{strategy}: state mismatch"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_circuits_compile_correctly_qubit_only(c in arb_circuit(4, 16)) {
        check_equivalence(&c, &Topology::grid(4), CompileStrategy::QubitOnly)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn random_circuits_compile_correctly_eqm(c in arb_circuit(4, 16)) {
        check_equivalence(&c, &Topology::grid(4), CompileStrategy::Eqm)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn random_circuits_compile_correctly_rb(c in arb_circuit(4, 16)) {
        check_equivalence(&c, &Topology::line(4), CompileStrategy::RingBased)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn random_circuits_compile_correctly_fq(c in arb_circuit(4, 12)) {
        check_equivalence(&c, &Topology::grid(4), CompileStrategy::FullQuquart)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn random_circuits_on_ring(c in arb_circuit(5, 14)) {
        check_equivalence(&c, &Topology::ring(5), CompileStrategy::Eqm)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn metrics_invariants_hold(c in arb_circuit(5, 20)) {
        let session = Compiler::builder().caching(false).build();
        let topo = Topology::grid(5);
        for strategy in [CompileStrategy::QubitOnly, CompileStrategy::Eqm] {
            let r = session.compile(&c, &topo, strategy);
            let m = &r.metrics;
            prop_assert!(m.gate_eps > 0.0 && m.gate_eps <= 1.0);
            prop_assert!(m.coherence_eps > 0.0 && m.coherence_eps <= 1.0);
            prop_assert!((m.total_eps - m.gate_eps * m.coherence_eps).abs() < 1e-12);
            prop_assert!(m.duration_ns >= 0.0);
            // Total ops account for every logical CX (logical SWAPs are
            // free relabels and emit nothing).
            let cx_count = c
                .iter()
                .filter(|g| matches!(g, Gate::Cx { .. }))
                .count();
            prop_assert!(r.schedule.len() >= cx_count);
            // Communication count never exceeds total ops.
            prop_assert!(m.communication_ops <= m.total_ops());
        }
    }

    #[test]
    fn merged_singles_preserve_op_effects(
        kinds in proptest::collection::vec(
            prop_oneof![
                Just(SingleQubitKind::H),
                Just(SingleQubitKind::X),
                Just(SingleQubitKind::T),
                Just(SingleQubitKind::Z),
            ],
            2..8,
        )
    ) {
        // A circuit of single-qubit gates on a compressed pair must still
        // be equivalent after the X0,1 merge pass.
        let mut c = Circuit::new(2);
        for (i, k) in kinds.iter().enumerate() {
            c.push(Gate::single(*k, i % 2));
        }
        c.push(Gate::cx(0, 1)); // force the pair to matter
        check_equivalence(&c, &Topology::grid(2), CompileStrategy::Eqm)
            .map_err(TestCaseError::fail)?;
    }
}
