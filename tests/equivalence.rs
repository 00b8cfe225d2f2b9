//! End-to-end correctness: compiled physical circuits must reproduce the
//! logical circuit's state for every strategy, verified with the
//! mixed-radix state-vector simulator.

use qompress::{Compiler, PhysicalOp, Strategy};
use qompress_arch::Topology;
use qompress_circuit::{Circuit, Gate};
use qompress_sim::{
    apply_internal, apply_merged, apply_single, apply_two_unit, physical_zero_state,
    simulate_logical, states_equivalent, State,
};

fn apply_physical(state: &mut State, op: &PhysicalOp) {
    match *op {
        PhysicalOp::Single { unit, kind, class } => apply_single(state, unit, kind, class),
        PhysicalOp::Merged { unit, kind0, kind1 } => apply_merged(state, unit, kind0, kind1),
        PhysicalOp::Internal { unit, class } => apply_internal(state, unit, class),
        PhysicalOp::TwoUnit { a, b, class } => apply_two_unit(state, a, b, class),
    }
}

/// Compiles `circuit` with `strategy` and checks physical/logical state
/// equivalence starting from `|0…0⟩`.
fn assert_equivalent(circuit: &Circuit, topo: &Topology, strategy: Strategy) {
    let result = Compiler::builder()
        .caching(false)
        .build()
        .compile(circuit, topo, strategy);
    assert!(
        result.schedule.validate(topo).is_empty(),
        "{strategy}: invalid schedule"
    );

    let logical = simulate_logical(circuit, &vec![0; circuit.n_qubits()]);
    let mut phys = physical_zero_state(topo.n_nodes());
    for sop in result.schedule.ops() {
        apply_physical(&mut phys, &sop.op);
    }
    assert!(
        states_equivalent(
            &phys,
            &result.final_placements,
            &result.encoded_units,
            &logical,
            1e-6,
        ),
        "{strategy} on {topo}: compiled state diverges from logical state"
    );
}

/// Same check with a basis-state input realized by prepended X gates.
fn assert_equivalent_with_input(
    circuit: &Circuit,
    topo: &Topology,
    strategy: Strategy,
    input: &[usize],
) {
    let mut prepared = Circuit::new(circuit.n_qubits());
    for (q, &bit) in input.iter().enumerate() {
        if bit == 1 {
            prepared.push(Gate::x(q));
        }
    }
    prepared.extend_from(circuit);
    assert_equivalent(&prepared, topo, strategy);
}

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::h(0));
    for i in 0..n - 1 {
        c.push(Gate::cx(i, i + 1));
    }
    c
}

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
        Strategy::ProgressivePairing,
        Strategy::FullQuquart,
    ]
}

#[test]
fn ghz_equivalence_all_strategies() {
    let c = ghz(4);
    let topo = Topology::grid(4);
    for strategy in all_strategies() {
        assert_equivalent(&c, &topo, strategy);
    }
}

#[test]
fn triangle_qaoa_equivalence() {
    // Triangle interaction: RB will compress a pair, exercising internal
    // and partial gates.
    let mut c = Circuit::new(3);
    for q in 0..3 {
        c.push(Gate::h(q));
    }
    for (a, b) in [(0, 1), (1, 2), (0, 2)] {
        c.push(Gate::cx(a, b));
        c.push(Gate::z(b));
        c.push(Gate::cx(a, b));
    }
    let topo = Topology::line(3);
    for strategy in all_strategies() {
        assert_equivalent(&c, &topo, strategy);
    }
}

#[test]
fn toffoli_equivalence_on_basis_inputs() {
    let mut c = Circuit::new(3);
    c.push_ccx(0, 1, 2);
    let topo = Topology::grid(3);
    for input in [[0, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]] {
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased] {
            assert_equivalent_with_input(&c, &topo, strategy, &input);
        }
    }
}

#[test]
fn one_bit_adder_equivalence() {
    let c = qompress_workloads::cuccaro_adder(1); // 4 qubits
    let topo = Topology::grid(4);
    for strategy in all_strategies() {
        assert_equivalent(&c, &topo, strategy);
    }
    // 1 + 1: a0 = 1 (qubit 2), b0 = 1 (qubit 1).
    assert_equivalent_with_input(&c, &topo, Strategy::Eqm, &[0, 1, 1, 0]);
    assert_equivalent_with_input(&c, &topo, Strategy::FullQuquart, &[0, 1, 1, 0]);
}

#[test]
fn bv_equivalence() {
    let c = qompress_workloads::bernstein_vazirani(&[true, false, true]);
    let topo = Topology::grid(4);
    for strategy in all_strategies() {
        assert_equivalent(&c, &topo, strategy);
    }
}

#[test]
fn equivalence_with_forced_long_routing() {
    // Interactions spanning a line force many swaps; verify bookkeeping
    // survives heavy communication.
    let mut c = Circuit::new(5);
    c.push(Gate::h(0));
    c.push(Gate::cx(0, 4));
    c.push(Gate::cx(4, 1));
    c.push(Gate::cx(1, 3));
    c.push(Gate::cx(3, 0));
    let topo = Topology::line(5);
    for strategy in [Strategy::QubitOnly, Strategy::Eqm] {
        assert_equivalent(&c, &topo, strategy);
    }
}

#[test]
fn equivalence_on_ring_topology() {
    let c = ghz(5);
    let topo = Topology::ring(5);
    for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::Awe] {
        assert_equivalent(&c, &topo, strategy);
    }
}

#[test]
fn exhaustive_compilation_is_equivalent() {
    let mut c = Circuit::new(4);
    for _ in 0..5 {
        c.push(Gate::cx(0, 1));
    }
    c.push(Gate::h(2));
    c.push(Gate::cx(2, 3));
    c.push(Gate::cx(1, 2));
    let topo = Topology::grid(4);
    assert_equivalent(&c, &topo, Strategy::Exhaustive { ordered: true });
}

#[test]
fn random_circuits_differential_under_every_strategy() {
    // Seeded 3-5 qubit circuits from the QASM frontend's generator (mixing
    // every 1q kind, CX and logical SWAP), compiled under *every* strategy
    // including the exhaustive search, must preserve logical semantics —
    // not just the structured benchmark happy paths.
    for seed in 0..6u64 {
        let n = 3 + (seed as usize % 3);
        let c = qompress_qasm::random_circuit(n, 16, seed);
        let topo = Topology::grid(n);
        for strategy in qompress::ALL_STRATEGIES {
            assert_equivalent(&c, &topo, strategy);
        }
    }
}

#[test]
fn random_circuits_differential_on_line_and_ring() {
    // Sparser connectivity forces real routing; spot-check the partial
    // strategies away from the grid.
    for seed in 10..13u64 {
        let c = qompress_qasm::random_circuit(4, 14, seed);
        for topo in [Topology::line(4), Topology::ring(4)] {
            for strategy in [
                Strategy::QubitOnly,
                Strategy::Eqm,
                Strategy::RingBased,
                Strategy::Awe,
                Strategy::ProgressivePairing,
            ] {
                assert_equivalent(&c, &topo, strategy);
            }
        }
    }
}

#[test]
fn qasm_round_trip_compiles_identically() {
    // Frontend integration: a circuit that has passed through QASM text
    // must compile to the same schedule and metrics as the original.
    let session = Compiler::builder().caching(false).build();
    for seed in 0..3u64 {
        let c = qompress_qasm::random_circuit(5, 20, seed);
        let reparsed = qompress_qasm::parse_qasm(&qompress_qasm::to_qasm(&c)).unwrap();
        assert_eq!(c, reparsed);
        let topo = Topology::grid(5);
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::Awe] {
            let a = session.compile(&c, &topo, strategy);
            let b = session.compile(&reparsed, &topo, strategy);
            assert_eq!(a.metrics, b.metrics, "{strategy}");
            assert_eq!(
                format!("{:?}", a.schedule),
                format!("{:?}", b.schedule),
                "{strategy}"
            );
        }
    }
}

#[test]
fn random_circuits_equivalent_under_eqm() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 5;
        let mut c = Circuit::new(n);
        for _ in 0..20 {
            match rng.gen_range(0..4) {
                0 => c.push(Gate::h(rng.gen_range(0..n))),
                1 => c.push(Gate::t(rng.gen_range(0..n))),
                2 => {
                    let a = rng.gen_range(0..n);
                    let b = (a + rng.gen_range(1..n)) % n;
                    c.push(Gate::cx(a, b));
                }
                _ => c.push(Gate::rz(0.37 * (seed as f64 + 1.0), rng.gen_range(0..n))),
            }
        }
        let topo = Topology::grid(5);
        assert_equivalent(&c, &topo, Strategy::Eqm);
        assert_equivalent(&c, &topo, Strategy::QubitOnly);
    }
}
