//! Full-pipeline smoke tests: every benchmark family compiles under every
//! strategy on every topology class with a structurally valid schedule and
//! sane metrics.

use qompress::{Compiler, Strategy};
use qompress_arch::Topology;
use qompress_workloads::{build, Benchmark, ALL_BENCHMARKS};

fn check(bench: Benchmark, size: usize, topo: &Topology, strategy: Strategy) {
    let circuit = build(bench, size, 7);
    let result = Compiler::builder()
        .caching(false)
        .build()
        .compile(&circuit, topo, strategy);
    let problems = result.schedule.validate(topo);
    assert!(
        problems.is_empty(),
        "{bench}@{size} {strategy} on {topo}: {problems:?}"
    );
    let m = &result.metrics;
    assert!(m.gate_eps > 0.0 && m.gate_eps <= 1.0, "{bench} {strategy}");
    assert!(
        m.coherence_eps > 0.0 && m.coherence_eps <= 1.0,
        "{bench} {strategy}"
    );
    assert!(m.duration_ns > 0.0, "{bench} {strategy}");
    // Every logical gate must be realized (physical op count >= logical 2q
    // count, since 1q gates may merge).
    assert!(
        result.schedule.len() >= circuit.two_qubit_gate_count(),
        "{bench} {strategy}: lost gates"
    );
    // Residency covers every qubit for the full duration (worst-case
    // model, §6.1.1).
    let per_qubit: f64 = result
        .trace
        .qubit_ns
        .iter()
        .zip(result.trace.ququart_ns.iter())
        .map(|(a, b)| a + b)
        .sum::<f64>()
        / circuit.n_qubits() as f64;
    assert!(
        (per_qubit - m.duration_ns).abs() < 1e-6,
        "{bench} {strategy}: residency {per_qubit} vs duration {}",
        m.duration_ns
    );
}

#[test]
fn all_benchmarks_on_grid_with_main_strategies() {
    for bench in ALL_BENCHMARKS {
        let size = 12.max(bench.min_size());
        let topo = Topology::grid(size);
        for strategy in [
            Strategy::QubitOnly,
            Strategy::Eqm,
            Strategy::RingBased,
            Strategy::Awe,
        ] {
            check(bench, size, &topo, strategy);
        }
    }
}

#[test]
fn progressive_pairing_on_structured_benchmarks() {
    for bench in [Benchmark::Cuccaro, Benchmark::Cnu, Benchmark::QaoaCylinder] {
        let size = 12;
        let topo = Topology::grid(size);
        check(bench, size, &topo, Strategy::ProgressivePairing);
    }
}

#[test]
fn fq_baseline_on_structured_benchmarks() {
    for bench in [Benchmark::Cuccaro, Benchmark::Cnu, Benchmark::Bv] {
        let size = 10;
        let topo = Topology::grid(size);
        check(bench, size, &topo, Strategy::FullQuquart);
    }
}

#[test]
fn heavy_hex_and_ring_topologies() {
    for bench in [Benchmark::Cnu, Benchmark::QaoaCylinder] {
        for topo in [Topology::heavy_hex_65(), Topology::ring(65)] {
            for strategy in [Strategy::QubitOnly, Strategy::Eqm] {
                check(bench, 15, &topo, strategy);
            }
        }
    }
}

#[test]
fn larger_circuits_compile() {
    for bench in [Benchmark::Cuccaro, Benchmark::QaoaTorus] {
        let size = 30;
        let topo = Topology::grid(size);
        check(bench, size, &topo, Strategy::Eqm);
        check(bench, size, &topo, Strategy::QubitOnly);
    }
}

#[test]
fn double_capacity_via_compression() {
    // The paper's 2x capacity claim: a 16-qubit circuit fits on 8 physical
    // units when every qubit is compressed.
    let circuit = build(Benchmark::Cuccaro, 16, 3);
    let topo = Topology::grid(8);
    let result = Compiler::builder()
        .caching(false)
        .build()
        .compile(&circuit, &topo, Strategy::Eqm);
    assert!(result.schedule.validate(&topo).is_empty());
    assert_eq!(result.initial_placements.len(), 16);
    assert!(result.active_units() <= 8);
}

#[test]
fn compiled_gate_mix_uses_ququart_classes_under_compression() {
    use qompress_pulse::GateClass;
    let circuit = build(Benchmark::Cnu, 15, 3);
    let topo = Topology::grid(15);
    let session = Compiler::builder().caching(false).build();
    let eqm = session.compile(&circuit, &topo, Strategy::Eqm);
    let qo = session.compile(&circuit, &topo, Strategy::QubitOnly);
    // Qubit-only emits no ququart classes at all.
    for (&class, &n) in &qo.metrics.gate_counts {
        if n > 0 {
            assert!(class.is_qubit_only(), "qubit-only emitted {class}");
        }
    }
    // EQM on CNU compresses pairs and uses internal CXs.
    let internal = eqm.metrics.count(GateClass::Cx0) + eqm.metrics.count(GateClass::Cx1);
    assert!(internal > 0, "EQM should produce internal CX gates on CNU");
}
