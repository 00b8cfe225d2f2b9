//! Happy-path coverage of the compile→route→schedule pipeline: a small
//! deterministic Cuccaro adder compiled with every strategy (including
//! exhaustive search on this tiny instance) must produce a valid schedule,
//! finite gate/depth metrics, and — for the compressing strategies — no
//! more two-qubit communication than the qubit-only baseline.

use qompress::{CompilationResult, Compiler, Strategy};
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use qompress_workloads::cuccaro_sized;
use std::sync::OnceLock;

/// One shared session for the suite: the 8-qubit adder baseline repeats
/// across tests and comes back as verified cache hits.
fn session() -> &'static Compiler {
    static SESSION: OnceLock<Compiler> = OnceLock::new();
    SESSION.get_or_init(|| Compiler::builder().verify_hits(true).build())
}

/// The compressing strategies under test, in the paper's order (§5).
const COMPRESSING: [Strategy; 5] = [
    Strategy::FullQuquart,
    Strategy::ProgressivePairing,
    Strategy::RingBased,
    Strategy::Awe,
    Strategy::Exhaustive { ordered: true },
];

/// The *partial*-compression strategies Qompress contributes (§5) — i.e.
/// [`COMPRESSING`] minus the prior-work full-ququart baseline, whose whole
/// point in the evaluation (§6.2) is that it does NOT reduce communication.
const PARTIAL: [Strategy; 4] = [
    Strategy::ProgressivePairing,
    Strategy::RingBased,
    Strategy::Awe,
    Strategy::Exhaustive { ordered: true },
];

fn small_adder() -> Circuit {
    // 8 logical qubits (a 2-bit Cuccaro adder with carry in/out): small
    // enough that exhaustive search stays fast, large enough to route.
    cuccaro_sized(8)
}

fn check_result(label: &str, r: &CompilationResult, topo: &Topology) {
    let problems = r.schedule.validate(topo);
    assert!(
        problems.is_empty(),
        "{label}: invalid schedule: {problems:?}"
    );
    assert!(!r.schedule.is_empty(), "{label}: empty schedule");

    let m = &r.metrics;
    assert!(
        m.gate_eps.is_finite() && m.gate_eps > 0.0 && m.gate_eps <= 1.0,
        "{label}: gate EPS {}",
        m.gate_eps
    );
    assert!(
        m.coherence_eps.is_finite() && m.coherence_eps > 0.0 && m.coherence_eps <= 1.0,
        "{label}: coherence EPS {}",
        m.coherence_eps
    );
    assert!(
        (m.total_eps - m.gate_eps * m.coherence_eps).abs() < 1e-12,
        "{label}: total EPS is not the product of its factors"
    );
    assert!(
        m.duration_ns.is_finite() && m.duration_ns > 0.0,
        "{label}: duration {}",
        m.duration_ns
    );
    assert!(
        m.communication_ops <= m.total_ops(),
        "{label}: comm ops exceed total ops"
    );
    let counted: usize = m.gate_counts.values().sum();
    assert_eq!(
        counted,
        r.schedule.len(),
        "{label}: gate counts disagree with schedule"
    );
}

#[test]
fn every_strategy_compiles_the_adder_with_finite_metrics() {
    let circuit = small_adder();
    let topo = Topology::grid(circuit.n_qubits());

    let baseline = session().compile(&circuit, &topo, Strategy::QubitOnly);
    check_result("qubit-only", &baseline, &topo);
    assert!(baseline.pairs.is_empty(), "baseline must not compress");

    for strategy in COMPRESSING {
        let r = session().compile(&circuit, &topo, strategy);
        check_result(strategy.name(), &r, &topo);
    }
}

#[test]
fn compression_reduces_two_qubit_communication() {
    let circuit = small_adder();
    let topo = Topology::grid(circuit.n_qubits());

    let baseline = session().compile(&circuit, &topo, Strategy::QubitOnly);
    assert!(
        baseline.metrics.communication_ops > 0,
        "the adder on a grid must need routing for the comparison to mean anything"
    );

    let mut strictly_better = 0usize;
    for strategy in PARTIAL {
        let r = session().compile(&circuit, &topo, strategy);
        // Communication the paper counts: SWAP family plus ENC/DEC. A
        // partial-compression strategy may pay ENC/DEC overhead, but on a
        // communication-heavy circuit it must never need *more*
        // communication than the uncompressed baseline (§4, §6.3).
        assert!(
            r.metrics.communication_ops <= baseline.metrics.communication_ops,
            "{strategy}: {} communication ops vs baseline {}",
            r.metrics.communication_ops,
            baseline.metrics.communication_ops
        );
        if r.metrics.communication_ops < baseline.metrics.communication_ops {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 1,
        "at least one partial strategy must strictly reduce communication"
    );

    // The prior-work full-ququart baseline compresses everything and pays
    // for it in encode/decode and ququart SWAP traffic — the paper's §6.2
    // motivation for partial compression. Pin that relationship too.
    let fq = session().compile(&circuit, &topo, Strategy::FullQuquart);
    assert!(
        fq.metrics.communication_ops > baseline.metrics.communication_ops,
        "full-ququart unexpectedly needed no extra communication ({} vs {})",
        fq.metrics.communication_ops,
        baseline.metrics.communication_ops
    );
}

#[test]
fn exhaustive_on_tiny_instance_matches_or_beats_baseline_gate_eps() {
    let circuit = cuccaro_sized(6);
    let topo = Topology::grid(6);

    let baseline = session().compile(&circuit, &topo, Strategy::QubitOnly);
    let ec = session().compile(&circuit, &topo, Strategy::Exhaustive { ordered: true });
    check_result("ec-tiny", &ec, &topo);
    // EC only commits a compression when it improves the objective, so it
    // can never end up worse than the uncompressed starting point (§5.1).
    assert!(
        ec.metrics.gate_eps >= baseline.metrics.gate_eps - 1e-12,
        "exhaustive search regressed gate EPS: {} < {}",
        ec.metrics.gate_eps,
        baseline.metrics.gate_eps
    );
}

#[test]
fn compilation_is_deterministic_across_runs() {
    // Deliberately uses the free `compile` wrapper (one-shot uncached
    // sessions) so both runs really execute the pipeline — through the
    // shared session the second run would be a cache hit and this test
    // would be vacuous.
    let circuit = small_adder();
    let topo = Topology::grid(circuit.n_qubits());
    let uncached = Compiler::builder().caching(false).build();
    for strategy in COMPRESSING {
        let a = uncached.compile(&circuit, &topo, strategy);
        let b = uncached.compile(&circuit, &topo, strategy);
        assert_eq!(a.metrics.total_eps, b.metrics.total_eps, "{strategy}");
        assert_eq!(a.schedule.len(), b.schedule.len(), "{strategy}");
        assert_eq!(a.pairs, b.pairs, "{strategy}");
    }
}
