//! Strategy-relationship tests mirroring the paper's qualitative findings
//! (§7): FQ loses to qubit-only, compression wins on structured circuits,
//! RB finds nothing on BV, and EQM produces internal interactions.

use qompress::{Compiler, Strategy};
use qompress_arch::Topology;
use qompress_pulse::GateClass;
use qompress_workloads::{build, Benchmark};
use std::sync::{Arc, OnceLock};

/// One shared session for the whole suite: tests run concurrently against
/// it (exercising the registry/cache locking), repeated baselines (e.g.
/// qubit-only Cuccaro-12) are served from the result cache, and
/// `verify_hits` recompiles every hit to prove it byte-identical.
fn session() -> &'static Compiler {
    static SESSION: OnceLock<Compiler> = OnceLock::new();
    SESSION.get_or_init(|| Compiler::builder().verify_hits(true).build())
}

fn run(bench: Benchmark, size: usize, strategy: Strategy) -> Arc<qompress::CompilationResult> {
    let circuit = build(bench, size, 11);
    let topo = Topology::grid(size);
    session().compile(&circuit, &topo, strategy)
}

#[test]
fn fq_is_consistently_worse_than_qubit_only() {
    // Figure 7's orange line: every out-of-pair operation pays decode +
    // encode, so FQ's gate EPS falls below the qubit-only baseline.
    for bench in [Benchmark::Cuccaro, Benchmark::Cnu, Benchmark::QaoaCylinder] {
        let fq = run(bench, 12, Strategy::FullQuquart);
        let qo = run(bench, 12, Strategy::QubitOnly);
        assert!(
            fq.metrics.gate_eps <= qo.metrics.gate_eps,
            "{bench}: FQ {:.4} vs qubit-only {:.4}",
            fq.metrics.gate_eps,
            qo.metrics.gate_eps
        );
    }
}

#[test]
fn eqm_beats_qubit_only_on_cnu_gate_eps() {
    // The paper's headline: >50% gate-EPS gains on CNU (Figure 7). We
    // assert the direction and a nontrivial margin.
    let eqm = run(Benchmark::Cnu, 15, Strategy::Eqm);
    let qo = run(Benchmark::Cnu, 15, Strategy::QubitOnly);
    assert!(
        eqm.metrics.gate_eps > qo.metrics.gate_eps,
        "EQM {:.4} vs qubit-only {:.4}",
        eqm.metrics.gate_eps,
        qo.metrics.gate_eps
    );
}

#[test]
fn rb_beats_qubit_only_on_cuccaro_gate_eps() {
    let rb = run(Benchmark::Cuccaro, 12, Strategy::RingBased);
    let qo = run(Benchmark::Cuccaro, 12, Strategy::QubitOnly);
    assert!(
        rb.metrics.gate_eps > qo.metrics.gate_eps,
        "RB {:.4} vs qubit-only {:.4}",
        rb.metrics.gate_eps,
        qo.metrics.gate_eps
    );
}

#[test]
fn rb_finds_no_pairs_on_bv() {
    // BV's interaction graph is a star: no cycles, no compressions (§7).
    let rb = run(Benchmark::Bv, 12, Strategy::RingBased);
    assert!(rb.pairs.is_empty());
    // Consequently RB == qubit-only for BV.
    let qo = run(Benchmark::Bv, 12, Strategy::QubitOnly);
    assert_eq!(rb.schedule.len(), qo.schedule.len());
}

#[test]
fn rb_finds_pairs_on_cyclic_benchmarks() {
    for bench in [Benchmark::Cuccaro, Benchmark::Cnu, Benchmark::Qram] {
        let rb = run(bench, 12, Strategy::RingBased);
        assert!(!rb.pairs.is_empty(), "{bench}: RB found no pairs");
    }
}

#[test]
fn compression_strategies_emit_internal_cx_on_cuccaro() {
    for strategy in [Strategy::Eqm, Strategy::RingBased] {
        let r = run(Benchmark::Cuccaro, 12, strategy);
        let internal = r.metrics.count(GateClass::Cx0) + r.metrics.count(GateClass::Cx1);
        assert!(internal > 0, "{strategy}: no internal CX on Cuccaro");
    }
}

#[test]
fn fq_pays_enc_dec_on_communication_heavy_circuits() {
    let fq = run(Benchmark::QaoaCylinder, 12, Strategy::FullQuquart);
    assert!(fq.metrics.count(GateClass::Enc) > 0);
    assert_eq!(
        fq.metrics.count(GateClass::Enc),
        fq.metrics.count(GateClass::Dec),
        "every decode must re-encode"
    );
}

#[test]
fn qubit_only_duration_is_shorter_than_fq() {
    // FQ's serialization and long gates inflate circuit duration (§7.1).
    let fq = run(Benchmark::Cuccaro, 10, Strategy::FullQuquart);
    let qo = run(Benchmark::Cuccaro, 10, Strategy::QubitOnly);
    assert!(fq.metrics.duration_ns > qo.metrics.duration_ns);
}

#[test]
fn compression_reduces_active_units() {
    // The space dividend: compression strategies use fewer physical units.
    let eqm = run(Benchmark::Cnu, 15, Strategy::Eqm);
    let qo = run(Benchmark::Cnu, 15, Strategy::QubitOnly);
    assert!(eqm.active_units() <= qo.active_units());
    assert!(!eqm.pairs.is_empty());
}

#[test]
fn exhaustive_matches_or_beats_singleton_strategies_on_small_input() {
    // EC is the (greedy) upper bound the others approximate (§5.1).
    let circuit = build(Benchmark::Cuccaro, 8, 11);
    let topo = Topology::grid(8);
    let (ec, _) = Compiler::new().compile_exhaustive(
        &circuit,
        &topo,
        &qompress::ExhaustiveOptions {
            ordered: false,
            max_rounds: 4,
            objective: qompress::EcObjective::TotalEps,
        },
    );
    let qo = session().compile(&circuit, &topo, Strategy::QubitOnly);
    assert!(ec.metrics.total_eps >= qo.metrics.total_eps * 0.999);
}

#[test]
fn strategies_scale_across_sizes() {
    for size in [8usize, 16, 24] {
        for strategy in [Strategy::QubitOnly, Strategy::Eqm] {
            let r = run(Benchmark::Cuccaro, size, strategy);
            assert!(r.metrics.total_eps > 0.0);
            assert!(r.metrics.total_eps < 1.0);
        }
    }
}

#[test]
fn gate_eps_decreases_with_circuit_size() {
    // Larger circuits have more gates, hence lower EPS — sanity of the
    // Figure 7 x-axis trend.
    let small = run(Benchmark::Cnu, 9, Strategy::Eqm);
    let large = run(Benchmark::Cnu, 21, Strategy::Eqm);
    assert!(large.metrics.gate_eps < small.metrics.gate_eps);
}
