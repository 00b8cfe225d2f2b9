//! Metric-model integration tests: T1 sweeps, crossover behaviour and the
//! error-sensitivity mechanics behind Figures 9-12.

use qompress::{coherence_eps, CompilationResult, Compiler, CompilerConfig, Strategy};
use qompress_arch::Topology;
use qompress_workloads::{build, Benchmark};
use std::sync::Arc;

fn paper_pair(bench: Benchmark, size: usize) -> (Arc<CompilationResult>, Arc<CompilationResult>) {
    let circuit = build(bench, size, 5);
    let topo = Topology::grid(size);
    let session = Compiler::builder().caching(false).build();
    let qo = session.compile(&circuit, &topo, Strategy::QubitOnly);
    let eqm = session.compile(&circuit, &topo, Strategy::Eqm);
    (qo, eqm)
}

#[test]
fn coherence_improves_with_better_t1() {
    // Figure 11: 10x better T1 lifts coherence EPS for both.
    let (qo, eqm) = paper_pair(Benchmark::Cuccaro, 12);
    let config = CompilerConfig::paper();
    for r in [&qo, &eqm] {
        let base = r.metrics.coherence_eps;
        let better = r
            .metrics
            .with_t1(config.t1_qubit_ns() * 10.0, config.t1_ququart_ns() * 10.0);
        assert!(better.coherence_eps > base);
        assert_eq!(better.gate_eps, r.metrics.gate_eps);
    }
}

#[test]
fn t1_ratio_sweep_is_monotone() {
    // Figure 12: improving the ququart T1 ratio monotonically improves a
    // compressed circuit's total EPS while leaving qubit-only untouched.
    let (qo, eqm) = paper_pair(Benchmark::Cnu, 15);
    let config = CompilerConfig::paper();
    let t1q = config.t1_qubit_ns();
    let mut last = 0.0;
    for ratio in [3.0, 2.5, 2.0, 1.5, 1.0] {
        let swept = eqm.metrics.with_t1(t1q, t1q / ratio);
        assert!(swept.total_eps >= last, "ratio {ratio}");
        last = swept.total_eps;
        // Qubit-only has zero ququart residency: ratio is irrelevant.
        let qo_swept = qo.metrics.with_t1(t1q, t1q / ratio);
        assert!((qo_swept.total_eps - qo.metrics.total_eps).abs() < 1e-12);
    }
}

#[test]
fn crossover_exists_when_gate_gains_are_real() {
    // Figure 12's dashed lines: at 10x better T1 (the figure's setting),
    // if compression improves gate EPS there is a ququart T1 ratio at or
    // below parity where total EPS favors ququarts.
    let (qo, eqm) = paper_pair(Benchmark::Cnu, 15);
    if eqm.metrics.gate_eps <= qo.metrics.gate_eps {
        // Nothing to show for this size; the premise fails.
        return;
    }
    let config = CompilerConfig::paper();
    let t1q = 10.0 * config.t1_qubit_ns();
    let qo_10x = qo.metrics.with_t1(t1q, t1q / 3.0);
    let at_parity = eqm.metrics.with_t1(t1q, t1q);
    assert!(
        at_parity.total_eps > qo_10x.total_eps,
        "at 10x T1 and ratio parity the gate-EPS advantage must win: {} vs {}",
        at_parity.total_eps,
        qo_10x.total_eps
    );
    // And at the paper's worst-case ratio 3 the compressed circuit loses
    // on coherence (the §7.1 finding).
    let at_worst = eqm.metrics.with_t1(t1q, t1q / 3.0);
    assert!(at_worst.coherence_eps < qo_10x.coherence_eps);
}

#[test]
fn qubit_error_improvement_shrinks_compression_advantage() {
    // Figure 9: as bare-qubit gates get better, the ququart advantage
    // diminishes.
    let circuit = build(Benchmark::Cuccaro, 12, 5);
    let topo = Topology::grid(12);
    let base_cfg = CompilerConfig::paper();
    let better_cfg = base_cfg.with_library(base_cfg.library.with_qubit_error_improved(10.0));

    let base = Compiler::builder().config(base_cfg).caching(false).build();
    let better = Compiler::builder()
        .config(better_cfg)
        .caching(false)
        .build();

    let qo_base = base.compile(&circuit, &topo, Strategy::QubitOnly);
    let eqm_base = base.compile(&circuit, &topo, Strategy::Eqm);
    let qo_better = better.compile(&circuit, &topo, Strategy::QubitOnly);
    let eqm_better = better.compile(&circuit, &topo, Strategy::Eqm);

    let adv_base = eqm_base.metrics.gate_eps / qo_base.metrics.gate_eps;
    let adv_better = eqm_better.metrics.gate_eps / qo_better.metrics.gate_eps;
    assert!(
        adv_better < adv_base,
        "advantage should shrink: {adv_base:.4} -> {adv_better:.4}"
    );
    // And qubit-only itself must improve.
    assert!(qo_better.metrics.gate_eps > qo_base.metrics.gate_eps);
}

#[test]
fn coherence_formula_matches_closed_form() {
    let (qo, _) = paper_pair(Benchmark::Bv, 10);
    let config = CompilerConfig::paper();
    let expect = coherence_eps(
        qo.metrics.qubit_state_ns,
        qo.metrics.ququart_state_ns,
        config.t1_qubit_ns(),
        config.t1_ququart_ns(),
    );
    assert!((qo.metrics.coherence_eps - expect).abs() < 1e-12);
}

#[test]
fn total_eps_is_product_of_components() {
    let (_, eqm) = paper_pair(Benchmark::QaoaCylinder, 12);
    let m = &eqm.metrics;
    assert!((m.total_eps - m.gate_eps * m.coherence_eps).abs() < 1e-12);
}

#[test]
fn compressed_circuits_accumulate_ququart_residency() {
    let (qo, eqm) = paper_pair(Benchmark::Cnu, 15);
    assert_eq!(qo.metrics.ququart_state_ns, 0.0);
    assert!(eqm.metrics.ququart_state_ns > 0.0);
}

#[test]
fn duration_equals_last_op_end() {
    let (qo, _) = paper_pair(Benchmark::Cuccaro, 10);
    let max_end = qo
        .schedule
        .ops()
        .iter()
        .map(|o| o.end_ns())
        .fold(0.0f64, f64::max);
    assert!((qo.metrics.duration_ns - max_end).abs() < 1e-9);
}
