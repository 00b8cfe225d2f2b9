//! Figure 4: exhaustive-search traces on a cylinder-graph QAOA circuit,
//! comparing the critical-path-ordered selection (4b) with the unordered
//! pool (4c).
//!
//! Paper shape: both reach similar success-rate gains through different
//! compression sequences.

use qompress::{Compiler, ExhaustiveOptions, Strategy};
use qompress_arch::Topology;
use qompress_bench::{bench_circuit, fmt, ResultSink};
use qompress_workloads::Benchmark;

fn main() {
    let size = 16;
    let circuit = bench_circuit(Benchmark::QaoaCylinder, size, 7);
    let topo = Topology::grid(size);
    let baseline =
        Compiler::builder()
            .caching(false)
            .build()
            .compile(&circuit, &topo, Strategy::QubitOnly);
    let mut sink = ResultSink::create(
        "fig04_exhaustive",
        &[
            "variant",
            "step",
            "pair",
            "group",
            "gate_eps",
            "total_eps",
            "relative_gate",
        ],
    );
    sink.row(&[
        "baseline".into(),
        "0".into(),
        "-".into(),
        "-".into(),
        fmt(baseline.metrics.gate_eps),
        fmt(baseline.metrics.total_eps),
        fmt(1.0),
    ]);

    for (label, ordered) in [("critical-path", true), ("unordered", false)] {
        let (best, steps) = Compiler::new().compile_exhaustive(
            &circuit,
            &topo,
            &ExhaustiveOptions {
                ordered,
                max_rounds: 8,
                ..Default::default()
            },
        );
        for (i, step) in steps.iter().enumerate() {
            sink.row(&[
                label.into(),
                (i + 1).to_string(),
                format!("{}+{}", step.pair.0, step.pair.1),
                step.group.to_string(),
                fmt(step.gate_eps),
                fmt(step.total_eps),
                fmt(step.gate_eps / baseline.metrics.gate_eps),
            ]);
        }
        println!(
            "# {label}: {} compressions, final gate EPS {:.4} ({:.2}x qubit-only)",
            steps.len(),
            best.metrics.gate_eps,
            best.metrics.gate_eps / baseline.metrics.gate_eps
        );
    }
}
