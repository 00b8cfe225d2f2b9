//! Ablation study of the compiler's design choices (beyond the paper's
//! figures): the routing lookahead window, the "avoid swapping through
//! ququarts" penalty, and the `X0,1` single-qubit merge pass.

use qompress::{
    map_circuit, merge_singles, route_cached, schedule_ops, trace_coherence, Compiler,
    CompilerConfig, MappingOptions, Metrics, TopologyCache,
};
use qompress_arch::Topology;
use qompress_bench::{bench_circuit, fmt, ResultSink};
use qompress_circuit::CircuitDag;
use qompress_workloads::Benchmark;

fn main() {
    lookahead_ablation();
    penalty_ablation();
    merge_ablation();
}

fn lookahead_ablation() {
    let mut sink = ResultSink::create(
        "ablation_lookahead",
        &[
            "benchmark",
            "lookahead",
            "gate_eps",
            "duration_ns",
            "comm_ops",
        ],
    );
    for bench in [Benchmark::Cuccaro, Benchmark::QaoaTorus] {
        let circuit = bench_circuit(bench, 20, 7);
        let topo = Topology::grid(20);
        for lookahead in [0usize, 2, 4, 8, 16] {
            let config = CompilerConfig {
                lookahead,
                ..CompilerConfig::paper()
            };
            let session = Compiler::builder().config(config).caching(false).build();
            let r = session.compile_with_options(&circuit, &topo, &MappingOptions::eqm());
            sink.row(&[
                bench.name().into(),
                lookahead.to_string(),
                fmt(r.metrics.gate_eps),
                format!("{:.0}", r.metrics.duration_ns),
                r.metrics.communication_ops.to_string(),
            ]);
        }
    }
}

fn penalty_ablation() {
    let mut sink = ResultSink::create(
        "ablation_ququart_penalty",
        &["benchmark", "penalty", "gate_eps", "comm_ops"],
    );
    for bench in [Benchmark::Cnu, Benchmark::QaoaCylinder] {
        let circuit = bench_circuit(bench, 15, 7);
        let topo = Topology::grid(15);
        for penalty in [0.0f64, 0.01, 0.02, 0.1, 0.5] {
            let config = CompilerConfig {
                ququart_route_penalty: penalty,
                ..CompilerConfig::paper()
            };
            let session = Compiler::builder().config(config).caching(false).build();
            let r = session.compile_with_options(&circuit, &topo, &MappingOptions::eqm());
            sink.row(&[
                bench.name().into(),
                penalty.to_string(),
                fmt(r.metrics.gate_eps),
                r.metrics.communication_ops.to_string(),
            ]);
        }
    }
}

fn merge_ablation() {
    let mut sink = ResultSink::create(
        "ablation_merge_pass",
        &["benchmark", "merge", "ops", "gate_eps", "duration_ns"],
    );
    let config = CompilerConfig::paper();
    for bench in [Benchmark::Cuccaro, Benchmark::Cnu] {
        let circuit = bench_circuit(bench, 15, 7);
        let topo = Topology::grid(15);
        let dag = CircuitDag::build(&circuit);
        let cache = TopologyCache::new(topo.clone(), &config);
        for merge in [true, false] {
            let mut layout = map_circuit(&circuit, &topo, &config, &MappingOptions::eqm());
            let initial = layout.placements();
            let encoded = layout.encoded_flags().to_vec();
            let ops = route_cached(&circuit, &dag, &mut layout, &cache, &config);
            let ops = if merge { merge_singles(ops) } else { ops };
            let schedule = schedule_ops(ops, topo.n_nodes(), &config.library);
            let trace = trace_coherence(&schedule, &initial, &encoded);
            let metrics = Metrics::compute(&schedule, &trace, &config);
            sink.row(&[
                bench.name().into(),
                merge.to_string(),
                schedule.len().to_string(),
                fmt(metrics.gate_eps),
                format!("{:.0}", metrics.duration_ns),
            ]);
        }
    }
}
