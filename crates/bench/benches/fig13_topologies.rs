//! Figure 13: ranges (min/median/max over circuit sizes 5-40) of the
//! gate-EPS improvement ratio for CNU and cylinder QAOA on three
//! architectural topologies: grid, 65-qubit heavy-hex, 65-node ring.
//!
//! Paper shape: no significant difference between architectures — the
//! compression methods adapt to all three with similar effect.

use qompress::{Compiler, Strategy};
use qompress_arch::Topology;
use qompress_bench::{bench_circuit, fmt, min_median_max, relative, sweep_sizes, ResultSink};
use qompress_workloads::Benchmark;

fn main() {
    let session = Compiler::builder().caching(false).build();
    let strategies = [Strategy::Eqm, Strategy::RingBased];
    let mut sink = ResultSink::create(
        "fig13_topologies",
        &[
            "benchmark",
            "topology",
            "strategy",
            "min_ratio",
            "median_ratio",
            "max_ratio",
        ],
    );
    for bench in [Benchmark::Cnu, Benchmark::QaoaCylinder] {
        for topo_kind in ["grid", "heavy-hex", "ring"] {
            for strategy in strategies {
                let mut ratios = Vec::new();
                for &size in &sweep_sizes() {
                    let size = size.max(bench.min_size());
                    let topo = match topo_kind {
                        "grid" => Topology::grid(size),
                        "heavy-hex" => Topology::heavy_hex_65(),
                        _ => Topology::ring(65),
                    };
                    let circuit = bench_circuit(bench, size, 7);
                    let qo = session.compile(&circuit, &topo, Strategy::QubitOnly);
                    let r = session.compile(&circuit, &topo, strategy);
                    ratios.push(relative(r.metrics.gate_eps, qo.metrics.gate_eps));
                }
                let (min, median, max) = min_median_max(&mut ratios);
                sink.row(&[
                    bench.name().into(),
                    topo_kind.into(),
                    strategy.name().into(),
                    fmt(min),
                    fmt(median),
                    fmt(max),
                ]);
            }
        }
    }
}
