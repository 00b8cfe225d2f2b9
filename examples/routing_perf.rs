//! Routing hot-path performance snapshot.
//!
//! Times the route phase alone (mapping excluded) for a set of
//! communication-heavy circuits over line/grid/ring topologies, plus one
//! exhaustive-search round and a repeated exhaustive sweep on a single
//! `Compiler` session (whose replay must be served from the session's
//! result cache). Writes a machine-readable snapshot to
//! `results/routing_perf.json` so CI accumulates a bench trajectory
//! across PRs.
//!
//! ```text
//! cargo run --release --example routing_perf [repeats]
//! ```

use qompress::{
    route_cached, Compiler, CompilerConfig, ExhaustiveOptions, MappingOptions, PhysicalOp,
};
use qompress_arch::Topology;
use qompress_circuit::{Circuit, CircuitDag};
use qompress_workloads::{build, random_circuit, Benchmark};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Entry {
    circuit: String,
    topology: String,
    logical_gates: usize,
    route_us: f64,
    ops: usize,
}

struct LargeEntry {
    circuit: String,
    topology: String,
    units: usize,
    route_us: f64,
    ops: usize,
    oracle_bytes: usize,
    all_pairs_bytes: usize,
}

struct CrosscheckEntry {
    circuit: String,
    topology: String,
    units: usize,
    exact_comm: usize,
    landmark_comm: usize,
    delta_pct: f64,
}

fn main() {
    let repeats: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);

    let config = CompilerConfig::paper();
    let size = 16usize;
    let circuits: Vec<(String, Circuit)> = vec![
        ("cuccaro16".into(), build(Benchmark::Cuccaro, size, 7)),
        ("qram16".into(), build(Benchmark::Qram, size, 7)),
        ("qasm-random16".into(), random_circuit(size, 6 * size, 7)),
    ];
    let topologies = vec![
        Topology::line(size),
        Topology::grid(size),
        Topology::ring(size),
    ];

    let session = Compiler::builder().config(config.clone()).build();
    let mut entries = Vec::new();
    println!("route-only timings (median of {repeats} runs):\n");
    for (name, circuit) in &circuits {
        let dag = CircuitDag::build(circuit);
        for topo in &topologies {
            let tcache = session.topology_cache(topo);
            let base_layout =
                qompress::map_circuit(circuit, topo, &config, &MappingOptions::qubit_only());
            // Warm the topology cache's oracle rows so the median measures
            // steady-state routing, not first-touch Dijkstra.
            let mut warm = base_layout.clone();
            let ops = route_cached(circuit, &dag, &mut warm, &tcache, &config);

            let mut samples = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                let mut layout = base_layout.clone();
                let t = Instant::now();
                let out = route_cached(circuit, &dag, &mut layout, &tcache, &config);
                samples.push(t.elapsed().as_secs_f64() * 1e6);
                assert_eq!(out.len(), ops.len(), "routing must be deterministic");
            }
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let route_us = samples[samples.len() / 2];
            println!(
                "  {:<14} {:<8} {:>4} gates -> {:>4} ops  {:>10.1} us",
                name,
                topo.name(),
                circuit.len(),
                ops.len(),
                route_us
            );
            entries.push(Entry {
                circuit: name.clone(),
                topology: topo.name().to_string(),
                logical_gates: circuit.len(),
                route_us,
                ops: ops.len(),
            });
        }
    }

    // Utility-scale devices: the same 16-qubit workloads routed on a
    // 1121-unit heavy-hex member and a 1024-unit grid. The landmark
    // oracle must hold the distance footprint under 10% of the all-pairs
    // matrix while the route phase stays interactive.
    let large_topologies = vec![Topology::heavy_hex(21), Topology::grid(1024)];
    let mut large_entries = Vec::new();
    println!("\nlarge-device route timings (median of {repeats} runs):\n");
    for (name, circuit) in circuits.iter().filter(|(n, _)| !n.starts_with("qasm")) {
        let dag = CircuitDag::build(circuit);
        for topo in &large_topologies {
            let tcache = session.topology_cache(topo);
            let base_layout =
                qompress::map_circuit(circuit, topo, &config, &MappingOptions::qubit_only());
            let mut warm = base_layout.clone();
            let ops = route_cached(circuit, &dag, &mut warm, &tcache, &config);

            let mut samples = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                let mut layout = base_layout.clone();
                let t = Instant::now();
                let out = route_cached(circuit, &dag, &mut layout, &tcache, &config);
                samples.push(t.elapsed().as_secs_f64() * 1e6);
                assert_eq!(out.len(), ops.len(), "routing must be deterministic");
            }
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let route_us = samples[samples.len() / 2];

            let stats = tcache.oracle_stats();
            assert!(
                stats.landmark_oracles > 0,
                "devices this size must select landmark mode"
            );
            let n_slots = 2 * topo.n_nodes();
            let all_pairs_bytes = n_slots * n_slots * 8;
            assert!(
                stats.approx_bytes < all_pairs_bytes / 10,
                "oracle footprint {} exceeds 10% of all-pairs {} on {}",
                stats.approx_bytes,
                all_pairs_bytes,
                topo.name()
            );
            println!(
                "  {:<14} {:<16} {:>5} units -> {:>4} ops  {:>10.1} us  \
                 oracle {:>8} B ({:.2}% of all-pairs)",
                name,
                topo.name(),
                topo.n_nodes(),
                ops.len(),
                route_us,
                stats.approx_bytes,
                100.0 * stats.approx_bytes as f64 / all_pairs_bytes as f64
            );
            large_entries.push(LargeEntry {
                circuit: name.clone(),
                topology: topo.name().to_string(),
                units: topo.n_nodes(),
                route_us,
                ops: ops.len(),
                oracle_bytes: stats.approx_bytes,
                all_pairs_bytes,
            });
        }
    }

    // Cross-check: on mid-size heavy-hex devices (which the exact
    // threshold still covers) force landmark mode from the *same* mapped
    // layout and compare communication. The estimates only steer
    // lookahead, so the realized two-unit op count must stay within 5%.
    let mut landmark_config = config.clone();
    landmark_config.oracle_exact_threshold = 1;
    let landmark_session = Compiler::builder().config(landmark_config.clone()).build();
    let mut crosscheck_entries = Vec::new();
    println!("\nexact vs landmark communication cross-check:\n");
    for distance in [5usize, 7] {
        let topo = Topology::heavy_hex(distance);
        let comm = |ops: &[PhysicalOp]| {
            ops.iter()
                .filter(|op| matches!(op, PhysicalOp::TwoUnit { .. }))
                .count()
        };
        for (name, circuit) in circuits.iter().filter(|(n, _)| !n.starts_with("qasm")) {
            let dag = CircuitDag::build(circuit);
            let base_layout =
                qompress::map_circuit(circuit, &topo, &config, &MappingOptions::qubit_only());

            let exact_cache = session.topology_cache(&topo);
            let mut exact_layout = base_layout.clone();
            let exact_ops = route_cached(circuit, &dag, &mut exact_layout, &exact_cache, &config);

            let landmark_cache = landmark_session.topology_cache(&topo);
            let mut landmark_layout = base_layout.clone();
            let landmark_ops = route_cached(
                circuit,
                &dag,
                &mut landmark_layout,
                &landmark_cache,
                &landmark_config,
            );

            let (exact_comm, landmark_comm) = (comm(&exact_ops), comm(&landmark_ops));
            let delta_pct =
                100.0 * (landmark_comm as f64 - exact_comm as f64).abs() / exact_comm as f64;
            assert!(
                delta_pct <= 5.0,
                "landmark routing drifted {delta_pct:.2}% from exact on {} ({name}): \
                 {exact_comm} vs {landmark_comm} two-unit ops",
                topo.name()
            );
            println!(
                "  {:<14} {:<16} {:>5} units  exact {:>4} / landmark {:>4} two-unit ops \
                 ({delta_pct:.2}% apart)",
                name,
                topo.name(),
                topo.n_nodes(),
                exact_comm,
                landmark_comm
            );
            crosscheck_entries.push(CrosscheckEntry {
                circuit: name.clone(),
                topology: topo.name().to_string(),
                units: topo.n_nodes(),
                exact_comm,
                landmark_comm,
                delta_pct,
            });
        }
    }

    // One exhaustive round plus a full-sweep replay on the same session:
    // the replay recompiles nothing, so every candidate evaluation must be
    // served from the session's result cache.
    let ec_circuit = build(Benchmark::Cuccaro, 8, 7);
    let ec_topo = Topology::grid(8);
    let ec_opts = ExhaustiveOptions {
        ordered: true,
        max_rounds: 1,
        ..ExhaustiveOptions::default()
    };
    let t = Instant::now();
    let (first, _) = session.compile_exhaustive(&ec_circuit, &ec_topo, &ec_opts);
    let first_ms = t.elapsed().as_secs_f64() * 1e3;
    let before = session.cache_stats();
    let t = Instant::now();
    let (replay, _) = session.compile_exhaustive(&ec_circuit, &ec_topo, &ec_opts);
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    let replay_cache = session.cache_stats().since(&before);
    assert!(
        replay_cache.hits > 0,
        "replaying an exhaustive sweep on one session must hit the result cache"
    );
    assert_eq!(
        format!("{:?}", first.metrics),
        format!("{:?}", replay.metrics),
        "cache replay diverged from the fresh exhaustive sweep"
    );
    println!(
        "\nexhaustive round (cuccaro-8, grid): {first_ms:.1} ms fresh, \
         {replay_ms:.1} ms replay ({} hits / {} misses)",
        replay_cache.hits, replay_cache.misses
    );
    let session_cache = session.cache_stats();
    println!("session cache: {session_cache}");

    let path = write_json(
        &entries,
        &large_entries,
        &crosscheck_entries,
        first_ms,
        replay_ms,
        replay_cache.hits,
        repeats,
        &session_cache,
    );
    println!("\nwrote {}", path.display());
}

/// Hand-rolled JSON emission (the offline build has no serde); names are
/// `a-z0-9-` only, so no string escaping is needed.
#[allow(clippy::too_many_arguments)]
fn write_json(
    entries: &[Entry],
    large_entries: &[LargeEntry],
    crosscheck_entries: &[CrosscheckEntry],
    ec_first_ms: f64,
    ec_replay_ms: f64,
    ec_replay_hits: u64,
    repeats: usize,
    cache: &qompress::CacheStats,
) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("routing_perf.json");
    let mut file = std::fs::File::create(&path).expect("create routing_perf.json");

    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"circuit\": \"{}\", \"topology\": \"{}\", \"logical_gates\": {}, \
                 \"route_us\": {:.2}, \"ops\": {}}}",
                e.circuit, e.topology, e.logical_gates, e.route_us, e.ops
            )
        })
        .collect();
    let large_rows: Vec<String> = large_entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"circuit\": \"{}\", \"topology\": \"{}\", \"units\": {}, \
                 \"route_us\": {:.2}, \"ops\": {}, \"oracle_bytes\": {}, \
                 \"all_pairs_bytes\": {}}}",
                e.circuit,
                e.topology,
                e.units,
                e.route_us,
                e.ops,
                e.oracle_bytes,
                e.all_pairs_bytes
            )
        })
        .collect();
    let crosscheck_rows: Vec<String> = crosscheck_entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"circuit\": \"{}\", \"topology\": \"{}\", \"units\": {}, \
                 \"exact_comm\": {}, \"landmark_comm\": {}, \"delta_pct\": {:.3}}}",
                e.circuit, e.topology, e.units, e.exact_comm, e.landmark_comm, e.delta_pct
            )
        })
        .collect();
    writeln!(
        file,
        "{{\n  \"repeats\": {},\n  \"route\": [\n{}\n  ],\n  \"large_device\": [\n{}\n  ],\n  \
         \"landmark_crosscheck\": [\n{}\n  ],\n  \"exhaustive\": \
         {{\"circuit\": \"cuccaro8\", \"topology\": \"grid8\", \"fresh_ms\": {:.3}, \
         \"replay_ms\": {:.3}, \"replay_cache_hits\": {}}},\n  \"session_cache\": \
         {}\n}}",
        repeats,
        rows.join(",\n"),
        large_rows.join(",\n"),
        crosscheck_rows.join(",\n"),
        ec_first_ms,
        ec_replay_ms,
        ec_replay_hits,
        cache.to_json()
    )
    .expect("write routing_perf.json");
    path
}
