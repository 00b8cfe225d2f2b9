//! Property and integration tests for the landmark distance oracle.
//!
//! Exact mode is pinned bitwise by `routing_determinism.rs`; this file
//! covers the *landmark* mode the exact pin cannot see: the ALT
//! estimates must be admissible lower bounds on the true
//! Dijkstra distances, the hot-row exact path must agree bitwise with a
//! dedicated exact oracle, landmark-mode paths must be real walks in the
//! expanded graph, a landmark-forced end-to-end compilation must be
//! deterministic and emit only adjacency-respecting two-unit ops, and
//! forced-landmark routing must stay within 5% of exact communication.

use qompress::{
    map_circuit, route_cached, Compiler, CompilerConfig, DistanceOracle, MappingOptions,
    OracleMode, PhysicalOp, Strategy,
};
use qompress_arch::{ExpandedGraph, Topology};
use qompress_circuit::graph::WGraph;
use qompress_circuit::CircuitDag;
use qompress_service::result_fingerprint;
use qompress_workloads::{build, Benchmark};

use proptest::prelude::*;
use std::collections::HashSet;

/// Builds the unit-level weighted graph for a topology with varied but
/// deterministic positive edge weights, so the proptest exercises
/// non-uniform metrics rather than plain hop counts.
fn weighted_graph(topo: &Topology) -> WGraph {
    let mut graph = WGraph::new(topo.n_nodes());
    for &(a, b) in topo.edges() {
        let w = 0.5 + ((a * 31 + b * 17) % 13) as f64 * 0.25;
        graph.add_edge(a, b, w);
    }
    graph
}

fn topology_from_index(i: usize, n: usize) -> Topology {
    match i % 4 {
        0 => Topology::line(n),
        1 => Topology::grid(n),
        2 => Topology::ring(n.max(3)),
        _ => Topology::heavy_hex(3),
    }
}

/// Forces landmark mode regardless of device size.
fn landmark_config() -> CompilerConfig {
    let mut config = CompilerConfig::paper();
    config.oracle_exact_threshold = 1;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// max_L |d(L,a) - d(L,b)| <= d(a,b) for every pair: the landmark
    /// estimate never overestimates, and the hot-row exact entry point
    /// agrees bitwise with a dedicated exact-mode oracle.
    #[test]
    fn landmark_estimates_are_admissible_lower_bounds(
        topo_idx in 0usize..4,
        n in 4usize..30,
    ) {
        let topo = topology_from_index(topo_idx, n);
        let exact = DistanceOracle::over_graph(weighted_graph(&topo), &CompilerConfig::paper());
        let landmark = DistanceOracle::over_graph(weighted_graph(&topo), &landmark_config());
        prop_assert_eq!(exact.mode(), OracleMode::Exact);
        prop_assert_eq!(landmark.mode(), OracleMode::Landmark);

        for a in 0..topo.n_nodes() {
            for b in 0..topo.n_nodes() {
                let truth = exact.distance_idx(a, b);
                let estimate = landmark.distance_idx(a, b);
                prop_assert!(
                    estimate <= truth + 1e-9,
                    "estimate {estimate} overestimates exact {truth} for ({a}, {b}) on {}",
                    topo.name()
                );
                if a == b {
                    prop_assert_eq!(estimate, 0.0);
                }
                // The hot-row path is pure Dijkstra — bitwise identical
                // to the exact oracle, not merely within tolerance.
                prop_assert_eq!(landmark.distance_exact_idx(a, b).to_bits(), truth.to_bits());
            }
        }

        // Landmarks were sampled lazily on first estimate, and stay
        // within both the budget and the vertex set.
        let verts = landmark.landmark_vertices();
        prop_assert!(!verts.is_empty());
        prop_assert!(verts.len() <= topo.n_nodes());
        prop_assert!(verts.iter().all(|&v| v < topo.n_nodes()));
        let distinct: HashSet<usize> = verts.iter().copied().collect();
        prop_assert_eq!(distinct.len(), verts.len(), "duplicate landmarks");
    }
}

/// Landmark-mode `path()` must return a genuine walk in the expanded
/// graph: correct endpoints, every hop an edge.
#[test]
fn landmark_paths_are_real_walks() {
    let topo = Topology::heavy_hex_65();
    let expanded = ExpandedGraph::new(topo.clone());
    let oracle = DistanceOracle::bare(&expanded, &landmark_config());
    assert_eq!(oracle.mode(), OracleMode::Landmark);

    for (from_unit, to_unit) in [(0, 64), (7, 42), (13, 13), (64, 0)] {
        let from = qompress_arch::Slot::from_index(2 * from_unit);
        let to = qompress_arch::Slot::from_index(2 * to_unit);
        let path = oracle
            .path(from, to)
            .unwrap_or_else(|| panic!("no path {from} -> {to}"));
        assert_eq!(*path.first().unwrap(), from);
        assert_eq!(*path.last().unwrap(), to);
        for pair in path.windows(2) {
            assert!(
                expanded.slots_adjacent(pair[0], pair[1]),
                "path hop {} -> {} is not an edge",
                pair[0],
                pair[1]
            );
        }
    }
}

/// End-to-end: forcing landmark mode on a 65-unit heavy-hex device still
/// produces a valid, deterministic compilation — every emitted two-unit
/// op joins physically adjacent units, and two fresh sessions agree
/// byte-for-byte.
#[test]
fn landmark_mode_compilation_is_valid_and_deterministic() {
    let topo = Topology::heavy_hex_65();
    let adjacency: HashSet<(usize, usize)> = topo
        .edges()
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    let circuit = build(Benchmark::Cuccaro, 10, 7);

    let compile_once = || {
        Compiler::builder()
            .caching(false)
            .config(landmark_config())
            .build()
            .compile(&circuit, &topo, Strategy::QubitOnly)
    };
    let first = compile_once();
    let second = compile_once();
    assert_eq!(
        result_fingerprint(&first),
        result_fingerprint(&second),
        "landmark-mode compilation must be deterministic across sessions"
    );

    assert!(first.metrics.total_eps > 0.0 && first.metrics.total_eps <= 1.0);
    for sop in first.schedule.ops() {
        if let qompress::PhysicalOp::TwoUnit { a, b, .. } = sop.op {
            assert!(
                adjacency.contains(&(a.min(b), a.max(b))),
                "two-unit op joins non-adjacent units {a} and {b}"
            );
        }
    }

    // The session actually used the landmark oracle, and its footprint
    // stayed sublinear: rows for landmarks plus the hot LRU, well below
    // the all-pairs 2n x 2n matrix even on this small device.
    let session = Compiler::builder()
        .caching(false)
        .config(landmark_config())
        .build();
    let _ = session.compile(&circuit, &topo, Strategy::QubitOnly);
    let stats = session.oracle_stats();
    assert!(stats.landmark_oracles >= 1, "{stats:?}");
    assert_eq!(stats.exact_oracles, 0, "{stats:?}");
    assert!(stats.landmark_rows > 0, "{stats:?}");
    let n_slots = 2 * topo.n_nodes();
    let all_pairs_bytes = n_slots * n_slots * 8;
    assert!(
        stats.approx_bytes < all_pairs_bytes / 2,
        "oracle footprint {} not well under all-pairs {}",
        stats.approx_bytes,
        all_pairs_bytes
    );
}

/// At utility scale the landmark footprint is where the design pays off:
/// on the 1121-unit heavy-hex member and a 1024-unit grid, servicing
/// distance queries from every unit keeps the oracle under 10% of the
/// all-pairs matrix.
#[test]
fn landmark_footprint_is_under_ten_percent_at_utility_scale() {
    for (topo, units) in [
        (Topology::heavy_hex(21), 1121),
        (Topology::grid(1024), 1024),
    ] {
        assert_eq!(topo.n_nodes(), units);
        let expanded = ExpandedGraph::new(topo.clone());
        let oracle = DistanceOracle::bare(&expanded, &CompilerConfig::paper());
        assert_eq!(oracle.mode(), OracleMode::Landmark, "{}", topo.name());

        // Query a spread of pairs — estimates from every region plus a
        // few exact front-layer lookups, mirroring the router's access
        // mix.
        let n = topo.n_nodes();
        for step in [1, 97, 311] {
            for i in (0..n).step_by(7) {
                let _ = oracle.distance_idx(2 * i, 2 * ((i + step) % n));
            }
        }
        for i in 0..40 {
            let _ = oracle.distance_exact_idx(2 * i, 2 * ((i + 500) % n));
        }

        let stats = oracle.stats();
        assert!(stats.landmark_rows > 0, "{}: {stats:?}", topo.name());
        let n_slots = 2 * n;
        let all_pairs_bytes = n_slots * n_slots * 8;
        assert!(
            stats.approx_bytes < all_pairs_bytes / 10,
            "{}: oracle footprint {} not under 10% of all-pairs {}",
            topo.name(),
            stats.approx_bytes,
            all_pairs_bytes
        );
    }
}

/// Landmark estimates only steer the router's lookahead: routing one
/// mapped layout with the exact oracle and with landmark mode forced
/// must realize two-unit op counts within 5% of each other.
#[test]
fn forced_landmark_routing_stays_within_five_percent_of_exact() {
    let config = CompilerConfig::paper();
    let landmark = landmark_config();
    let exact_session = Compiler::builder().config(config.clone()).build();
    let landmark_session = Compiler::builder().config(landmark.clone()).build();
    let two_unit_ops = |ops: &[PhysicalOp]| {
        ops.iter()
            .filter(|op| matches!(op, PhysicalOp::TwoUnit { .. }))
            .count()
    };
    for distance in [5, 7] {
        let topo = Topology::heavy_hex(distance);
        for bench in [Benchmark::Cuccaro, Benchmark::Qram] {
            let circuit = build(bench, 16, 7);
            let dag = CircuitDag::build(&circuit);
            let layout = map_circuit(&circuit, &topo, &config, &MappingOptions::qubit_only());
            let route = |session: &Compiler, config: &CompilerConfig| {
                let tcache = session.topology_cache(&topo);
                two_unit_ops(&route_cached(
                    &circuit,
                    &dag,
                    &mut layout.clone(),
                    &tcache,
                    config,
                ))
            };
            let exact = route(&exact_session, &config);
            let estimated = route(&landmark_session, &landmark);
            assert!(
                exact > 0 && exact.abs_diff(estimated) * 20 <= exact,
                "{bench} on {}: exact {exact} vs landmark {estimated} two-unit ops",
                topo.name()
            );
        }
    }
}

/// On devices the exact threshold covers, the two entry points answer
/// identically — landmark machinery never engages below the threshold.
#[test]
fn exact_mode_never_builds_landmarks() {
    let topo = Topology::heavy_hex_65();
    let oracle = DistanceOracle::over_graph(weighted_graph(&topo), &CompilerConfig::paper());
    assert_eq!(oracle.mode(), OracleMode::Exact);
    for (a, b) in [(0, 64), (12, 33), (5, 5)] {
        assert_eq!(
            oracle.distance_idx(a, b).to_bits(),
            oracle.distance_exact_idx(a, b).to_bits()
        );
    }
    assert!(oracle.landmark_vertices().is_empty());
    let stats = oracle.stats();
    assert_eq!(stats.landmark_rows, 0);
    assert_eq!(stats.exact_oracles, 1);
}
