//! Property-based tests of the architecture layer: the expansion formulas
//! of §4.1 and structural invariants must hold for every topology.

use proptest::prelude::*;
use qompress_arch::{ExpandedGraph, Slot, Topology};

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (1usize..50).prop_map(Topology::grid),
        (3usize..50).prop_map(Topology::ring),
        (1usize..50).prop_map(Topology::line),
        Just(Topology::heavy_hex_65()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn expansion_counts_hold(topo in arb_topology()) {
        let v = topo.n_nodes();
        let e = topo.n_edges();
        let ex = ExpandedGraph::new(topo);
        prop_assert_eq!(ex.n_slots(), 2 * v);
        prop_assert_eq!(ex.n_edges(), 4 * e + v);
    }

    #[test]
    fn adjacency_is_symmetric(topo in arb_topology()) {
        for &(a, b) in topo.edges() {
            prop_assert!(topo.has_edge(a, b));
            prop_assert!(topo.has_edge(b, a));
            prop_assert!(topo.neighbors(a).contains(&b));
            prop_assert!(topo.neighbors(b).contains(&a));
        }
    }

    #[test]
    fn slot_adjacency_matches_unit_adjacency(topo in arb_topology()) {
        let ex = ExpandedGraph::new(topo.clone());
        for &(a, b) in topo.edges().iter().take(16) {
            prop_assert!(ex.slots_adjacent(Slot::zero(a), Slot::zero(b)));
            prop_assert!(ex.slots_adjacent(Slot::one(a), Slot::one(b)));
            prop_assert!(ex.slots_adjacent(Slot::zero(a), Slot::one(b)));
        }
        for u in 0..topo.n_nodes().min(16) {
            prop_assert!(ex.slots_adjacent(Slot::zero(u), Slot::one(u)));
        }
    }

    #[test]
    fn encoded_qubit_connectivity_formula(topo in arb_topology()) {
        // Paper §4.1: a ququart with n physical neighbors gives each
        // encoded qubit 2n + 1 connections.
        let ex = ExpandedGraph::new(topo.clone());
        for u in 0..topo.n_nodes().min(12) {
            let n = topo.neighbors(u).len();
            prop_assert_eq!(ex.neighbors(Slot::zero(u)).count(), 2 * n + 1);
            prop_assert_eq!(ex.neighbors(Slot::one(u)).count(), 2 * n + 1);
        }
    }

    #[test]
    fn center_is_reachable_from_everywhere(topo in arb_topology()) {
        let center = topo.center();
        let d = topo.to_ugraph().bfs_distances(center);
        // Grids/rings/lines/heavy-hex are all connected.
        prop_assert!(d.iter().all(|&x| x != usize::MAX));
    }

    #[test]
    fn grid_is_near_square(n in 1usize..60) {
        let g = Topology::grid(n);
        prop_assert!(g.n_nodes() >= n);
        let cols = (n as f64).sqrt().ceil() as usize;
        prop_assert!(g.n_nodes() < n + cols);
    }

    #[test]
    fn adjacency_sets_agree_with_edge_list(topo in arb_topology()) {
        // `has_edge` answers from the sorted CSR adjacency; it must agree
        // with a literal scan of the normalized edge list for every node
        // pair (including non-edges and out-of-range probes).
        let n = topo.n_nodes();
        let edge_scan = |a: usize, b: usize| {
            topo.edges().contains(&(a.min(b), a.max(b)))
        };
        for a in 0..n.min(24) {
            for b in 0..n.min(24) {
                prop_assert_eq!(topo.has_edge(a, b), edge_scan(a, b), "pair ({}, {})", a, b);
            }
        }
        // Degree bookkeeping: neighbor lists sum to twice the edge count.
        let degree_sum: usize = (0..n).map(|v| topo.neighbors(v).len()).sum();
        prop_assert_eq!(degree_sum, 2 * topo.n_edges());
        // Out-of-range probes are never coupled.
        prop_assert!(!topo.has_edge(n, 0));
        prop_assert!(!topo.has_edge(0, n));
    }

    #[test]
    fn from_edges_is_idempotent_under_duplication(topo in arb_topology()) {
        // Feeding every edge again (in both orientations) must not change
        // the resulting topology.
        let mut doubled = topo.edges().to_vec();
        doubled.extend(topo.edges().iter().map(|&(a, b)| (b, a)));
        let rebuilt = Topology::from_edges(topo.name(), topo.n_nodes(), doubled);
        prop_assert_eq!(rebuilt.edges(), topo.edges());
        prop_assert_eq!(rebuilt.n_nodes(), topo.n_nodes());
    }
}
