//! Differential pin of the optimized router against a naive reference.
//!
//! The router's blocked-step loop is incremental (cursor-based lookahead,
//! scratch buffers, perturbation-only scoring, memoized fallback paths).
//! All of that is *mechanical* speedup: the op sequence must be
//! byte-identical to the straightforward formulation this file retains —
//! a from-scratch reimplementation of the pre-optimization router that
//! rescans the circuit for its lookahead, allocates fresh vectors per
//! step, dedups candidates with `Vec::contains`, rescores every pair for
//! every candidate, and runs a fresh Dijkstra per fallback hop.
//!
//! Any heuristic drift — a changed tie-break, a skipped term, a reordered
//! candidate — shows up here as a diverging `Vec<PhysicalOp>`.

use qompress::{
    gate_cost, map_circuit, route_cached, swap_class, Compiler, CompilerConfig, Layout,
    MappingOptions, PhysicalOp, TopologyCache,
};
use qompress_arch::{ExpandedGraph, Slot, SlotIndex, Topology};
use qompress_circuit::{graph::WGraph, Circuit, CircuitDag, Gate};
use qompress_workloads::{build, random_circuit, Benchmark};

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Naive reference implementation (the seed router, verbatim semantics).
// ---------------------------------------------------------------------------

/// Reference distance oracle: the same Eq. (4) edge weights as the real
/// [`qompress::DistanceOracle`], built independently on the public
/// [`WGraph`], with a plain per-source row memo (values are identical with
/// or without the memo — Dijkstra is deterministic — it only keeps the
/// reference suite fast enough to run).
struct NaiveOracle {
    graph: WGraph,
    rows: RefCell<HashMap<usize, Vec<f64>>>,
}

impl NaiveOracle {
    fn new(expanded: &ExpandedGraph, layout: &Layout, config: &CompilerConfig) -> Self {
        let usable = |x: Slot| x.slot == SlotIndex::Zero || layout.is_encoded(x.node);
        let mut graph = WGraph::new(expanded.n_slots());
        for s in expanded.slots() {
            for t in expanded.neighbors(s) {
                if t.index() <= s.index() || !usable(s) || !usable(t) {
                    continue;
                }
                let (class, ua, ub) = swap_class(layout, s, t);
                let ub = if ua == ub { None } else { Some(ub) };
                let cost = gate_cost(config, layout, class, ua, ub);
                graph.add_edge(s.index(), t.index(), cost.max(0.0));
            }
        }
        NaiveOracle {
            graph,
            rows: RefCell::new(HashMap::new()),
        }
    }

    fn distance(&self, from: Slot, to: Slot) -> f64 {
        let mut rows = self.rows.borrow_mut();
        rows.entry(from.index())
            .or_insert_with(|| self.graph.dijkstra(from.index()))[to.index()]
    }

    fn path(&self, from: Slot, to: Slot) -> Option<Vec<Slot>> {
        // Fresh Dijkstra per call, exactly like the pre-optimization
        // oracle.
        let (_, prev) = self.graph.dijkstra_with_prev(from.index());
        WGraph::path_from_prev(&prev, from.index(), to.index())
            .map(|p| p.into_iter().map(Slot::from_index).collect())
    }
}

/// The seed router: full circuit rescans, fresh allocations per step,
/// quadratic candidate dedup.
struct ReferenceRouter<'a> {
    circuit: &'a Circuit,
    dag: &'a CircuitDag,
    layout: &'a mut Layout,
    expanded: &'a ExpandedGraph,
    config: &'a CompilerConfig,
    oracle: NaiveOracle,
    done: Vec<bool>,
    remaining_preds: Vec<usize>,
    ready: Vec<usize>,
    ops: Vec<PhysicalOp>,
    last_move: Option<(Slot, Slot)>,
    steps_since_progress: usize,
}

impl<'a> ReferenceRouter<'a> {
    fn new(
        circuit: &'a Circuit,
        dag: &'a CircuitDag,
        layout: &'a mut Layout,
        expanded: &'a ExpandedGraph,
        config: &'a CompilerConfig,
    ) -> Self {
        let oracle = NaiveOracle::new(expanded, layout, config);
        let n = circuit.len();
        let mut remaining_preds = vec![0usize; n];
        for idx in 0..n {
            remaining_preds[idx] = dag.preds(idx).len();
        }
        let ready = (0..n).filter(|&i| remaining_preds[i] == 0).collect();
        ReferenceRouter {
            circuit,
            dag,
            layout,
            expanded,
            config,
            oracle,
            done: vec![false; n],
            remaining_preds,
            ready,
            ops: Vec::new(),
            last_move: None,
            steps_since_progress: 0,
        }
    }

    fn run(mut self) -> Vec<PhysicalOp> {
        let total = self.circuit.len();
        let mut emitted = 0;
        while emitted < total {
            if let Some(gate_idx) = self.pick_executable() {
                self.emit_gate(gate_idx);
                self.finish_gate(gate_idx);
                emitted += 1;
                self.steps_since_progress = 0;
                continue;
            }
            if self.steps_since_progress >= self.config.max_router_steps_per_gate {
                let g = *self.ready.first().expect("blocked implies a ready gate");
                self.force_route(g);
                self.emit_gate(g);
                self.finish_gate(g);
                emitted += 1;
                self.steps_since_progress = 0;
                continue;
            }
            match self.best_move() {
                Some(mv) => {
                    self.apply_move(mv);
                    self.steps_since_progress += 1;
                }
                None => {
                    let g = *self.ready.first().expect("ready gate exists");
                    self.force_route(g);
                    self.emit_gate(g);
                    self.finish_gate(g);
                    emitted += 1;
                    self.steps_since_progress = 0;
                }
            }
        }
        self.ops
    }

    fn slot_of(&self, qubit: usize) -> Slot {
        self.layout.slot_of(qubit).expect("qubit placed")
    }

    fn gate_executable(&self, idx: usize) -> bool {
        match self.circuit.gates()[idx] {
            Gate::Single { .. } => true,
            Gate::Cx { control, target } => self
                .expanded
                .slots_adjacent(self.slot_of(control), self.slot_of(target)),
            Gate::Swap { .. } => true,
        }
    }

    fn pick_executable(&self) -> Option<usize> {
        self.ready
            .iter()
            .copied()
            .filter(|&g| self.gate_executable(g))
            .max_by(|&a, &b| {
                self.dag
                    .remaining_path_len(a)
                    .cmp(&self.dag.remaining_path_len(b))
                    .then(b.cmp(&a))
            })
    }

    fn finish_gate(&mut self, idx: usize) {
        self.done[idx] = true;
        self.ready.retain(|&g| g != idx);
        for &s in self.dag.succs(idx) {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                self.ready.push(s);
            }
        }
        self.ready.sort_unstable();
    }

    fn emit_gate(&mut self, idx: usize) {
        let gate = self.circuit.gates()[idx];
        match gate {
            Gate::Single { kind, qubit } => {
                let slot = self.slot_of(qubit);
                let class = if !self.layout.is_encoded(slot.node) {
                    qompress_pulse::GateClass::X
                } else if slot.slot == SlotIndex::Zero {
                    qompress_pulse::GateClass::X0
                } else {
                    qompress_pulse::GateClass::X1
                };
                self.ops.push(PhysicalOp::Single {
                    unit: slot.node,
                    kind,
                    class,
                });
            }
            Gate::Cx { control, target } => {
                let cs = self.slot_of(control);
                let ts = self.slot_of(target);
                let (class, a, b) = qompress::cx_class(self.layout, cs, ts);
                let op = if a == b {
                    PhysicalOp::Internal { unit: a, class }
                } else {
                    PhysicalOp::TwoUnit { a, b, class }
                };
                self.ops.push(op);
            }
            Gate::Swap { a: qa, b: qb } => {
                let sa = self.slot_of(qa);
                let sb = self.slot_of(qb);
                self.layout.swap_occupants(sa, sb);
            }
        }
    }

    fn front(&self) -> Vec<(Slot, Slot)> {
        self.ready
            .iter()
            .filter_map(|&g| self.circuit.gates()[g].qubit_pair())
            .map(|(a, b)| (self.slot_of(a), self.slot_of(b)))
            .filter(|&(sa, sb)| !self.expanded.slots_adjacent(sa, sb))
            .collect()
    }

    /// The quadratic rescan the optimized router replaces: walk the whole
    /// circuit from gate 0, skipping done/ready gates by linear probe.
    fn lookahead(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for idx in 0..self.circuit.len() {
            if self.done[idx] || self.ready.contains(&idx) {
                continue;
            }
            if let Some(pair) = self.circuit.gates()[idx].qubit_pair() {
                out.push(pair);
                if out.len() >= self.config.lookahead {
                    break;
                }
            }
        }
        out
    }

    fn slot_usable(&self, s: Slot) -> bool {
        s.slot == SlotIndex::Zero || self.layout.is_encoded(s.node)
    }

    fn candidate_moves(&self, front: &[(Slot, Slot)]) -> Vec<(Slot, Slot)> {
        let mut moves = Vec::new();
        let mut push = |s: Slot, t: Slot| {
            let mv = if s.index() <= t.index() {
                (s, t)
            } else {
                (t, s)
            };
            if !moves.contains(&mv) {
                moves.push(mv);
            }
        };
        for &(sa, sb) in front {
            for s in [sa, sb] {
                for t in self.expanded.neighbors(s) {
                    if !self.slot_usable(t) {
                        continue;
                    }
                    push(s, t);
                }
            }
        }
        moves
    }

    /// Full rescore of every front + lookahead pair for every candidate.
    fn score_move(
        &self,
        mv: (Slot, Slot),
        front: &[(Slot, Slot)],
        lookahead: &[(usize, usize)],
    ) -> f64 {
        let (s, t) = mv;
        let relocate = |x: Slot| {
            if x == s {
                t
            } else if x == t {
                s
            } else {
                x
            }
        };
        let mut delta = 0.0;
        for &(a, b) in front {
            let before = self.oracle.distance(a, b);
            let after = self.oracle.distance(relocate(a), relocate(b));
            delta += after - before;
        }
        let mut decay = self.config.lookahead_decay;
        for &(qa, qb) in lookahead {
            let a = self.slot_of(qa);
            let b = self.slot_of(qb);
            let before = self.oracle.distance(a, b);
            let after = self.oracle.distance(relocate(a), relocate(b));
            delta += decay * (after - before);
            decay *= self.config.lookahead_decay;
        }
        let front_slots: Vec<Slot> = front.iter().flat_map(|&(a, b)| [a, b]).collect();
        for x in [s, t] {
            if self.layout.is_encoded(x.node) && !front_slots.contains(&x) {
                delta += self.config.ququart_route_penalty;
            }
        }
        if let Some((ls, lt)) = self.last_move {
            if (ls, lt) == (s, t) || (lt, ls) == (s, t) {
                delta += 1.0e6;
            }
        }
        delta
    }

    fn best_move(&mut self) -> Option<(Slot, Slot)> {
        let front = self.front();
        if front.is_empty() {
            return None;
        }
        let lookahead = self.lookahead();
        let moves = self.candidate_moves(&front);
        let mut best: Option<((Slot, Slot), f64)> = None;
        for mv in moves {
            let score = self.score_move(mv, &front, &lookahead);
            if !score.is_finite() {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bmv, bscore)) => {
                    score < *bscore - 1e-12
                        || ((score - *bscore).abs() <= 1e-12
                            && (mv.0.index(), mv.1.index()) < (bmv.0.index(), bmv.1.index()))
                }
            };
            if better {
                best = Some((mv, score));
            }
        }
        best.map(|(mv, _)| mv)
    }

    fn apply_move(&mut self, (s, t): (Slot, Slot)) {
        let (class, a, b) = swap_class(self.layout, s, t);
        let op = if a == b {
            PhysicalOp::Internal { unit: a, class }
        } else {
            PhysicalOp::TwoUnit { a, b, class }
        };
        self.layout.apply_op(&op);
        self.ops.push(op);
        self.last_move = Some((s, t));
    }

    fn force_route(&mut self, gate: usize) {
        let (qa, qb) = self.circuit.gates()[gate]
            .qubit_pair()
            .expect("force_route only for two-qubit gates");
        let mut guard = 0;
        while !self
            .expanded
            .slots_adjacent(self.slot_of(qa), self.slot_of(qb))
        {
            let sa = self.slot_of(qa);
            let sb = self.slot_of(qb);
            let path = self
                .oracle
                .path(sa, sb)
                .unwrap_or_else(|| panic!("no path between {sa} and {sb}"));
            let next = path[1];
            self.apply_move((sa, next));
            guard += 1;
            assert!(guard <= self.expanded.n_slots() * 2, "no convergence");
        }
        self.last_move = None;
    }
}

// ---------------------------------------------------------------------------
// Differential harness.
// ---------------------------------------------------------------------------

/// Maps `circuit` under `options`, routes it with both routers from
/// identical layouts, and asserts byte-identical op streams and final
/// layouts. The optimized side runs on a fresh [`TopologyCache`], the
/// path the pipeline itself takes.
fn assert_routers_agree(circuit: &Circuit, topo: &Topology, options: &MappingOptions, label: &str) {
    let config = CompilerConfig::paper();
    let dag = CircuitDag::build(circuit);
    let expanded = ExpandedGraph::new(topo.clone());
    let base = map_circuit(circuit, topo, &config, options);

    let mut opt_layout = base.clone();
    let cache = TopologyCache::new(topo.clone(), &config);
    let optimized = route_cached(circuit, &dag, &mut opt_layout, &cache, &config);
    // Routing again on the now-warm cache (its distance rows filled)
    // must not change a thing.
    let mut warm_layout = base.clone();
    let warm = route_cached(circuit, &dag, &mut warm_layout, &cache, &config);
    assert_eq!(warm, optimized, "warm-cache route diverged ({label})");

    let mut ref_layout = base.clone();
    let reference = ReferenceRouter::new(circuit, &dag, &mut ref_layout, &expanded, &config).run();

    assert_eq!(
        optimized, reference,
        "op stream diverged from the naive reference ({label})"
    );
    assert_eq!(
        opt_layout, ref_layout,
        "final layout diverged from the naive reference ({label})"
    );
}

fn topology_from_index(i: usize, n: usize) -> Topology {
    match i % 4 {
        0 => Topology::line(n),
        1 => Topology::grid(n),
        2 => Topology::ring(n.max(3)),
        // Smallest heavy-hex member (23 units) — the device family the
        // landmark oracle targets must stay byte-identical in exact mode.
        _ => Topology::heavy_hex(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn optimized_router_is_byte_identical_on_random_circuits(
        n in 3usize..7,
        gates in 6usize..26,
        seed in 0u64..1000,
        topo_idx in 0usize..4,
        opts_idx in 0usize..3,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let topo = topology_from_index(topo_idx, n);
        let options = match opts_idx {
            0 => MappingOptions::qubit_only(),
            1 => MappingOptions::eqm(),
            // A concrete compression: pair the first two qubits.
            _ => MappingOptions::with_pairs(vec![(0, 1)]),
        };
        assert_routers_agree(
            &circuit,
            &topo,
            &options,
            &format!("random n={n} gates={gates} seed={seed} topo={topo_idx} opts={opts_idx}"),
        );
    }
}

/// Every strategy's *realized* pair set (including spontaneous EQM
/// pairings and the exhaustive search's committed compressions) produces
/// an encoded layout; the optimized router must agree with the reference
/// on all of them.
#[test]
fn routers_agree_on_every_strategy_pair_set() {
    let session = Compiler::builder().caching(false).build();
    let circuit = {
        let mut c = Circuit::new(6);
        c.push(Gate::h(0));
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (0, 5)] {
            c.push(Gate::cx(a, b));
        }
        for (a, b) in [(5, 1), (3, 0), (2, 4)] {
            c.push(Gate::cx(a, b));
        }
        c
    };
    for topo in [
        Topology::line(6),
        Topology::grid(6),
        Topology::ring(6),
        Topology::heavy_hex(3),
    ] {
        for strategy in qompress::ALL_STRATEGIES {
            let pairs = session.compile(&circuit, &topo, strategy).pairs.clone();
            assert_routers_agree(
                &circuit,
                &topo,
                &MappingOptions::with_pairs(pairs.clone()),
                &format!("{strategy} pairs={pairs:?} on {}", topo.name()),
            );
        }
    }
}

/// A communication-heavy 100+-gate workload per topology family — the
/// shape the incremental lookahead targets.
#[test]
fn routers_agree_on_benchmark_circuits() {
    for (name, circuit) in [
        ("cuccaro10", build(Benchmark::Cuccaro, 10, 7)),
        ("qram8", build(Benchmark::Qram, 8, 7)),
        ("random12x60", random_circuit(12, 60, 41)),
    ] {
        assert!(circuit.len() >= 40, "{name} too small to stress the loop");
        for topo in [
            Topology::line(circuit.n_qubits()),
            Topology::grid(circuit.n_qubits()),
            Topology::ring(circuit.n_qubits()),
            Topology::heavy_hex_65(),
        ] {
            for options in [
                MappingOptions::qubit_only(),
                MappingOptions::eqm(),
                MappingOptions::with_pairs(vec![(0, 1), (2, 3)]),
            ] {
                assert_routers_agree(
                    &circuit,
                    &topo,
                    &options,
                    &format!("{name} on {}", topo.name()),
                );
            }
        }
    }
}
