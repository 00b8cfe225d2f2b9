//! Full Ququart pairing with encode/decode (FQ) — the prior-work baseline
//! of §6.2.
//!
//! Every qubit pair is compressed, but without partial operations any
//! interaction leaving a ququart must decode both operands, run the plain
//! two-qubit gate, and re-encode. Each pair unit keeps a statically
//! reserved adjacent ancilla to decode into; decoded qubits travel only
//! through bare/empty units (pairs never move), and return home before
//! re-encoding. This reconstruction keeps every emitted operation on
//! coupled units, at the cost structure the paper attributes to FQ: extra
//! space, ENC/DEC on every external interaction, and expensive routing.

use crate::config::CompilerConfig;
use crate::layout::Layout;
use crate::metrics::Metrics;
use crate::physical::PhysicalOp;
use crate::pipeline::CompilationResult;
use crate::scheduling::{schedule_ops, CoherenceTrace};
use qompress_arch::{Slot, SlotIndex, Topology};
use qompress_circuit::{Circuit, Gate, InteractionGraph};
use qompress_pulse::GateClass;
use std::collections::VecDeque;

/// Compiles with the FQ baseline.
///
/// # Panics
///
/// Panics when the architecture cannot host every pair with a reserved
/// adjacent ancilla (FQ fundamentally needs the extra space, §6.2).
pub fn compile_full_ququart(
    circuit: &Circuit,
    topo: &Topology,
    config: &CompilerConfig,
) -> CompilationResult {
    let n = circuit.n_qubits();
    let pairs = greedy_matching(circuit);
    let mut fq = FqState::new(circuit, topo, &pairs);
    fq.map_entities(config);
    let initial_placements = fq.layout.placements();

    for gate in circuit.iter() {
        fq.emit_gate(gate);
    }

    let schedule = schedule_ops(fq.ops, topo.n_nodes(), &config.library);
    // Worst-case coherence accounting: paired qubits live at ququart T1
    // for the whole circuit, leftovers at qubit T1 (§6.1.1).
    let total = schedule.total_duration_ns();
    let mut qubit_ns = vec![0.0; n];
    let mut ququart_ns = vec![0.0; n];
    let mut in_pair = vec![false; n];
    for &(a, b) in &pairs {
        in_pair[a] = true;
        in_pair[b] = true;
    }
    for q in 0..n {
        if in_pair[q] {
            ququart_ns[q] = total;
        } else {
            qubit_ns[q] = total;
        }
    }
    let trace = CoherenceTrace {
        qubit_ns,
        ququart_ns,
    };
    let metrics = Metrics::compute(&schedule, &trace, config);

    // Final flags for state extraction: a unit is encoded iff its slot 1 is
    // occupied at the end (pairs are always re-encoded between gates).
    let final_placements = fq.layout.placements();
    let mut encoded_units = vec![false; topo.n_nodes()];
    for &(u, s) in &final_placements {
        if s == 1 {
            encoded_units[u] = true;
        }
    }

    CompilationResult {
        strategy: String::new(),
        schedule,
        metrics,
        initial_placements,
        final_placements,
        encoded_units,
        pairs,
        logical_gates: circuit.len(),
        trace,
    }
}

/// Greedy maximum-weight matching over the interaction graph; leftover
/// qubits (odd count or isolated) stay bare.
fn greedy_matching(circuit: &Circuit) -> Vec<(usize, usize)> {
    let ig = InteractionGraph::build(circuit);
    let n = circuit.n_qubits();
    let mut edges: Vec<((usize, usize), f64)> = ig.weighted_edges().collect();
    edges.sort_by(|(ka, wa), (kb, wb)| wb.partial_cmp(wa).unwrap().then_with(|| ka.cmp(kb)));
    let mut taken = vec![false; n];
    let mut pairs = Vec::new();
    for ((a, b), _) in edges {
        if !taken[a] && !taken[b] {
            taken[a] = true;
            taken[b] = true;
            pairs.push((a, b));
        }
    }
    // Pair remaining qubits among themselves (full pairing is FQ's point).
    let rest: Vec<usize> = (0..n).filter(|&q| !taken[q]).collect();
    for chunk in rest.chunks(2) {
        if let [a, b] = *chunk {
            pairs.push((a, b));
        }
    }
    pairs
}

struct FqState<'a> {
    topo: &'a Topology,
    circuit: &'a Circuit,
    layout: Layout,
    /// Home unit of each pair, by pair index.
    pair_home: Vec<usize>,
    /// Reserved ancilla unit of each pair.
    pair_ancilla: Vec<usize>,
    /// Pair index of each qubit (or None for leftovers).
    pair_of: Vec<Option<usize>>,
    /// Reserved decode ancilla of each pair-home unit.
    ancilla_of_unit: Vec<Option<usize>>,
    pairs: Vec<(usize, usize)>,
    ops: Vec<PhysicalOp>,
}

impl<'a> FqState<'a> {
    fn new(circuit: &'a Circuit, topo: &'a Topology, pairs: &[(usize, usize)]) -> Self {
        let n = circuit.n_qubits();
        let mut layout = Layout::new(n, topo.n_nodes());
        // FQ treats every unit as a potential ququart.
        for u in 0..topo.n_nodes() {
            layout.set_encoded(u);
        }
        let mut pair_of = vec![None; n];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            pair_of[a] = Some(i);
            pair_of[b] = Some(i);
        }
        FqState {
            topo,
            circuit,
            layout,
            pair_home: Vec::new(),
            pair_ancilla: Vec::new(),
            pair_of,
            ancilla_of_unit: vec![None; topo.n_nodes()],
            pairs: pairs.to_vec(),
            ops: Vec::new(),
        }
    }

    /// Places pairs (with reserved adjacent ancillas) and leftovers.
    fn map_entities(&mut self, _config: &CompilerConfig) {
        let ig = InteractionGraph::build(self.circuit);
        let n_units = self.topo.n_nodes();
        let mut free = vec![true; n_units];
        let ug = self.topo.to_ugraph();
        let center = self.topo.center();
        let center_dist = ug.bfs_distances(center);

        // Order pairs by combined weight, heaviest first.
        let mut order: Vec<usize> = (0..self.pairs.len()).collect();
        let weight = |i: usize| {
            let (a, b) = self.pairs[i];
            ig.total_weight(a) + ig.total_weight(b)
        };
        order.sort_by(|&x, &y| weight(y).partial_cmp(&weight(x)).unwrap().then(x.cmp(&y)));

        // Tile the architecture with disjoint (home, ancilla) dominos using
        // the minimum-free-degree heuristic: always match the most
        // constrained unit first, which avoids stranding corners on grids.
        let mut dominos: Vec<(usize, usize)> = Vec::with_capacity(self.pairs.len());
        {
            let free_degree = |u: usize, free: &[bool]| {
                self.topo.neighbors(u).iter().filter(|&&v| free[v]).count()
            };
            while dominos.len() < self.pairs.len() {
                let u = (0..n_units)
                    .filter(|&u| free[u] && free_degree(u, &free) >= 1)
                    .min_by_key(|&u| (free_degree(u, &free), center_dist[u], u))
                    .unwrap_or_else(|| {
                        panic!(
                            "FQ needs {} home+ancilla dominos but the \
                             architecture ran out of adjacent free units",
                            self.pairs.len()
                        )
                    });
                free[u] = false;
                let v = self
                    .topo
                    .neighbors(u)
                    .into_iter()
                    .filter(|&v| free[v])
                    .min_by_key(|&v| (free_degree(v, &free), center_dist[v], v))
                    .expect("u had a free neighbor");
                free[v] = false;
                // Home = the end closer to the center.
                if center_dist[u] <= center_dist[v] {
                    dominos.push((u, v));
                } else {
                    dominos.push((v, u));
                }
            }
            dominos.sort_by_key(|&(h, _)| (center_dist[h], h));
        }

        self.pair_home = vec![usize::MAX; self.pairs.len()];
        self.pair_ancilla = vec![usize::MAX; self.pairs.len()];
        for (&pi, &(home, ancilla)) in order.iter().zip(dominos.iter()) {
            self.pair_home[pi] = home;
            self.pair_ancilla[pi] = ancilla;
            self.ancilla_of_unit[home] = Some(ancilla);
            let (a, b) = self.pairs[pi];
            self.layout.place(a, Slot::zero(home));
            self.layout.place(b, Slot::one(home));
        }
        // Leftover bare qubits on any free unit, closest to center first.
        for q in 0..self.circuit.n_qubits() {
            if self.pair_of[q].is_none() {
                let u = (0..n_units)
                    .filter(|&u| free[u])
                    .min_by_key(|&u| (center_dist[u], u))
                    .expect("free unit for leftover qubit");
                free[u] = false;
                self.layout.place(q, Slot::zero(u));
            }
        }
    }

    fn push(&mut self, op: PhysicalOp) {
        self.layout.apply_op(&op);
        self.ops.push(op);
    }

    fn slot_of(&self, q: usize) -> Slot {
        self.layout.slot_of(q).expect("placed")
    }

    /// Is this unit currently hosting a (fully encoded) pair?
    fn unit_is_pair(&self, u: usize) -> bool {
        self.layout.occupancy(u) == (true, true)
    }

    fn emit_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::Single { kind, qubit } => {
                let s = self.slot_of(qubit);
                let class = if self.unit_is_pair(s.node) {
                    if s.slot == SlotIndex::Zero {
                        GateClass::X0
                    } else {
                        GateClass::X1
                    }
                } else {
                    GateClass::X
                };
                self.push(PhysicalOp::Single {
                    unit: s.node,
                    kind,
                    class,
                });
            }
            Gate::Cx { control, target } => self.two_qubit(control, target),
            Gate::Swap { a, b } => {
                // Logical SWAP = free relabeling (see routing.rs).
                let sa = self.slot_of(a);
                let sb = self.slot_of(b);
                self.layout.swap_occupants(sa, sb);
            }
        }
    }

    fn two_qubit(&mut self, x: usize, y: usize) {
        let sx = self.slot_of(x);
        let sy = self.slot_of(y);
        if sx.node == sy.node {
            // Internal ququart CX.
            let class = if sx.slot == SlotIndex::Zero {
                GateClass::Cx0
            } else {
                GateClass::Cx1
            };
            self.push(PhysicalOp::Internal {
                unit: sx.node,
                class,
            });
            return;
        }
        // External: decode any paired operand, route, interact, undo.
        let decoded_x = self.decode_if_paired(x);
        let decoded_y = self.decode_if_paired(y);

        let moves = self.route_bare(x, y);
        let ux = self.slot_of(x).node;
        let uy = self.slot_of(y).node;
        debug_assert!(self.topo.has_edge(ux, uy), "routing failed adjacency");
        self.push(PhysicalOp::TwoUnit {
            a: ux,
            b: uy,
            class: GateClass::Cx2,
        });

        // Return home (reverse moves with the same classes — each reverse
        // hop encounters exactly the configuration its forward hop left).
        for (a, b, class) in moves.into_iter().rev() {
            self.push(PhysicalOp::TwoUnit { a, b, class });
        }
        if let Some((home, anc)) = decoded_y {
            self.encode_pair(home, anc);
        }
        if let Some((home, anc)) = decoded_x {
            self.encode_pair(home, anc);
        }
    }

    /// Decodes the ququart currently hosting `q` into its home unit's
    /// reserved ancilla (pair homes never move; logical relabels may change
    /// *which* qubits a unit holds). Returns the `(home, ancilla)` units
    /// when a decode happened.
    fn decode_if_paired(&mut self, q: usize) -> Option<(usize, usize)> {
        let home = self.slot_of(q).node;
        if !self.unit_is_pair(home) {
            return None;
        }
        let anc = self.ancilla_of_unit[home].expect("every pair-home unit has a reserved ancilla");
        self.push(PhysicalOp::TwoUnit {
            a: home,
            b: anc,
            class: GateClass::Dec,
        });
        Some((home, anc))
    }

    /// Re-encodes a pair from its home/ancilla units.
    fn encode_pair(&mut self, home: usize, anc: usize) {
        self.push(PhysicalOp::TwoUnit {
            a: home,
            b: anc,
            class: GateClass::Enc,
        });
    }

    /// Moves qubit `x` across units until adjacent to `y`, using `SWAP2`
    /// past bare/empty units and full `SWAP4` past ququart pairs (FQ's only
    /// communication primitives, §6.2). Pairs displaced along the way are
    /// restored by the recorded return trip. Returns the executed moves.
    fn route_bare(&mut self, x: usize, y: usize) -> Vec<(usize, usize, GateClass)> {
        let target_unit = self.slot_of(y).node;
        let start = self.slot_of(x).node;
        if self.topo.has_edge(start, target_unit) {
            return Vec::new();
        }
        // BFS over every unit except y's own.
        let n = self.topo.n_nodes();
        let mut prev = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        let mut goal = None;
        'bfs: while let Some(u) = queue.pop_front() {
            if self.topo.has_edge(u, target_unit) && u != start {
                goal = Some(u);
                break 'bfs;
            }
            for v in self.topo.neighbors(u) {
                if !seen[v] && v != target_unit {
                    seen[v] = true;
                    prev[v] = u;
                    queue.push_back(v);
                }
            }
        }
        let goal = goal.unwrap_or_else(|| {
            panic!("FQ routing: no path from unit {start} to a neighbor of {target_unit}")
        });
        let mut path = vec![goal];
        let mut cur = goal;
        while cur != start {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        let mut moves = Vec::new();
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Passing a ququart needs the full four-level exchange.
            let class = if self.unit_is_pair(a) || self.unit_is_pair(b) {
                GateClass::Swap4
            } else {
                GateClass::Swap2
            };
            self.push(PhysicalOp::TwoUnit { a, b, class });
            moves.push((a, b, class));
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingOptions;
    use crate::session::Compiler;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(6);
        c.push(Gate::h(0));
        for (a, b) in [(0, 1), (2, 3), (4, 5), (0, 2), (1, 4), (3, 5)] {
            c.push(Gate::cx(a, b));
        }
        c
    }

    #[test]
    fn matching_covers_even_circuits() {
        let c = sample_circuit();
        let pairs = greedy_matching(&c);
        assert_eq!(pairs.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in pairs {
            assert!(seen.insert(a));
            assert!(seen.insert(b));
        }
    }

    #[test]
    fn fq_compiles_and_validates() {
        let c = sample_circuit();
        let topo = Topology::grid(6);
        let r = compile_full_ququart(&c, &topo, &CompilerConfig::paper());
        let problems = r.schedule.validate(&topo);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(r.pairs.len(), 3);
        // Every external interaction decodes and re-encodes.
        assert!(r.metrics.count(GateClass::Enc) >= 1);
        assert!(r.metrics.count(GateClass::Dec) >= 1);
        assert_eq!(
            r.metrics.count(GateClass::Enc),
            r.metrics.count(GateClass::Dec)
        );
    }

    #[test]
    fn fq_is_worse_than_qubit_only() {
        // The paper's consistent finding (Figure 7): FQ loses to qubit-only.
        let c = sample_circuit();
        let topo = Topology::grid(6);
        let fq = compile_full_ququart(&c, &topo, &CompilerConfig::paper());
        let qo = Compiler::builder()
            .caching(false)
            .build()
            .compile_with_options(&c, &topo, &MappingOptions::qubit_only());
        assert!(fq.metrics.gate_eps < qo.metrics.gate_eps);
        assert!(fq.metrics.total_eps < qo.metrics.total_eps);
    }

    #[test]
    fn internal_gates_stay_cheap() {
        // A circuit where the matched pair interacts internally only.
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.push(Gate::cx(0, 1));
        }
        let topo = Topology::grid(4);
        let r = compile_full_ququart(&c, &topo, &CompilerConfig::paper());
        assert_eq!(r.metrics.count(GateClass::Cx0), 4);
        assert_eq!(r.metrics.count(GateClass::Enc), 0);
        assert_eq!(r.metrics.count(GateClass::Dec), 0);
    }

    #[test]
    fn paired_qubits_spend_lifetime_at_ququart_t1() {
        let c = sample_circuit();
        let topo = Topology::grid(6);
        let r = compile_full_ququart(&c, &topo, &CompilerConfig::paper());
        let d = r.metrics.duration_ns;
        for q in 0..6 {
            assert!((r.trace.ququart_ns[q] - d).abs() < 1e-9);
        }
    }

    #[test]
    fn fq_on_ring_topology() {
        let c = sample_circuit();
        let topo = Topology::ring(12);
        let r = compile_full_ququart(&c, &topo, &CompilerConfig::paper());
        assert!(r.schedule.validate(&topo).is_empty());
    }
}
