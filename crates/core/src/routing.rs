//! SABRE-style routing over the expanded slot graph with the partial-SWAP
//! move set (paper §4.2).
//!
//! The router processes the dependency DAG front; executable gates (single-
//! qubit, or two-qubit with adjacent operands) are emitted immediately,
//! preferring the gate on the longest remaining dependency chain. When the
//! front is blocked it scores candidate swaps — including internal
//! `SWAPin` hops and partial bare/encoded exchanges — by the change in
//! Eq. (4) path cost over the front plus a decayed lookahead window, with a
//! penalty for disturbing encoded ququarts. Encodings are never created or
//! destroyed. A progress guard falls back to deterministic shortest-path
//! routing, guaranteeing termination.
//!
//! # Hot-loop design
//!
//! The blocked-step loop is incremental and allocation-free in steady
//! state, while producing **byte-identical** op sequences to the
//! straightforward formulation (pinned by `tests/routing_determinism.rs`):
//!
//! * the lookahead window walks an intrusive linked list of not-yet-ready
//!   two-qubit gates, maintained in `finish_gate` — `O(lookahead)` per
//!   blocked step instead of a rescan of the whole circuit;
//! * gate membership (done / ready / pending) lives in dense bitsets, so
//!   no step performs a linear membership probe;
//! * the front, lookahead and candidate-move lists are reusable scratch
//!   buffers on the `Router`, and candidate dedup uses a stamped
//!   directed-edge table (linear in the device) instead of an `O(n²)`
//!   `Vec::contains` scan;
//! * scoring computes each front/lookahead pair's base distance once per
//!   step and re-evaluates only the pairs a candidate move actually
//!   perturbs (a move of `(s, t)` leaves every pair not touching `s` or
//!   `t` with a bit-exact zero contribution, so skipping them cannot
//!   change the score).

use crate::config::CompilerConfig;
use crate::cost::{cx_class, swap_class, DistanceOracle};
use crate::layout::Layout;
use crate::physical::PhysicalOp;
use crate::pipeline::TopologyCache;
use qompress_arch::{ExpandedGraph, Slot, SlotIndex};
use qompress_circuit::{Circuit, CircuitDag, Gate};
use qompress_pulse::GateClass;
use std::sync::Arc;

/// Sentinel for "no gate" in the intrusive pending-gate list.
const NO_GATE: usize = usize::MAX;

/// Routes `circuit` starting from `layout` against a shared
/// [`TopologyCache`], emitting physical operations and mutating the
/// layout to its final configuration.
///
/// Reuses the cache's expanded graph and its per-encoding-signature
/// distance oracles ([`TopologyCache::oracle_for`]): qubit-only layouts
/// share the bare oracle, and encoded layouts share one oracle per
/// encoded-unit set — so the Dijkstra rows computed by one job serve every
/// later job on the same topology with the same encodings.
///
/// # Panics
///
/// Panics if any qubit is unplaced in `layout`.
pub fn route_cached(
    circuit: &Circuit,
    dag: &CircuitDag,
    layout: &mut Layout,
    cache: &TopologyCache,
    config: &CompilerConfig,
) -> Vec<PhysicalOp> {
    let oracle = cache.oracle_for(layout);
    Router::new(circuit, dag, layout, cache.expanded(), oracle, config).run()
}

/// Dense fixed-capacity bit set over `u64` words, for O(1) gate-index
/// membership tests in the router's inner loop.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

struct Router<'a> {
    circuit: &'a Circuit,
    dag: &'a CircuitDag,
    layout: &'a mut Layout,
    expanded: &'a ExpandedGraph,
    config: &'a CompilerConfig,
    oracle: Arc<DistanceOracle>,
    /// Emitted-gate membership.
    done: BitSet,
    remaining_preds: Vec<usize>,
    /// Ready gates, kept sorted ascending (`ready[0]` feeds the fallback).
    ready: Vec<usize>,
    /// Ready-gate membership (mirrors `ready`).
    is_ready: BitSet,
    /// Intrusive linked list (in circuit order) over the two-qubit gates
    /// that are not yet ready: the incremental lookahead window. A gate is
    /// unlinked the moment it becomes ready, so walking the head of this
    /// list is exactly the "upcoming two-qubit gates beyond the front"
    /// scan, without revisiting emitted gates.
    pending_next: Vec<usize>,
    pending_prev: Vec<usize>,
    pending_head: usize,
    /// Pending-list membership.
    pending: BitSet,
    ops: Vec<PhysicalOp>,
    last_move: Option<(Slot, Slot)>,
    steps_since_progress: usize,
    // Reusable per-step scratch (no per-step allocation in steady state).
    front_buf: Vec<(Slot, Slot)>,
    front_base: Vec<f64>,
    look_buf: Vec<(Slot, Slot)>,
    look_base: Vec<f64>,
    moves_buf: Vec<(Slot, Slot)>,
    /// CSR-style offsets into `edge_stamp`: directed edge `(s, j)` — the
    /// `j`-th neighbor of slot `s` — lives at `edge_offset[s.index()] + j`.
    edge_offset: Vec<usize>,
    /// Stamped dedup table over *directed expanded-graph edges* (every
    /// candidate move is an edge incident to a front slot); a cell equal
    /// to the current stamp means the move was already pushed this step.
    /// Linear in the device (`4E + V` edges), unlike a slot-pair grid.
    edge_stamp: Vec<u64>,
    stamp: u64,
    /// Per-slot mark: slot is an operand of a front gate this step.
    front_mark: Vec<bool>,
}

impl<'a> Router<'a> {
    fn new(
        circuit: &'a Circuit,
        dag: &'a CircuitDag,
        layout: &'a mut Layout,
        expanded: &'a ExpandedGraph,
        oracle: Arc<DistanceOracle>,
        config: &'a CompilerConfig,
    ) -> Self {
        let n = circuit.len();
        let mut remaining_preds = vec![0usize; n];
        for idx in 0..n {
            remaining_preds[idx] = dag.preds(idx).len();
        }
        let ready: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();
        let mut is_ready = BitSet::new(n);
        for &g in &ready {
            is_ready.insert(g);
        }

        // Link the not-yet-ready two-qubit gates in circuit order; gates
        // born ready never enter the lookahead window.
        let mut pending_next = vec![NO_GATE; n];
        let mut pending_prev = vec![NO_GATE; n];
        let mut pending_head = NO_GATE;
        let mut pending = BitSet::new(n);
        let mut tail = NO_GATE;
        for idx in circuit.two_qubit_gate_indices() {
            if remaining_preds[idx] == 0 {
                continue;
            }
            pending.insert(idx);
            pending_prev[idx] = tail;
            if tail == NO_GATE {
                pending_head = idx;
            } else {
                pending_next[tail] = idx;
            }
            tail = idx;
        }

        let n_slots = expanded.n_slots();
        let mut edge_offset = Vec::with_capacity(n_slots + 1);
        let mut directed_edges = 0usize;
        for s in expanded.slots() {
            edge_offset.push(directed_edges);
            directed_edges += expanded.neighbors(s).count();
        }
        edge_offset.push(directed_edges);
        Router {
            circuit,
            dag,
            layout,
            expanded,
            config,
            oracle,
            done: BitSet::new(n),
            remaining_preds,
            ready,
            is_ready,
            pending_next,
            pending_prev,
            pending_head,
            pending,
            ops: Vec::new(),
            last_move: None,
            steps_since_progress: 0,
            front_buf: Vec::new(),
            front_base: Vec::new(),
            look_buf: Vec::new(),
            look_base: Vec::new(),
            moves_buf: Vec::new(),
            edge_stamp: vec![0; directed_edges],
            edge_offset,
            stamp: 0,
            front_mark: vec![false; n_slots],
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
            // Blocked: route.
            if self.steps_since_progress >= self.config.max_router_steps_per_gate {
                let g = *self
                    .ready
                    .first()
                    .expect("blocked implies a ready two-qubit gate");
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
                    // No legal heuristic move: force immediately.
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
        self.layout
            .slot_of(qubit)
            .unwrap_or_else(|| panic!("qubit {qubit} unplaced"))
    }

    fn gate_executable(&self, idx: usize) -> bool {
        match self.circuit.gates()[idx] {
            Gate::Single { .. } => true,
            Gate::Cx { control, target } => self
                .expanded
                .slots_adjacent(self.slot_of(control), self.slot_of(target)),
            // A logical SWAP is realized for free by relabeling the layout,
            // so it is always executable.
            Gate::Swap { .. } => true,
        }
    }

    /// Picks the executable ready gate on the longest remaining dependency
    /// chain (the serialization tie-break of §4.2).
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

    /// Unlinks a gate from the pending (lookahead) list, if present.
    fn unlink_pending(&mut self, idx: usize) {
        if !self.pending.contains(idx) {
            return;
        }
        self.pending.remove(idx);
        let prev = self.pending_prev[idx];
        let next = self.pending_next[idx];
        if prev == NO_GATE {
            self.pending_head = next;
        } else {
            self.pending_next[prev] = next;
        }
        if next != NO_GATE {
            self.pending_prev[next] = prev;
        }
    }

    fn finish_gate(&mut self, idx: usize) {
        debug_assert!(
            self.is_ready.contains(idx) && !self.done.contains(idx),
            "gates finish exactly once, from the ready set"
        );
        self.done.insert(idx);
        self.is_ready.remove(idx);
        self.ready.retain(|&g| g != idx);
        let dag: &CircuitDag = self.dag;
        for &s in dag.succs(idx) {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                self.ready.push(s);
                self.is_ready.insert(s);
                self.unlink_pending(s);
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
                    GateClass::X
                } else if slot.slot == SlotIndex::Zero {
                    GateClass::X0
                } else {
                    GateClass::X1
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
                let (class, a, b) = cx_class(self.layout, cs, ts);
                let op = if a == b {
                    PhysicalOp::Internal { unit: a, class }
                } else {
                    PhysicalOp::TwoUnit { a, b, class }
                };
                self.ops.push(op);
            }
            Gate::Swap { a: qa, b: qb } => {
                // Exchanging two logical qubits' states is equivalent to
                // exchanging their labels: zero physical cost, any distance.
                let sa = self.slot_of(qa);
                let sb = self.slot_of(qb);
                self.layout.swap_occupants(sa, sb);
            }
        }
    }

    /// Fills `out` with the front: ready two-qubit gates with non-adjacent
    /// operands, in ready (ascending-index) order.
    fn fill_front(&self, out: &mut Vec<(Slot, Slot)>) {
        for &g in &self.ready {
            if let Some((qa, qb)) = self.circuit.gates()[g].qubit_pair() {
                let sa = self.slot_of(qa);
                let sb = self.slot_of(qb);
                if !self.expanded.slots_adjacent(sa, sb) {
                    out.push((sa, sb));
                }
            }
        }
    }

    /// Fills `out` with the operand slots of the upcoming two-qubit gates
    /// beyond the front, by walking the pending list head (gate-index
    /// order, `O(lookahead)`).
    fn fill_lookahead(&self, out: &mut Vec<(Slot, Slot)>) {
        let mut idx = self.pending_head;
        while idx != NO_GATE {
            let (qa, qb) = self.circuit.gates()[idx]
                .qubit_pair()
                .expect("pending list holds two-qubit gates only");
            out.push((self.slot_of(qa), self.slot_of(qb)));
            if out.len() >= self.config.lookahead {
                break;
            }
            idx = self.pending_next[idx];
        }
    }

    /// A slot is usable as a move endpoint when it is slot 0, or slot 1 of
    /// an encoded unit.
    fn slot_usable(&self, s: Slot) -> bool {
        s.slot == SlotIndex::Zero || self.layout.is_encoded(s.node)
    }

    /// Fills `out` with the deduplicated candidate moves adjacent to the
    /// front slots, preserving first-insertion order (the stamped
    /// directed-edge table replaces the quadratic `Vec::contains` probe).
    ///
    /// An unordered move `{s, t}` has exactly two directed
    /// representations; pushing it stamps both, so a later arrival from
    /// either direction (the same front slot again, or the opposite
    /// endpoint) is skipped — the same set, in the same order, the
    /// reference's linear scan produces.
    fn fill_candidates(&mut self, front: &[(Slot, Slot)], out: &mut Vec<(Slot, Slot)>) {
        self.stamp += 1;
        let stamp = self.stamp;
        let expanded: &ExpandedGraph = self.expanded;
        for &(sa, sb) in front {
            for s in [sa, sb] {
                for (j, t) in expanded.neighbors(s).enumerate() {
                    if !self.slot_usable(t) {
                        continue;
                    }
                    let forward = self.edge_offset[s.index()] + j;
                    if self.edge_stamp[forward] == stamp {
                        continue;
                    }
                    self.edge_stamp[forward] = stamp;
                    let back = self.edge_offset[t.index()]
                        + expanded
                            .neighbors(t)
                            .position(|x| x == s)
                            .expect("expanded graph edges are symmetric");
                    self.edge_stamp[back] = stamp;
                    out.push(if s.index() <= t.index() {
                        (s, t)
                    } else {
                        (t, s)
                    });
                }
            }
        }
    }

    /// Scores a move: change in total front + decayed lookahead distance,
    /// plus the encoded-disturbance penalty and an anti-oscillation term.
    ///
    /// Only the pairs that touch the move's endpoints are re-measured; an
    /// untouched pair's term is `d(a, b) − d(a, b)`, which is exactly
    /// `+0.0`, and adding a signed zero never changes an IEEE-754
    /// accumulator — so the skip is bit-identical to the full sum.
    fn score_move(
        &self,
        mv: (Slot, Slot),
        front: &[(Slot, Slot)],
        front_base: &[f64],
        look: &[(Slot, Slot)],
        look_base: &[f64],
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
        for (i, &(a, b)) in front.iter().enumerate() {
            if a == s || a == t || b == s || b == t {
                // Front terms demand tie-break-grade precision: exact in
                // both oracle modes (in exact mode this is the same lazy
                // row `distance` reads, so byte identity is untouched).
                let after = self.oracle.distance_exact(relocate(a), relocate(b));
                delta += after - front_base[i];
            }
        }
        let mut decay = self.config.lookahead_decay;
        for (j, &(a, b)) in look.iter().enumerate() {
            if a == s || a == t || b == s || b == t {
                let after = self.oracle.distance(relocate(a), relocate(b));
                delta += decay * (after - look_base[j]);
            }
            decay *= self.config.lookahead_decay;
        }
        // Penalty for moving occupants of encoded ququarts that are not
        // front operands ("avoid swapping through ququarts").
        for x in [s, t] {
            if self.layout.is_encoded(x.node) && !self.front_mark[x.index()] {
                delta += self.config.ququart_route_penalty;
            }
        }
        // Strongly discourage undoing the previous move.
        if let Some((ls, lt)) = self.last_move {
            if (ls, lt) == (s, t) || (lt, ls) == (s, t) {
                delta += 1.0e6;
            }
        }
        delta
    }

    fn best_move(&mut self) -> Option<(Slot, Slot)> {
        let mut front = std::mem::take(&mut self.front_buf);
        front.clear();
        self.fill_front(&mut front);
        if front.is_empty() {
            self.front_buf = front;
            return None;
        }
        let mut look = std::mem::take(&mut self.look_buf);
        look.clear();
        self.fill_lookahead(&mut look);

        // Base distance of every pair, computed once per step. Front
        // pairs are always exact (deciding which gate becomes adjacent
        // next); lookahead pairs tolerate the landmark estimate — the
        // split is a static property of the call site, never of cache
        // state, so routing stays deterministic under shared oracles.
        let mut front_base = std::mem::take(&mut self.front_base);
        front_base.clear();
        front_base.extend(front.iter().map(|&(a, b)| self.oracle.distance_exact(a, b)));
        let mut look_base = std::mem::take(&mut self.look_base);
        look_base.clear();
        look_base.extend(look.iter().map(|&(a, b)| self.oracle.distance(a, b)));

        // Mark the front slots for the encoded-disturbance penalty test.
        for &(a, b) in &front {
            self.front_mark[a.index()] = true;
            self.front_mark[b.index()] = true;
        }

        let mut moves = std::mem::take(&mut self.moves_buf);
        moves.clear();
        self.fill_candidates(&front, &mut moves);

        let mut best: Option<((Slot, Slot), f64)> = None;
        for &mv in &moves {
            let score = self.score_move(mv, &front, &front_base, &look, &look_base);
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

        // Un-mark only the touched slots (no full sweep).
        for &(a, b) in &front {
            self.front_mark[a.index()] = false;
            self.front_mark[b.index()] = false;
        }
        self.front_buf = front;
        self.look_buf = look;
        self.front_base = front_base;
        self.look_base = look_base;
        self.moves_buf = moves;
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

    /// Deterministic fallback: walk one operand of `gate` along the
    /// cheapest path until the gate's operands are adjacent.
    ///
    /// Each hop re-queries [`DistanceOracle::path`]; the oracle memoizes
    /// one predecessor row per source slot, so the whole walk costs at most
    /// one Dijkstra per distinct source instead of one per call.
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
            debug_assert!(path.len() >= 3, "non-adjacent slots have a mid hop");
            let next = path[1];
            self.apply_move((sa, next));
            guard += 1;
            assert!(
                guard <= self.expanded.n_slots() * 2,
                "force_route failed to converge"
            );
        }
        self.last_move = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{map_circuit, MappingOptions};
    use qompress_arch::Topology;

    fn route_circuit(
        circuit: &Circuit,
        topo: &Topology,
        options: &MappingOptions,
    ) -> (Vec<PhysicalOp>, Layout) {
        let config = CompilerConfig::paper();
        let dag = CircuitDag::build(circuit);
        let cache = TopologyCache::new(topo.clone(), &config);
        let mut layout = map_circuit(circuit, topo, &config, options);
        let ops = route_cached(circuit, &dag, &mut layout, &cache, &config);
        (ops, layout)
    }

    fn count_2q_logical(ops: &[PhysicalOp]) -> usize {
        ops.iter().filter(|op| op.class().is_cx()).count()
    }

    #[test]
    fn bitset_membership() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0) && !s.contains(129));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        s.remove(64);
        assert!(!s.contains(64) && s.contains(63) && s.contains(129));
    }

    #[test]
    fn adjacent_gates_emit_without_swaps() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let topo = Topology::line(2);
        let (ops, _) = route_circuit(&c, &topo, &MappingOptions::qubit_only());
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].class(), GateClass::Cx2);
    }

    #[test]
    fn distant_gates_insert_swaps() {
        // K4 on a line cannot be embedded without communication.
        let mut c = Circuit::new(4);
        for a in 0..4 {
            for b in (a + 1)..4 {
                c.push(Gate::cx(a, b));
            }
        }
        let topo = Topology::line(4);
        let (ops, layout) = route_circuit(&c, &topo, &MappingOptions::qubit_only());
        let swaps = ops.iter().filter(|o| o.class().is_swap()).count();
        assert!(swaps >= 1, "expected inserted swaps, ops: {ops:?}");
        assert_eq!(count_2q_logical(&ops), 6);
        layout.check_invariants().unwrap();
    }

    #[test]
    fn internal_cx_for_encoded_pairs() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 0));
        let topo = Topology::line(2);
        let opts = MappingOptions::with_pairs(vec![(0, 1)]);
        let (ops, _) = route_circuit(&c, &topo, &opts);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].class(), GateClass::Cx0);
        assert_eq!(ops[1].class(), GateClass::Cx1);
    }

    #[test]
    fn single_qubit_classes_follow_encoding() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        c.push(Gate::h(2));
        let topo = Topology::line(3);
        let opts = MappingOptions::with_pairs(vec![(0, 1)]);
        let (ops, layout) = route_circuit(&c, &topo, &opts);
        let mut classes: Vec<GateClass> = ops.iter().map(|o| o.class()).collect();
        classes.sort();
        assert!(classes.contains(&GateClass::X0));
        assert!(classes.contains(&GateClass::X1));
        assert!(classes.contains(&GateClass::X));
        assert_eq!(layout.active_units(), 2);
    }

    #[test]
    fn logical_swap_is_a_free_relabel() {
        let mut c = Circuit::new(2);
        c.push(Gate::swap(0, 1));
        let topo = Topology::line(2);
        let before = {
            let config = CompilerConfig::paper();
            crate::mapping::map_circuit(&c, &topo, &config, &MappingOptions::qubit_only())
                .placements()
        };
        let (ops, layout) = route_circuit(&c, &topo, &MappingOptions::qubit_only());
        assert!(ops.is_empty(), "logical SWAP must emit no pulses");
        // The two qubits exchanged positions relative to the mapping.
        let after = layout.placements();
        assert_eq!(after[0], before[1]);
        assert_eq!(after[1], before[0]);
    }

    #[test]
    fn distant_logical_swap_needs_no_routing() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(0, 1));
        c.push(Gate::swap(0, 3));
        c.push(Gate::cx(3, 1));
        let topo = Topology::line(4);
        let (ops, _) = route_circuit(&c, &topo, &MappingOptions::qubit_only());
        // The seed version of this assertion ended in `|| true`, making it
        // vacuous. The intended property (paper §4.2: logical SWAPs are
        // free relabels that emit no pulses): after the relabel both CX
        // gates act on adjacent units, so no SWAP-family op of any class
        // may appear — only the two CXs do.
        assert!(
            ops.iter().all(|o| !o.class().is_swap()),
            "free logical SWAP must not generate physical SWAP traffic: {ops:?}"
        );
        assert_eq!(ops.iter().filter(|o| o.class().is_cx()).count(), 2);
    }

    #[test]
    fn all_two_unit_ops_on_coupled_units() {
        let c = {
            let mut c = Circuit::new(6);
            for i in 0..5 {
                c.push(Gate::cx(i, i + 1));
            }
            c.push(Gate::cx(0, 5));
            c.push(Gate::cx(2, 5));
            c
        };
        let topo = Topology::grid(6);
        let (ops, _) = route_circuit(&c, &topo, &MappingOptions::qubit_only());
        for op in &ops {
            if let (a, Some(b)) = op.units() {
                assert!(topo.has_edge(a, b), "op {op} spans uncoupled units");
            }
        }
    }

    #[test]
    fn mixed_radix_routing_produces_partial_gates() {
        // Pair (0,1) encoded; qubit 2 interacts with 0 -> partial CX needed.
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 2));
        c.push(Gate::cx(2, 1));
        let topo = Topology::line(3);
        let opts = MappingOptions::with_pairs(vec![(0, 1)]);
        let (ops, _) = route_circuit(&c, &topo, &opts);
        let has_partial = ops.iter().any(|o| {
            matches!(
                o.class(),
                GateClass::CxE0Bare
                    | GateClass::CxE1Bare
                    | GateClass::CxBareE0
                    | GateClass::CxBareE1
            )
        });
        assert!(has_partial, "expected a partial CX, got {ops:?}");
    }

    #[test]
    fn routing_terminates_on_ring() {
        // Ring topology with long-range interactions exercises the guard.
        let mut c = Circuit::new(8);
        for i in 0..8 {
            c.push(Gate::cx(i, (i + 4) % 8));
        }
        let topo = Topology::ring(8);
        let (ops, _) = route_circuit(&c, &topo, &MappingOptions::qubit_only());
        assert_eq!(count_2q_logical(&ops), 8);
    }

    #[test]
    fn dependency_order_is_preserved() {
        // cx(0,1) then x(1) then cx(1,2): ops referencing qubit 1 must stay
        // ordered.
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 1));
        c.push(Gate::x(1));
        c.push(Gate::cx(1, 2));
        let topo = Topology::line(3);
        let (ops, _) = route_circuit(&c, &topo, &MappingOptions::qubit_only());
        let cx_positions: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.class().is_cx())
            .map(|(i, _)| i)
            .collect();
        let x_pos = ops
            .iter()
            .position(|o| matches!(o, PhysicalOp::Single { .. }))
            .unwrap();
        assert!(cx_positions[0] < x_pos);
        assert!(x_pos < cx_positions[1]);
    }
}
