//! The shared compilation pipeline: map → route → merge → schedule →
//! evaluate.
//!
//! Initial compressions are free: before any gate executes every unit is in
//! `|0⟩`, and an encoded `|00⟩` pair *is* the ququart ground state, so
//! placing two logical qubits in one ququart at circuit start needs no ENC
//! pulse (ENC/DEC costs arise only for mid-circuit re-encoding, as in the
//! FQ baseline). This matches the paper's accounting, where ENC/DEC
//! overhead is attributed to the FQ strategy.

use crate::config::CompilerConfig;
use crate::cost::{DistanceOracle, OracleStats};
use crate::layout::Layout;
use crate::mapping::{map_circuit_with_center, MappingOptions};
use crate::metrics::Metrics;
use crate::physical::Schedule;
use crate::routing::route_cached;
use crate::scheduling::{merge_singles, schedule_ops, trace_coherence, CoherenceTrace};
use qompress_arch::{ExpandedGraph, Topology};
use qompress_circuit::{Circuit, CircuitDag};
use std::fmt;
use std::sync::Arc;

/// Upper bound on distinct encoded-signature oracles one [`TopologyCache`]
/// retains. Beyond it, oracles are still built on demand but no longer
/// memoized — a safety valve for adversarial workloads (e.g. an exhaustive
/// search over a huge device) rather than a limit real sweeps hit.
const MAX_ENCODED_ORACLES: usize = 128;

/// Immutable per-topology precomputation, shared across compilations.
///
/// Building the expanded slot graph and the distance oracles is pure
/// topology+config work; batches that compile many jobs on the same device
/// reuse one cache behind an [`Arc`] instead of redoing it per job (see
/// [`crate::Compiler`]). The bare-encoding oracle fills lazily on the
/// first compilation that routes an unencoded layout; encoded layouts are
/// served from a per-**encoding-signature** oracle map (the signature is
/// the per-unit encoded-flag vector — the only layout state the oracle's
/// edge weights depend on), so jobs whose layouts encode the same unit set
/// stop rebuilding their oracle.
#[derive(Debug)]
pub struct TopologyCache {
    expanded: Arc<ExpandedGraph>,
    /// The configuration the cache (and its lazy oracles) is bound to.
    config: CompilerConfig,
    bare_oracle: std::sync::OnceLock<Arc<DistanceOracle>>,
    /// Oracles keyed by encoded-flag signature, for layouts with at least
    /// one encoded unit.
    encoded_oracles: std::sync::Mutex<std::collections::HashMap<Vec<bool>, Arc<DistanceOracle>>>,
    /// The topology's center unit, memoized (finding it is an all-sources
    /// BFS — noticeable on 1000-unit devices, pure waste per job).
    center: std::sync::OnceLock<usize>,
}

impl Clone for TopologyCache {
    /// Clones the shared structures; already-memoized oracles ride along.
    fn clone(&self) -> Self {
        TopologyCache {
            expanded: Arc::clone(&self.expanded),
            config: self.config.clone(),
            bare_oracle: self.bare_oracle.clone(),
            encoded_oracles: std::sync::Mutex::new(
                self.encoded_oracles
                    .lock()
                    .expect("oracle map poisoned")
                    .clone(),
            ),
            center: self.center.clone(),
        }
    }
}

impl TopologyCache {
    /// Builds the shared structures for one topology under `config`.
    pub fn new(topo: Topology, config: &CompilerConfig) -> Self {
        TopologyCache {
            expanded: Arc::new(ExpandedGraph::new(topo)),
            config: config.clone(),
            bare_oracle: std::sync::OnceLock::new(),
            encoded_oracles: std::sync::Mutex::new(std::collections::HashMap::new()),
            center: std::sync::OnceLock::new(),
        }
    }

    /// The topology's center unit, computed once per cache.
    pub fn center(&self) -> usize {
        *self.center.get_or_init(|| self.topology().center())
    }

    /// The physical topology this cache was built for.
    pub fn topology(&self) -> &Topology {
        self.expanded.topology()
    }

    /// The expanded slot graph.
    pub fn expanded(&self) -> &Arc<ExpandedGraph> {
        &self.expanded
    }

    /// The distance oracle valid while **no unit is encoded** (the state
    /// every qubit-only compilation routes in), built on first use under
    /// the cache's own configuration.
    pub fn bare_oracle(&self) -> &Arc<DistanceOracle> {
        self.bare_oracle
            .get_or_init(|| Arc::new(DistanceOracle::bare(&self.expanded, &self.config)))
    }

    /// The distance oracle for `layout`'s encoding state, shared across
    /// every compilation whose layout encodes the same unit set.
    ///
    /// Oracle edge weights depend only on the per-unit encoded flags (not
    /// on which qubit occupies which slot), so the flag vector is a
    /// complete cache signature. All-bare layouts reuse the
    /// [`TopologyCache::bare_oracle`]; encoded signatures land in a bounded
    /// map (beyond `MAX_ENCODED_ORACLES` entries the oracle is built fresh and
    /// not retained).
    pub fn oracle_for(&self, layout: &Layout) -> Arc<DistanceOracle> {
        if !layout.encoded_flags().iter().any(|&e| e) {
            return Arc::clone(self.bare_oracle());
        }
        let mut map = self.encoded_oracles.lock().expect("oracle map poisoned");
        // Borrowed-slice lookup (`Vec<bool>: Borrow<[bool]>`): the hit path
        // — every encoded candidate compile of an exhaustive sweep —
        // allocates nothing.
        if let Some(oracle) = map.get(layout.encoded_flags()) {
            return Arc::clone(oracle);
        }
        let oracle = Arc::new(DistanceOracle::new(&self.expanded, layout, &self.config));
        if map.len() < MAX_ENCODED_ORACLES {
            map.insert(layout.encoded_flags().to_vec(), Arc::clone(&oracle));
        }
        oracle
    }

    /// Number of memoized encoded-signature oracles (diagnostics/tests).
    pub fn encoded_oracle_count(&self) -> usize {
        self.encoded_oracles
            .lock()
            .expect("oracle map poisoned")
            .len()
    }

    /// Aggregated row/memory accounting over every oracle this cache
    /// holds (bare + all memoized encoded signatures).
    pub fn oracle_stats(&self) -> OracleStats {
        let mut total = OracleStats::default();
        if let Some(bare) = self.bare_oracle.get() {
            total.merge(&bare.stats());
        }
        let map = self.encoded_oracles.lock().expect("oracle map poisoned");
        for oracle in map.values() {
            total.merge(&oracle.stats());
        }
        total
    }
}

/// A fully compiled circuit with its evaluation statistics.
#[derive(Debug, Clone)]
pub struct CompilationResult {
    /// Strategy label (filled by [`crate::compile_cached`]; empty for an
    /// options-level compile).
    pub strategy: String,
    /// The scheduled physical circuit.
    pub schedule: Schedule,
    /// Evaluation metrics (EPS, durations, gate mix).
    pub metrics: Metrics,
    /// Starting `(unit, slot)` of every logical qubit.
    pub initial_placements: Vec<(usize, usize)>,
    /// Final `(unit, slot)` of every logical qubit after routing.
    pub final_placements: Vec<(usize, usize)>,
    /// Per-unit encoded flags (fixed across the circuit).
    pub encoded_units: Vec<bool>,
    /// Compressed pairs `(slot-0 qubit, slot-1 qubit)`, including
    /// spontaneous EQM pairings.
    pub pairs: Vec<(usize, usize)>,
    /// Number of logical gates in the input circuit.
    pub logical_gates: usize,
    /// Per-qubit coherence residency trace.
    pub trace: CoherenceTrace,
}

impl CompilationResult {
    /// Number of physical units hosting at least one qubit.
    pub fn active_units(&self) -> usize {
        let mut used: Vec<bool> = vec![false; self.encoded_units.len()];
        for &(u, _) in &self.initial_placements {
            used[u] = true;
        }
        used.iter().filter(|&&b| b).count()
    }
}

impl fmt::Display for CompilationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} logical gates -> {} physical ops, {} pairs",
            self.strategy,
            self.logical_gates,
            self.schedule.len(),
            self.pairs.len()
        )?;
        writeln!(
            f,
            "  gate EPS {:.4}  coherence EPS {:.4}  total EPS {:.4}  duration {:.0} ns",
            self.metrics.gate_eps,
            self.metrics.coherence_eps,
            self.metrics.total_eps,
            self.metrics.duration_ns
        )
    }
}

/// Compiles `circuit` with explicit mapping options against a pre-built
/// [`TopologyCache`], reusing the expanded graph and the memoized
/// distance oracles instead of rebuilding them per job.
///
/// This is the single pipeline all strategies share; only the pair
/// selection differs between them. Sessions run it behind their result
/// cache ([`crate::Compiler::compile_with_options`]).
pub fn compile_with_options_cached(
    circuit: &Circuit,
    cache: &TopologyCache,
    config: &CompilerConfig,
    options: &MappingOptions,
) -> CompilationResult {
    let topo = cache.topology();
    let dag = CircuitDag::build(circuit);
    let mut layout = map_circuit_with_center(circuit, topo, config, options, cache.center());
    let initial_placements = layout.placements();
    let encoded_units = layout.encoded_flags().to_vec();
    let pairs = pairs_from_layout(&layout);

    let ops = route_cached(circuit, &dag, &mut layout, cache, config);
    let ops = merge_singles(ops);
    let schedule = schedule_ops(ops, topo.n_nodes(), &config.library);
    let trace = trace_coherence(&schedule, &initial_placements, &encoded_units);
    let metrics = Metrics::compute(&schedule, &trace, config);
    let final_placements = layout.placements();

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

/// Reads the compressed pairs out of a mapped layout.
fn pairs_from_layout(layout: &Layout) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for unit in 0..layout.n_units() {
        let q0 = layout.qubit_at(qompress_arch::Slot::zero(unit));
        let q1 = layout.qubit_at(qompress_arch::Slot::one(unit));
        if let (Some(a), Some(b)) = (q0, q1) {
            pairs.push((a, b));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_circuit::Gate;

    /// One pipeline run on a fresh topology cache.
    fn run(
        c: &Circuit,
        topo: &Topology,
        config: &CompilerConfig,
        options: &MappingOptions,
    ) -> CompilationResult {
        compile_with_options_cached(
            c,
            &TopologyCache::new(topo.clone(), config),
            config,
            options,
        )
    }

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::h(0));
        for i in 0..n - 1 {
            c.push(Gate::cx(i, i + 1));
        }
        c
    }

    #[test]
    fn qubit_only_pipeline_end_to_end() {
        let c = ghz(6);
        let topo = Topology::grid(6);
        let config = CompilerConfig::paper();
        let r = run(&c, &topo, &config, &MappingOptions::qubit_only());
        assert!(r.schedule.validate(&topo).is_empty());
        assert!(r.metrics.gate_eps > 0.0 && r.metrics.gate_eps < 1.0);
        assert!(r.metrics.coherence_eps > 0.0 && r.metrics.coherence_eps < 1.0);
        assert!(r.metrics.duration_ns > 0.0);
        assert!(r.pairs.is_empty());
        assert_eq!(r.initial_placements.len(), 6);
    }

    #[test]
    fn paired_pipeline_end_to_end() {
        let c = ghz(6);
        let topo = Topology::grid(6);
        let config = CompilerConfig::paper();
        let opts = MappingOptions::with_pairs(vec![(0, 1), (2, 3)]);
        let r = run(&c, &topo, &config, &opts);
        assert!(r.schedule.validate(&topo).is_empty());
        assert_eq!(r.pairs.len(), 2);
        assert!(r.metrics.ququart_state_ns > 0.0);
        // Four qubits live in two units; two more bare: 4 active units.
        assert_eq!(r.active_units(), 4);
    }

    #[test]
    fn pair_compression_reduces_two_unit_gates_on_hot_pairs() {
        // Circuit dominated by 0-1 interactions: pairing (0,1) turns CX2
        // into internal CX.
        let mut c = Circuit::new(4);
        for _ in 0..10 {
            c.push(Gate::cx(0, 1));
        }
        c.push(Gate::cx(2, 3));
        let topo = Topology::grid(4);
        let config = CompilerConfig::paper();
        let baseline = run(&c, &topo, &config, &MappingOptions::qubit_only());
        let paired = run(
            &c,
            &topo,
            &config,
            &MappingOptions::with_pairs(vec![(0, 1)]),
        );
        assert!(paired.metrics.gate_eps > baseline.metrics.gate_eps);
        assert_eq!(paired.metrics.count(qompress_pulse::GateClass::Cx0), 10);
    }

    #[test]
    fn coherence_trace_covers_all_qubits_for_whole_duration() {
        let c = ghz(5);
        let topo = Topology::grid(5);
        let config = CompilerConfig::paper();
        let r = run(&c, &topo, &config, &MappingOptions::eqm());
        let d = r.metrics.duration_ns;
        for q in 0..5 {
            let total = r.trace.qubit_ns[q] + r.trace.ququart_ns[q];
            assert!((total - d).abs() < 1e-6, "qubit {q}: {total} vs {d}");
        }
    }

    #[test]
    fn display_contains_key_figures() {
        let c = ghz(4);
        let topo = Topology::grid(4);
        let config = CompilerConfig::paper();
        let mut r = run(&c, &topo, &config, &MappingOptions::qubit_only());
        r.strategy = "test".into();
        let s = format!("{r}");
        assert!(s.contains("gate EPS"));
        assert!(s.contains("[test]"));
    }
}
