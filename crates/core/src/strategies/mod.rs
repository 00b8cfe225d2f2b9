//! Compression strategy selection and dispatch (paper §5 and §6.2).

mod awe;
mod exhaustive;
mod full_ququart;
mod progressive;
mod ring_based;

pub(crate) use exhaustive::run_exhaustive;
pub use exhaustive::{EcObjective, ExhaustiveOptions, ExhaustiveStep};

use crate::config::CompilerConfig;
use crate::mapping::MappingOptions;
use crate::pipeline::{compile_with_options_cached, CompilationResult, TopologyCache};
use crate::session::Compiler;
use qompress_circuit::Circuit;

/// The compilation strategies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Baseline: never encode a ququart (§6.2).
    QubitOnly,
    /// Extended Qubit Mapping: implicit pairing during placement (§5.2).
    Eqm,
    /// Ring-Based cycle compression (§5.3).
    RingBased,
    /// Average Weight per Edge contraction (§5.4).
    Awe,
    /// Progressive Pairing (§5.5).
    ProgressivePairing,
    /// Exhaustive greedy search (§5.1); `ordered` selects critical-path
    /// prioritization (Figure 4b) over the unordered pool (Figure 4c).
    Exhaustive {
        /// Use the critical-path priority groups.
        ordered: bool,
    },
    /// Full-ququart pairing with encode/decode — the prior-work baseline
    /// (§6.2).
    FullQuquart,
}

/// All strategies in the paper's plotting order.
pub const ALL_STRATEGIES: [Strategy; 7] = [
    Strategy::QubitOnly,
    Strategy::FullQuquart,
    Strategy::Eqm,
    Strategy::RingBased,
    Strategy::Awe,
    Strategy::ProgressivePairing,
    Strategy::Exhaustive { ordered: true },
];

impl Strategy {
    /// Short name used in reports and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::QubitOnly => "qubit-only",
            Strategy::Eqm => "eqm",
            Strategy::RingBased => "rb",
            Strategy::Awe => "awe",
            Strategy::ProgressivePairing => "pp",
            Strategy::Exhaustive { ordered: true } => "ec",
            Strategy::Exhaustive { ordered: false } => "ec-unordered",
            Strategy::FullQuquart => "fq",
        }
    }

    /// The strategy whose [`Strategy::name`] is `name`: one of
    /// [`ALL_STRATEGIES`] or `ec-unordered`. `None` for any other name.
    pub fn from_name(name: &str) -> Option<Strategy> {
        ALL_STRATEGIES
            .into_iter()
            .chain([Strategy::Exhaustive { ordered: false }])
            .find(|s| s.name() == name)
    }

    /// The most qubits this strategy can place on a device of `units`
    /// units; a wider circuit panics in mapping, so untrusted input is
    /// checked against this first. Qubit-only, FQ, PP and EC place one
    /// qubit per unit; EQM, RB and AWE may pack two. For RB and AWE the
    /// bound is loose: above `units` they succeed or panic depending on
    /// the pairs they find.
    pub fn max_qubits(self, units: usize) -> usize {
        match self {
            Strategy::Eqm | Strategy::RingBased | Strategy::Awe => 2 * units,
            Strategy::QubitOnly
            | Strategy::ProgressivePairing
            | Strategy::Exhaustive { .. }
            | Strategy::FullQuquart => units,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Compiles `circuit` with the chosen strategy against a pre-built
/// [`TopologyCache`], so jobs on one device share its precomputation
/// (expanded graph, distance oracles) instead of rebuilding it for every
/// compilation. This is the stage a [`Compiler`] session runs behind its
/// result cache ([`Compiler::compile`]).
///
/// ```
/// use qompress::{compile_cached, CompilerConfig, Strategy, TopologyCache};
/// use qompress_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::cx(0, 1));
/// let config = CompilerConfig::paper();
/// let device = TopologyCache::new(qompress_arch::Topology::grid(4), &config);
/// assert_eq!(compile_cached(&c, &device, Strategy::Eqm, &config).strategy, "eqm");
/// ```
pub fn compile_cached(
    circuit: &Circuit,
    cache: &TopologyCache,
    strategy: Strategy,
    config: &CompilerConfig,
) -> CompilationResult {
    let topo = cache.topology();
    let mut result = match strategy {
        Strategy::QubitOnly => {
            compile_with_options_cached(circuit, cache, config, &MappingOptions::qubit_only())
        }
        Strategy::Eqm => {
            compile_with_options_cached(circuit, cache, config, &MappingOptions::eqm())
        }
        Strategy::RingBased => {
            let pairs = ring_based::find_pairs(circuit);
            compile_with_options_cached(circuit, cache, config, &MappingOptions::with_pairs(pairs))
        }
        Strategy::Awe => {
            let pairs = awe::find_pairs(circuit);
            compile_with_options_cached(circuit, cache, config, &MappingOptions::with_pairs(pairs))
        }
        Strategy::ProgressivePairing => {
            let pairs = progressive::find_pairs_cached(circuit, cache, config);
            compile_with_options_cached(circuit, cache, config, &MappingOptions::with_pairs(pairs))
        }
        Strategy::Exhaustive { ordered } => {
            // EC is a *search*, not a single pipeline pass: it needs a
            // session for its per-candidate memoization. Session callers
            // reach `run_exhaustive` through the session's own strategy
            // dispatch instead of this arm; a direct caller gets a
            // one-shot session.
            let session = Compiler::with_config(config);
            let (result, _) = session.compile_exhaustive(
                circuit,
                topo,
                &ExhaustiveOptions {
                    ordered,
                    ..ExhaustiveOptions::default()
                },
            );
            (*result).clone()
        }
        Strategy::FullQuquart => full_ququart::compile_full_ququart(circuit, topo, config),
    };
    result.strategy = strategy.name().to_string();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_arch::Topology;
    use qompress_circuit::Gate;

    fn uncached() -> Compiler {
        Compiler::builder().caching(false).build()
    }

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new(5);
        c.push(Gate::h(0));
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)] {
            c.push(Gate::cx(a, b));
        }
        c
    }

    #[test]
    fn every_strategy_compiles_and_validates() {
        let c = small_circuit();
        let topo = Topology::grid(5);
        let session = uncached();
        for strategy in ALL_STRATEGIES {
            let r = session.compile(&c, &topo, strategy);
            let problems = r.schedule.validate(&topo);
            assert!(problems.is_empty(), "{strategy}: {problems:?}");
            assert!(r.metrics.total_eps > 0.0, "{strategy}");
            assert!(r.metrics.total_eps <= 1.0, "{strategy}");
            assert_eq!(r.strategy, strategy.name());
        }
    }

    #[test]
    fn from_name_inverts_name() {
        let ec_unordered = Strategy::Exhaustive { ordered: false };
        for strategy in ALL_STRATEGIES.into_iter().chain([ec_unordered]) {
            assert_eq!(Strategy::from_name(strategy.name()), Some(strategy));
        }
        for unknown in ["", "bogus", "EQM", "ec-ordered"] {
            assert_eq!(Strategy::from_name(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL_STRATEGIES.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_STRATEGIES.len());
    }

    #[test]
    fn qubit_only_never_encodes() {
        let c = small_circuit();
        let topo = Topology::grid(5);
        let r = uncached().compile(&c, &topo, Strategy::QubitOnly);
        assert!(r.pairs.is_empty());
        assert!(!r.encoded_units.iter().any(|&e| e));
        assert_eq!(r.metrics.ququart_state_ns, 0.0);
    }

    #[test]
    fn compression_strategies_are_deterministic() {
        let c = small_circuit();
        let topo = Topology::grid(5);
        let session = uncached();
        for strategy in [Strategy::Eqm, Strategy::RingBased, Strategy::Awe] {
            let a = session.compile(&c, &topo, strategy);
            let b = session.compile(&c, &topo, strategy);
            assert_eq!(a.metrics.total_eps, b.metrics.total_eps, "{strategy}");
            assert_eq!(a.schedule.len(), b.schedule.len(), "{strategy}");
        }
    }

    #[test]
    fn max_qubits_matches_what_mapping_can_place() {
        // A ring of CX gates over `n` qubits, compiled on a fresh device
        // cache so one panicking compile cannot poison the next.
        let config = CompilerConfig::paper();
        let fits = |n: usize, units: usize, strategy: Strategy| {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.push(Gate::cx(q, (q + 1) % n));
            }
            let device = TopologyCache::new(Topology::grid(units), &config);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                compile_cached(&c, &device, strategy, &config)
            }))
            .is_ok()
        };
        let ec_unordered = Strategy::Exhaustive { ordered: false };
        for units in [4, 9] {
            for strategy in ALL_STRATEGIES.into_iter().chain([ec_unordered]) {
                let max = strategy.max_qubits(units);
                let packs = matches!(
                    strategy,
                    Strategy::Eqm | Strategy::RingBased | Strategy::Awe
                );
                assert_eq!(max, if packs { 2 * units } else { units }, "{strategy}");
                assert!(!fits(max + 1, units, strategy), "{strategy}: {units} units");
                // RB and AWE reach 2 * units only when their pairs allow.
                let always_fits = match strategy {
                    Strategy::RingBased | Strategy::Awe => units,
                    _ => max,
                };
                assert!(
                    fits(always_fits, units, strategy),
                    "{strategy}: {units} units"
                );
            }
        }
    }
}
