//! The named corpus: local, seeded circuit generators and the job lists
//! of every workload. Nothing is downloaded.
//!
//! Next to the `qompress-workloads` families (Cuccaro, CNU, QRAM, BV,
//! QAOA) this module builds QFT-n and the small gadgets of the
//! BQSKit/qsearch benchmark list — Toffoli, Fredkin, Peres and the full
//! adder — all lowered to the compiler's `{1q, CX}` gate set.

use qompress::Strategy;
use qompress_arch::Topology;
use qompress_circuit::{Circuit, Gate};
use qompress_workloads::graphs::random_graph;
use qompress_workloads::{bernstein_vazirani, build, qaoa, Benchmark};

/// A small deterministic generator (splitmix64): the benchmark's only
/// source of randomness, derived from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5157_4f4d_5052_4553)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// QFT-n lowered to `{1q, CX}`: controlled phases as
/// `RZ(θ/2)·CX·RZ(−θ/2)·CX·RZ(θ/2)`, the closing bit reversal as three
/// CX per swap.
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for j in 0..n {
        c.push(Gate::h(j));
        for k in j + 1..n {
            let theta = std::f64::consts::PI / f64::from(1u32 << (k - j).min(30));
            c.push(Gate::rz(theta / 2.0, k));
            c.push(Gate::cx(k, j));
            c.push(Gate::rz(-theta / 2.0, j));
            c.push(Gate::cx(k, j));
            c.push(Gate::rz(theta / 2.0, j));
        }
    }
    for i in 0..n / 2 {
        let (a, b) = (i, n - 1 - i);
        c.push(Gate::cx(a, b));
        c.push(Gate::cx(b, a));
        c.push(Gate::cx(a, b));
    }
    c
}

/// Toffoli gadget (3 qubits).
pub fn toffoli() -> Circuit {
    let mut c = Circuit::new(3);
    c.push_ccx(0, 1, 2);
    c
}

/// Fredkin (controlled-SWAP) gadget (3 qubits).
pub fn fredkin() -> Circuit {
    let mut c = Circuit::new(3);
    c.push_cswap(0, 1, 2);
    c
}

/// Peres gadget: `CCX(a, b, c)` then `CX(a, b)` (3 qubits).
pub fn peres() -> Circuit {
    let mut c = Circuit::new(3);
    c.push_ccx(0, 1, 2);
    c.push(Gate::cx(0, 1));
    c
}

/// One-bit full adder: inputs `a = 0`, `b = 1`, `cin = 2`; the sum lands
/// on qubit 2 and the carry on ancilla 3.
pub fn full_adder() -> Circuit {
    let mut c = Circuit::new(4);
    c.push_ccx(0, 1, 3);
    c.push(Gate::cx(0, 1));
    c.push_ccx(1, 2, 3);
    c.push(Gate::cx(1, 2));
    c.push(Gate::cx(0, 1));
    c
}

/// The families of the cold workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Cuccaro,
    Cnu,
    Qram,
    Bv,
    QaoaRandom,
    QaoaTorus,
    Qft,
}

pub const FAMILIES: [Family; 7] = [
    Family::Cuccaro,
    Family::Cnu,
    Family::Qram,
    Family::Bv,
    Family::QaoaRandom,
    Family::QaoaTorus,
    Family::Qft,
];

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Cuccaro => "cuccaro",
            Family::Cnu => "cnu",
            Family::Qram => "qram",
            Family::Bv => "bv",
            Family::QaoaRandom => "qaoa-random",
            Family::QaoaTorus => "qaoa-torus",
            Family::Qft => "qft",
        }
    }

    /// The family's circuit at `size` qubits. The structure is fixed per
    /// size — the QAOA random graph is drawn from a pinned seed and the
    /// BV secret has half its bits set — and `seed` varies only what
    /// leaves that structure's cost about the same: which secret bits
    /// are set and the order QAOA visits its edges.
    pub fn build(self, size: usize, seed: u64) -> Circuit {
        match self {
            Family::Cuccaro => build(Benchmark::Cuccaro, size, seed),
            Family::Cnu => build(Benchmark::Cnu, size, seed),
            Family::Qram => build(Benchmark::Qram, size, seed),
            Family::Bv => {
                let mut secret: Vec<bool> = (0..size - 1).map(|i| i % 2 == 0).collect();
                Rng::new(seed).shuffle(&mut secret);
                bernstein_vazirani(&secret)
            }
            Family::QaoaRandom => qaoa(&random_graph(size, 0.3, PINNED_GRAPH_SEED), seed),
            Family::QaoaTorus => build(Benchmark::QaoaTorus, size, seed),
            Family::Qft => qft(size),
        }
    }
}

/// Seed of the QAOA random graphs: part of the corpus, not of the run.
const PINNED_GRAPH_SEED: u64 = 2023;

/// Strategies every cold job runs (EC is added at 16 qubits only).
pub const PIPELINE_STRATEGIES: [Strategy; 6] = [
    Strategy::QubitOnly,
    Strategy::FullQuquart,
    Strategy::Eqm,
    Strategy::RingBased,
    Strategy::Awe,
    Strategy::ProgressivePairing,
];

pub const EC: Strategy = Strategy::Exhaustive { ordered: true };

/// One compilation job.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub circuit: Circuit,
    pub strategy: Strategy,
    /// Wire spec of the device (`grid:16`, `heavyhex:21`).
    pub spec: String,
    pub topology: Topology,
}

impl Job {
    pub fn new(family: &str, size: usize, circuit: Circuit, strategy: Strategy, spec: &str) -> Job {
        let topology = qompress_service::parse_topology_spec(spec).expect("corpus device spec");
        Job {
            label: format!("{family}{size}/{}@{spec}", strategy.name()),
            circuit,
            strategy,
            spec: spec.to_string(),
            topology,
        }
    }
}

/// Seeds of the randomised families, drawn once per job list so that one
/// `--seed` fixes every circuit.
fn family_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() % 1_000_003
}

/// The cold job list on grids: every family at 16 and 40 qubits on
/// `grid:16` / `grid:40`, every pipeline strategy, plus EC at 16 qubits.
/// No job repeats; the order is a seeded shuffle.
pub fn cold_grid(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for size in [16usize, 40] {
        let spec = format!("grid:{size}");
        for family in FAMILIES {
            let circuit = family.build(size, family_seed(&mut rng));
            for strategy in PIPELINE_STRATEGIES {
                jobs.push(Job::new(
                    family.name(),
                    size,
                    circuit.clone(),
                    strategy,
                    &spec,
                ));
            }
            if size == 16 {
                jobs.push(Job::new(family.name(), size, circuit, EC, &spec));
            }
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// The cold job list on the 1121-unit heavy-hex device: every family at
/// 16 qubits with every pipeline strategy. EC is left out: its
/// candidate search is quadratic in pairs and each candidate maps onto
/// 1121 units, which would turn one job into most of the window.
pub fn cold_heavyhex(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x4848);
    let spec = "heavyhex:21";
    let mut jobs = Vec::new();
    for family in FAMILIES {
        let circuit = family.build(16, family_seed(&mut rng));
        for strategy in PIPELINE_STRATEGIES {
            jobs.push(Job::new(family.name(), 16, circuit.clone(), strategy, spec));
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// The ≤8-unit slice checked against the state-vector simulator: the
/// qsearch gadgets, QFT-4 and the one-bit Cuccaro adder.
pub fn equivalence_slice() -> Vec<(&'static str, Circuit)> {
    vec![
        ("toffoli", toffoli()),
        ("fredkin", fredkin()),
        ("peres", peres()),
        ("full-adder", full_adder()),
        ("qft4", qft(4)),
        ("cuccaro4", qompress_workloads::cuccaro_adder(1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_are_seeded_and_distinct() {
        let a = cold_grid(3);
        let b = cold_grid(3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.circuit, y.circuit);
        }
        let mut labels: Vec<&str> = a.iter().map(|j| j.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), a.len(), "cold jobs must not repeat");
    }

    #[test]
    fn qft_is_one_and_two_qubit_only() {
        let c = qft(5);
        assert_eq!(c.n_qubits(), 5);
        assert_eq!(c.two_qubit_gate_count(), 2 * 10 + 3 * 2);
    }
}
