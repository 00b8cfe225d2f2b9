//! Session-cache correctness: a `Compiler` with result caching on must be
//! observationally identical to one with caching off — the cache may only
//! ever change *when* work happens, never *what* comes out — and its
//! `CacheStats` must count exactly.

use proptest::prelude::*;
use qompress::{BatchJob, CacheStats, CompilationResult, Compiler, Strategy};
use qompress_arch::Topology;
use qompress_workloads::random_circuit;

/// Renders every observable field of a compilation, so "byte-identical"
/// is a literal string comparison (the same helper shape as
/// `tests/batch_parallel.rs`).
fn render(r: &CompilationResult) -> String {
    format!(
        "{}\nmetrics: {:?}\nschedule: {:?}\nplacements: {:?} -> {:?}\nencoded: {:?}\npairs: {:?}\ngates: {}\ntrace: {:?}\n",
        r.strategy,
        r.metrics,
        r.schedule,
        r.initial_placements,
        r.final_placements,
        r.encoded_units,
        r.pairs,
        r.logical_gates,
        r.trace,
    )
}

fn strategy_from_index(i: usize) -> Strategy {
    [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
        Strategy::ProgressivePairing,
    ][i % 5]
}

fn topology_from_index(i: usize, n: usize) -> Topology {
    match i % 3 {
        0 => Topology::grid(n),
        1 => Topology::line(n),
        _ => Topology::ring(n.max(3)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_equals_uncached_on_random_jobs(
        n in 3usize..6,
        gates in 6usize..20,
        seed in 0u64..500,
        strategy_idx in 0usize..5,
        topo_idx in 0usize..3,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let topo = topology_from_index(topo_idx, n);
        let strategy = strategy_from_index(strategy_idx);

        // verify_hits additionally recompiles on every hit and asserts
        // byte-identity inside the session itself.
        let cached = Compiler::builder().verify_hits(true).build();
        let uncached = Compiler::builder().caching(false).build();

        let warm = cached.compile(&circuit, &topo, strategy);
        let hit = cached.compile(&circuit, &topo, strategy);
        let fresh = uncached.compile(&circuit, &topo, strategy);

        prop_assert_eq!(render(&warm), render(&fresh));
        prop_assert_eq!(render(&hit), render(&fresh));
        let stats = cached.cache_stats();
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(uncached.cache_stats(), CacheStats::default());
    }
}

#[test]
fn stats_count_exactly_on_a_repeated_three_job_sequence() {
    let session = Compiler::builder().workers(1).build();
    let jobs: [(Topology, Strategy); 3] = [
        (Topology::grid(5), Strategy::Eqm),
        (Topology::grid(5), Strategy::QubitOnly),
        (Topology::line(5), Strategy::RingBased),
    ];
    let circuit = random_circuit(5, 18, 11);

    // Pass 1: three distinct jobs, three misses, nothing to hit.
    for (topo, strategy) in &jobs {
        let _ = session.compile(&circuit, topo, *strategy);
    }
    assert_eq!(
        session.cache_stats(),
        CacheStats {
            hits: 0,
            misses: 3,
            evictions: 0
        }
    );

    // Passes 2 and 3: every job repeats, every lookup hits.
    for _ in 0..2 {
        for (topo, strategy) in &jobs {
            let _ = session.compile(&circuit, topo, *strategy);
        }
    }
    let stats = session.cache_stats();
    assert_eq!(
        stats,
        CacheStats {
            hits: 6,
            misses: 3,
            evictions: 0
        }
    );
    assert!((stats.hit_rate() - 6.0 / 9.0).abs() < 1e-12);
    assert_eq!(session.cached_results(), 3);
    // grid-5 and line-5 only — the registry dedupes the repeats.
    assert_eq!(session.registered_topologies(), 2);
}

/// The acceptance pin: a repeated-job sweep through `compile_batch` must
/// report cache hits > 0 and be byte-identical to the same sweep with
/// caching disabled.
#[test]
fn repeated_batch_sweep_hits_and_stays_byte_identical() {
    // A duplicate-topology sweep where half the jobs are exact repeats.
    let mut jobs = Vec::new();
    for seed in 0..2u64 {
        let circuit = random_circuit(6, 20, seed);
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::Awe] {
            jobs.push(BatchJob::new(
                format!("seed{seed}-{}", strategy.name()),
                circuit.clone(),
                strategy,
                Topology::grid(6),
            ));
        }
    }
    let repeats = jobs.clone();
    jobs.extend(repeats);

    let cached = Compiler::builder().verify_hits(true).workers(4).build();
    let uncached = Compiler::builder().caching(false).workers(4).build();
    let with_cache = cached.compile_batch(&jobs);
    let without_cache = uncached.compile_batch(&jobs);

    let stats = cached.cache_stats();
    assert!(
        stats.hits > 0,
        "repeated sweep must hit the cache: {stats:?}"
    );
    assert_eq!(stats.hits + stats.misses, jobs.len() as u64);
    assert_eq!(uncached.cache_stats(), CacheStats::default());

    assert_eq!(with_cache.len(), jobs.len());
    assert_eq!(without_cache.len(), jobs.len());
    for (job, (a, b)) in jobs.iter().zip(with_cache.iter().zip(&without_cache)) {
        let (a, b) = (a.result().expect("compiles"), b.result().expect("compiles"));
        assert_eq!(render(a), render(b), "{}", job.label);
    }
}

#[test]
fn session_outlives_batches_and_keeps_hitting() {
    // The session advantage over a one-shot session per batch: caches
    // persist across batches, so resubmitting a sweep is pure hits.
    let circuit = random_circuit(5, 16, 3);
    let jobs: Vec<BatchJob> = [Strategy::QubitOnly, Strategy::Eqm]
        .into_iter()
        .map(|s| BatchJob::new(s.name(), circuit.clone(), s, Topology::grid(5)))
        .collect();

    let session = Compiler::builder().workers(2).build();
    let first = session.compile_batch(&jobs);
    let after_first = session.cache_stats();
    assert_eq!(after_first.hits, 0);
    assert_eq!(after_first.misses, jobs.len() as u64);

    let second = session.compile_batch(&jobs);
    let second_stats = session.cache_stats().since(&after_first);
    assert_eq!(second_stats.hits, jobs.len() as u64);
    assert_eq!(second_stats.misses, 0);
    assert_eq!((first.len(), second.len()), (jobs.len(), jobs.len()));
    for (a, b) in first.iter().zip(&second) {
        let (a, b) = (a.result().expect("compiles"), b.result().expect("compiles"));
        assert_eq!(render(a), render(b));
    }
}

#[test]
fn exhaustive_strategy_memoizes_candidates_in_the_session_cache() {
    // A strategy-level EC compile runs the §5.1 search *through* the
    // session: its per-candidate (circuit, pair-set) evaluations land in
    // the result cache (misses), each round's post-commit recompile is a
    // hit, and a repeated sweep recompiles nothing at all.
    let circuit = {
        let mut c = qompress_circuit::Circuit::new(4);
        for _ in 0..10 {
            c.push(qompress_circuit::Gate::cx(0, 1));
        }
        c.push(qompress_circuit::Gate::cx(1, 2));
        c.push(qompress_circuit::Gate::cx(2, 3));
        c
    };
    let topo = Topology::grid(4);
    let strategy = Strategy::Exhaustive { ordered: true };

    let session = Compiler::builder().build();
    let first = session.compile(&circuit, &topo, strategy);
    let after_first = session.cache_stats();
    assert!(
        after_first.misses > 1,
        "candidate evaluations must be cached individually: {after_first:?}"
    );
    assert!(
        after_first.hits > 0,
        "post-commit recompiles must hit: {after_first:?}"
    );

    let replay = session.compile(&circuit, &topo, strategy);
    let after_replay = session.cache_stats();
    assert_eq!(
        after_replay.misses, after_first.misses,
        "the repeated sweep must be pure hits"
    );
    assert!(after_replay.hits > after_first.hits);
    assert_eq!(render(&first), render(&replay));

    // And the whole search stays observationally identical to a
    // caching-off session.
    let uncached = Compiler::builder().caching(false).build();
    let fresh = uncached.compile(&circuit, &topo, strategy);
    assert_eq!(render(&first), render(&fresh));
}
