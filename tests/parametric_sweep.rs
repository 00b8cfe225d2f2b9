//! Parametric skeleton compilation, end to end: stamped sweep results are
//! byte-identical to compiling each bound circuit directly — across every
//! strategy and the line/grid/ring topologies — and the skeleton cache
//! does exactly one structural compile per sweep.

use proptest::prelude::*;
use qompress::{BatchJob, CacheStats, Compiler, ParamSweep, Strategy, ALL_STRATEGIES};
use qompress_arch::Topology;
use qompress_circuit::{ParametricCircuit, RotationAxis};
use qompress_qasm::random_parametric_circuit;

/// Angle vectors for a skeleton with `n_params` parameters, derived
/// deterministically from `salt`.
fn bindings_for(skeleton: &ParametricCircuit, count: usize, salt: f64) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..skeleton.n_params())
                .map(|p| salt + 0.7 * i as f64 - 0.31 * p as f64)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `compile_sweep(skeleton, bindings)` must produce, per binding, the
    /// byte-identical result of `compile(skeleton.bind(angles))` on an
    /// independent uncached session — for random skeletons under every
    /// strategy (including exhaustive) and topology family.
    #[test]
    fn stamped_sweep_results_equal_direct_compiles(
        n in 3usize..6,
        gates in 1usize..22,
        params in 0usize..4,
        seed in 0u64..10_000,
        strategy_idx in 0usize..ALL_STRATEGIES.len(),
        topo_idx in 0usize..3,
        raw_angles in proptest::collection::vec(-3.15f64..3.15, 8),
    ) {
        let skeleton = random_parametric_circuit(n, gates, params, seed);
        let topo = match topo_idx {
            0 => Topology::line(n),
            1 => Topology::grid(n),
            _ => Topology::ring(n),
        };
        let strategy = ALL_STRATEGIES[strategy_idx];
        let bindings = vec![
            raw_angles[..skeleton.n_params()].to_vec(),
            raw_angles[4..4 + skeleton.n_params()].to_vec(),
        ];

        let session = Compiler::new();
        let swept = session.compile_sweep(&skeleton, &topo, strategy, &bindings);
        prop_assert_eq!(swept.results.len(), bindings.len());
        let reference = Compiler::builder().caching(false).build();
        for (stamped, angles) in swept.results.iter().zip(&bindings) {
            let direct = reference.compile(&skeleton.bind(angles), &topo, strategy);
            prop_assert_eq!(
                format!("{:?}", **stamped),
                format!("{:?}", *direct),
                "strategy {} on {}", strategy.name(), topo.name()
            );
        }
    }
}

#[test]
fn sweep_cache_stats_are_exact() {
    let session = Compiler::new();
    let skeleton = random_parametric_circuit(5, 30, 3, 11);
    assert!(skeleton.site_count() > 0, "fixture must have live sites");
    let topo = Topology::grid(5);
    let bindings = bindings_for(&skeleton, 8, 0.25);

    // Cold sweep: exactly one structural compile, every other binding a
    // skeleton-cache hit.
    let cold = session.compile_sweep(&skeleton, &topo, Strategy::Eqm, &bindings);
    assert_eq!(
        (cold.skeleton_cache.misses, cold.skeleton_cache.hits),
        (1, bindings.len() as u64 - 1)
    );
    // Warm sweep over the same structure: zero compiles.
    let warm = session.compile_sweep(&skeleton, &topo, Strategy::Eqm, &bindings);
    assert_eq!(
        (warm.skeleton_cache.misses, warm.skeleton_cache.hits),
        (0, bindings.len() as u64)
    );
    assert_eq!(session.skeleton_cache_stats().misses, 1);
    // Different parameter *values* never re-key the skeleton; a different
    // strategy does.
    let other_values = session.compile_sweep(
        &skeleton,
        &topo,
        Strategy::Eqm,
        &bindings_for(&skeleton, 2, 1.75),
    );
    assert_eq!(other_values.skeleton_cache.misses, 0);
    let other_strategy =
        session.compile_sweep(&skeleton, &topo, Strategy::QubitOnly, &bindings[..2]);
    assert_eq!(other_strategy.skeleton_cache.misses, 1);

    // Stamped results are byte-identical to direct compiles, and the
    // sweep never touched the concrete result cache.
    let reference = Compiler::builder().caching(false).build();
    for (stamped, angles) in cold.results.iter().zip(&bindings) {
        let direct = reference.compile(&skeleton.bind(angles), &topo, Strategy::Eqm);
        assert_eq!(format!("{:?}", **stamped), format!("{:?}", *direct));
    }
    assert_eq!(session.cache_stats(), CacheStats::default());
}

#[test]
fn sweep_jobs_through_the_job_service_stamp_instead_of_recompiling() {
    let session = Compiler::builder().workers(2).build();
    let skeleton = random_parametric_circuit(4, 24, 2, 7);
    let topo = Topology::grid(4);
    let bindings = bindings_for(&skeleton, 6, 0.4);

    let sweep = ParamSweep::new(skeleton.clone());
    let jobs: Vec<BatchJob> = bindings
        .iter()
        .enumerate()
        .map(|(i, angles)| sweep.job(format!("bind-{i}"), Strategy::Eqm, topo.clone(), angles))
        .collect();
    let outcomes = session.compile_batch(&jobs);

    // All jobs of one `ParamSweep` share a single artifact slot: exactly
    // one structural compile, and the concrete result cache is bypassed
    // entirely (stamped results are never inserted).
    assert_eq!(
        session.cache_stats(),
        CacheStats::default(),
        "sweep jobs must not touch the concrete cache"
    );
    let sk = session.skeleton_cache_stats();
    assert_eq!((sk.misses, sk.hits), (1, 0));

    let reference = Compiler::builder().caching(false).build();
    assert_eq!(outcomes.len(), jobs.len());
    for ((job, outcome), angles) in jobs.iter().zip(&outcomes).zip(&bindings) {
        let stamped = outcome.result().expect("sweep job compiles");
        let direct = reference.compile(&skeleton.bind(angles), &topo, Strategy::Eqm);
        assert_eq!(
            format!("{:?}", **stamped),
            format!("{:?}", *direct),
            "{}",
            job.label
        );
    }
}

#[test]
fn caching_disabled_sweep_still_compiles_structure_once_per_call() {
    let session = Compiler::builder().caching(false).build();
    let skeleton = random_parametric_circuit(4, 18, 2, 3);
    let topo = Topology::line(4);
    let bindings = bindings_for(&skeleton, 5, 0.9);
    let swept = session.compile_sweep(&skeleton, &topo, Strategy::FullQuquart, &bindings);
    // No cache => no counters, but the hoisted artifact still serves the
    // whole call and every result matches a direct compile.
    assert_eq!(swept.skeleton_cache, CacheStats::default());
    let reference = Compiler::builder().caching(false).build();
    for (stamped, angles) in swept.results.iter().zip(&bindings) {
        let direct = reference.compile(&skeleton.bind(angles), &topo, Strategy::FullQuquart);
        assert_eq!(format!("{:?}", **stamped), format!("{:?}", *direct));
    }
}

#[test]
#[should_panic(expected = "not finite")]
fn sweep_rejects_non_finite_angles() {
    let session = Compiler::new();
    let mut skeleton = ParametricCircuit::new(3);
    skeleton.push_param(RotationAxis::Rz, 0, 1);
    let _ = session.compile_sweep(
        &skeleton,
        &Topology::line(3),
        Strategy::Eqm,
        &[vec![f64::NAN]],
    );
}
