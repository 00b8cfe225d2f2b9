//! Criterion benchmarks of the compiler's classical performance: mapping,
//! routing and full strategy pipelines (the paper discusses the classical
//! scalability of EC vs the cheaper strategies, §5).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qompress::{
    map_circuit, route_cached, BatchJob, Compiler, CompilerConfig, ExhaustiveOptions,
    MappingOptions, Strategy,
};
use qompress_arch::Topology;
use qompress_circuit::CircuitDag;
use qompress_workloads::{build, random_circuit, Benchmark};

/// A one-shot caching-off session: each iteration pays a whole cold
/// compile, per-topology precomputation included.
fn cold() -> Compiler {
    Compiler::builder().caching(false).build()
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_cuccaro");
    for size in [10usize, 20, 30] {
        let circuit = build(Benchmark::Cuccaro, size, 7);
        let topo = Topology::grid(size);
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased] {
            group.bench_with_input(BenchmarkId::new(strategy.name(), size), &size, |b, _| {
                b.iter(|| cold().compile(&circuit, &topo, strategy));
            });
        }
    }
    group.finish();
}

fn bench_mapping_only(c: &mut Criterion) {
    let config = CompilerConfig::paper();
    let mut group = c.benchmark_group("mapping");
    for size in [16usize, 32] {
        let circuit = build(Benchmark::QaoaTorus, size, 7);
        let topo = Topology::grid(size);
        group.bench_with_input(BenchmarkId::new("eqm", size), &size, |b, _| {
            b.iter(|| qompress::map_circuit(&circuit, &topo, &config, &MappingOptions::eqm()));
        });
    }
    group.finish();
}

fn bench_strategy_search(c: &mut Criterion) {
    let circuit = build(Benchmark::Cuccaro, 12, 7);
    let topo = Topology::grid(12);
    let mut group = c.benchmark_group("strategy_search");
    group.sample_size(10);
    group.bench_function("pp", |b| {
        b.iter(|| cold().compile(&circuit, &topo, Strategy::ProgressivePairing));
    });
    group.bench_function("ec_one_round", |b| {
        // A fresh caching session per iteration, as a reused one would
        // serve every candidate from its result cache.
        b.iter(|| {
            Compiler::new().compile_exhaustive(
                &circuit,
                &topo,
                &ExhaustiveOptions {
                    ordered: true,
                    max_rounds: 1,
                    ..Default::default()
                },
            )
        });
    });
    group.bench_function("qubit_only_pipeline", |b| {
        b.iter(|| cold().compile_with_options(&circuit, &topo, &MappingOptions::qubit_only()));
    });
    group.finish();
}

/// Batch-engine throughput: the same ≥8-job sweep at 1/2/4/8 workers. On a
/// multi-core host the wall-clock time should fall as workers rise (the
/// jobs are independent and the per-topology caches are shared); on a
/// single-core host the worker sweep measures the engine's overhead.
fn bench_batch_throughput(c: &mut Criterion) {
    let topo = Topology::grid(16);
    let mut jobs = Vec::new();
    for (name, circuit) in [
        ("cuccaro16", build(Benchmark::Cuccaro, 16, 7)),
        ("qaoa-cyl16", build(Benchmark::QaoaCylinder, 16, 7)),
        ("random16", random_circuit(16, 64, 7)),
    ] {
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased] {
            jobs.push(BatchJob::new(
                format!("{name}-{}", strategy.name()),
                circuit.clone(),
                strategy,
                topo.clone(),
            ));
        }
    }
    assert!(jobs.len() >= 8, "throughput sweep needs at least 8 jobs");

    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    Compiler::builder()
                        .workers(workers)
                        .build()
                        .compile_batch(&jobs)
                });
            },
        );
    }
    group.finish();
}

/// Per-job overhead of the session job service: submit-then-wait through
/// the persistent worker pool and its MPMC queue versus calling the
/// pipeline on the session directly. The delta is the queue handoff +
/// handle wakeup cost a streaming client pays per job; `submit_wait_hit`
/// isolates it fully by serving the job from the result cache.
fn bench_job_service(c: &mut Criterion) {
    let circuit = build(Benchmark::Cuccaro, 16, 7);
    let topo = Topology::grid(16);
    let mut group = c.benchmark_group("job_service");
    group.sample_size(10);

    let direct = Compiler::builder().workers(1).caching(false).build();
    let _ = direct.compile(&circuit, &topo, Strategy::Eqm); // warm registry
    group.bench_function("direct_compile", |b| {
        b.iter(|| direct.compile(black_box(&circuit), &topo, Strategy::Eqm));
    });

    let pooled = Compiler::builder().workers(1).caching(false).build();
    let template = BatchJob::new("bench", circuit.clone(), Strategy::Eqm, topo.clone());
    let _ = pooled.submit(template.clone()).wait(); // warm registry + pool
    group.bench_function("submit_wait", |b| {
        b.iter(|| pooled.submit(black_box(template.clone())).wait());
    });

    let cached = Compiler::builder().workers(1).build();
    let _ = cached.submit(template.clone()).wait();
    group.bench_function("submit_wait_hit", |b| {
        b.iter(|| cached.submit(black_box(template.clone())).wait());
    });
    group.finish();
}

/// Cached-vs-uncached recompilation of the same job: the session's
/// content-addressed result cache must turn a repeat into a lookup that
/// skips mapping, routing and scheduling entirely, so `cached_recompile`
/// should run orders of magnitude faster than `uncached_recompile`.
fn bench_result_cache(c: &mut Criterion) {
    let circuit = build(Benchmark::Cuccaro, 16, 7);
    let topo = Topology::grid(16);
    let mut group = c.benchmark_group("result_cache");
    group.sample_size(10);

    let uncached = Compiler::builder().caching(false).build();
    // Warm the topology registry so both variants measure (re)compilation,
    // not first-touch graph construction.
    let _ = uncached.compile(&circuit, &topo, Strategy::Eqm);
    group.bench_function("uncached_recompile", |b| {
        b.iter(|| uncached.compile(black_box(&circuit), &topo, Strategy::Eqm));
    });

    let cached = Compiler::builder().build();
    let _ = cached.compile(&circuit, &topo, Strategy::Eqm);
    group.bench_function("cached_recompile", |b| {
        b.iter(|| cached.compile(black_box(&circuit), &topo, Strategy::Eqm));
    });
    group.finish();
}

/// Route-phase-only timings (mapping excluded) on communication-heavy
/// circuits over line/grid/ring, plus a one-round exhaustive search
/// through a session. This is the hot loop the incremental router
/// targets: lookahead via the pending-gate list instead of an O(gates)
/// rescan, scratch-buffer scoring, and memoized fallback paths.
/// `tests/routing_determinism.rs` pins the routes these time.
fn bench_routing_perf(c: &mut Criterion) {
    let config = CompilerConfig::paper();
    let session = Compiler::builder().config(config.clone()).build();
    let mut group = c.benchmark_group("routing_perf");
    group.sample_size(20);
    let size = 16usize;
    let circuits = [
        ("cuccaro16", build(Benchmark::Cuccaro, size, 7)),
        ("qram16", build(Benchmark::Qram, size, 7)),
        ("qasm-random16", random_circuit(size, 6 * size, 7)),
    ];
    for (name, circuit) in &circuits {
        let dag = CircuitDag::build(circuit);
        for topo in [
            Topology::line(size),
            Topology::grid(size),
            Topology::ring(size),
        ] {
            let tcache = session.topology_cache(&topo);
            let base = map_circuit(circuit, &topo, &config, &MappingOptions::qubit_only());
            // Warm the shared oracle rows so iterations time routing, not
            // first-touch Dijkstra.
            let mut warm = base.clone();
            let _ = route_cached(circuit, &dag, &mut warm, &tcache, &config);
            group.bench_function(BenchmarkId::new(*name, topo.name()), |b| {
                b.iter(|| {
                    let mut layout = base.clone();
                    route_cached(black_box(circuit), &dag, &mut layout, &tcache, &config)
                });
            });
        }
    }
    // One exhaustive round on a fresh session per iteration (a reused
    // session would serve every candidate from its result cache and time
    // the cache instead of the search).
    let ec_circuit = build(Benchmark::Cuccaro, 8, 7);
    let ec_topo = Topology::grid(8);
    group.sample_size(10);
    group.bench_function("ec_round_session", |b| {
        b.iter(|| {
            let fresh = Compiler::builder().config(config.clone()).build();
            fresh.compile_exhaustive(
                &ec_circuit,
                &ec_topo,
                &ExhaustiveOptions {
                    ordered: true,
                    max_rounds: 1,
                    ..ExhaustiveOptions::default()
                },
            )
        });
    });
    group.finish();
}

/// Utility-scale routing: the same 16-qubit workloads routed on a
/// 1121-unit heavy-hex member and a 1024-unit grid, where the session's
/// distance oracle runs in landmark mode (K farthest-point-sampled rows
/// plus a bounded exact hot-row LRU) instead of materialising all-pairs
/// rows. Warm iterations time the route phase against the shared
/// landmark estimates.
fn bench_large_device_routing(c: &mut Criterion) {
    let config = CompilerConfig::paper();
    let session = Compiler::builder().config(config.clone()).build();
    let mut group = c.benchmark_group("large_device_routing");
    group.sample_size(10);
    let circuit = build(Benchmark::Cuccaro, 16, 7);
    let dag = CircuitDag::build(&circuit);
    for topo in [Topology::heavy_hex(21), Topology::grid(1024)] {
        let tcache = session.topology_cache(&topo);
        let base = map_circuit(&circuit, &topo, &config, &MappingOptions::qubit_only());
        let mut warm = base.clone();
        let _ = route_cached(&circuit, &dag, &mut warm, &tcache, &config);
        group.bench_function(BenchmarkId::new("cuccaro16", topo.name()), |b| {
            b.iter(|| {
                let mut layout = base.clone();
                route_cached(black_box(&circuit), &dag, &mut layout, &tcache, &config)
            });
        });
    }
    group.finish();
}

/// Adjacency probe: `Topology::has_edge` over every node pair of the
/// 65-qubit heavy-hex device, each a binary search of one node's sorted
/// neighbour run in the CSR adjacency. The main router reads
/// `ExpandedGraph::units_coupled`, a bitmap, instead; the full-ququart
/// baseline's BFS router is the compile path that still probes this.
fn bench_has_edge(c: &mut Criterion) {
    let topo = Topology::heavy_hex_65();
    let n = topo.n_nodes();
    let mut group = c.benchmark_group("topology_adjacency");
    group.bench_function("has_edge_65x65", |b| {
        b.iter(|| {
            let mut coupled = 0usize;
            for a in 0..n {
                for v in 0..n {
                    if topo.has_edge(black_box(a), black_box(v)) {
                        coupled += 1;
                    }
                }
            }
            coupled
        });
    });
    group.finish();
}

/// Parametric skeleton serving: what one angle set costs on the warm
/// path versus recompiling the bound circuit from scratch. `bind_only`
/// is the pure skeleton→circuit materialisation, `bind_stamp` the full
/// serving cost (bind is implicit in the stamp — it validates and
/// writes the angles into a clone of the cached template), and
/// `full_compile` the mapping/routing/scheduling pipeline the stamp
/// path skips. `sweep_warm_32` measures a whole 32-binding
/// `compile_sweep` served from the skeleton cache.
fn bench_parametric_bind(c: &mut Criterion) {
    let skeleton = qompress_qasm::random_parametric_circuit(12, 260, 4, 7);
    let topo = Topology::grid(12);
    let session = Compiler::new();
    let artifact = session.compile_skeleton(&skeleton, &topo, Strategy::Eqm);
    let angles = vec![0.17, 1.3, -2.4, 0.9];
    let bindings: Vec<Vec<f64>> = (0..32)
        .map(|i| angles.iter().map(|a| a + 0.05 * i as f64).collect())
        .collect();
    let uncached = Compiler::builder().caching(false).build();
    let _ = uncached.compile(&skeleton.bind(&angles), &topo, Strategy::Eqm); // warm registry

    let mut group = c.benchmark_group("parametric_bind");
    group.bench_function("bind_only", |b| {
        b.iter(|| skeleton.bind(black_box(&angles)));
    });
    group.bench_function("bind_stamp", |b| {
        b.iter(|| artifact.stamp(black_box(&angles)));
    });
    group.bench_function("full_compile", |b| {
        b.iter(|| uncached.compile(&skeleton.bind(black_box(&angles)), &topo, Strategy::Eqm));
    });
    group.sample_size(20);
    group.bench_function("sweep_warm_32", |b| {
        b.iter(|| session.compile_sweep(&skeleton, &topo, Strategy::Eqm, black_box(&bindings)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_pipeline,
    bench_mapping_only,
    bench_strategy_search,
    bench_batch_throughput,
    bench_job_service,
    bench_result_cache,
    bench_routing_perf,
    bench_large_device_routing,
    bench_has_edge,
    bench_parametric_bind
);
criterion_main!(benches);
