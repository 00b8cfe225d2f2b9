//! Batch-engine determinism: `Compiler::compile_batch` must return
//! byte-identical outcomes for the same job list at any worker count, and
//! must agree with compiling each job directly on a caching-off session.

use qompress::{BatchJob, CompilationResult, Compiler, JobOutcome, Strategy, ALL_STRATEGIES};
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use qompress_workloads::{build, random_circuit, Benchmark};

/// A mixed job list: built-in benchmarks and QASM-generator circuits,
/// every non-exhaustive strategy, and three shared topologies (so the
/// per-topology cache dedup path is exercised), one of them the 65-unit
/// heavy-hex device.
fn sweep_jobs() -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    let topo_grid = Topology::grid(8);
    let topo_line = Topology::line(8);
    let topo_heavy_hex = Topology::heavy_hex_65();
    for (bench, size) in [(Benchmark::Cuccaro, 8), (Benchmark::Bv, 8)] {
        let circuit = build(bench, size, 7);
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased] {
            jobs.push(BatchJob::new(
                format!("{bench}-{}-grid", strategy.name()),
                circuit.clone(),
                strategy,
                topo_grid.clone(),
            ));
        }
        jobs.push(BatchJob::new(
            format!("{bench}-awe-line"),
            circuit.clone(),
            Strategy::Awe,
            topo_line.clone(),
        ));
        for strategy in [Strategy::FullQuquart, Strategy::ProgressivePairing] {
            jobs.push(BatchJob::new(
                format!("{bench}-{}-heavyhex", strategy.name()),
                circuit.clone(),
                strategy,
                topo_heavy_hex.clone(),
            ));
        }
    }
    for seed in 0..3u64 {
        jobs.push(BatchJob::new(
            format!("random-{seed}"),
            random_circuit(6, 24, seed),
            Strategy::Eqm,
            topo_grid.clone(),
        ));
    }
    jobs
}

/// Compiles `jobs` as one batch on a fresh `workers`-thread session.
fn batch_on(workers: usize, jobs: &[BatchJob]) -> Vec<JobOutcome> {
    Compiler::builder()
        .workers(workers)
        .build()
        .compile_batch(jobs)
}

/// The compiled result of a job that must succeed.
fn done<'a>(job: &BatchJob, outcome: &'a JobOutcome) -> &'a CompilationResult {
    match outcome {
        JobOutcome::Done(result) => result,
        other => panic!("job `{}` did not compile: {other:?}", job.label),
    }
}

/// Renders every observable field of a batch's outcomes into one string,
/// so "byte-identical" is a literal comparison.
fn render(jobs: &[BatchJob], outcomes: &[JobOutcome]) -> String {
    assert_eq!(outcomes.len(), jobs.len(), "one outcome per job");
    let mut out = String::new();
    for (i, (job, outcome)) in jobs.iter().zip(outcomes).enumerate() {
        let r = done(job, outcome);
        out.push_str(&format!(
            "{} #{}\nstrategy: {}\nmetrics: {:?}\nschedule: {:?}\nplacements: {:?} -> {:?}\nencoded: {:?}\npairs: {:?}\n",
            job.label,
            i,
            r.strategy,
            r.metrics,
            r.schedule,
            r.initial_placements,
            r.final_placements,
            r.encoded_units,
            r.pairs,
        ));
    }
    out
}

#[test]
fn one_worker_and_many_workers_are_byte_identical() {
    let jobs = sweep_jobs();
    assert!(jobs.len() >= 8, "sweep must be at least 8 jobs");
    let serial = batch_on(1, &jobs);
    for workers in [2usize, 4, 8] {
        let parallel = batch_on(workers, &jobs);
        assert_eq!(
            render(&jobs, &serial),
            render(&jobs, &parallel),
            "worker count {workers} changed batch output"
        );
    }
}

#[test]
fn batch_agrees_with_serial_compile() {
    let jobs = sweep_jobs();
    let outcomes = batch_on(4, &jobs);
    assert_eq!(outcomes.len(), jobs.len());
    let direct = Compiler::builder().caching(false).build();
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        let got = done(job, outcome);
        let want = direct.compile(&job.circuit, &job.topology, job.strategy);
        assert_eq!(got.metrics, want.metrics, "{}", job.label);
        assert_eq!(
            format!("{:?}", got.schedule),
            format!("{:?}", want.schedule),
            "{}",
            job.label
        );
    }
}

#[test]
fn caches_are_shared_across_jobs_on_one_topology() {
    let session = Compiler::builder().workers(4).build();
    let _ = session.compile_batch(&sweep_jobs());
    // grid-8, line-8 and heavy-hex-65 only.
    assert_eq!(session.registered_topologies(), 3);
}

#[test]
fn every_strategy_runs_in_a_batch() {
    let c = build(Benchmark::Cuccaro, 6, 7);
    let topo = Topology::grid(6);
    let jobs: Vec<BatchJob> = ALL_STRATEGIES
        .into_iter()
        .map(|s| BatchJob::new(s.name(), c.clone(), s, topo.clone()))
        .collect();
    let session = Compiler::builder().workers(4).build();
    let outcomes = session.compile_batch(&jobs);
    assert_eq!(outcomes.len(), jobs.len());
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        let r = done(job, outcome);
        assert!(r.metrics.total_eps > 0.0, "{}", job.label);
        assert!(
            r.schedule.validate(&topo).is_empty(),
            "{}: invalid schedule",
            job.label
        );
    }
    assert_eq!(session.registered_topologies(), 1);
}

#[test]
fn empty_circuits_compile_in_batches() {
    let jobs = vec![BatchJob::new(
        "empty",
        Circuit::new(3),
        Strategy::QubitOnly,
        Topology::grid(3),
    )];
    let outcomes = batch_on(2, &jobs);
    assert_eq!(done(&jobs[0], &outcomes[0]).logical_gates, 0);
}
