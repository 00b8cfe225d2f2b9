//! Parallel batch compilation: the job and result types of
//! [`crate::Compiler::compile_batch`] and
//! [`crate::Compiler::try_compile_batch`].
//!
//! A batch is a list of independent [`BatchJob`]s — each a `(circuit,
//! strategy, topology)` triple — submitted to the persistent worker pool
//! of a session's job service. Distinct topologies are deduplicated into
//! shared [`crate::TopologyCache`]s by structural fingerprint, so the
//! expanded slot graph and the distance oracles are built once per
//! topology instead of once per job, and repeated jobs are served out of
//! the session's content-addressed result cache.
//!
//! Every individual compilation is deterministic, jobs never communicate,
//! and results are stored at their input index — so the output is
//! **identical for any worker count**, including a serial `workers(1)`
//! session (pinned by `tests/batch_parallel.rs`).

use crate::pipeline::CompilationResult;
use crate::result_cache::CacheStats;
use crate::strategies::Strategy;
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use std::sync::Arc;
use std::time::Duration;

/// One independent compilation job.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Free-form identifier echoed into the result (benchmark name, file
    /// stem, sweep coordinates, …).
    pub label: String,
    /// When the job was minted by [`crate::ParamSweep::job`], the sweep
    /// binding that routes it through the skeleton-stamp path instead of a
    /// full pipeline run. `None` for ordinary jobs.
    pub(crate) binding: Option<crate::parametric::SweepBinding>,
    /// The logical circuit to compile.
    pub circuit: Circuit,
    /// The compression strategy to apply.
    pub strategy: Strategy,
    /// The physical topology to compile onto.
    pub topology: Topology,
}

impl BatchJob {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        circuit: Circuit,
        strategy: Strategy,
        topology: Topology,
    ) -> Self {
        BatchJob {
            label: label.into(),
            binding: None,
            circuit,
            strategy,
            topology,
        }
    }
}

/// The outcome of one job: its input label plus the compilation.
///
/// The result is behind an [`Arc`] because a session may serve the same
/// compilation to several duplicate jobs from its result cache; field
/// access works unchanged through deref.
#[derive(Debug, Clone)]
pub struct BatchJobResult {
    /// Label copied from the input job.
    pub label: String,
    /// Position of the job in the submitted slice.
    pub job_index: usize,
    /// The compiled circuit and its metrics.
    pub result: Arc<CompilationResult>,
}

/// All results of a batch, in input order.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-job outcomes, `results[i]` belonging to `jobs[i]`.
    pub results: Vec<BatchJobResult>,
    /// Number of distinct topology structures (= shared caches used).
    pub distinct_topologies: usize,
    /// Wall-clock time of the compilation phase.
    pub elapsed: Duration,
    /// Result-cache activity attributable to this batch (all zeros when
    /// the executing session has caching disabled).
    pub cache: CacheStats,
}

/// Why one job of a [`crate::Compiler::try_compile_batch`] call did not
/// produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchJobError {
    /// The job's compilation panicked; the payload is the panic message
    /// (e.g. a circuit too large for its topology).
    Panicked(String),
    /// The job was cancelled before a worker finished it.
    Cancelled,
}

impl std::fmt::Display for BatchJobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchJobError::Panicked(message) => write!(f, "panicked: {message}"),
            BatchJobError::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// One failed job of a [`crate::Compiler::try_compile_batch`] call: the
/// job's identity plus what went wrong. Failures are isolated — the
/// other jobs of the batch still complete and return results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJobFailure {
    /// Label copied from the input job.
    pub label: String,
    /// Position of the job in the submitted slice.
    pub job_index: usize,
    /// What went wrong.
    pub error: BatchJobError,
}

impl std::fmt::Display for BatchJobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch job `{}` {}", self.label, self.error)
    }
}

impl std::error::Error for BatchJobFailure {}

/// All per-job outcomes of a [`crate::Compiler::try_compile_batch`]
/// call, in input order — the non-panicking sibling of [`BatchResult`].
#[derive(Debug)]
pub struct TryBatchResult {
    /// Per-job outcomes, `results[i]` belonging to `jobs[i]`.
    pub results: Vec<Result<BatchJobResult, BatchJobFailure>>,
    /// Number of distinct topology structures (= shared caches used).
    pub distinct_topologies: usize,
    /// Wall-clock time of the compilation phase.
    pub elapsed: Duration,
    /// Result-cache activity attributable to this batch (all zeros when
    /// the executing session has caching disabled).
    pub cache: CacheStats,
}

impl TryBatchResult {
    /// Number of jobs that produced a result.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of jobs that failed (panicked or cancelled).
    pub fn failed(&self) -> usize {
        self.results.len() - self.succeeded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Compiler;
    use qompress_circuit::Gate;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::h(0));
        for i in 0..n - 1 {
            c.push(Gate::cx(i, i + 1));
        }
        c
    }

    fn small_jobs() -> Vec<BatchJob> {
        let mut jobs = Vec::new();
        for (i, strategy) in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased]
            .into_iter()
            .enumerate()
        {
            jobs.push(BatchJob::new(
                format!("ghz5-grid-{}", strategy.name()),
                ghz(5),
                strategy,
                Topology::grid(5),
            ));
            jobs.push(BatchJob::new(
                format!("ghz4-line-{i}"),
                ghz(4),
                strategy,
                Topology::line(4),
            ));
        }
        jobs
    }

    fn run(jobs: &[BatchJob], workers: usize) -> BatchResult {
        Compiler::builder()
            .workers(workers)
            .build()
            .compile_batch(jobs)
    }

    #[test]
    fn batch_results_are_input_ordered() {
        let jobs = small_jobs();
        let out = run(&jobs, 3);
        assert_eq!(out.results.len(), jobs.len());
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.job_index, i);
            assert_eq!(r.label, jobs[i].label);
            assert_eq!(r.result.strategy, jobs[i].strategy.name());
        }
    }

    #[test]
    fn topologies_are_deduplicated() {
        assert_eq!(
            run(&small_jobs(), 2).distinct_topologies,
            2,
            "grid-5 and line-4 caches only"
        );
    }

    #[test]
    fn batch_matches_direct_compilation() {
        let jobs = small_jobs();
        let out = run(&jobs, 4);
        let direct = Compiler::builder().caching(false).build();
        for (job, got) in jobs.iter().zip(&out.results) {
            let want = direct.compile(&job.circuit, &job.topology, job.strategy);
            assert_eq!(got.result.metrics, want.metrics, "{}", job.label);
            assert_eq!(got.result.schedule, want.schedule, "{}", job.label);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = run(&[], 4);
        assert!(out.results.is_empty());
        assert_eq!(out.distinct_topologies, 0);
        assert_eq!(out.cache, CacheStats::default());
    }

    #[test]
    fn duplicate_jobs_hit_the_cache() {
        let mut jobs = small_jobs();
        jobs.extend(small_jobs());
        let out = run(&jobs, 1);
        assert_eq!(out.cache.misses, 6, "six distinct jobs");
        assert_eq!(out.cache.hits, 6, "six exact repeats");
    }
}
