//! # qompress
//!
//! A mixed-radix (qubit/ququart) quantum circuit compiler reproducing
//! *Qompress: Efficient Compilation for Ququarts Exploiting Partial and
//! Mixed Radix Operations for Communication Reduction* (ASPLOS 2023).
//!
//! The pipeline maps logical qubits onto the expanded slot graph of a
//! physical topology (optionally compressing pairs of qubits into 4-level
//! ququarts), routes with the partial-SWAP move set, schedules against
//! exclusive physical units, and evaluates the Expected Probability of
//! Success split into gate-fidelity and coherence components.
//!
//! The blessed entry path is a [`Compiler`] session: it owns the
//! configuration, deduplicates per-topology precomputation across calls,
//! memoizes repeated compilations in a content-addressed result cache
//! (see [`CacheStats`]), and runs a persistent worker pool behind an MPMC
//! job queue — submit jobs with [`Compiler::submit`] and poll/wait/cancel
//! them through [`JobHandle`]s, or hand a whole list to
//! [`Compiler::compile_batch`], which submits every job to the same pool
//! and returns each job's [`JobOutcome`] in input order. The stage-level
//! functions it runs behind its caches ([`compile_cached`],
//! [`compile_with_options_cached`], [`route_cached`], [`map_circuit`],
//! …) stay public for callers that time or replay the pipeline stage by
//! stage. The `qompress-service` crate exposes the job service over a
//! line-delimited JSON wire protocol.
//!
//! ```
//! use qompress::{Compiler, Strategy};
//! use qompress_arch::Topology;
//! use qompress_circuit::{Circuit, Gate};
//!
//! // A hot pair of qubits plus a spectator.
//! let mut c = Circuit::new(3);
//! c.push(Gate::h(0));
//! for _ in 0..4 {
//!     c.push(Gate::cx(0, 1));
//! }
//! c.push(Gate::cx(1, 2));
//!
//! let session = Compiler::builder().build(); // paper config, caching on
//! let topo = Topology::grid(3);
//! let baseline = session.compile(&c, &topo, Strategy::QubitOnly);
//! let eqm = session.compile(&c, &topo, Strategy::Eqm);
//! // Compressing the hot pair turns CX2 gates into internal CXs.
//! assert!(eqm.metrics.gate_eps >= baseline.metrics.gate_eps);
//! // Recompiling either job is now a cache hit.
//! let again = session.compile(&c, &topo, Strategy::Eqm);
//! assert_eq!(again.metrics, eqm.metrics);
//! assert_eq!(session.cache_stats().hits, 1);
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the math

mod breaker;
mod config;
mod cost;
mod jobs;
mod layout;
mod mapping;
mod metrics;
mod parametric;
pub mod persist;
mod physical;
mod pipeline;
mod result_cache;
mod routing;
mod scheduling;
mod service;
mod session;
mod strategies;
mod timeline;

pub use breaker::BreakerState;
pub use config::CompilerConfig;
pub use cost::{
    cx_class, gate_cost, gate_success, swap_class, DistanceOracle, OracleMode, OracleStats,
};
pub use jobs::{BatchJob, CompletionQueue, JobHandle, JobId, JobOutcome, JobStatus};
pub use layout::Layout;
pub use mapping::{map_circuit, MappingOptions};
pub use metrics::{coherence_eps, gate_eps_from_counts, Metrics};
pub use parametric::{ParamSweep, SkeletonArtifact, SweepResult};
pub use physical::{swap4_moves, PhysicalOp, Schedule, ScheduledOp};
pub use pipeline::{compile_with_options_cached, CompilationResult, TopologyCache};
pub use result_cache::{CacheStats, TieredCacheStats};
pub use routing::route_cached;
pub use scheduling::{merge_singles, schedule_ops, trace_coherence, CoherenceTrace};
pub use service::ServiceMetrics;
pub use session::{Compiler, CompilerBuilder};
pub use strategies::{
    compile_cached, EcObjective, ExhaustiveOptions, ExhaustiveStep, Strategy, ALL_STRATEGIES,
};
pub use timeline::{parallelism_stats, render_timeline, ParallelismStats};

// The disk tier's fault-injection hook, re-exported so chaos tests can
// arm a [`CompilerBuilder::persist_faults`] plan without a direct
// `qompress-store` dependency.
pub use qompress_store::{FaultKind, FaultOp, FaultPlan};
