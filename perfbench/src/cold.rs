//! `cold_grid` and `cold_heavyhex`: in-process compiles with caching off,
//! one caller thread.
//!
//! Each pass builds a fresh session, warms its per-device precomputation
//! (topology cache, center, bare oracle) and then compiles the whole job
//! list once, timing each `Compiler::compile` call. A fresh session per
//! pass keeps the per-signature oracle memo from crediting a job with
//! work an earlier pass did for the same job. Passes repeat until the
//! summed compile time reaches `--seconds`.
//!
//! The traced run alternates untraced and traced passes. In a traced
//! pass every job is additionally replayed stage by stage through the
//! public pipeline functions on a second session (same job order, so
//! nearly the same oracle memo history). For the pair strategies, the
//! strategy compile and the options-level compile on its realized pairs
//! are both timed on copies of a third session's warmed, memo-free
//! cache; see `Replay::job`.

use crate::check;
use crate::corpus::Job;
use crate::trace::{JobSpans, Tracer};
use crate::{Args, Outcome};
use qompress::{
    compile_cached, compile_with_options_cached, map_circuit, merge_singles, route_cached,
    schedule_ops, trace_coherence, CompilationResult, Compiler, CompilerConfig, Layout,
    MappingOptions, Metrics, Strategy,
};
use qompress_arch::Slot;
use qompress_circuit::{CircuitDag, InteractionGraph};
use qompress_service::result_fingerprint;
use std::time::Instant;

/// A caching-off, one-worker session with every device of `jobs` warmed.
fn warm_session(jobs: &[Job]) -> Compiler {
    let session = Compiler::builder().caching(false).workers(1).build();
    let mut specs: Vec<&str> = jobs.iter().map(|j| j.spec.as_str()).collect();
    specs.sort_unstable();
    specs.dedup();
    for spec in specs {
        let job = jobs
            .iter()
            .find(|j| j.spec == spec)
            .expect("spec from jobs");
        let cache = session.topology_cache(&job.topology);
        cache.center();
        cache.bare_oracle();
    }
    session
}

pub fn run(args: &Args, job_list: fn(u64) -> Vec<Job>) -> Outcome {
    let config = CompilerConfig::paper();
    let mut out = Outcome::default();
    let (attempted, failed) = check::equivalence_slice();
    out.attempted += attempted;
    out.failed += failed;

    let mut replay = Replay::default();
    let mut reference: Vec<u64> = Vec::new();
    let mut busy_s = 0.0;
    let mut pass = 0usize;
    while busy_s < args.seconds || (args.trace && pass < 2) {
        let traced = args.trace && pass % 2 == 1;
        let started = Instant::now();
        let jobs = job_list(args.seed);
        let session = warm_session(&jobs);
        out.setup_s.push(started.elapsed().as_secs_f64());
        // The replay sessions are set up outside the measured set-up.
        let shadows = traced.then(|| (warm_session(&jobs), warm_session(&jobs)));

        let mut results = Vec::with_capacity(jobs.len());
        let mut pass_s = 0.0;
        for (i, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let result = session.compile(&job.circuit, &job.topology, job.strategy);
            let end = Instant::now();
            let ms = (end - t).as_secs_f64() * 1e3;
            pass_s += ms / 1e3;
            if let Some((stages, options)) = &shadows {
                out.traced_latencies_ms.push(ms);
                let id = (pass * jobs.len() + i) as u64;
                let tracer = replay.tracer.get_or_insert_with(Tracer::new);
                tracer.record("session.compile", id, t, end);
                replay.job(id, job, &result, stages, options, &config);
            } else {
                out.latencies_ms.push(ms);
            }
            results.push(result);
        }
        busy_s += pass_s;
        if !traced {
            out.rates.push(jobs.len() as f64 / pass_s);
        }
        out.completed += jobs.len() as u64;
        out.attempted += jobs.len() as u64;

        // Guard: a cold workload that starts hitting a cache has stopped
        // measuring cold compiles.
        let stats = session.cache_stats();
        if session.caching_enabled() || stats.hits != 0 {
            out.fail(format!("cold pass {pass} served cache hits: {stats:?}"));
        }
        if traced && replay.oracle.is_none() {
            replay.oracle = Some(session.oracle_stats());
        }

        // Correctness, untimed: the first pass is validated on its device
        // and fingerprinted; every later pass must reproduce it exactly.
        let fps: Vec<u64> = results.iter().map(|r| result_fingerprint(r)).collect();
        if pass == 0 {
            for (job, r) in jobs.iter().zip(&results) {
                if !check::valid(r, &job.topology) {
                    out.fail(format!("{}: invalid schedule", job.label));
                }
                out.quality.add(r, &config);
            }
            reference = fps;
        } else {
            for ((job, fp), want) in jobs.iter().zip(&fps).zip(&reference) {
                if fp != want {
                    out.fail(format!("{}: result differs between passes", job.label));
                }
            }
        }
        pass += 1;
    }
    out.window_s = busy_s;
    if args.trace {
        replay.finish(&mut out, &crate::trace_path(args));
    }
    out
}

/// State of the traced replay across passes.
#[derive(Default)]
struct Replay {
    tracer: Option<Tracer>,
    /// Strategy compile minus options-level compile on its realized
    /// pairs, ms, per pair strategy (rb, awe, pp), both from the same
    /// cold signature memo.
    pair_search_ms: [Vec<f64>; 3],
    /// Route output length and length after merging, per replayed job.
    ops: Vec<(usize, usize)>,
    /// Replayed jobs with an encoded layout, and new encoded oracle
    /// signatures they created.
    encoded_jobs: usize,
    new_signatures: usize,
    /// Jobs whose stage split is unavailable: FQ and EC (no stage-level
    /// public path), or a reconstruction that was not fingerprint-equal.
    unavailable: usize,
    oracle: Option<qompress::OracleStats>,
}

fn pair_slot(strategy: Strategy) -> Option<usize> {
    match strategy {
        Strategy::RingBased => Some(0),
        Strategy::Awe => Some(1),
        Strategy::ProgressivePairing => Some(2),
        _ => None,
    }
}

/// The compressed pairs of a mapped layout, in unit order — how the
/// pipeline reports `CompilationResult::pairs`.
fn pairs_of(layout: &Layout) -> Vec<(usize, usize)> {
    (0..layout.n_units())
        .filter_map(|u| {
            Some((
                layout.qubit_at(Slot::zero(u))?,
                layout.qubit_at(Slot::one(u))?,
            ))
        })
        .collect()
}

impl Replay {
    fn job(
        &mut self,
        id: u64,
        job: &Job,
        result: &CompilationResult,
        stages: &Compiler,
        options_session: &Compiler,
        config: &CompilerConfig,
    ) {
        let tracer = self.tracer.as_mut().expect("job span recorded first");
        let options = match job.strategy {
            Strategy::QubitOnly => MappingOptions::qubit_only(),
            Strategy::Eqm => MappingOptions::eqm(),
            s if pair_slot(s).is_some() => MappingOptions::with_pairs(result.pairs.clone()),
            _ => {
                self.unavailable += 1;
                return;
            }
        };
        let fp = result_fingerprint(result);

        if let Some(slot) = pair_slot(job.strategy) {
            // Both compiles start from copies of one warmed cache with an
            // empty signature memo: the measured session's memo holds
            // whatever earlier jobs (PP's candidate search above all)
            // left in it, which would skew the difference either way.
            let template = options_session.topology_cache(&job.topology);
            let (strategy_cache, options_cache) = ((*template).clone(), (*template).clone());
            let t = Instant::now();
            let whole = compile_cached(&job.circuit, &strategy_cache, job.strategy, config);
            let strategy_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let mut again =
                compile_with_options_cached(&job.circuit, &options_cache, config, &options);
            let options_ms = t.elapsed().as_secs_f64() * 1e3;
            again.strategy = job.strategy.name().to_string();
            if result_fingerprint(&whole) == fp && result_fingerprint(&again) == fp {
                self.pair_search_ms[slot].push(strategy_ms - options_ms);
            }
        }

        let cache = stages.topology_cache(&job.topology);
        let signatures_before = cache.encoded_oracle_count();
        let (circuit, topo) = (&job.circuit, &job.topology);
        let mut buf = JobSpans::default();
        let root = tracer.open(&mut buf, "replay", id);
        let under = Some(root);
        let (dag, _) = tracer.time(&mut buf, "circuit.dag", id, under, || {
            CircuitDag::build(circuit)
        });
        tracer.time(&mut buf, "circuit.interaction", id, under, || {
            InteractionGraph::build_with_dag(circuit, &dag)
        });
        tracer.time(&mut buf, "arch.center", id, under, || topo.center());
        let (mut layout, _) = tracer.time(&mut buf, "mapping.map_circuit", id, under, || {
            map_circuit(circuit, topo, config, &options)
        });
        let initial = layout.placements();
        let encoded = layout.encoded_flags().to_vec();
        let pairs = pairs_of(&layout);
        let (ops, _) = tracer.time(&mut buf, "routing.route", id, under, || {
            route_cached(circuit, &dag, &mut layout, &cache, config)
        });
        let routed_len = ops.len();
        let (ops, _) = tracer.time(&mut buf, "scheduling.merge", id, under, || {
            merge_singles(ops)
        });
        let merged_len = ops.len();
        let (schedule, _) = tracer.time(&mut buf, "scheduling.schedule", id, under, || {
            schedule_ops(ops, topo.n_nodes(), &config.library)
        });
        let (coherence, _) = tracer.time(&mut buf, "scheduling.trace", id, under, || {
            trace_coherence(&schedule, &initial, &encoded)
        });
        let (metrics, _) = tracer.time(&mut buf, "metrics.compute", id, under, || {
            Metrics::compute(&schedule, &coherence, config)
        });
        tracer.close(&mut buf, root);

        let any_encoded = encoded.iter().any(|&e| e);
        let rebuilt = CompilationResult {
            strategy: job.strategy.name().to_string(),
            schedule,
            metrics,
            initial_placements: initial,
            final_placements: layout.placements(),
            encoded_units: encoded,
            pairs,
            logical_gates: circuit.len(),
            trace: coherence,
        };
        if result_fingerprint(&rebuilt) != fp {
            // Reported as unavailable, never estimated.
            self.unavailable += 1;
            return;
        }
        tracer.commit(buf);
        self.ops.push((routed_len, merged_len));
        if any_encoded {
            self.encoded_jobs += 1;
            self.new_signatures += cache.encoded_oracle_count() - signatures_before;
        }
    }

    fn finish(self, out: &mut Outcome, path: &std::path::Path) {
        let tracer = self.tracer.expect("traced run replays at least one pass");
        let mean = |name: &str| tracer.mean_us(name).0;
        out.set_layer("circuit.dag_us", mean("circuit.dag"));
        out.set_layer("circuit.interaction_us", mean("circuit.interaction"));
        out.set_layer("arch.center_us", mean("arch.center"));
        out.set_layer(
            "mapping.map_us",
            mean("mapping.map_circuit") - mean("arch.center"),
        );
        out.set_layer("routing.route_us", mean("routing.route"));
        out.set_layer("scheduling.merge_us", mean("scheduling.merge"));
        out.set_layer("scheduling.schedule_us", mean("scheduling.schedule"));
        out.set_layer("scheduling.trace_us", mean("scheduling.trace"));
        out.set_layer("metrics.compute_us", mean("metrics.compute"));
        let names = [
            "strategies.pair_search_ms.rb",
            "strategies.pair_search_ms.awe",
            "strategies.pair_search_ms.pp",
        ];
        for (name, samples) in names.into_iter().zip(&self.pair_search_ms) {
            if samples.is_empty() {
                println!("{name}: unavailable (no job reproduced on its realized pairs)");
            } else {
                out.set_layer(name, samples.iter().sum::<f64>() / samples.len() as f64);
            }
        }
        let n = self.ops.len().max(1) as f64;
        out.set_layer(
            "pipeline.physical_ops",
            self.ops.iter().map(|o| o.0 as f64).sum::<f64>() / n,
        );
        out.set_layer(
            "pipeline.ops_after_merge",
            self.ops.iter().map(|o| o.1 as f64).sum::<f64>() / n,
        );
        if let Some(oracle) = self.oracle {
            out.set_layer(
                "cost.oracle_rows",
                (oracle.rows_materialized + oracle.landmark_rows) as f64,
            );
            out.set_layer("cost.oracle_bytes", oracle.approx_bytes as f64);
        }
        if self.encoded_jobs > 0 {
            out.set_layer(
                "cost.signature_reuse",
                1.0 - self.new_signatures as f64 / self.encoded_jobs as f64,
            );
        }
        out.set_layer("trace.replayed_jobs", self.ops.len() as f64);
        out.set_layer("trace.split_unavailable", self.unavailable as f64);
        println!(
            "replayed {} jobs stage by stage; split unavailable for {} (FQ/EC or not \
             fingerprint-equal)",
            self.ops.len(),
            self.unavailable
        );
        tracer.finish(path);
    }
}
