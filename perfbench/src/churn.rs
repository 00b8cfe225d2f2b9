//! `tier_churn`: in-process, one thread, a small memory tier in front of
//! the on-disk tier (`persist_dir`), with reads and writes interleaved.
//!
//! The request list mixes three kinds in equal shares:
//! * first-time jobs — a miss: compile, then write back to both tiers;
//! * recent re-requests — jobs still in the memory tier's LRU;
//! * old re-requests — jobs the LRU has evicted, so always disk hits.
//!
//! The list is planned against a model of the memory tier's LRU, so the
//! exact memory / disk / miss split is known in advance and asserted
//! after every epoch. An epoch runs the whole list on a fresh session
//! over a fresh directory; epochs repeat until the summed request time
//! reaches `--seconds`.

use crate::check;
use crate::corpus::Rng;
use crate::trace::{JobSpans, Tracer};
use crate::{Args, Outcome};
use qompress::persist::{decode_result, encode_result};
use qompress::{CompilationResult, Compiler, CompilerConfig, Strategy};
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use qompress_service::result_fingerprint;
use qompress_store::{DiskStore, LoadOutcome};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Memory-tier capacity, in results.
const MEMORY_CAPACITY: usize = 8;
/// Requests of each kind per epoch.
const PER_KIND: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    Miss,
}

struct ChurnJob {
    circuit: Circuit,
    strategy: Strategy,
    topology: Topology,
}

/// The job pool and the request list (job index, predicted tier).
fn plan(seed: u64) -> (Vec<ChurnJob>, Vec<(usize, Tier)>) {
    let mut rng = Rng::new(seed ^ 0x4348_5552);
    let strategies = [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
    ];
    let mut kinds: Vec<Tier> = [Tier::Miss, Tier::Memory, Tier::Disk]
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, PER_KIND))
        .collect();
    rng.shuffle(&mut kinds);

    let mut jobs = Vec::new();
    let mut lru: VecDeque<usize> = VecDeque::new(); // front = least recent
    let mut requests = Vec::with_capacity(kinds.len());
    for i in 0..kinds.len() {
        let evicted = jobs.len() - lru.len();
        let feasible = match kinds[i] {
            Tier::Miss => true,
            Tier::Memory => !lru.is_empty(),
            Tier::Disk => evicted > 0,
        };
        if !feasible {
            // A first-time job is always possible; pull the next one forward.
            let j = (i..kinds.len())
                .find(|&j| kinds[j] == Tier::Miss)
                .expect("misses remain while the memory tier is still filling");
            kinds.swap(i, j);
        }
        let job = match kinds[i] {
            Tier::Miss => {
                // Sized so a miss costs several milliseconds. Misses
                // dominate the busy time whatever their share, so the
                // miss size sets how many entries a run writes and
                // deletes; smaller jobs churn enough files that the
                // filesystem's backlog, not the store, sets the pace,
                // and it drifts from run to run.
                let n = jobs.len();
                let qubits = 24 + n % 5;
                jobs.push(ChurnJob {
                    circuit: qompress_qasm::random_circuit(qubits, 12 * qubits, rng.next_u64()),
                    strategy: strategies[n / 5 % strategies.len()],
                    topology: Topology::grid(qubits),
                });
                n
            }
            Tier::Memory => lru.remove(rng.below(lru.len())).expect("index in range"),
            Tier::Disk => {
                let evicted: Vec<usize> = (0..jobs.len()).filter(|j| !lru.contains(j)).collect();
                evicted[rng.below(evicted.len())]
            }
        };
        lru.push_back(job);
        if lru.len() > MEMORY_CAPACITY {
            lru.pop_front();
        }
        requests.push((job, kinds[i]));
    }
    (jobs, requests)
}

pub fn run(args: &Args) -> Outcome {
    let config = CompilerConfig::paper();
    let mut out = Outcome::default();
    let (attempted, failed) = check::equivalence_slice();
    out.attempted += attempted;
    out.failed += failed;

    let root = crate::scratch_dir().join(format!("tier-churn-{}", std::process::id()));
    let mut reference: Vec<u64> = Vec::new();
    let mut layers = Layers::default();
    let mut busy_s = 0.0;
    let mut by_tier: [(Tier, Vec<f64>); 3] = [
        (Tier::Memory, Vec::new()),
        (Tier::Disk, Vec::new()),
        (Tier::Miss, Vec::new()),
    ];
    let mut epoch = 0usize;
    while busy_s < args.seconds || (args.trace && epoch < 2) {
        let traced = args.trace && epoch % 2 == 1;
        let dir = root.join(format!("epoch-{epoch}"));
        let started = Instant::now();
        let (jobs, requests) = plan(args.seed);
        let session = Compiler::builder()
            .workers(1)
            .cache_capacity(MEMORY_CAPACITY)
            .persist_dir(&dir)
            .persist_strict(true)
            .build();
        for job in &jobs {
            session.topology_cache(&job.topology).center();
        }
        out.setup_s.push(started.elapsed().as_secs_f64());

        let mut served: Vec<(usize, Tier, Arc<CompilationResult>)> = Vec::new();
        let mut epoch_s = 0.0;
        for &(j, tier) in &requests {
            let job = &jobs[j];
            let t = Instant::now();
            let result = session.compile(&job.circuit, &job.topology, job.strategy);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            epoch_s += ms / 1e3;
            if traced {
                out.traced_latencies_ms.push(ms);
            } else {
                out.latencies_ms.push(ms);
            }
            by_tier[tier as usize].1.push(ms);
            served.push((j, tier, result));
        }
        busy_s += epoch_s;
        if !traced {
            out.rates.push(requests.len() as f64 / epoch_s);
        }
        out.attempted += requests.len() as u64;
        out.completed += requests.len() as u64;

        // Guard: the tiers must have served exactly the planned split.
        let stats = session.tiered_cache_stats();
        let planned = |t: Tier| requests.iter().filter(|r| r.1 == t).count() as u64;
        let seen = [
            stats.memory_hits,
            stats.disk_hits,
            stats.misses,
            stats.disk_writes,
        ];
        let want = [
            planned(Tier::Memory),
            planned(Tier::Disk),
            planned(Tier::Miss),
            planned(Tier::Miss),
        ];
        if seen != want
            || stats.disk_rejects + stats.disk_read_errors + stats.disk_write_errors != 0
        {
            out.fail(format!(
                "epoch {epoch}: tier split {seen:?}, planned {want:?}"
            ));
        }
        layers.tiers = seen;

        // Correctness, untimed: misses of the first epoch are validated
        // and fingerprinted; every later disk hit or recompile must
        // reproduce them exactly.
        if epoch == 0 {
            reference = vec![0; jobs.len()];
            for (j, tier, r) in &served {
                if *tier == Tier::Miss {
                    reference[*j] = result_fingerprint(r);
                    if !check::valid(r, &jobs[*j].topology) {
                        out.fail(format!("tier_churn job {j}: invalid schedule"));
                    }
                    out.quality.add(r, &config);
                }
            }
        }
        for (j, tier, r) in &served {
            if *tier != Tier::Memory && result_fingerprint(r) != reference[*j] {
                out.fail(format!("tier_churn job {j}: {tier:?} result differs"));
            }
        }
        if traced {
            layers.replay(&served, &root.join("codec"), &mut out);
        }
        drop(session);
        // No sync here: forcing a commit makes the filesystem write out
        // every entry the epoch created, and that backlog slows the
        // following runs.
        if let Err(err) = std::fs::remove_dir_all(&dir) {
            out.fail(format!("cannot remove {}: {err}", dir.display()));
        }
        epoch += 1;
    }
    out.window_s = busy_s;
    for (tier, ms) in &by_tier {
        let s = crate::stats::summarize(&mut ms.clone());
        println!(
            "{tier:?}: p50 {:.4} ms, p99 {:.4} ms, mean {:.4} ms over {} samples",
            s.p50,
            s.p99,
            ms.iter().sum::<f64>() / ms.len() as f64,
            s.count
        );
    }
    if args.trace {
        layers.finish(&mut out, &crate::trace_path(args));
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

#[derive(Default)]
struct Layers {
    tracer: Option<Tracer>,
    payload_bytes: Vec<f64>,
    tiers: [u64; 4],
}

impl Layers {
    /// Replays the codec and the store on every freshly compiled result
    /// of one epoch.
    fn replay(
        &mut self,
        served: &[(usize, Tier, Arc<CompilationResult>)],
        dir: &std::path::Path,
        out: &mut Outcome,
    ) {
        let tracer = self.tracer.get_or_insert_with(Tracer::new);
        let store = DiskStore::open(dir, qompress_store::DEFAULT_MAX_BYTES)
            .expect("open codec scratch store");
        for (i, (_, tier, result)) in served.iter().enumerate() {
            if *tier != Tier::Miss {
                continue;
            }
            let id = i as u64;
            let key = format!("{:016x}", result_fingerprint(result));
            let mut buf = JobSpans::default();
            let (payload, _) = tracer.time(&mut buf, "persist.encode", id, None, || {
                encode_result(result)
            });
            let (stored, _) = tracer.time(&mut buf, "store.store", id, None, || {
                store.store(&key, &payload)
            });
            let (loaded, _) = tracer.time(&mut buf, "store.load", id, None, || store.load(&key));
            let (decoded, _) = tracer.time(&mut buf, "persist.decode", id, None, || {
                decode_result(&payload)
            });
            out.attempted += 1;
            let round_trip = matches!(&loaded, LoadOutcome::Payload(p) if *p == payload)
                && matches!(stored, Ok(true))
                && decoded.is_some_and(|d| result_fingerprint(&d) == result_fingerprint(result));
            if !round_trip {
                out.fail(format!("codec round trip of request {i} failed"));
                continue;
            }
            self.payload_bytes.push(payload.len() as f64);
            tracer.commit(buf);
        }
    }

    fn finish(self, out: &mut Outcome, path: &std::path::Path) {
        let tracer = self.tracer.expect("traced run replays at least one epoch");
        let mean = |name: &str| tracer.mean_us(name).0;
        out.set_layer("persist.encode_us", mean("persist.encode"));
        out.set_layer("persist.decode_us", mean("persist.decode"));
        out.set_layer("store.store_us", mean("store.store"));
        out.set_layer("store.load_us", mean("store.load"));
        out.set_layer(
            "persist.payload_bytes",
            self.payload_bytes.iter().sum::<f64>() / self.payload_bytes.len().max(1) as f64,
        );
        let [memory, disk, misses, writes] = self.tiers;
        out.set_layer("tiers.memory_hits", memory as f64);
        out.set_layer("tiers.disk_hits", disk as f64);
        out.set_layer("tiers.misses", misses as f64);
        out.set_layer("tiers.disk_writes", writes as f64);
        out.set_layer("trace.replayed_jobs", self.payload_bytes.len() as f64);
        tracer.finish(path);
    }
}
