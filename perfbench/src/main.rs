//! The Qompress benchmark: one command that runs a named workload for a
//! fixed time, checks every output, and prints each metric by name with
//! its unit. The last line of standard output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//! ```
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the traced
//! run over the same job lists and reports the per-layer metrics. See
//! `perfbench/README.md` for the glossary and the layer → workload map.

mod check;
mod churn;
mod cold;
mod corpus;
mod stats;
mod trace;
mod wire;

use check::Quality;
use stats::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Every per-layer metric of the traced run, in report order. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("qasm.parse_us", "us"),
    ("service.request_parse_us", "us"),
    ("service.topology_resolve_us", "us"),
    ("arch.topology_fp_us", "us"),
    ("session.hit_us", "us"),
    ("jobs.handoff_us", "us"),
    ("jobs.queue_depth_mean", "count"),
    ("service.result_fp_us", "us"),
    ("service.event_encode_us", "us"),
    ("service.wire_residual_us", "us"),
    ("circuit.dag_us", "us"),
    ("circuit.interaction_us", "us"),
    ("arch.center_us", "us"),
    ("mapping.map_us", "us"),
    ("strategies.pair_search_ms.rb", "ms"),
    ("strategies.pair_search_ms.awe", "ms"),
    ("strategies.pair_search_ms.pp", "ms"),
    ("routing.route_us", "us"),
    ("scheduling.merge_us", "us"),
    ("scheduling.schedule_us", "us"),
    ("scheduling.trace_us", "us"),
    ("metrics.compute_us", "us"),
    ("cost.oracle_rows", "count"),
    ("cost.oracle_bytes", "bytes"),
    ("cost.signature_reuse", "ratio"),
    ("pipeline.physical_ops", "count"),
    ("pipeline.ops_after_merge", "count"),
    ("persist.encode_us", "us"),
    ("persist.decode_us", "us"),
    ("persist.payload_bytes", "bytes"),
    ("store.load_us", "us"),
    ("store.store_us", "us"),
    ("tiers.memory_hits", "count"),
    ("tiers.disk_hits", "count"),
    ("tiers.misses", "count"),
    ("tiers.disk_writes", "count"),
    ("trace.replayed_jobs", "count"),
    ("trace.split_unavailable", "count"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 4] = ["cold_grid", "cold_heavyhex", "wire_hot", "tier_churn"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One sample per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// One sample per timed job, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Busy time the jobs were measured over, seconds.
    pub window_s: f64,
    pub completed: u64,
    /// Jobs per second of each untraced sub-window (a pass, an epoch or
    /// a slice of the wire window). Their median is `jobs_per_s`: one
    /// sub-window slowed by a neighbour on the machine does not move it.
    pub rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Summed over the workload's distinct jobs.
    pub quality: Quality,
    /// Per-layer values (traced run only), keyed by [`PER_LAYER`] name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Latencies of the traced passes (traced run only).
    pub traced_latencies_ms: Vec<f64>,
}

impl Outcome {
    /// Records a failed job or check with the reason on standard error.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        eprintln!("FAILED: {}", why.as_ref());
        self.failed += 1;
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric `{name}`"
        );
        self.layers.insert(name, value);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: qompress-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    args
}

/// Where a run keeps its scratch files (the disk tier, the span dump):
/// under the build directory, inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-run")
}

/// The span dump of a traced run.
pub fn trace_path(args: &Args) -> PathBuf {
    scratch_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn end_to_end(out: &Outcome) -> Report {
    let mut latencies = out.latencies_ms.clone();
    let lat = stats::summarize(&mut latencies);
    let mut rates = out.rates.clone();
    rates.sort_by(f64::total_cmp);
    println!(
        "latency: p50 {:.4} ms, p99 {:.4} ms over {} samples; {} jobs in {:.3} s busy; \
         throughput median of {} sub-windows (min {:.1}, max {:.1}); set-up median of {} \
         repetitions",
        lat.p50,
        lat.p99,
        lat.count,
        out.completed,
        out.window_s,
        rates.len(),
        rates[0],
        rates[rates.len() - 1],
        out.setup_s.len()
    );
    println!(
        "failed_ratio: {} / {} = {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted as f64
    );
    let mut r = Report::default();
    r.push("setup_s", stats::median(&out.setup_s), "s");
    r.push("latency_p50_ms", lat.p50, "ms");
    r.push("latency_p99_ms", lat.p99, "ms");
    r.push("jobs_per_s", stats::median(&out.rates), "1/s");
    r.push(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
        "ratio",
    );
    r.push("comm_ops", out.quality.comm_ops, "count");
    r.push("neg_log10_eps", out.quality.neg_log10_eps, "-log10");
    r.push("circuit_duration_ms", out.quality.duration_ms, "ms");
    r.push("peak_rss_mb", check::peak_rss_mb(), "MiB");
    r
}

fn per_layer(out: &mut Outcome) -> Report {
    if !out.traced_latencies_ms.is_empty() && !out.latencies_ms.is_empty() {
        let untraced = stats::median(&out.latencies_ms);
        let traced = stats::median(&out.traced_latencies_ms);
        out.set_layer("trace.untraced_p50_ms", untraced);
        out.set_layer("trace.traced_p50_ms", traced);
        out.set_layer("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
    }
    let mut r = Report::default();
    for (name, unit) in PER_LAYER {
        r.push(name, out.layers.get(name).copied().unwrap_or(0.0), unit);
    }
    r
}

fn main() {
    let args = parse_args();
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = match args.workload.as_str() {
        "cold_grid" => cold::run(&args, corpus::cold_grid),
        "cold_heavyhex" => cold::run(&args, corpus::cold_heavyhex),
        "wire_hot" => wire::run(&args),
        "tier_churn" => churn::run(&args),
        _ => usage(),
    };
    let report = if args.trace {
        per_layer(&mut out)
    } else {
        end_to_end(&out)
    };
    report.print_table();
    println!(
        "{}",
        report.to_json(out.failed == 0, out.attempted, out.failed)
    );
}
