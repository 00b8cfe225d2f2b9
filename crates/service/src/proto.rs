//! The line-delimited JSON wire protocol: request/response/event shapes
//! shared by the server and the bundled client.
//!
//! Every message is one JSON object on one line (`\n`-terminated). The
//! client sends **requests** and reads **responses** (exactly one per
//! request, in request order) interleaved with asynchronous **events**
//! (one per submitted job reaching a terminal state, in completion
//! order). A job's event is never written before its submit response —
//! the client always learns the id first:
//!
//! ```text
//! → {"op":"submit","label":"cuccaro/eqm","strategy":"eqm","topology":"grid:8","qasm":"OPENQASM 2.0;..."}
//! ← {"ok":true,"op":"submit","job":1,"status":"queued"}
//! → {"op":"poll","job":1}
//! ← {"ok":true,"op":"poll","job":1,"status":"running"}
//! ← {"event":"done","job":1,"label":"cuccaro/eqm","strategy":"eqm","result_fp":"91b2…",
//!    "metrics":{"gate_eps":0.97,…},"logical_gates":120,"pairs":2}
//! → {"op":"cancel","job":2}
//! ← {"ok":true,"op":"cancel","job":2,"cancelled":true}
//! → {"op":"stats"}
//! ← {"ok":true,"op":"stats","submitted":3,…,"cache":{"hits":1,…,"hit_rate":0.333333},
//!    "skeleton_cache":{…},"tiers":{"memory_hits":1,…,"breaker_state":"closed",…},
//!    "oracle":{"exact_oracles":1,…}}
//! ```
//!
//! [`Request`] and [`ServiceEvent`] define the requests and events; the
//! one response with a body of its own, `stats`, is [`StatsSnapshot`].
//! Every other response is a fixed shape the server writes inline.
//!
//! Failures are responses with `"ok":false` and an `"error"` string; the
//! connection stays usable. `result_fp` is the 64-bit FNV-1a fingerprint
//! of the [`CompilationResult`]'s canonical persist encoding
//! ([`qompress::persist::encode_result`]) — two results share a
//! fingerprint iff they are the same compilation — sent as a hex string
//! because JSON numbers cannot carry 64 bits exactly. Fingerprints are
//! comparable between builds that share the codec's format version
//! ([`qompress::persist::CODEC_VERSION`]).

use crate::json::{escape, Json};
use qompress::persist::encode_result;
use qompress::{
    BreakerState, CacheStats, CompilationResult, Compiler, JobStatus, OracleStats, ServiceMetrics,
    Strategy, TieredCacheStats,
};
use qompress_arch::{Fingerprinter, Topology};
use std::fmt::Display;

/// Requests understood by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one compilation job.
    Submit {
        /// Free-form label echoed into the completion event.
        label: String,
        /// Strategy name (see [`strategy_by_name`]).
        strategy: Strategy,
        /// Topology spec, parsed server-side by [`parse_topology_spec`]
        /// (kept as the raw string so the request round-trips the wire
        /// losslessly).
        topology: String,
        /// OpenQASM 2.0 source of the circuit.
        qasm: String,
    },
    /// Submit one parametric skeleton with many angle bindings: the
    /// server compiles the structure once and stamps each binding,
    /// streaming one completion event per binding through the normal job
    /// plumbing.
    SubmitSweep {
        /// Free-form label; binding `i`'s job is labeled `label#i`.
        label: String,
        /// Strategy name (see [`strategy_by_name`]).
        strategy: Strategy,
        /// Topology spec (see [`parse_topology_spec`]).
        topology: String,
        /// OpenQASM 2.0 source of the *parametric* circuit — rotations
        /// may carry `theta<N>` formal parameters.
        qasm: String,
        /// One angle vector per binding; every angle must be finite and
        /// every vector as long as the skeleton's parameter count.
        bindings: Vec<Vec<f64>>,
    },
    /// Upload a custom topology as an explicit edge list, registering it
    /// under `name` for this connection. Subsequent submits on the same
    /// connection may pass `name` as their topology spec (uploaded names
    /// shadow the built-in `kind:size` constructors). The server
    /// validates the edge list — endpoints in range, no self-loops, node
    /// count within its configured limits — before building anything.
    Topology {
        /// Registry name (non-empty, at most 128 bytes).
        name: String,
        /// Number of nodes; edges index `0..nodes`.
        nodes: usize,
        /// Undirected coupling edges (duplicates are collapsed).
        edges: Vec<(usize, usize)>,
    },
    /// Query one job's lifecycle status.
    Poll {
        /// The id returned by the submit response.
        job: u64,
    },
    /// Cancel one still-queued job.
    Cancel {
        /// The id returned by the submit response.
        job: u64,
    },
    /// Snapshot service metrics and cache stats.
    Stats,
    /// Stop claiming queued jobs (session-wide; for drains and tests).
    Pause,
    /// Resume claiming after a pause.
    Resume,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = Json::parse(line)?;
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string `op` field".to_string())?;
        let job_id = |value: &Json| -> Result<u64, String> {
            value
                .get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{op}` needs an integer `job` field"))
        };
        match op {
            "submit" => {
                let field = |name: &str| -> Result<String, String> {
                    value
                        .get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("`submit` needs a string `{name}` field"))
                };
                Ok(Request::Submit {
                    label: field("label")?,
                    strategy: strategy_by_name(&field("strategy")?)?,
                    topology: field("topology")?,
                    qasm: field("qasm")?,
                })
            }
            "submit_sweep" => {
                let field = |name: &str| -> Result<String, String> {
                    value
                        .get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("`submit_sweep` needs a string `{name}` field"))
                };
                let rows = match value.get("bindings") {
                    Some(Json::Arr(rows)) => rows,
                    _ => return Err("`submit_sweep` needs a `bindings` array".to_string()),
                };
                let mut bindings = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    let Json::Arr(items) = row else {
                        return Err(format!("`bindings[{i}]` must be an array of numbers"));
                    };
                    let mut angles = Vec::with_capacity(items.len());
                    for item in items {
                        let angle = item
                            .as_f64()
                            .ok_or_else(|| format!("`bindings[{i}]` must contain numbers"))?;
                        if !angle.is_finite() {
                            return Err(format!(
                                "`bindings[{i}]` contains the non-finite angle {angle}"
                            ));
                        }
                        angles.push(angle);
                    }
                    bindings.push(angles);
                }
                Ok(Request::SubmitSweep {
                    label: field("label")?,
                    strategy: strategy_by_name(&field("strategy")?)?,
                    topology: field("topology")?,
                    qasm: field("qasm")?,
                    bindings,
                })
            }
            "topology" => {
                let name = value
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "`topology` needs a string `name` field".to_string())?
                    .to_string();
                let nodes = value
                    .get("nodes")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "`topology` needs an integer `nodes` field".to_string())?;
                let nodes = usize::try_from(nodes)
                    .map_err(|_| format!("`topology` node count {nodes} does not fit"))?;
                let rows = match value.get("edges") {
                    Some(Json::Arr(rows)) => rows,
                    _ => return Err("`topology` needs an `edges` array".to_string()),
                };
                let mut edges = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    let pair = match row {
                        Json::Arr(pair) if pair.len() == 2 => pair,
                        _ => {
                            return Err(format!(
                                "`edges[{i}]` must be a two-element array of node indices"
                            ))
                        }
                    };
                    let endpoint = |v: &Json| -> Result<usize, String> {
                        v.as_u64()
                            .and_then(|n| usize::try_from(n).ok())
                            .ok_or_else(|| format!("`edges[{i}]` must contain node indices"))
                    };
                    edges.push((endpoint(&pair[0])?, endpoint(&pair[1])?));
                }
                Ok(Request::Topology { name, nodes, edges })
            }
            "poll" => Ok(Request::Poll {
                job: job_id(&value)?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: job_id(&value)?,
            }),
            "stats" => Ok(Request::Stats),
            "pause" => Ok(Request::Pause),
            "resume" => Ok(Request::Resume),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Serializes the request to its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit {
                label,
                strategy,
                topology,
                qasm,
            } => format!(
                "{{\"op\":\"submit\",\"label\":\"{}\",\"strategy\":\"{}\",\
                 \"topology\":\"{}\",\"qasm\":\"{}\"}}",
                escape(label),
                strategy.name(),
                escape(topology),
                escape(qasm)
            ),
            Request::SubmitSweep {
                label,
                strategy,
                topology,
                qasm,
                bindings,
            } => {
                // Serialize bindings through `Json` so angles round-trip
                // the wire exactly (shortest-round-trip float format).
                let bindings = Json::Arr(
                    bindings
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|&a| Json::Num(a)).collect()))
                        .collect(),
                );
                format!(
                    "{{\"op\":\"submit_sweep\",\"label\":\"{}\",\"strategy\":\"{}\",\
                     \"topology\":\"{}\",\"qasm\":\"{}\",\"bindings\":{}}}",
                    escape(label),
                    strategy.name(),
                    escape(topology),
                    escape(qasm),
                    bindings
                )
            }
            Request::Topology { name, nodes, edges } => {
                let edges = edges
                    .iter()
                    .map(|&(a, b)| format!("[{a},{b}]"))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"op\":\"topology\",\"name\":\"{}\",\"nodes\":{nodes},\
                     \"edges\":[{edges}]}}",
                    escape(name)
                )
            }
            Request::Poll { job } => format!("{{\"op\":\"poll\",\"job\":{job}}}"),
            Request::Cancel { job } => format!("{{\"op\":\"cancel\",\"job\":{job}}}"),
            Request::Stats => "{\"op\":\"stats\"}".to_string(),
            Request::Pause => "{\"op\":\"pause\"}".to_string(),
            Request::Resume => "{\"op\":\"resume\"}".to_string(),
        }
    }
}

/// Looks a [`Strategy`] up by its wire name ([`Strategy::from_name`]).
pub fn strategy_by_name(name: &str) -> Result<Strategy, String> {
    Strategy::from_name(name).ok_or_else(|| format!("unknown strategy `{name}`"))
}

/// Default upper bound on the size a topology spec may request. Qompress
/// compilation is superlinear in device size (the distance oracle alone
/// is O(V²) per touched source), so `line:100000000` from a hostile
/// client would build a ~10⁸-unit device server-side before any job
/// runs. 4096 covers every device the serving stack realistically
/// quotes; [`parse_topology_spec_bounded`] takes an explicit bound.
pub const DEFAULT_MAX_TOPOLOGY_NODES: usize = 4096;

/// Parses a topology spec string: `line:N`, `grid:N`, `ring:N` (N = the
/// qubit count the constructor takes), `heavyhex:D` (D = the heavy-hex
/// code distance, odd ≥ 3 — `heavyhex:5` is the 65-unit device,
/// `heavyhex:21` the 1121-unit utility-scale one) or `heavy_hex_65`,
/// with the requested size clamped to [`DEFAULT_MAX_TOPOLOGY_NODES`].
pub fn parse_topology_spec(spec: &str) -> Result<Topology, String> {
    parse_topology_spec_bounded(spec, DEFAULT_MAX_TOPOLOGY_NODES)
}

/// [`parse_topology_spec`] with an explicit upper bound on the requested
/// size — the wire server parses untrusted specs through this with its
/// configured [`crate::ServiceLimits::max_topology_nodes`].
///
/// The bound applies to the size the spec *requests*; `grid:N` rounds N
/// up to the next square, so the constructed device may carry slightly
/// more nodes than the bound (at most one extra row).
pub fn parse_topology_spec_bounded(spec: &str, max_nodes: usize) -> Result<Topology, String> {
    if spec == "heavy_hex_65" {
        if 65 > max_nodes {
            return Err(format!(
                "topology `heavy_hex_65` has 65 nodes, exceeding the limit of {max_nodes}"
            ));
        }
        return Ok(Topology::heavy_hex_65());
    }
    let (kind, size) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad topology spec `{spec}` (want `kind:size`)"))?;
    let size: usize = size
        .parse()
        .map_err(|_| format!("bad topology size in `{spec}`"))?;
    if size == 0 {
        return Err(format!("topology size must be positive in `{spec}`"));
    }
    // Rejected before any constructor runs: the whole point is that an
    // oversized spec costs the server a string compare, not O(V²) work.
    if size > max_nodes {
        return Err(format!(
            "topology size {size} in `{spec}` exceeds the limit of {max_nodes}"
        ));
    }
    match kind {
        "line" => Ok(Topology::line(size)),
        "grid" => Ok(Topology::grid(size)),
        // `Topology::ring` asserts n ≥ 3; an untrusted spec must turn
        // that into an error, not a panicked connection thread.
        "ring" if size < 3 => Err(format!("ring topology needs at least 3 nodes in `{spec}`")),
        "ring" => Ok(Topology::ring(size)),
        // `heavyhex:<d>` takes the code *distance*, not the node count;
        // the node count ((5d²+2d−5)/2 — `heavyhex:21` is 1121 units) is
        // what the limit governs, computed before construction so an
        // oversized spec never pays O(V) work. The constructor asserts
        // d odd ≥ 3; turn both into errors here.
        "heavyhex" if size < 3 || size.is_multiple_of(2) => Err(format!(
            "heavy-hex distance must be odd and >= 3 in `{spec}`"
        )),
        "heavyhex" => {
            let nodes = Topology::heavy_hex_nodes(size);
            if nodes > max_nodes {
                return Err(format!(
                    "topology `{spec}` has {nodes} nodes, exceeding the limit of {max_nodes}"
                ));
            }
            Ok(Topology::heavy_hex(size))
        }
        other => Err(format!("unknown topology kind `{other}`")),
    }
}

/// Stable 64-bit fingerprint of a full compilation result: the FNV-1a
/// hash of its canonical persist encoding
/// ([`qompress::persist::encode_result`]). The codec destructures every
/// field exhaustively (schedule, metrics, placements, pairs, trace),
/// writes floats by bit pattern, and decodes only canonical bytes, so two
/// results fingerprint equal iff they are the same compilation — the
/// wire protocol's proxy for "the streamed result is the same
/// compilation". Unlike a `Debug` rendering, the encoding does not depend
/// on the toolchain: fingerprints are comparable between builds that
/// share the codec's format version ([`qompress::persist::CODEC_VERSION`]).
pub fn result_fingerprint(result: &CompilationResult) -> u64 {
    let mut h = Fingerprinter::new();
    h.write_bytes(&encode_result(result));
    h.finish()
}

/// Per-job summary metrics carried by a `done` event.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetrics {
    /// Product of gate fidelities.
    pub gate_eps: f64,
    /// Coherence-limited EPS component.
    pub coherence_eps: f64,
    /// `gate_eps × coherence_eps`.
    pub total_eps: f64,
    /// Scheduled duration in nanoseconds.
    pub duration_ns: f64,
    /// Total physical operations emitted.
    pub physical_ops: u64,
    /// Inserted communication operations.
    pub communication_ops: u64,
    /// Logical gates in the input circuit.
    pub logical_gates: u64,
    /// Compressed pairs committed by the strategy.
    pub pairs: u64,
}

impl WireMetrics {
    /// Extracts the wire summary from a full result.
    pub fn of(result: &CompilationResult) -> WireMetrics {
        WireMetrics {
            gate_eps: result.metrics.gate_eps,
            coherence_eps: result.metrics.coherence_eps,
            total_eps: result.metrics.total_eps,
            duration_ns: result.metrics.duration_ns,
            physical_ops: result.metrics.total_ops() as u64,
            communication_ops: result.metrics.communication_ops as u64,
            logical_gates: result.logical_gates as u64,
            pairs: result.pairs.len() as u64,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"gate_eps\":{:?},\"coherence_eps\":{:?},\"total_eps\":{:?},\
             \"duration_ns\":{:?},\"physical_ops\":{},\"communication_ops\":{},\
             \"logical_gates\":{},\"pairs\":{}}}",
            self.gate_eps,
            self.coherence_eps,
            self.total_eps,
            self.duration_ns,
            self.physical_ops,
            self.communication_ops,
            self.logical_gates,
            self.pairs
        )
    }

    fn from_json(value: &Json) -> Result<WireMetrics, String> {
        let f = |name: &str| -> Result<f64, String> {
            value
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metrics missing `{name}`"))
        };
        let u = |name: &str| -> Result<u64, String> {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics missing `{name}`"))
        };
        Ok(WireMetrics {
            gate_eps: f("gate_eps")?,
            coherence_eps: f("coherence_eps")?,
            total_eps: f("total_eps")?,
            duration_ns: f("duration_ns")?,
            physical_ops: u("physical_ops")?,
            communication_ops: u("communication_ops")?,
            logical_gates: u("logical_gates")?,
            pairs: u("pairs")?,
        })
    }
}

/// One asynchronous server→client event: a job reached a terminal state.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// The job compiled successfully.
    Done {
        /// The job's id.
        job: u64,
        /// Label echoed from the submit request.
        label: String,
        /// Realized strategy name.
        strategy: String,
        /// [`result_fingerprint`] of the full result.
        result_fp: u64,
        /// Summary metrics.
        metrics: WireMetrics,
    },
    /// The job was cancelled while queued.
    Cancelled {
        /// The job's id.
        job: u64,
        /// Label echoed from the submit request.
        label: String,
    },
    /// The job's compilation panicked.
    Failed {
        /// The job's id.
        job: u64,
        /// Label echoed from the submit request.
        label: String,
        /// The panic message.
        error: String,
    },
}

impl ServiceEvent {
    /// The job id the event is about.
    pub fn job(&self) -> u64 {
        match self {
            ServiceEvent::Done { job, .. }
            | ServiceEvent::Cancelled { job, .. }
            | ServiceEvent::Failed { job, .. } => *job,
        }
    }

    /// The terminal status the event reports.
    pub fn status(&self) -> JobStatus {
        match self {
            ServiceEvent::Done { .. } => JobStatus::Done,
            ServiceEvent::Cancelled { .. } => JobStatus::Cancelled,
            ServiceEvent::Failed { .. } => JobStatus::Failed,
        }
    }

    /// Serializes the event to its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ServiceEvent::Done {
                job,
                label,
                strategy,
                result_fp,
                metrics,
            } => format!(
                "{{\"event\":\"done\",\"job\":{job},\"label\":\"{}\",\
                 \"strategy\":\"{}\",\"result_fp\":\"{result_fp:016x}\",\
                 \"metrics\":{}}}",
                escape(label),
                escape(strategy),
                metrics.to_json()
            ),
            ServiceEvent::Cancelled { job, label } => format!(
                "{{\"event\":\"cancelled\",\"job\":{job},\"label\":\"{}\"}}",
                escape(label)
            ),
            ServiceEvent::Failed { job, label, error } => format!(
                "{{\"event\":\"failed\",\"job\":{job},\"label\":\"{}\",\"error\":\"{}\"}}",
                escape(label),
                escape(error)
            ),
        }
    }

    /// Parses an event line; `Ok(None)` when the line is not an event
    /// (e.g. a response).
    pub fn parse(value: &Json) -> Result<Option<ServiceEvent>, String> {
        let Some(kind) = value.get("event").and_then(Json::as_str) else {
            return Ok(None);
        };
        let job = value
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| "event missing `job`".to_string())?;
        let label = value
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        match kind {
            "done" => {
                let fp_text = value
                    .get("result_fp")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "done event missing `result_fp`".to_string())?;
                let result_fp = u64::from_str_radix(fp_text, 16)
                    .map_err(|_| format!("bad result_fp `{fp_text}`"))?;
                let metrics = WireMetrics::from_json(
                    value
                        .get("metrics")
                        .ok_or_else(|| "done event missing `metrics`".to_string())?,
                )?;
                Ok(Some(ServiceEvent::Done {
                    job,
                    label,
                    strategy: value
                        .get("strategy")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    result_fp,
                    metrics,
                }))
            }
            "cancelled" => Ok(Some(ServiceEvent::Cancelled { job, label })),
            "failed" => Ok(Some(ServiceEvent::Failed {
                job,
                label,
                error: value
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            })),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

/// Service-side statistics: the body of the `stats` response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Job-service lifecycle counters.
    pub service: ServiceMetrics,
    /// Concrete result-cache counters (in-memory tier).
    pub cache: CacheStats,
    /// Skeleton-cache counters (parametric structural compiles).
    pub skeleton_cache: CacheStats,
    /// Counters split by cache tier; with no persistent tier configured
    /// on the server (`--cache-dir`), the disk counters are zero.
    pub tiers: TieredCacheStats,
    /// Distance-oracle row/memory accounting across the server's
    /// registered topologies (landmark-mode devices report their
    /// O(K·V) footprint here).
    pub oracle: OracleStats,
}

/// One counter of a `stats` group: its wire name, and how to read it
/// from and write it to the group's typed snapshot. [`StatsSnapshot`]
/// writes and parses every group by walking its table, so each
/// counter's wire name is written once.
type Counter<T, N = u64> = (&'static str, fn(&T) -> N, fn(&mut T, N));

/// The job-service counters, at the top level of the response.
#[rustfmt::skip]
const SERVICE: &[Counter<ServiceMetrics>] = &[
    ("submitted", |m| m.submitted, |m, v| m.submitted = v),
    ("queued", |m| m.queued, |m, v| m.queued = v),
    ("running", |m| m.running, |m, v| m.running = v),
    ("completed", |m| m.completed, |m, v| m.completed = v),
    ("cancelled", |m| m.cancelled, |m, v| m.cancelled = v),
    ("failed", |m| m.failed, |m, v| m.failed = v),
];

/// The counters of the `cache` and `skeleton_cache` objects.
#[rustfmt::skip]
const CACHE: &[Counter<CacheStats>] = &[
    ("hits", |c| c.hits, |c, v| c.hits = v),
    ("misses", |c| c.misses, |c, v| c.misses = v),
    ("evictions", |c| c.evictions, |c, v| c.evictions = v),
];

/// The counters of the `tiers` object.
#[rustfmt::skip]
const TIERS: &[Counter<TieredCacheStats>] = &[
    ("memory_hits", |t| t.memory_hits, |t, v| t.memory_hits = v),
    ("disk_hits", |t| t.disk_hits, |t, v| t.disk_hits = v),
    ("misses", |t| t.misses, |t, v| t.misses = v),
    ("memory_evictions", |t| t.memory_evictions, |t, v| t.memory_evictions = v),
    ("disk_writes", |t| t.disk_writes, |t, v| t.disk_writes = v),
    ("disk_rejects", |t| t.disk_rejects, |t, v| t.disk_rejects = v),
    ("disk_write_errors", |t| t.disk_write_errors, |t, v| t.disk_write_errors = v),
    ("disk_read_errors", |t| t.disk_read_errors, |t, v| t.disk_read_errors = v),
    ("disk_skipped", |t| t.disk_skipped, |t, v| t.disk_skipped = v),
    ("breaker_trips", |t| t.breaker_trips, |t, v| t.breaker_trips = v),
    ("breaker_probes", |t| t.breaker_probes, |t, v| t.breaker_probes = v),
];

/// The counters of the `oracle` object.
#[rustfmt::skip]
const ORACLE: &[Counter<OracleStats, usize>] = &[
    ("exact_oracles", |o| o.exact_oracles, |o, v| o.exact_oracles = v),
    ("landmark_oracles", |o| o.landmark_oracles, |o, v| o.landmark_oracles = v),
    ("rows_materialized", |o| o.rows_materialized, |o, v| o.rows_materialized = v),
    ("landmark_rows", |o| o.landmark_rows, |o, v| o.landmark_rows = v),
    ("approx_bytes", |o| o.approx_bytes, |o, v| o.approx_bytes = v),
];

impl StatsSnapshot {
    /// Reads every counter of `session`.
    pub fn of(session: &Compiler) -> StatsSnapshot {
        StatsSnapshot {
            service: session.service_metrics(),
            cache: session.cache_stats(),
            skeleton_cache: session.skeleton_cache_stats(),
            tiers: session.tiered_cache_stats(),
            oracle: session.oracle_stats(),
        }
    }

    /// Serializes the snapshot to its `stats` response line (no trailing
    /// newline). Each cache group closes with its `hit_rate`, to six
    /// decimals; `tiers` carries `breaker_state` by name before it.
    pub fn to_line(&self) -> String {
        format!(
            "{{\"ok\":true,\"op\":\"stats\",{},\"cache\":{{{},\"hit_rate\":{:.6}}},\
             \"skeleton_cache\":{{{},\"hit_rate\":{:.6}}},\"tiers\":{{{},\
             \"breaker_state\":\"{}\",\"hit_rate\":{:.6}}},\"oracle\":{{{}}}}}",
            write_counters(&self.service, SERVICE),
            write_counters(&self.cache, CACHE),
            self.cache.hit_rate(),
            write_counters(&self.skeleton_cache, CACHE),
            self.skeleton_cache.hit_rate(),
            write_counters(&self.tiers, TIERS),
            self.tiers.breaker_state.name(),
            self.tiers.hit_rate(),
            write_counters(&self.oracle, ORACLE),
        )
    }

    /// Parses a `stats` response. The `hit_rate`s are derived from the
    /// counters, so they are not read back.
    pub fn parse(value: &Json) -> Result<StatsSnapshot, String> {
        let object = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| format!("stats missing `{name}`"))
        };
        let tiers = object("tiers")?;
        Ok(StatsSnapshot {
            service: read_counters(value, SERVICE)?,
            cache: read_counters(object("cache")?, CACHE)?,
            skeleton_cache: read_counters(object("skeleton_cache")?, CACHE)?,
            tiers: TieredCacheStats {
                breaker_state: tiers
                    .get("breaker_state")
                    .and_then(Json::as_str)
                    .and_then(BreakerState::from_name)
                    .ok_or_else(|| "stats missing `breaker_state`".to_string())?,
                ..read_counters(tiers, TIERS)?
            },
            oracle: read_counters(object("oracle")?, ORACLE)?,
        })
    }
}

/// `"name":value` for each counter of `table`, comma-separated.
fn write_counters<T, N: Display>(group: &T, table: &[Counter<T, N>]) -> String {
    table
        .iter()
        .map(|(name, get, _)| format!("\"{name}\":{}", get(group)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Reads each counter of `table` from the object `value` into a fresh
/// group.
fn read_counters<T: Default, N: TryFrom<u64>>(
    value: &Json,
    table: &[Counter<T, N>],
) -> Result<T, String> {
    let mut group = T::default();
    for (name, _, set) in table {
        let count = value
            .get(name)
            .and_then(Json::as_u64)
            .and_then(|n| N::try_from(n).ok())
            .ok_or_else(|| format!("stats missing `{name}`"))?;
        set(&mut group, count);
    }
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress::ALL_STRATEGIES;

    #[test]
    fn strategies_resolve_by_wire_name() {
        for strategy in ALL_STRATEGIES {
            assert_eq!(strategy_by_name(strategy.name()).unwrap(), strategy);
        }
        assert_eq!(
            strategy_by_name("ec-unordered").unwrap(),
            Strategy::Exhaustive { ordered: false }
        );
        assert!(strategy_by_name("bogus").is_err());
    }

    #[test]
    fn topology_specs_build_the_constructors() {
        assert_eq!(parse_topology_spec("line:5").unwrap(), Topology::line(5));
        assert_eq!(parse_topology_spec("grid:9").unwrap(), Topology::grid(9));
        assert_eq!(parse_topology_spec("ring:12").unwrap(), Topology::ring(12));
        assert_eq!(
            parse_topology_spec("heavy_hex_65").unwrap(),
            Topology::heavy_hex_65()
        );
        for bad in ["grid", "grid:", "grid:x", "grid:0", "torus:4", "", "ring:2"] {
            assert!(parse_topology_spec(bad).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn heavyhex_spec_takes_the_distance() {
        assert_eq!(
            parse_topology_spec("heavyhex:5").unwrap(),
            Topology::heavy_hex_65()
        );
        assert_eq!(parse_topology_spec("heavyhex:7").unwrap().n_nodes(), 127);
        assert_eq!(parse_topology_spec("heavyhex:21").unwrap().n_nodes(), 1121);
        // Invalid distances answer errors, never a panicked connection.
        for bad in [
            "heavyhex:0",
            "heavyhex:1",
            "heavyhex:2",
            "heavyhex:4",
            "heavyhex:x",
        ] {
            assert!(parse_topology_spec(bad).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn heavyhex_spec_limit_governs_node_count_not_distance() {
        // d = 41 → 4241 nodes > 4096: rejected by node count even though
        // the raw distance is tiny — and before any construction runs.
        assert_eq!(Topology::heavy_hex_nodes(41), 4241);
        let err = parse_topology_spec("heavyhex:41").unwrap_err();
        assert!(err.contains("4241") && err.contains("limit"), "{err}");
        // d = 39 → 3839 nodes fits the default bound.
        assert_eq!(parse_topology_spec("heavyhex:39").unwrap().n_nodes(), 3839);
        // Explicit tighter bounds bite the same way.
        assert!(parse_topology_spec_bounded("heavyhex:5", 65).is_ok());
        assert!(parse_topology_spec_bounded("heavyhex:5", 64).is_err());
    }

    #[test]
    fn topology_size_clamped_at_the_boundary() {
        // Exactly at the default bound builds; one past errors — and the
        // hostile shape (`line:100000000`) must cost a comparison, not a
        // hundred-million-node construction.
        let max = DEFAULT_MAX_TOPOLOGY_NODES;
        assert_eq!(
            parse_topology_spec(&format!("line:{max}"))
                .unwrap()
                .n_nodes(),
            max
        );
        let err = parse_topology_spec(&format!("line:{}", max + 1)).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
        let err = parse_topology_spec("line:100000000").unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
        // Explicit bounds apply to every kind, including the named one.
        assert!(parse_topology_spec_bounded("grid:9", 9).is_ok());
        assert!(parse_topology_spec_bounded("grid:10", 9).is_err());
        assert!(parse_topology_spec_bounded("heavy_hex_65", 65).is_ok());
        assert!(parse_topology_spec_bounded("heavy_hex_65", 64).is_err());
    }

    #[test]
    fn requests_round_trip_the_wire() {
        let requests = [
            Request::Submit {
                label: "a/b \"quoted\"".to_string(),
                strategy: Strategy::Eqm,
                topology: "grid:4".to_string(),
                qasm: "OPENQASM 2.0;\nqreg q[2];\nh q;\n".to_string(),
            },
            Request::SubmitSweep {
                label: "sweep/vqe".to_string(),
                strategy: Strategy::FullQuquart,
                topology: "line:6".to_string(),
                qasm: "OPENQASM 2.0;\nqreg q[2];\nrz(theta0) q[0];\n".to_string(),
                bindings: vec![vec![0.5, -1.25], vec![3.0, 0.0078125], vec![-0.0], vec![]],
            },
            Request::Topology {
                name: "lab-device".to_string(),
                nodes: 5,
                edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
            },
            Request::Poll { job: 3 },
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Pause,
            Request::Resume,
        ];
        for request in requests {
            let line = request.to_line();
            let parsed = Request::parse(&line).unwrap();
            assert_eq!(parsed, request, "{line}");
            // `PartialEq` has `-0.0 == 0.0`; `Debug` prints the sign.
            assert_eq!(format!("{parsed:?}"), format!("{request:?}"));
            assert_eq!(parsed.to_line(), line);
        }
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"poll"}"#,
            r#"{"op":"poll","job":"three"}"#,
            r#"{"op":"submit","label":"x"}"#,
            r#"{"op":"submit","label":"x","strategy":"nope","topology":"grid:4","qasm":""}"#,
            // submit_sweep: bindings must be a present array of arrays of
            // finite numbers.
            r#"{"op":"submit_sweep","label":"x","strategy":"eqm","topology":"grid:4","qasm":""}"#,
            r#"{"op":"submit_sweep","label":"x","strategy":"eqm","topology":"grid:4","qasm":"","bindings":7}"#,
            r#"{"op":"submit_sweep","label":"x","strategy":"eqm","topology":"grid:4","qasm":"","bindings":[7]}"#,
            r#"{"op":"submit_sweep","label":"x","strategy":"eqm","topology":"grid:4","qasm":"","bindings":[["x"]]}"#,
            r#"{"op":"submit_sweep","label":"x","strategy":"eqm","topology":"grid:4","qasm":"","bindings":[[1e999]]}"#,
            // topology uploads: name/nodes/edges are structurally
            // validated at parse time (semantic limits are the server's).
            r#"{"op":"topology","nodes":3,"edges":[]}"#,
            r#"{"op":"topology","name":"t","edges":[]}"#,
            r#"{"op":"topology","name":"t","nodes":3}"#,
            r#"{"op":"topology","name":"t","nodes":3,"edges":[[0]]}"#,
            r#"{"op":"topology","name":"t","nodes":3,"edges":[[0,1,2]]}"#,
            r#"{"op":"topology","name":"t","nodes":3,"edges":[["a","b"]]}"#,
            r#"{"op":"topology","name":"t","nodes":-1,"edges":[]}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "`{bad}`");
        }
        // Topology specs are validated when the job is built, not at
        // request parse time (the raw spec round-trips the wire).
        assert!(Request::parse(
            r#"{"op":"submit","label":"x","strategy":"eqm","topology":"blob","qasm":""}"#
        )
        .is_ok());
    }

    #[test]
    fn events_round_trip_the_wire() {
        let events = [
            ServiceEvent::Done {
                job: 7,
                label: "cuccaro/grid:8/eqm".to_string(),
                strategy: "eqm".to_string(),
                result_fp: 0xdead_beef_0102_0304,
                metrics: WireMetrics {
                    gate_eps: 0.971234,
                    coherence_eps: 0.75,
                    total_eps: 0.72842550,
                    duration_ns: 48000.0,
                    physical_ops: 412,
                    communication_ops: 33,
                    logical_gates: 120,
                    pairs: 2,
                },
            },
            ServiceEvent::Cancelled {
                job: 8,
                label: "late".to_string(),
            },
            ServiceEvent::Failed {
                job: 9,
                label: "boom".to_string(),
                error: "architecture offers only 2 slots".to_string(),
            },
        ];
        for event in events {
            let line = event.to_line();
            let value = Json::parse(&line).unwrap();
            let parsed = ServiceEvent::parse(&value).unwrap().unwrap();
            assert_eq!(parsed, event, "{line}");
            assert_eq!(parsed.to_line(), line);
        }
        // Responses are not events.
        let value = Json::parse(r#"{"ok":true,"op":"stats"}"#).unwrap();
        assert_eq!(ServiceEvent::parse(&value).unwrap(), None);
    }

    /// A snapshot in which every counter holds a distinct nonzero value.
    /// The struct literals are exhaustive, so a new counter does not
    /// compile here until it gets a value of its own.
    fn distinct_snapshot(breaker_state: BreakerState) -> StatsSnapshot {
        StatsSnapshot {
            service: ServiceMetrics {
                submitted: 1,
                queued: 2,
                running: 3,
                completed: 4,
                cancelled: 5,
                failed: 6,
            },
            cache: CacheStats {
                hits: 7,
                misses: 8,
                evictions: 9,
            },
            skeleton_cache: CacheStats {
                hits: 10,
                misses: 11,
                evictions: 12,
            },
            tiers: TieredCacheStats {
                memory_hits: 13,
                disk_hits: 14,
                misses: 15,
                memory_evictions: 16,
                disk_writes: 17,
                disk_rejects: 18,
                disk_write_errors: 19,
                disk_read_errors: 20,
                disk_skipped: 21,
                breaker_trips: 22,
                breaker_probes: 23,
                breaker_state,
            },
            oracle: OracleStats {
                exact_oracles: 24,
                landmark_oracles: 25,
                rows_materialized: 26,
                landmark_rows: 27,
                approx_bytes: 28,
            },
        }
    }

    #[test]
    fn stats_round_trip_every_counter() {
        // A counter missing from its table parses back as zero, and an
        // entry whose getter and setter name different fields moves a
        // value to the wrong counter: either fails here.
        for state in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            let stats = distinct_snapshot(state);
            let line = stats.to_line();
            let parsed = StatsSnapshot::parse(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, stats, "{line}");
            assert_eq!(parsed.to_line(), line);
        }
        let mut value = Json::parse(&distinct_snapshot(BreakerState::Closed).to_line()).unwrap();
        let Json::Obj(fields) = &mut value else {
            panic!("the stats line is an object")
        };
        fields.retain(|(key, _)| key != "tiers");
        assert_eq!(
            StatsSnapshot::parse(&value).unwrap_err(),
            "stats missing `tiers`"
        );
    }

    #[test]
    fn stats_line_keeps_its_wire_shape() {
        // A `stats` line as clients have received it: a one-worker
        // session after two identical `eqm` submits of a 3-qubit GHZ on
        // `grid:4`. Only whitespace may change; every key, its order,
        // its nesting and its value are the wire contract.
        let wire = r#"{"ok":true,"op":"stats","submitted":2,"queued":0,"running":0,"completed":2,"cancelled":0,"failed":0,"cache":{"hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.500000},"skeleton_cache":{"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.000000},"tiers":{"memory_hits": 1, "disk_hits": 0, "misses": 1, "memory_evictions": 0, "disk_writes": 0, "disk_rejects": 0, "disk_write_errors": 0, "disk_read_errors": 0, "disk_skipped": 0, "breaker_trips": 0, "breaker_probes": 0, "breaker_state": "closed", "hit_rate": 0.500000},"oracle":{"exact_oracles":1,"landmark_oracles":0,"rows_materialized":0,"landmark_rows":0,"approx_bytes":0}}"#;
        let stats = StatsSnapshot {
            service: ServiceMetrics {
                submitted: 2,
                completed: 2,
                ..ServiceMetrics::default()
            },
            cache: CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
            },
            skeleton_cache: CacheStats::default(),
            tiers: TieredCacheStats {
                memory_hits: 1,
                misses: 1,
                ..TieredCacheStats::default()
            },
            oracle: OracleStats {
                exact_oracles: 1,
                ..OracleStats::default()
            },
        };
        let line = stats.to_line();
        assert_eq!(Json::parse(&line).unwrap(), Json::parse(wire).unwrap());
        assert!(line.contains("\"hit_rate\":0.500000}"), "{line}");
        assert_eq!(
            StatsSnapshot::parse(&Json::parse(wire).unwrap()).unwrap(),
            stats
        );
    }

    #[test]
    fn result_fingerprint_separates_results() {
        use qompress::{Compiler, Strategy};
        use qompress_circuit::{Circuit, Gate};
        let mut c = Circuit::new(4);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        let session = Compiler::builder().caching(false).build();
        let topo = parse_topology_spec("grid:4").unwrap();
        let a = session.compile(&c, &topo, Strategy::Eqm);
        let b = session.compile(&c, &topo, Strategy::Eqm);
        assert_eq!(result_fingerprint(&a), result_fingerprint(&b));
        let other = session.compile(&c, &topo, Strategy::QubitOnly);
        assert_ne!(result_fingerprint(&a), result_fingerprint(&other));
    }
}
