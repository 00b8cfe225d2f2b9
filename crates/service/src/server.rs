//! The wire-protocol server: one reader loop + one completion pump per
//! connection, multiplexed onto a shared [`Compiler`] session.
//!
//! [`serve_duplex`] drives one connection over any `(Read, Write)` pair —
//! a TCP stream, a Unix socket, or the in-memory [`crate::loopback`]
//! transport — and [`serve_duplex_with`] does the same under explicit
//! [`ServiceLimits`] and a [`DrainHandle`]. [`serve_tcp`] and
//! [`serve_unix`] accept connections in a loop and serve each on its own
//! thread; every connection shares the session's worker pool, topology
//! registry and result cache, so a circuit submitted twice — by the same
//! client or two different ones — compiles once.
//!
//! Limits are enforced per connection: request-shape bounds and quotas
//! answer structured `{"ok":false,…}` responses (the connection stays
//! usable), queue-depth backpressure answers `busy` responses with the
//! current depth, and the idle timeout writes a final `timeout` line
//! before closing.

use crate::drain::DrainHandle;
use crate::json::escape;
use crate::limits::ServiceLimits;
use crate::proto::{
    parse_topology_spec_bounded, result_fingerprint, Request, ServiceEvent, StatsSnapshot,
    WireMetrics,
};
use qompress::{
    BatchJob, Compiler, CompletionQueue, JobHandle, JobOutcome, JobStatus, ParamSweep, Strategy,
};
use qompress_arch::Topology;
use qompress_circuit::{Circuit, ParametricCircuit};
use qompress_qasm::{parse_qasm_limited, QasmError};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound on one request line. Generous for line-delimited JSON
/// (a multi-megabyte QASM program fits many times over) while keeping a
/// hostile no-newline byte stream from growing a connection buffer
/// without limit.
const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// One tracked job of a connection. `Active` holds the live handle; once
/// the pump has streamed the terminal event, the entry collapses to
/// `Finished(status)` so the handle — and with it the job's retained
/// `Arc<CompilationResult>` — is dropped. A long-lived connection
/// streaming an unbounded sweep therefore holds O(outstanding) results,
/// not O(submitted): `poll` keeps answering from the slim record. The
/// live handle is boxed so that record stays slim: an entry costs 16
/// bytes instead of the 48 of an inline handle, and a connection keeps
/// one per submit.
#[derive(Debug)]
enum ConnJob {
    Active(Box<JobHandle>),
    Finished(JobStatus),
}

/// Serves one client connection until EOF, blocking the calling thread,
/// with [`ServiceLimits::default`] admission limits.
///
/// Requests are answered in order on `writer`; completion events for
/// every job submitted on *this* connection are interleaved as the jobs
/// finish (a dedicated pump thread waits on the connection's
/// [`CompletionQueue`]). When the client disconnects, still-running jobs
/// keep the session's caches warm but their events go nowhere.
///
/// The caller constructed the transport, so this single connection is
/// trusted with the session-wide admin ops (`pause`/`resume`); the
/// shared listeners ([`serve_tcp`]/[`serve_unix`]) disable those per
/// connection.
///
/// # Errors
///
/// Returns the first transport-level I/O error; protocol-level problems
/// (malformed JSON, unknown ops, bad QASM, limit violations) are
/// reported to the client as `{"ok":false,…}` responses and do not end
/// the connection. An idle timeout (a read failing with
/// [`io::ErrorKind::WouldBlock`] or [`io::ErrorKind::TimedOut`]) writes
/// a final `timeout` line and ends the connection cleanly with `Ok`.
pub fn serve_duplex<R, W>(session: Arc<Compiler>, reader: R, writer: W) -> io::Result<()>
where
    R: Read,
    W: Write + Send + 'static,
{
    serve_duplex_with(
        session,
        reader,
        writer,
        ServiceLimits::default(),
        DrainHandle::new(),
    )
}

/// [`serve_duplex`] with explicit admission limits, watching a
/// [`DrainHandle`].
///
/// The transport's own read timeout is the caller's to configure (e.g.
/// [`crate::LoopbackReader::set_read_timeout`]); `limits.idle_timeout`
/// here only labels the closing `timeout` line — the socket listeners
/// apply it to their streams for you.
///
/// Once `drain` trips, new `submit`/`submit_sweep` requests on this
/// connection answer `{"ok":false,"draining":true,…}` while every other
/// op (and the event stream for already-admitted jobs) keeps working.
/// The connection still runs to EOF — drain stops *work intake*, not
/// conversations.
///
/// # Errors
///
/// As [`serve_duplex`].
pub fn serve_duplex_with<R, W>(
    session: Arc<Compiler>,
    reader: R,
    writer: W,
    limits: ServiceLimits,
    drain: DrainHandle,
) -> io::Result<()>
where
    R: Read,
    W: Write + Send + 'static,
{
    serve_conn(session, reader, writer, true, limits, drain)
}

/// Per-connection admission state: the lifetime job count, the uploaded
/// topology registry, and a live count of jobs submitted but not yet
/// streamed a terminal event (decremented by the pump as events go out).
struct ConnState<'a> {
    session: &'a Compiler,
    limits: &'a ServiceLimits,
    outstanding: &'a AtomicUsize,
    total_jobs: u64,
    topologies: HashMap<String, Topology>,
    /// The server's drain flag: once it trips, submits are rejected.
    drain: &'a DrainHandle,
}

impl ConnState<'_> {
    /// Admission control for `n_jobs` new jobs: the lifetime quota, the
    /// outstanding-jobs quota, then queue-depth backpressure — all
    /// before any parsing or compilation work is spent on the request.
    /// The error is the full structured response line.
    fn admit(&self, n_jobs: usize) -> Result<(), String> {
        let limits = self.limits;
        if self.total_jobs.saturating_add(n_jobs as u64) > limits.max_total_jobs {
            return Err(quota_line(
                "total_jobs",
                limits.max_total_jobs,
                &format!(
                    "connection exhausted its lifetime budget of {} job(s)",
                    limits.max_total_jobs
                ),
            ));
        }
        let outstanding = self.outstanding.load(Ordering::Acquire);
        if outstanding.saturating_add(n_jobs) > limits.max_concurrent_jobs {
            return Err(quota_line(
                "concurrent_jobs",
                limits.max_concurrent_jobs as u64,
                &format!(
                    "{outstanding} job(s) outstanding at the limit of {} — wait for \
                     completion events before submitting more",
                    limits.max_concurrent_jobs
                ),
            ));
        }
        let depth = self.session.queue_depth();
        if depth.saturating_add(n_jobs) > limits.max_queue_depth {
            return Err(busy_line(depth, limits.max_queue_depth));
        }
        Ok(())
    }

    /// Records `n_jobs` admitted jobs. Call while still holding the
    /// handles lock, so the pump (which takes that lock to collapse an
    /// entry before decrementing) can never observe a negative count.
    fn note_submitted(&mut self, n_jobs: usize) {
        self.total_jobs += n_jobs as u64;
        self.outstanding.fetch_add(n_jobs, Ordering::AcqRel);
    }

    /// Resolves a submit's topology spec: this connection's uploads
    /// first (by exact name, shadowing the built-in constructors), then
    /// the bounded `kind:size` parser.
    fn resolve_topology(&self, spec: &str) -> Result<Topology, String> {
        if let Some(t) = self.topologies.get(spec) {
            return Ok(t.clone());
        }
        parse_topology_spec_bounded(spec, self.limits.max_topology_nodes)
    }

    /// Handles a `topology` upload: name shape and node count against the
    /// limit, then [`Topology::try_from_edges`], whose typed error for a
    /// self loop or out-of-range edge answers an error line instead of
    /// panicking the connection thread.
    fn upload_topology(
        &mut self,
        name: String,
        nodes: usize,
        edges: Vec<(usize, usize)>,
    ) -> String {
        if name.is_empty() || name.len() > 128 {
            return error_line("topology name must be 1..=128 bytes");
        }
        if nodes == 0 {
            return error_line("topology needs at least one node");
        }
        if nodes > self.limits.max_topology_nodes {
            return error_line(&format!(
                "topology has {nodes} nodes, exceeding the limit of {}",
                self.limits.max_topology_nodes
            ));
        }
        // A self loop or out-of-range edge answers with its index; the
        // error's text is the wire message.
        let topology = match Topology::try_from_edges(name.clone(), nodes, edges) {
            Ok(topology) => topology,
            Err(err) => return error_line(&err.to_string()),
        };
        // Replacing an existing name is free; only new names count
        // against the registry quota.
        if !self.topologies.contains_key(&name)
            && self.topologies.len() >= self.limits.max_uploaded_topologies
        {
            return quota_line(
                "uploaded_topologies",
                self.limits.max_uploaded_topologies as u64,
                &format!(
                    "connection already holds {} uploaded topologies",
                    self.topologies.len()
                ),
            );
        }
        let response = format!(
            "{{\"ok\":true,\"op\":\"topology\",\"name\":\"{}\",\"nodes\":{nodes},\
             \"edges\":{}}}",
            escape(&name),
            topology.n_edges()
        );
        self.topologies.insert(name, topology);
        response
    }
}

/// [`serve_duplex_with`] with an explicit admin switch: when `admin` is
/// false, the session-wide `pause`/`resume` ops answer `{"ok":false,…}`
/// instead of acting. Shared listeners ([`serve_tcp`]/[`serve_unix`])
/// run every connection with `admin = false`, so no single remote
/// client can stall every other client's jobs; the single-connection
/// [`serve_duplex_with`] (whose transport the caller constructed and
/// controls) allows them.
fn serve_conn<R, W>(
    session: Arc<Compiler>,
    reader: R,
    writer: W,
    admin: bool,
    limits: ServiceLimits,
    drain: DrainHandle,
) -> io::Result<()>
where
    R: Read,
    W: Write + Send + 'static,
{
    let writer = Arc::new(Mutex::new(writer));
    let handles: Arc<Mutex<HashMap<u64, ConnJob>>> = Arc::new(Mutex::new(HashMap::new()));
    let completions = CompletionQueue::new();
    let outstanding = Arc::new(AtomicUsize::new(0));

    let pump = {
        let writer = Arc::clone(&writer);
        let handles = Arc::clone(&handles);
        let completions = completions.clone();
        let outstanding = Arc::clone(&outstanding);
        std::thread::Builder::new()
            .name("qompress-service-pump".to_string())
            .spawn(move || pump_loop(&writer, &handles, &completions, &outstanding))
            .expect("spawn completion pump")
    };

    let mut conn = ConnState {
        session: &session,
        limits: &limits,
        outstanding: &outstanding,
        total_jobs: 0,
        topologies: HashMap::new(),
        drain: &drain,
    };

    let mut result = Ok(());
    let mut reader = BufReader::new(reader);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    loop {
        // Bounded line read: a client streaming bytes with no `\n` (or an
        // absurdly long line) must not grow this buffer without limit and
        // OOM a shared server. Oversized lines end the connection with an
        // error line — resynchronizing mid-line is not worth trusting.
        buf.clear();
        let n = match (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(n) => n,
            // The transport's read timeout fired (`SO_RCVTIMEO` on a
            // socket, `set_read_timeout` on the loopback): the client
            // went idle. Tell it why, then close cleanly — an idle
            // disconnect is policy, not an I/O failure.
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let mut w = writer.lock().expect("service writer poisoned");
                let _ = writeln!(w, "{}", idle_timeout_line(limits.idle_timeout));
                let _ = w.flush();
                break;
            }
            Err(err) => {
                result = Err(err);
                break;
            }
        };
        if n == 0 {
            break; // clean EOF
        }
        if buf.len() > MAX_LINE_BYTES {
            let mut w = writer.lock().expect("service writer poisoned");
            let _ = writeln!(
                w,
                "{}",
                error_line(&format!("request line exceeds {MAX_LINE_BYTES} bytes"))
            );
            let _ = w.flush();
            break;
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Take the writer lock *before* handling the request: a submit's
        // job can finish (e.g. a cache hit) before this thread writes the
        // response, and the pump must not slip that job's event onto the
        // wire first — a client should never see an event for a job id it
        // has not been told about. The pump never holds the handles lock
        // while waiting for the writer, so this ordering cannot deadlock.
        let mut w = writer.lock().expect("service writer poisoned");
        let response = handle_line(&handles, &completions, line, admin, &mut conn);
        if let Err(err) = writeln!(w, "{response}").and_then(|()| w.flush()) {
            result = Err(err);
            break;
        }
        drop(w);
    }

    // EOF (or error): wake the pump; it drains already-buffered
    // completions and exits.
    completions.close();
    pump.join().expect("completion pump panicked");
    result
}

/// Writes one event line per completed job until the queue closes,
/// releasing the job's slot in the connection's outstanding count as
/// each terminal event is recorded.
fn pump_loop(
    writer: &Mutex<impl Write>,
    handles: &Mutex<HashMap<u64, ConnJob>>,
    completions: &CompletionQueue,
    outstanding: &AtomicUsize,
) {
    while let Some(id) = completions.pop() {
        let handle = match handles.lock().expect("service handles poisoned").get(&id.0) {
            Some(ConnJob::Active(handle)) => JobHandle::clone(handle),
            _ => continue,
        };
        let Some(outcome) = handle.poll() else {
            continue;
        };
        // The event below is this job's terminal notification: collapse
        // the tracked entry to its status so the handle (and the full
        // result it retains) is freed, bounding a long-lived
        // connection's memory by outstanding work, not total submits.
        // The collapse is also the moment the job stops counting against
        // the connection's concurrent-jobs quota.
        handles
            .lock()
            .expect("service handles poisoned")
            .insert(id.0, ConnJob::Finished(outcome.status()));
        outstanding.fetch_sub(1, Ordering::AcqRel);
        let event = match outcome {
            JobOutcome::Done(result) => ServiceEvent::Done {
                job: id.0,
                label: handle.label().to_string(),
                strategy: result.strategy.clone(),
                result_fp: result_fingerprint(&result),
                metrics: WireMetrics::of(&result),
            },
            JobOutcome::Cancelled => ServiceEvent::Cancelled {
                job: id.0,
                label: handle.label().to_string(),
            },
            JobOutcome::Failed(error) => ServiceEvent::Failed {
                job: id.0,
                label: handle.label().to_string(),
                error,
            },
        };
        let mut w = writer.lock().expect("service writer poisoned");
        if writeln!(w, "{}", event.to_line())
            .and_then(|()| w.flush())
            .is_err()
        {
            // Client gone; stop streaming (jobs keep running).
            return;
        }
    }
}

/// Handles one request line, returning the response line.
fn handle_line(
    handles: &Mutex<HashMap<u64, ConnJob>>,
    completions: &CompletionQueue,
    line: &str,
    admin: bool,
    conn: &mut ConnState<'_>,
) -> String {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => return error_line(&message),
    };
    match request {
        Request::Submit {
            label,
            strategy,
            topology,
            qasm,
        } => {
            // Drain first, then quotas and backpressure — all cost a
            // flag/counter read, while parsing a hostile multi-megabyte
            // payload does not.
            if conn.drain.is_draining() {
                return draining_line();
            }
            if let Err(response) = conn.admit(1) {
                return response;
            }
            let topology = match conn.resolve_topology(&topology) {
                Ok(t) => t,
                Err(message) => return error_line(&message),
            };
            let circuit: Circuit = match parse_qasm_limited(
                &qasm,
                conn.limits.max_circuit_qubits,
                Some(conn.limits.max_circuit_gates),
            ) {
                Ok(c) => c,
                Err(err) => return parse_error_line(&err, conn.limits.max_circuit_gates),
            };
            if let Some(response) = capacity_error(strategy, &topology, circuit.n_qubits()) {
                return response;
            }
            // Hold the handles lock across submit + insert: a fast job
            // (e.g. a cache hit) can reach the completion queue before
            // this thread runs again, and the pump must find the handle
            // when it pops that id — it blocks on this same lock until
            // the insert is done.
            let mut map = handles.lock().expect("service handles poisoned");
            let handle = conn.session.submit_watched(
                BatchJob::new(label, circuit, strategy, topology),
                completions,
            );
            let id = handle.id().0;
            let status = handle.status();
            map.insert(id, ConnJob::Active(Box::new(handle)));
            conn.note_submitted(1);
            format!(
                "{{\"ok\":true,\"op\":\"submit\",\"job\":{id},\"status\":\"{}\"}}",
                status.name()
            )
        }
        Request::SubmitSweep {
            label,
            strategy,
            topology,
            qasm,
            bindings,
        } => {
            if conn.drain.is_draining() {
                return draining_line();
            }
            if bindings.len() > conn.limits.max_sweep_bindings {
                return quota_line(
                    "sweep_bindings",
                    conn.limits.max_sweep_bindings as u64,
                    &format!(
                        "sweep carries {} bindings, exceeding the limit of {}",
                        bindings.len(),
                        conn.limits.max_sweep_bindings
                    ),
                );
            }
            if let Err(response) = conn.admit(bindings.len()) {
                return response;
            }
            let topology = match conn.resolve_topology(&topology) {
                Ok(t) => t,
                Err(message) => return error_line(&message),
            };
            let skeleton: ParametricCircuit = match parse_qasm_limited(
                &qasm,
                conn.limits.max_circuit_qubits,
                Some(conn.limits.max_circuit_gates),
            ) {
                Ok(s) => s,
                Err(err) => return parse_error_line(&err, conn.limits.max_circuit_gates),
            };
            if let Some(response) = capacity_error(strategy, &topology, skeleton.n_qubits()) {
                return response;
            }
            // Arity is validated before anything is enqueued, so a sweep
            // is accepted or rejected atomically (angles are already
            // known finite from request parsing).
            for (i, angles) in bindings.iter().enumerate() {
                if angles.len() != skeleton.n_params() {
                    return error_line(&format!(
                        "bindings[{i}] has {} angle(s) but the skeleton has {} parameter(s)",
                        angles.len(),
                        skeleton.n_params()
                    ));
                }
            }
            let sweep = ParamSweep::new(skeleton);
            // Same lock discipline as `submit`: the pump must find every
            // handle when its completion pops.
            let mut map = handles.lock().expect("service handles poisoned");
            let ids: Vec<u64> = bindings
                .iter()
                .enumerate()
                .map(|(i, angles)| {
                    let job = sweep.job(format!("{label}#{i}"), strategy, topology.clone(), angles);
                    let handle = conn.session.submit_watched(job, completions);
                    let id = handle.id().0;
                    map.insert(id, ConnJob::Active(Box::new(handle)));
                    id
                })
                .collect();
            conn.note_submitted(ids.len());
            let ids = ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            format!(
                "{{\"ok\":true,\"op\":\"submit_sweep\",\"jobs\":[{ids}],\"status\":\"queued\"}}"
            )
        }
        Request::Topology { name, nodes, edges } => conn.upload_topology(name, nodes, edges),
        Request::Poll { job } => {
            let status = match handles.lock().expect("service handles poisoned").get(&job) {
                Some(ConnJob::Active(handle)) => handle.status(),
                Some(ConnJob::Finished(status)) => *status,
                None => return error_line(&format!("unknown job {job}")),
            };
            format!(
                "{{\"ok\":true,\"op\":\"poll\",\"job\":{job},\"status\":\"{}\"}}",
                status.name()
            )
        }
        Request::Cancel { job } => {
            let handle = match handles.lock().expect("service handles poisoned").get(&job) {
                Some(ConnJob::Active(handle)) => Some(JobHandle::clone(handle)),
                // Already terminal and pruned: nothing left to cancel.
                Some(ConnJob::Finished(_)) => None,
                None => return error_line(&format!("unknown job {job}")),
            };
            let cancelled = handle.map(|h| h.cancel()).unwrap_or(false);
            format!("{{\"ok\":true,\"op\":\"cancel\",\"job\":{job},\"cancelled\":{cancelled}}}")
        }
        Request::Stats => StatsSnapshot::of(conn.session).to_line(),
        Request::Pause => {
            if !admin {
                return error_line("`pause` is disabled on shared listeners");
            }
            conn.session.pause_workers();
            "{\"ok\":true,\"op\":\"pause\"}".to_string()
        }
        Request::Resume => {
            if !admin {
                return error_line("`resume` is disabled on shared listeners");
            }
            conn.session.resume_workers();
            "{\"ok\":true,\"op\":\"resume\"}".to_string()
        }
    }
}

fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(message))
}

/// Answers a submitted program the parser rejected. The parser stops at
/// the first statement that would take the program past `max_gates`
/// with a fixed message ([`parse_qasm_limited`] documents it); that one
/// answers the `circuit_gates` quota line, every other error a plain
/// error line.
///
/// The message is matched word for word, so it is a contract with the
/// parser's gate-cap check (`Builder::append` in `qompress-qasm`'s
/// `parse.rs`). The hardening test
/// `broadcast_amplified_submit_hits_the_gate_cap_while_parsing` pins the
/// pair: a rewording on either side turns the quota line into a plain
/// error line and fails it.
fn parse_error_line(err: &QasmError, max_gates: usize) -> String {
    if err.message == format!("program exceeds the limit of {max_gates} gates") {
        quota_line("circuit_gates", max_gates as u64, &err.to_string())
    } else {
        error_line(&err.to_string())
    }
}

/// Rejects a program wider than `strategy` can place on `topology`
/// ([`Strategy::max_qubits`]): mapping would panic the worker.
fn capacity_error(strategy: Strategy, topology: &Topology, n_qubits: usize) -> Option<String> {
    let max = strategy.max_qubits(topology.n_nodes());
    (n_qubits > max).then(|| {
        error_line(&format!(
            "program has {n_qubits} qubits but {strategy} places at most {max} on `{}`",
            topology.name()
        ))
    })
}

/// A structured quota rejection: `kind` names the exhausted limit so
/// clients can react programmatically, `limit` carries its value.
fn quota_line(kind: &str, limit: u64, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"quota\":\"{kind}\",\"limit\":{limit}}}",
        escape(message)
    )
}

/// A structured backpressure rejection: the client should back off and
/// retry — `queue_depth` tells it how deep the session queue was.
fn busy_line(depth: usize, limit: usize) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"server busy: queue depth {depth} at the limit of \
         {limit}\",\"busy\":true,\"queue_depth\":{depth},\"limit\":{limit}}}"
    )
}

/// A structured drain rejection: the server is shutting down and takes
/// no new work — submit elsewhere; do not retry here.
fn draining_line() -> String {
    "{\"ok\":false,\"error\":\"server is draining: no new jobs accepted\",\"draining\":true}"
        .to_string()
}

/// The final line an idle connection is sent before the server closes it.
fn idle_timeout_line(timeout: Option<Duration>) -> String {
    let detail = match timeout {
        Some(t) => format!("no request within {t:?}"),
        None => "read timed out".to_string(),
    };
    format!(
        "{{\"ok\":false,\"error\":\"idle timeout: {}\",\"timeout\":true}}",
        escape(&detail)
    )
}

/// Accepts TCP connections until `drain` trips, serving each on its own
/// thread over the shared session. Bind the listener yourself (port 0
/// for tests):
///
/// ```no_run
/// use qompress_service::{DrainHandle, ServiceLimits};
/// use std::net::TcpListener;
/// use std::sync::Arc;
/// let session = Arc::new(qompress::Compiler::builder().build());
/// let listener = TcpListener::bind("127.0.0.1:7878").unwrap();
/// let drain = DrainHandle::new();
/// qompress_service::serve_tcp(listener, session, ServiceLimits::default(), drain).unwrap();
/// ```
///
/// `limits.idle_timeout` is applied to every accepted stream via
/// `set_read_timeout` (best-effort — a socket that refuses the option
/// still serves, just without an idle timeout).
///
/// The listener is switched to nonblocking so the accept loop can poll
/// `drain` every 25 ms, and the call **returns `Ok(())` once the handle
/// trips** — no new connections are accepted from that point.
/// Connections already being served keep running (their submits answer
/// `draining`, their event streams flush); waiting out in-flight jobs is
/// the caller's next step (see `qompress-serve --drain-timeout`).
///
/// # Errors
///
/// Returns the first `accept` error, or the listener's refusal to go
/// nonblocking; per-connection I/O errors only end their own connection
/// thread.
pub fn serve_tcp(
    listener: TcpListener,
    session: Arc<Compiler>,
    limits: ServiceLimits,
    drain: DrainHandle,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(|| listener.accept().map(|(s, _)| s), session, limits, drain)
}

/// [`serve_tcp`] over a Unix-domain socket listener.
///
/// # Errors
///
/// As [`serve_tcp`].
#[cfg(unix)]
pub fn serve_unix(
    listener: std::os::unix::net::UnixListener,
    session: Arc<Compiler>,
    limits: ServiceLimits,
    drain: DrainHandle,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(|| listener.accept().map(|(s, _)| s), session, limits, drain)
}

/// How long an accept loop sleeps between polls of its nonblocking
/// listener and the drain flag.
const DRAIN_POLL: Duration = Duration::from_millis(25);

/// An accepted socket stream, as the shared accept loop serves it.
trait Socket: Read + Write + Send + Sized + 'static {
    /// Readies the stream for its blocking connection thread and returns
    /// a second handle to it, the reader.
    fn reader(&self, idle_timeout: Option<Duration>) -> io::Result<Self>;
}

macro_rules! socket {
    ($stream:ty) => {
        impl Socket for $stream {
            fn reader(&self, idle_timeout: Option<Duration>) -> io::Result<Self> {
                // Streams may inherit nonblocking from the listener on
                // some platforms. The idle timeout is best-effort: a
                // socket that refuses it still serves.
                self.set_nonblocking(false)?;
                let _ = self.set_read_timeout(idle_timeout);
                self.try_clone()
            }
        }
    };
}

socket!(std::net::TcpStream);
#[cfg(unix)]
socket!(std::os::unix::net::UnixStream);

/// The accept loop behind both socket listeners: serves each connection
/// `accept` yields on its own thread with `admin = false`. While the
/// nonblocking listener has nothing to accept, the loop polls `drain`
/// every [`DRAIN_POLL`], and it returns `Ok(())` once the handle trips.
/// A connection whose setup fails is dropped; only an `accept` error
/// ends the loop.
fn accept_loop<S: Socket>(
    mut accept: impl FnMut() -> io::Result<S>,
    session: Arc<Compiler>,
    limits: ServiceLimits,
    drain: DrainHandle,
) -> io::Result<()> {
    loop {
        if drain.is_draining() {
            return Ok(());
        }
        let stream = match accept() {
            Ok(stream) => stream,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(DRAIN_POLL);
                continue;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        };
        let Ok(reader) = stream.reader(limits.idle_timeout) else {
            continue;
        };
        let (session, limits, drain) = (Arc::clone(&session), limits.clone(), drain.clone());
        std::thread::Builder::new()
            .name("qompress-service-conn".to_string())
            .spawn(move || {
                let _ = serve_conn(session, reader, stream, false, limits, drain);
            })
            .expect("spawn connection thread");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::Cursor;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// An in-memory connection: reads a scripted request stream and sends
    /// every write the server makes down a channel.
    struct FakeStream {
        input: Cursor<Vec<u8>>,
        output: Sender<Vec<u8>>,
        clone_fails: bool,
    }

    impl FakeStream {
        fn stats_request(clone_fails: bool) -> (Self, Receiver<Vec<u8>>) {
            let (output, written) = channel();
            let input = Cursor::new(b"{\"op\":\"stats\"}\n".to_vec());
            let stream = FakeStream {
                input,
                output,
                clone_fails,
            };
            (stream, written)
        }
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let _ = self.output.send(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Socket for FakeStream {
        fn reader(&self, _idle_timeout: Option<Duration>) -> io::Result<Self> {
            if self.clone_fails {
                return Err(io::Error::other("clone failed"));
            }
            Ok(FakeStream {
                input: self.input.clone(),
                output: self.output.clone(),
                clone_fails: false,
            })
        }
    }

    #[test]
    fn a_failed_connection_setup_does_not_stop_the_listener() {
        let (broken, broken_written) = FakeStream::stats_request(true);
        let (served, served_written) = FakeStream::stats_request(false);
        // The fake listener hands out both, then fails `accept`.
        let mut script = VecDeque::from([broken, served]);
        let accept = || {
            script
                .pop_front()
                .ok_or_else(|| io::Error::other("no more connections"))
        };
        let session = Arc::new(Compiler::builder().workers(1).build());

        let err = accept_loop(
            accept,
            session,
            ServiceLimits::default(),
            DrainHandle::new(),
        )
        .expect_err("accept fails once the script runs out");
        assert_eq!(err.to_string(), "no more connections");

        let reply = served_written
            .recv_timeout(Duration::from_secs(10))
            .expect("the connection after the failed one is served");
        assert!(String::from_utf8_lossy(&reply).contains("\"op\":\"stats\""));
        assert!(
            broken_written.recv().is_err(),
            "the failed connection is dropped unserved"
        );
    }
}
