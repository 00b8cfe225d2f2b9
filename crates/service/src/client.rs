//! A blocking client for the wire protocol.
//!
//! [`ServiceClient`] wraps any `(BufRead, Write)` pair — a TCP stream, a
//! Unix socket, or a [`crate::loopback`] end — and demultiplexes the
//! server's single response stream: every request gets exactly one
//! response, and asynchronous completion events arriving in between are
//! buffered for [`ServiceClient::next_event`].
//!
//! ## Retry and reconnect
//!
//! Submits can be made resilient with a [`RetryPolicy`]
//! ([`ServiceClient::set_retry_policy`]): `busy` backpressure rejections
//! and — when a reconnect hook is installed
//! ([`ServiceClient::set_reconnect`]) — transport failures are retried
//! with exponential backoff and deterministic jitter, up to the policy's
//! attempt and deadline caps. Resubmitting after a reconnect is safe
//! because results are **content-addressed**: a duplicate submit of the
//! same job is served from the server's cache, never recompiled into a
//! divergent result. Exact retry traffic is reported by
//! [`ServiceClient::retry_stats`].

use crate::json::Json;
use crate::proto::{Request, ServiceEvent, StatsSnapshot};
use qompress::Strategy;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

/// A client-side failure.
#[derive(Debug)]
pub enum ServiceError {
    /// The transport failed.
    Io(io::Error),
    /// The server's bytes did not parse as protocol messages.
    Protocol(String),
    /// The server rejected a submit with backpressure
    /// (`{"ok":false,"busy":true,…}`): the queue is full — back off and
    /// retry.
    Busy {
        /// The session queue depth the server observed.
        queue_depth: u64,
        /// The configured queue-depth limit.
        limit: u64,
        /// The server's human-readable message.
        message: String,
    },
    /// The server rejected a request for exceeding a per-connection
    /// quota or request-shape limit (`{"ok":false,"quota":…,…}`).
    Quota {
        /// Which limit was hit (e.g. `"concurrent_jobs"`,
        /// `"sweep_bindings"`, `"circuit_gates"`).
        kind: String,
        /// The configured value of that limit.
        limit: u64,
        /// The server's human-readable message.
        message: String,
    },
    /// The server is draining toward shutdown
    /// (`{"ok":false,"draining":true,…}`): it accepts no new jobs and
    /// will not recover on this connection — submit elsewhere. Never
    /// retried by a [`RetryPolicy`].
    Draining {
        /// The server's human-readable message.
        message: String,
    },
    /// The server answered `{"ok":false,…}` with this message.
    Remote(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(err) => write!(f, "service I/O error: {err}"),
            ServiceError::Protocol(msg) => write!(f, "service protocol error: {msg}"),
            ServiceError::Busy {
                queue_depth,
                limit,
                message,
            } => write!(f, "service busy (queue {queue_depth}/{limit}): {message}"),
            ServiceError::Quota {
                kind,
                limit,
                message,
            } => write!(f, "service quota `{kind}` (limit {limit}): {message}"),
            ServiceError::Draining { message } => write!(f, "service draining: {message}"),
            ServiceError::Remote(msg) => write!(f, "service error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(err: io::Error) -> Self {
        ServiceError::Io(err)
    }
}

/// How a [`ServiceClient`] retries submits that hit transient failures:
/// `busy` backpressure, and — with a reconnect hook installed —
/// transport errors.
///
/// The delay before retry `i` (zero-based) is `base_delay · 2^i`,
/// capped at `max_delay`, then scaled into `[0.5, 1.0)` by
/// deterministic jitter (a hash of `seed` and the retry index — two
/// clients with different seeds desynchronize, one client replays
/// identically). Retries stop when `max_attempts` total attempts were
/// made or the next sleep would cross `deadline`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, first try included (clamped to ≥ 1; `1` means no
    /// retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_delay: Duration,
    /// Wall-clock budget across all attempts; `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Scale each sleep by a deterministic factor in `[0.5, 1.0)`.
    pub jitter: bool,
    /// Seed of the jitter hash.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately (the default).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            deadline: None,
            jitter: false,
            seed: 0,
        }
    }

    /// A production-shaped policy: 6 attempts, 25 ms base delay doubling
    /// to a 1 s cap, 30 s deadline, jitter on.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            deadline: Some(Duration::from_secs(30)),
            jitter: true,
            seed: 0x716f_6d70_7265_7373, // "qompress"
        }
    }

    /// The backoff sleep before retry `retry_index` (zero-based):
    /// exponential, capped, jittered.
    pub fn delay_for(&self, retry_index: u32) -> Duration {
        let unjittered = self
            .base_delay
            .saturating_mul(1u32.checked_shl(retry_index).unwrap_or(u32::MAX))
            .min(self.max_delay);
        if !self.jitter {
            return unjittered;
        }
        let hash = splitmix64(self.seed ^ u64::from(retry_index) ^ 0x9E37_79B9_7F4A_7C15);
        // Top 53 bits → a uniform fraction in [0, 1), folded to [0.5, 1).
        let fraction = 0.5 + (hash >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        unjittered.mul_f64(fraction)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// One round of the splitmix64 mixer — a tiny, dependency-free way to
/// turn (seed, retry index) into uniform jitter bits.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact retry traffic of one [`ServiceClient`] (see
/// [`ServiceClient::retry_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Submits retried after a `busy` backpressure rejection.
    pub busy_retries: u64,
    /// Transports re-established by the reconnect hook.
    pub reconnects: u64,
    /// Retryable failures abandoned at the attempt or deadline cap (the
    /// error then surfaced to the caller).
    pub give_ups: u64,
}

/// The reconnect hook: dials a fresh transport to the same server.
type ReconnectFn<R, W> = Box<dyn FnMut() -> io::Result<(R, W)> + Send>;

/// A blocking wire-protocol client over any transport.
pub struct ServiceClient<R, W> {
    reader: R,
    writer: W,
    pending_events: VecDeque<ServiceEvent>,
    retry: RetryPolicy,
    retry_stats: RetryStats,
    reconnect: Option<ReconnectFn<R, W>>,
}

impl<R, W> fmt::Debug for ServiceClient<R, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceClient")
            .field("pending_events", &self.pending_events.len())
            .field("retry", &self.retry)
            .field("retry_stats", &self.retry_stats)
            .field("reconnect", &self.reconnect.is_some())
            .finish_non_exhaustive()
    }
}

impl<R: BufRead, W: Write> ServiceClient<R, W> {
    /// Wraps a connected transport (no retries — see
    /// [`ServiceClient::set_retry_policy`]).
    pub fn new(reader: R, writer: W) -> Self {
        ServiceClient {
            reader,
            writer,
            pending_events: VecDeque::new(),
            retry: RetryPolicy::none(),
            retry_stats: RetryStats::default(),
            reconnect: None,
        }
    }

    /// Sets the retry policy applied to [`ServiceClient::submit`] and
    /// [`ServiceClient::submit_sweep`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Builder-style [`ServiceClient::set_retry_policy`].
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Installs a reconnect hook: on a transport error during a
    /// retryable request, the hook dials a fresh `(reader, writer)` pair
    /// to the same server and the request is resubmitted there (safe:
    /// results are content-addressed, so a duplicate submit is a cache
    /// hit, never a divergent recompile). Without a hook, transport
    /// errors are never retried.
    pub fn set_reconnect(&mut self, dial: impl FnMut() -> io::Result<(R, W)> + Send + 'static) {
        self.reconnect = Some(Box::new(dial));
    }

    /// Exact retry traffic so far (zeros until a retry happens).
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Submits one job; returns the server-assigned job id.
    pub fn submit(
        &mut self,
        label: &str,
        strategy: Strategy,
        topology_spec: &str,
        qasm: &str,
    ) -> Result<u64, ServiceError> {
        let response = self.request_retrying(&Request::Submit {
            label: label.to_string(),
            strategy,
            topology: topology_spec.to_string(),
            qasm: qasm.to_string(),
        })?;
        response
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::Protocol("submit response missing `job`".into()))
    }

    /// Submits one parametric skeleton with many angle bindings; returns
    /// the server-assigned job ids, one per binding, in binding order
    /// (binding `i`'s job is labeled `label#i`). The server compiles the
    /// structure once and stamps each binding; completions stream as
    /// ordinary events.
    pub fn submit_sweep(
        &mut self,
        label: &str,
        strategy: Strategy,
        topology_spec: &str,
        qasm: &str,
        bindings: &[Vec<f64>],
    ) -> Result<Vec<u64>, ServiceError> {
        let response = self.request_retrying(&Request::SubmitSweep {
            label: label.to_string(),
            strategy,
            topology: topology_spec.to_string(),
            qasm: qasm.to_string(),
            bindings: bindings.to_vec(),
        })?;
        let Some(Json::Arr(ids)) = response.get("jobs") else {
            return Err(ServiceError::Protocol(
                "submit_sweep response missing `jobs`".into(),
            ));
        };
        ids.iter()
            .map(|id| {
                id.as_u64().ok_or_else(|| {
                    ServiceError::Protocol("submit_sweep `jobs` entry is not an id".into())
                })
            })
            .collect()
    }

    /// Uploads a named topology as an explicit edge list; later submits
    /// on this connection may pass `name` as their topology spec
    /// (uploaded names shadow the built-in `kind:size` constructors).
    /// Returns the server-side edge count, which can be smaller than
    /// `edges.len()` when the list carries duplicates.
    pub fn upload_topology(
        &mut self,
        name: &str,
        nodes: usize,
        edges: &[(usize, usize)],
    ) -> Result<u64, ServiceError> {
        let response = self.request(&Request::Topology {
            name: name.to_string(),
            nodes,
            edges: edges.to_vec(),
        })?;
        response
            .get("edges")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::Protocol("topology response missing `edges`".into()))
    }

    /// Queries one job's lifecycle status name
    /// (`"queued"`/`"running"`/`"done"`/`"cancelled"`/`"failed"`).
    pub fn poll(&mut self, job: u64) -> Result<String, ServiceError> {
        let response = self.request(&Request::Poll { job })?;
        response
            .get("status")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServiceError::Protocol("poll response missing `status`".into()))
    }

    /// Cancels a still-queued job; `Ok(true)` iff this call cancelled it.
    pub fn cancel(&mut self, job: u64) -> Result<bool, ServiceError> {
        let response = self.request(&Request::Cancel { job })?;
        response
            .get("cancelled")
            .and_then(Json::as_bool)
            .ok_or_else(|| ServiceError::Protocol("cancel response missing `cancelled`".into()))
    }

    /// Snapshots the server's job-service metrics and cache stats.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServiceError> {
        let response = self.request(&Request::Stats)?;
        StatsSnapshot::parse(&response).map_err(ServiceError::Protocol)
    }

    /// Pauses the server session's workers (queued jobs stay queued and
    /// cancellable until [`ServiceClient::resume`]).
    pub fn pause(&mut self) -> Result<(), ServiceError> {
        self.request(&Request::Pause).map(|_| ())
    }

    /// Resumes the server session's workers.
    pub fn resume(&mut self) -> Result<(), ServiceError> {
        self.request(&Request::Resume).map(|_| ())
    }

    /// Returns the next completion event, blocking until one arrives.
    /// Events buffered while reading responses are returned first, in
    /// arrival order.
    pub fn next_event(&mut self) -> Result<ServiceEvent, ServiceError> {
        if let Some(event) = self.pending_events.pop_front() {
            return Ok(event);
        }
        let value = self.read_message()?;
        match ServiceEvent::parse(&value).map_err(ServiceError::Protocol)? {
            Some(event) => Ok(event),
            None => Err(ServiceError::Protocol(format!(
                "expected an event, got response `{value}`"
            ))),
        }
    }

    /// [`ServiceClient::request`] under the client's [`RetryPolicy`]:
    /// `busy` rejections — and, with a reconnect hook, transport errors
    /// — are retried with backoff until the policy's attempt or
    /// deadline cap. Everything else surfaces immediately.
    fn request_retrying(&mut self, request: &Request) -> Result<Json, ServiceError> {
        let policy = self.retry;
        let started = Instant::now();
        let mut retry_index: u32 = 0;
        loop {
            let err = match self.request(request) {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            let retryable = match &err {
                ServiceError::Busy { .. } => true,
                ServiceError::Io(_) => self.reconnect.is_some(),
                _ => false,
            };
            // A single-attempt policy is "retries off": errors surface
            // untouched and uncounted, exactly like the pre-policy client.
            if !retryable || policy.max_attempts <= 1 {
                return Err(err);
            }
            if u64::from(retry_index) + 1 >= u64::from(policy.max_attempts) {
                self.retry_stats.give_ups += 1;
                return Err(err);
            }
            let delay = policy.delay_for(retry_index);
            if let Some(deadline) = policy.deadline {
                if started.elapsed() + delay > deadline {
                    self.retry_stats.give_ups += 1;
                    return Err(err);
                }
            }
            std::thread::sleep(delay);
            match err {
                ServiceError::Busy { .. } => {
                    self.retry_stats.busy_retries += 1;
                }
                ServiceError::Io(_) => {
                    // Dial a fresh transport; a failed dial just burns
                    // this attempt and backs off further.
                    let dial = self.reconnect.as_mut().expect("retryable implies hook");
                    if let Ok((reader, writer)) = dial() {
                        self.reader = reader;
                        self.writer = writer;
                        self.retry_stats.reconnects += 1;
                    }
                }
                _ => unreachable!("only busy/io are retryable"),
            }
            retry_index += 1;
        }
    }

    /// Sends one request and reads its response, buffering any events
    /// that arrive first.
    fn request(&mut self, request: &Request) -> Result<Json, ServiceError> {
        writeln!(self.writer, "{}", request.to_line())?;
        self.writer.flush()?;
        loop {
            let value = self.read_message()?;
            if let Some(event) = ServiceEvent::parse(&value).map_err(ServiceError::Protocol)? {
                self.pending_events.push_back(event);
                continue;
            }
            return match value.get("ok").and_then(Json::as_bool) {
                Some(true) => Ok(value),
                Some(false) => Err(Self::classify_rejection(&value)),
                None => Err(ServiceError::Protocol(format!(
                    "message is neither response nor event: `{value}`"
                ))),
            };
        }
    }

    /// Maps an `{"ok":false,…}` response to the most specific error:
    /// backpressure (`busy`), a tagged quota (`quota`), or the generic
    /// [`ServiceError::Remote`].
    fn classify_rejection(value: &Json) -> ServiceError {
        let message = value
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unspecified server error")
            .to_string();
        // Draining wins over busy: a draining server is *not* coming
        // back, so the retry loop must not treat it as backpressure.
        if value.get("draining").and_then(Json::as_bool) == Some(true) {
            return ServiceError::Draining { message };
        }
        if value.get("busy").and_then(Json::as_bool) == Some(true) {
            return ServiceError::Busy {
                queue_depth: value.get("queue_depth").and_then(Json::as_u64).unwrap_or(0),
                limit: value.get("limit").and_then(Json::as_u64).unwrap_or(0),
                message,
            };
        }
        if let Some(kind) = value.get("quota").and_then(Json::as_str) {
            return ServiceError::Quota {
                kind: kind.to_string(),
                limit: value.get("limit").and_then(Json::as_u64).unwrap_or(0),
                message,
            };
        }
        ServiceError::Remote(message)
    }

    /// Reads one non-empty line and parses it.
    fn read_message(&mut self) -> Result<Json, ServiceError> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ServiceError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Json::parse(line.trim()).map_err(ServiceError::Protocol);
        }
    }
}
