//! `qompress-serve` — run the compilation service on a socket.
//!
//! ```text
//! qompress-serve --tcp 127.0.0.1:7878 [--workers N] [--cache-capacity N]
//! qompress-serve --unix /tmp/qompress.sock [--workers N]
//! qompress-serve --tcp ADDR --cache-dir /var/cache/qompress \
//!                [--cache-disk-bytes N] [--drain-timeout SECS]
//! ```
//!
//! One long-lived `Compiler` session (shared worker pool, topology
//! registry, result cache) serves every connection; the protocol is
//! line-delimited JSON (see the `qompress-service` crate docs). Exits 2
//! on bad flags.
//!
//! `--cache-dir PATH` attaches the persistent on-disk cache tier: every
//! compiled result is written back to `PATH` (content-addressed,
//! corruption-checked, capped at `--cache-disk-bytes`, default 1 GiB),
//! and a restarted server pointed at the same directory serves previously
//! compiled circuits as disk hits instead of recompiling. Several server
//! processes may share one directory. An unopenable cache dir does
//! **not** abort the server — it starts memory-only and prints the
//! degradation warning to stderr.
//!
//! ## Graceful drain
//!
//! On `SIGINT`/`SIGTERM` (unix) the server drains instead of dying
//! mid-job: the listener stops accepting, new submits on live
//! connections answer `{"ok":false,"draining":true,…}`, and the process
//! waits up to `--drain-timeout` seconds (default 30; `0` skips the
//! wait) for queued + running jobs to reach zero — which also flushes
//! their disk write-backs, since persistence happens inside each job —
//! before exiting.
//!
//! Admission limits (all optional; see `ServiceLimits` for the
//! defaults):
//!
//! ```text
//!   --max-qubits N            circuit/skeleton qubit cap
//!   --max-gates N             circuit/skeleton gate cap
//!   --max-topology N          topology spec/upload node cap
//!   --max-concurrent-jobs N   outstanding jobs per connection
//!   --max-total-jobs N        lifetime jobs per connection
//!   --max-sweep-bindings N    bindings per submit_sweep
//!   --max-queue-depth N       queue depth before `busy` backpressure
//!   --idle-timeout-secs N     close idle connections (0 disables;
//!                             default 300)
//!   --drain-timeout SECS      in-flight-job wait on shutdown signal
//!                             (0 skips the wait; default 30)
//! ```
//!
//! Distance-oracle tuning (utility-scale devices):
//!
//! ```text
//!   --oracle-exact-threshold N   devices with at most N units use exact
//!                                Dijkstra rows (default 256); larger
//!                                ones switch to the O(K·V) landmark
//!                                oracle
//!   --oracle-landmarks K         landmark count for landmark mode
//!                                (default 0 = auto: ceil(sqrt(slots)),
//!                                clamped to 8..=64)
//! ```

use qompress::Compiler;
use qompress_service::{DrainHandle, ServiceLimits};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The binary's default idle timeout. The library default is `None`
/// (callers owning the transport rarely want one), but a socket server
/// exposed to real clients should not hold fds for silent peers
/// forever.
const DEFAULT_IDLE_TIMEOUT_SECS: u64 = 300;

/// Default wait for in-flight jobs after a shutdown signal.
const DEFAULT_DRAIN_TIMEOUT_SECS: u64 = 30;

/// Minimal signal plumbing on top of `signal(2)` — the offline build has
/// no libc crate, and all the handler may safely do is flip an atomic.
/// A watcher thread translates the flag into a [`DrainHandle`] trip.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    /// Async-signal-safe handler: a relaxed atomic store and nothing
    /// else.
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the handler for `SIGINT` and `SIGTERM`.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn received() -> bool {
        SHUTDOWN.load(Ordering::Acquire)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qompress-serve (--tcp ADDR | --unix PATH) \
         [--workers N] [--cache-capacity N] [--cache-dir PATH] \
         [--cache-disk-bytes N] [--max-qubits N] \
         [--max-gates N] [--max-topology N] [--max-concurrent-jobs N] \
         [--max-total-jobs N] [--max-sweep-bindings N] \
         [--max-queue-depth N] [--idle-timeout-secs N] \
         [--drain-timeout SECS] [--oracle-exact-threshold N] \
         [--oracle-landmarks K]"
    );
    ExitCode::from(2)
}

/// Waits for the session's queued + running jobs to reach zero, up to
/// `timeout` — the in-flight half of a graceful drain. Returns whether
/// the session fully drained.
fn await_inflight(session: &Compiler, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        let m = session.service_metrics();
        if m.queued == 0 && m.running == 0 {
            return true;
        }
        if Instant::now() >= deadline {
            eprintln!(
                "qompress-serve: drain timeout with {} queued / {} running job(s) left",
                m.queued, m.running
            );
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn main() -> ExitCode {
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut workers = 0usize;
    let mut cache_capacity: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut cache_disk_bytes: Option<u64> = None;
    let mut drain_timeout_secs = DEFAULT_DRAIN_TIMEOUT_SECS;
    let mut config = qompress::CompilerConfig::paper();
    let mut limits = ServiceLimits {
        idle_timeout: Some(Duration::from_secs(DEFAULT_IDLE_TIMEOUT_SECS)),
        ..ServiceLimits::default()
    };

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("`{name}` needs a value");
            }
            v
        };
        // Flags carrying a plain count share one parse-or-usage shape.
        macro_rules! count_flag {
            ($name:literal => $slot:expr) => {
                match value($name).and_then(|v| v.parse().ok()) {
                    Some(v) => $slot = v,
                    None => return usage(),
                }
            };
        }
        match flag.as_str() {
            "--tcp" => match value("--tcp") {
                Some(v) => tcp = Some(v),
                None => return usage(),
            },
            "--unix" => match value("--unix") {
                Some(v) => unix = Some(v),
                None => return usage(),
            },
            "--workers" => count_flag!("--workers" => workers),
            "--cache-capacity" => match value("--cache-capacity").and_then(|v| v.parse().ok()) {
                Some(v) => cache_capacity = Some(v),
                None => return usage(),
            },
            "--cache-dir" => match value("--cache-dir") {
                Some(v) => cache_dir = Some(v),
                None => return usage(),
            },
            "--cache-disk-bytes" => {
                match value("--cache-disk-bytes").and_then(|v| v.parse().ok()) {
                    Some(v) => cache_disk_bytes = Some(v),
                    None => return usage(),
                }
            }
            "--max-qubits" => count_flag!("--max-qubits" => limits.max_circuit_qubits),
            "--max-gates" => count_flag!("--max-gates" => limits.max_circuit_gates),
            "--max-topology" => count_flag!("--max-topology" => limits.max_topology_nodes),
            "--max-concurrent-jobs" => {
                count_flag!("--max-concurrent-jobs" => limits.max_concurrent_jobs)
            }
            "--max-total-jobs" => count_flag!("--max-total-jobs" => limits.max_total_jobs),
            "--max-sweep-bindings" => {
                count_flag!("--max-sweep-bindings" => limits.max_sweep_bindings)
            }
            "--max-queue-depth" => count_flag!("--max-queue-depth" => limits.max_queue_depth),
            "--idle-timeout-secs" => {
                match value("--idle-timeout-secs").and_then(|v| v.parse::<u64>().ok()) {
                    Some(0) => limits.idle_timeout = None,
                    Some(secs) => limits.idle_timeout = Some(Duration::from_secs(secs)),
                    None => return usage(),
                }
            }
            "--drain-timeout" => count_flag!("--drain-timeout" => drain_timeout_secs),
            "--oracle-exact-threshold" => {
                count_flag!("--oracle-exact-threshold" => config.oracle_exact_threshold)
            }
            "--oracle-landmarks" => count_flag!("--oracle-landmarks" => config.oracle_landmarks),
            _ => {
                eprintln!("unknown flag `{flag}`");
                return usage();
            }
        }
    }

    let mut builder = Compiler::builder().workers(workers).config(config);
    if let Some(capacity) = cache_capacity {
        builder = builder.cache_capacity(capacity);
    }
    if let Some(dir) = &cache_dir {
        // Best-effort pre-create; failure is not fatal — the builder
        // degrades to memory-only and reports it as a diagnostic below.
        let _ = std::fs::create_dir_all(dir);
        builder = builder.persist_dir(dir);
        if let Some(bytes) = cache_disk_bytes {
            builder = builder.persist_max_bytes(bytes);
        }
    }
    let session = Arc::new(builder.build());
    for warning in session.diagnostics() {
        eprintln!("qompress-serve: warning: {warning}");
    }
    if let Some(dir) = &cache_dir {
        if session.persistence_enabled() {
            let cap = cache_disk_bytes.map_or(String::new(), |b| format!(" (cap {b} bytes)"));
            eprintln!("qompress-serve: persistent cache at {dir}{cap}");
        }
    }

    // Shutdown signal → drain trip, via a watcher thread (the handler
    // itself may only flip an atomic).
    let drain = DrainHandle::new();
    #[cfg(unix)]
    {
        signals::install();
        let drain = drain.clone();
        std::thread::Builder::new()
            .name("qompress-serve-signals".to_string())
            .spawn(move || loop {
                if signals::received() {
                    eprintln!("qompress-serve: shutdown signal — draining");
                    drain.trigger();
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            })
            .expect("spawn signal watcher");
    }

    let served = match (tcp, unix) {
        (Some(addr), None) => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(err) => {
                    eprintln!("cannot bind tcp {addr}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "qompress-serve: tcp {} ({} workers)",
                listener.local_addr().map_or(addr, |a| a.to_string()),
                session.workers()
            );
            qompress_service::serve_tcp(listener, Arc::clone(&session), limits, drain.clone())
        }
        #[cfg(unix)]
        (None, Some(path)) => {
            let listener = match std::os::unix::net::UnixListener::bind(&path) {
                Ok(l) => l,
                Err(err) => {
                    eprintln!("cannot bind unix socket {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "qompress-serve: unix {path} ({} workers)",
                session.workers()
            );
            qompress_service::serve_unix(listener, Arc::clone(&session), limits, drain.clone())
        }
        _ => return usage(),
    };
    if let Err(err) = served {
        eprintln!("accept failed: {err}");
        return ExitCode::FAILURE;
    }

    // The accept loop returned: the drain tripped. Wait out in-flight
    // jobs (bounded), which also flushes their disk write-backs — each
    // job persists its own result before reporting done.
    if drain_timeout_secs > 0 {
        await_inflight(&session, Duration::from_secs(drain_timeout_secs));
    }
    let m = session.service_metrics();
    eprintln!(
        "qompress-serve: drained ({} completed, {} cancelled, {} failed)",
        m.completed, m.cancelled, m.failed
    );
    ExitCode::SUCCESS
}
