//! # qompress-service
//!
//! A wire-protocol front-end for the [`qompress`] compiler's session job
//! service: submit OpenQASM circuits over a socket, stream per-job
//! completions as they finish, cancel still-queued work mid-sweep, and
//! read exact queue/cache metrics — all against one long-lived
//! [`qompress::Compiler`] session whose worker pool, topology registry
//! and result cache are shared by every connection.
//!
//! The protocol is line-delimited JSON (one object per line, both
//! directions) — see [`proto`] for the exact message shapes. Transports:
//!
//! * **TCP** — [`serve_tcp`] over a caller-bound `TcpListener`;
//! * **Unix socket** — [`serve_unix`] (unix only);
//! * **any `(Read, Write)` pair**, one connection — [`serve_duplex`], or
//!   [`serve_duplex_with`] for explicit limits and drain; with the
//!   in-memory [`loopback`] transport, the tests under
//!   `crates/service/tests/` exercise the full protocol with no kernel
//!   sockets at all.
//!
//! [`ServiceClient`] is a blocking client over any of them.
//!
//! ## Hardening: limits, quotas, backpressure
//!
//! The server assumes hostile clients. [`serve_tcp`], [`serve_unix`] and
//! [`serve_duplex_with`] take a [`ServiceLimits`] ([`serve_duplex`] uses
//! [`ServiceLimits::default`]): request-shape bounds (circuit
//! qubits/gates, topology size, sweep width), per-connection quotas
//! (outstanding and lifetime job counts, uploaded topologies),
//! queue-depth backpressure and an idle-connection timeout. Rejections
//! are structured, machine-readable response lines — the connection
//! stays usable:
//!
//! * shape/parse violations, and programs wider than the strategy can
//!   place on the device, → `{"ok":false,"error":"…"}`;
//! * quota violations → `{"ok":false,"error":"…","quota":"<kind>",
//!   "limit":N}` ([`ServiceError::Quota`] client-side);
//! * a submit against a full queue → `{"ok":false,"error":"…",
//!   "busy":true,"queue_depth":D,"limit":N}` ([`ServiceError::Busy`]) —
//!   back off and retry;
//! * an idle connection is written one final `{"ok":false,"error":"…",
//!   "timeout":true}` line, then closed.
//!
//! ## Resilience: retry, reconnect, drain
//!
//! [`ServiceClient`] can retry transient failures under a
//! [`RetryPolicy`] (exponential backoff with deterministic jitter,
//! attempt/deadline caps): `busy` rejections always qualify, and
//! transport errors qualify once a reconnect hook is installed
//! ([`ServiceClient::set_reconnect`]) — resubmitting after a reconnect
//! is safe because results are content-addressed. On the server side,
//! [`serve_tcp`], [`serve_unix`] and [`serve_duplex_with`] watch a
//! [`DrainHandle`], which makes them gracefully stoppable: once tripped,
//! the accept loop returns, new submits answer
//! `{"ok":false,"draining":true,…}` ([`ServiceError::Draining`], never
//! retried), and in-flight jobs finish with their events still
//! streaming.
//!
//! Below the limits sit parser-level DoS bounds that hold regardless of
//! configuration: request lines are capped at 16 MiB, JSON nesting at
//! [`json::MAX_DEPTH`] levels, QASM register totals at the configured
//! qubit cap (checked before allocation), and topology specs at the
//! configured node cap (checked before construction).
//!
//! Clients may also upload a custom topology as an explicit edge list
//! (`{"op":"topology","name":…,"nodes":N,"edges":[[a,b],…]}` /
//! [`ServiceClient::upload_topology`]); the name then acts as a
//! topology spec for later submits on the same connection, shadowing
//! the built-in `kind:size` constructors.
//!
//! ```
//! use qompress::{Compiler, Strategy};
//! use qompress_service::{loopback, serve_duplex, ServiceClient};
//! use std::io::BufReader;
//! use std::sync::Arc;
//!
//! let session = Arc::new(Compiler::builder().workers(1).build());
//! let (client_end, server_end) = loopback();
//! let (server_reader, server_writer) = server_end.split();
//! let server = std::thread::spawn(move || {
//!     serve_duplex(session, server_reader, server_writer)
//! });
//!
//! let (reader, writer) = client_end.split();
//! let mut client = ServiceClient::new(BufReader::new(reader), writer);
//! let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q;\ncx q[0], q[1];\n";
//! let job = client.submit("ghz", Strategy::Eqm, "grid:3", qasm).unwrap();
//! let event = client.next_event().unwrap();
//! assert_eq!(event.job(), job);
//! drop(client); // EOF ends the connection…
//! server.join().unwrap().unwrap(); // …and the server thread returns.
//! ```

#![warn(missing_docs)]

mod drain;
pub mod json;
mod limits;
mod loopback;
pub mod proto;

mod client;
mod server;

pub use client::{RetryPolicy, RetryStats, ServiceClient, ServiceError};
pub use drain::DrainHandle;
pub use limits::ServiceLimits;
pub use loopback::{loopback, LoopbackEnd, LoopbackReader, LoopbackWriter};
pub use proto::{
    parse_topology_spec, parse_topology_spec_bounded, result_fingerprint, strategy_by_name,
    Request, ServiceEvent, StatsSnapshot, WireMetrics, DEFAULT_MAX_TOPOLOGY_NODES,
};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{serve_duplex, serve_duplex_with, serve_tcp};
