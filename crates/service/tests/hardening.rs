//! Hostile-traffic hardening tests: every attack in the malicious-client
//! repertoire — oversized topologies, billion-qubit registers, deeply
//! nested JSON, quota exhaustion, queue flooding, idle connections —
//! must yield a structured error line (or, for idling, a labeled
//! disconnect), never a panic, an allocation blow-up, or a starved
//! neighbour.

use qompress::{Compiler, Strategy};
use qompress_qasm::to_qasm;
use qompress_service::{
    loopback, serve_duplex, serve_duplex_with, DrainHandle, ServiceClient, ServiceError,
    ServiceEvent, ServiceLimits,
};
use qompress_workloads::{build, Benchmark};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

type LoopClient =
    ServiceClient<BufReader<qompress_service::LoopbackReader>, qompress_service::LoopbackWriter>;

/// Spawns a loopback server with explicit limits; returns the connected
/// client and the server thread handle.
fn connect_with_limits(
    session: Arc<Compiler>,
    limits: ServiceLimits,
) -> (LoopClient, std::thread::JoinHandle<std::io::Result<()>>) {
    let (client_end, server_end) = loopback();
    let (server_reader, server_writer) = server_end.split();
    let server = std::thread::spawn(move || {
        serve_duplex_with(
            session,
            server_reader,
            server_writer,
            limits,
            DrainHandle::new(),
        )
    });
    let (reader, writer) = client_end.split();
    (ServiceClient::new(BufReader::new(reader), writer), server)
}

fn connect(session: Arc<Compiler>) -> (LoopClient, std::thread::JoinHandle<std::io::Result<()>>) {
    connect_with_limits(session, ServiceLimits::default())
}

const SMALL_QASM: &str = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";

#[test]
fn oversized_topology_specs_are_rejected_structurally() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(Arc::clone(&session));

    // The classic DoS line: a topology spec naming a hundred-million-node
    // device. Rejected by the size clamp before any constructor runs.
    for spec in ["line:100000000", "grid:4097", "ring:999999999", "ring:2"] {
        let err = client
            .submit("attack", Strategy::Eqm, spec, SMALL_QASM)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Remote(_)), "{spec}: {err}");
    }

    // The connection survives and still compiles real work.
    let id = client
        .submit("legit", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == id
    ));
    let stats = client.stats().unwrap();
    assert_eq!(stats.service.submitted, 1, "rejected submits never enqueue");

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn billion_qubit_qreg_is_rejected_before_allocation() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(Arc::clone(&session));

    // If this allocated per-qubit state the test would OOM, not fail.
    let bomb = "OPENQASM 2.0;\nqreg q[1000000000];\nh q[0];\n";
    let err = client
        .submit("bomb", Strategy::Eqm, "grid:3", bomb)
        .unwrap_err();
    let ServiceError::Remote(message) = &err else {
        panic!("expected a structured rejection, got {err}");
    };
    assert!(message.contains("limit of 256 qubits"), "{message}");

    // Summed registers cross the wire cap too.
    let split = "OPENQASM 2.0;\nqreg a[200];\nqreg b[200];\nh a[0];\n";
    let err = client
        .submit("split", Strategy::Eqm, "grid:3", split)
        .unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "{err}");

    let id = client
        .submit("legit", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == id
    ));
    drop(client);
    server.join().unwrap().unwrap();
}

/// A CX ring over `n` qubits, as QASM.
fn ring_qasm(n: usize) -> String {
    let mut qasm = format!("OPENQASM 2.0;\nqreg q[{n}];\n");
    for q in 0..n {
        qasm.push_str(&format!("cx q[{q}], q[{}];\n", (q + 1) % n));
    }
    qasm
}

#[test]
fn programs_wider_than_the_strategy_can_place_are_rejected_at_admission() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(Arc::clone(&session));

    // EQM packs at most two qubits per unit, qubit-only one: both of
    // these would panic the worker in mapping if they were enqueued.
    for (strategy, n, max) in [(Strategy::Eqm, 20, 8), (Strategy::QubitOnly, 5, 4)] {
        let err = client
            .submit("too-wide", strategy, "grid:4", &ring_qasm(n))
            .unwrap_err();
        let ServiceError::Remote(message) = &err else {
            panic!("{strategy}: expected an error line, got {err}");
        };
        assert!(
            message.contains(&format!("places at most {max}")),
            "{message}"
        );
    }
    // A sweep is checked the same way, before any binding is enqueued.
    let wide_skeleton = format!("{}rz(theta0) q[0];\n", ring_qasm(9));
    let err = client
        .submit_sweep(
            "too-wide",
            Strategy::Eqm,
            "grid:4",
            &wide_skeleton,
            &[vec![0.1]],
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "{err}");
    assert_eq!(client.stats().unwrap().service.submitted, 0);

    // At the bound the program is admitted and compiles.
    let id = client
        .submit("fits", Strategy::Eqm, "grid:4", &ring_qasm(8))
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == id
    ));
    assert_eq!(client.stats().unwrap().service.submitted, 1);

    drop(client);
    server.join().unwrap().unwrap();
}

/// One client's scripted conversation under concurrent load: legitimate
/// submits, a cancel race, a sweep within the binding quota, and two
/// hostile requests that must be rejected structurally. Every accepted
/// job must reach a terminal event.
fn load_client(c: u64, session: Arc<Compiler>, limits: ServiceLimits) {
    let (mut client, server) = connect_with_limits(session, limits);
    let strategies = [Strategy::Eqm, Strategy::QubitOnly, Strategy::RingBased];
    let mut ids = Vec::new();
    for i in 0..6u64 {
        let qasm = to_qasm(&build(Benchmark::Bv, 5, c * 6 + i));
        let strategy = strategies[i as usize % strategies.len()];
        let id = client
            .submit(&format!("c{c}-j{i}"), strategy, "grid:5", &qasm)
            .unwrap();
        client.poll(id).unwrap();
        ids.push(id);
    }

    // A cancel race on the last submit: either answer is legal (the job
    // may already be running or done), but it must be well-formed, and a
    // successful cancel must stream a `cancelled` event.
    let cancelled = client.cancel(*ids.last().unwrap()).unwrap();

    let skeleton = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nrz(theta0) q[0];\n\
                    cx q[0], q[1];\nrx(theta1) q[1];\ncx q[1], q[2];\n";
    let bindings: Vec<Vec<f64>> = (0..3)
        .map(|i| vec![0.1 + i as f64, 1.0 - 0.2 * i as f64])
        .collect();
    ids.extend(
        client
            .submit_sweep(
                &format!("c{c}-sweep"),
                Strategy::Eqm,
                "grid:3",
                skeleton,
                &bindings,
            )
            .unwrap(),
    );

    let wide: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 0.0]).collect();
    let err = client
        .submit_sweep(
            &format!("c{c}-wide"),
            Strategy::Eqm,
            "grid:3",
            skeleton,
            &wide,
        )
        .unwrap_err();
    let ServiceError::Quota { kind, limit, .. } = &err else {
        panic!("client {c}: expected a quota rejection, got {err}");
    };
    assert_eq!((kind.as_str(), *limit), ("sweep_bindings", 4));
    let bomb = "OPENQASM 2.0;\nqreg q[1000000000];\nh q[0];\n";
    let err = client
        .submit(&format!("c{c}-bomb"), Strategy::Eqm, "grid:3", bomb)
        .unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "client {c}: {err}");

    let (mut done, mut cancel_events) = (0, 0);
    while done + cancel_events < ids.len() {
        match client.next_event().unwrap() {
            ServiceEvent::Done { .. } => done += 1,
            ServiceEvent::Cancelled { .. } => cancel_events += 1,
            other => panic!("client {c}: job failed under load: {other:?}"),
        }
    }
    assert_eq!(cancel_events, usize::from(cancelled), "client {c}");
    for id in ids {
        let status = client.poll(id).unwrap();
        assert!(status == "done" || status == "cancelled", "{status}");
    }
    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_under_load_lose_no_job_and_get_structured_rejections() {
    let session = Arc::new(Compiler::builder().workers(2).build());
    let limits = ServiceLimits {
        max_sweep_bindings: 4,
        ..ServiceLimits::default()
    };
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let (session, limits) = (Arc::clone(&session), limits.clone());
            std::thread::spawn(move || load_client(c, session, limits))
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    // 4 clients x (6 submits + a 3-binding sweep); no rejected request
    // was enqueued.
    let m = session.service_metrics();
    assert_eq!(m.submitted, 4 * 9);
    assert_eq!(m.completed + m.cancelled, m.submitted);
    assert_eq!(m.failed, 0);
}

#[test]
fn deeply_nested_json_survives_the_live_wire() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (client_end, server_end) = loopback();
    let (server_reader, server_writer) = server_end.split();
    let server = std::thread::spawn(move || serve_duplex(session, server_reader, server_writer));
    let (reader, mut writer) = client_end.split();
    let mut lines = BufReader::new(reader).lines();

    // A megabyte of `[`: with naive recursion this overflows the reader
    // thread's stack and kills the connection; the depth bound answers an
    // error line instead.
    let mut bomb = "[".repeat(1 << 20);
    bomb.push('\n');
    writer.write_all(bomb.as_bytes()).unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("nesting"), "{reply}");

    // Same for an object chain, wrapped as a plausible request.
    let mut object_bomb = String::from("{\"op\":");
    for _ in 0..1000 {
        object_bomb.push_str("{\"x\":");
    }
    object_bomb.push('\n');
    writer.write_all(object_bomb.as_bytes()).unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(reply.contains("\"ok\":false"), "{reply}");

    // The connection is still in sync: a real request gets its answer.
    writeln!(writer, "{{\"op\":\"stats\"}}").unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(
        reply.starts_with("{\"ok\":true,\"op\":\"stats\""),
        "{reply}"
    );

    drop(writer);
    drop(lines);
    server.join().unwrap().unwrap();
}

#[test]
fn concurrent_job_quota_is_enforced_and_recovers() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_concurrent_jobs: 2,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect_with_limits(Arc::clone(&session), limits);

    // Paused workers: every job stays outstanding deterministically.
    client.pause().unwrap();
    let keep = client
        .submit("keep", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    let victim = client
        .submit("victim", Strategy::Awe, "grid:2", SMALL_QASM)
        .unwrap();
    let err = client
        .submit("over", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap_err();
    let ServiceError::Quota { kind, limit, .. } = &err else {
        panic!("expected a quota rejection, got {err}");
    };
    assert_eq!((kind.as_str(), *limit), ("concurrent_jobs", 2));

    // A cancellation's terminal event releases the slot.
    assert!(client.cancel(victim).unwrap());
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Cancelled { job, .. } if job == victim
    ));
    let refill = client
        .submit("refill", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    client.resume().unwrap();
    let mut done = [client.next_event().unwrap(), client.next_event().unwrap()]
        .iter()
        .map(ServiceEvent::job)
        .collect::<Vec<_>>();
    done.sort_unstable();
    let mut want = vec![keep, refill];
    want.sort_unstable();
    assert_eq!(done, want);

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn lifetime_job_quota_is_per_connection() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_total_jobs: 2,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect_with_limits(Arc::clone(&session), limits.clone());

    for label in ["one", "two"] {
        let id = client
            .submit(label, Strategy::Eqm, "grid:2", SMALL_QASM)
            .unwrap();
        assert!(matches!(
            client.next_event().unwrap(),
            ServiceEvent::Done { job, .. } if job == id
        ));
    }
    // Both jobs are long finished — the lifetime budget is still spent.
    let err = client
        .submit("three", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap_err();
    let ServiceError::Quota { kind, limit, .. } = &err else {
        panic!("expected a quota rejection, got {err}");
    };
    assert_eq!((kind.as_str(), *limit), ("total_jobs", 2));
    // …and a sweep that would cross the budget is rejected atomically.
    let err = client
        .submit_sweep(
            "sweep",
            Strategy::Eqm,
            "grid:2",
            "OPENQASM 2.0;\nqreg q[2];\nrz(theta0) q[0];\n",
            &[vec![0.1]],
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::Quota { .. }), "{err}");
    drop(client);

    // A fresh connection to the same session has a fresh budget.
    let (mut client2, server2) = connect_with_limits(Arc::clone(&session), limits);
    let id = client2
        .submit("fresh", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    assert!(matches!(
        client2.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == id
    ));
    drop(client2);
    server.join().unwrap().unwrap();
    server2.join().unwrap().unwrap();
}

#[test]
fn full_queue_answers_busy_backpressure() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_queue_depth: 1,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect_with_limits(Arc::clone(&session), limits);

    client.pause().unwrap();
    let first = client
        .submit("first", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    let err = client
        .submit("flood", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap_err();
    let ServiceError::Busy {
        queue_depth, limit, ..
    } = &err
    else {
        panic!("expected busy backpressure, got {err}");
    };
    assert_eq!((*queue_depth, *limit), (1, 1));

    // Backpressure is transient: once the queue drains, submits succeed.
    client.resume().unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == first
    ));
    let second = client
        .submit("after", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == second
    ));

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn sweep_binding_and_gate_count_limits_bite() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_sweep_bindings: 2,
        max_circuit_gates: 3,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect_with_limits(Arc::clone(&session), limits);

    let skeleton = "OPENQASM 2.0;\nqreg q[2];\nrz(theta0) q[0];\n";
    let err = client
        .submit_sweep(
            "wide",
            Strategy::Eqm,
            "grid:2",
            skeleton,
            &[vec![0.1], vec![0.2], vec![0.3]],
        )
        .unwrap_err();
    let ServiceError::Quota { kind, limit, .. } = &err else {
        panic!("expected a quota rejection, got {err}");
    };
    assert_eq!((kind.as_str(), *limit), ("sweep_bindings", 2));

    // Four gates against a three-gate cap.
    let fat = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[1];\ncx q[0], q[1];\nh q[0];\n";
    let err = client
        .submit("fat", Strategy::Eqm, "grid:2", fat)
        .unwrap_err();
    let ServiceError::Quota { kind, limit, .. } = &err else {
        panic!("expected a quota rejection, got {err}");
    };
    assert_eq!((kind.as_str(), *limit), ("circuit_gates", 3));

    // At the cap both pass.
    let ids = client
        .submit_sweep(
            "fits",
            Strategy::Eqm,
            "grid:2",
            skeleton,
            &[vec![0.1], vec![0.2]],
        )
        .unwrap();
    assert_eq!(ids.len(), 2);
    for _ in &ids {
        assert!(matches!(
            client.next_event().unwrap(),
            ServiceEvent::Done { .. }
        ));
    }

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn broadcast_amplified_submit_hits_the_gate_cap_while_parsing() {
    // `h q;` asks for 256 gates in 4 bytes. The default 100 000-gate cap
    // must stop the parse at the crossing statement (the 391st broadcast)
    // instead of building all 512 000 gates and counting afterwards.
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(Arc::clone(&session));
    let mut amplified = String::from("OPENQASM 2.0;\nqreg q[256];\n");
    for _ in 0..2000 {
        amplified.push_str("h q;\n");
    }
    let err = client
        .submit("amplified", Strategy::Eqm, "grid:256", &amplified)
        .unwrap_err();
    let ServiceError::Quota {
        kind,
        limit,
        message,
    } = &err
    else {
        panic!("expected a quota rejection, got {err}");
    };
    assert_eq!((kind.as_str(), *limit), ("circuit_gates", 100_000));
    assert!(message.contains("line 393"), "{message}");

    // The same connection still compiles a valid program.
    let id = client
        .submit("legit", Strategy::Eqm, "grid:2", SMALL_QASM)
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == id
    ));
    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn topology_uploads_are_validated_and_usable() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_uploaded_topologies: 2,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect_with_limits(Arc::clone(&session), limits);

    // A 4-node square, uploaded by name and compiled against. The
    // duplicate edge is deduped server-side.
    let square = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)];
    assert_eq!(client.upload_topology("square", 4, &square).unwrap(), 4);
    let id = client
        .submit("on-square", Strategy::Eqm, "square", SMALL_QASM)
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == id
    ));

    // Every malformed upload is a structured error — `Topology`'s own
    // checks are assert!s, so reaching them would kill the connection.
    for (name, nodes, edges, what) in [
        ("loop", 3, vec![(1usize, 1usize)], "self-loop"),
        ("range", 3, vec![(0, 7)], "out of range"),
        ("empty", 0, vec![], "at least one node"),
        ("huge", 1_000_000_000, vec![(0, 1)], "exceeding the limit"),
        ("", 2, vec![(0, 1)], "name"),
    ] {
        let err = client.upload_topology(name, nodes, &edges).unwrap_err();
        let ServiceError::Remote(message) = &err else {
            panic!("`{name}`: expected a structured rejection, got {err}");
        };
        assert!(message.contains(what), "`{name}`: {message}");
    }

    // Registry quota: a second name fills it, replacement stays free,
    // a third name is a tagged quota rejection.
    assert_eq!(client.upload_topology("pair", 2, &[(0, 1)]).unwrap(), 1);
    assert_eq!(client.upload_topology("square", 4, &square).unwrap(), 4);
    let err = client.upload_topology("third", 2, &[(0, 1)]).unwrap_err();
    let ServiceError::Quota { kind, limit, .. } = &err else {
        panic!("expected a quota rejection, got {err}");
    };
    assert_eq!((kind.as_str(), *limit), ("uploaded_topologies", 2));

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn idle_connection_gets_a_timeout_line_then_a_clean_close() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (client_end, server_end) = loopback();
    let (mut server_reader, server_writer) = server_end.split();
    // The transport-level timeout (SO_RCVTIMEO analogue) plus the limit
    // that labels the goodbye line.
    server_reader.set_read_timeout(Some(Duration::from_millis(50)));
    let limits = ServiceLimits {
        idle_timeout: Some(Duration::from_millis(50)),
        ..ServiceLimits::default()
    };
    let server = std::thread::spawn(move || {
        serve_duplex_with(
            session,
            server_reader,
            server_writer,
            limits,
            DrainHandle::new(),
        )
    });

    let (reader, mut writer) = client_end.split();
    let mut lines = BufReader::new(reader).lines();
    // Activity resets the clock: a request inside the window is served.
    writeln!(writer, "{{\"op\":\"stats\"}}").unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(
        reply.starts_with("{\"ok\":true,\"op\":\"stats\""),
        "{reply}"
    );

    // Then silence: the server says why it is hanging up, and hangs up.
    let goodbye = lines.next().unwrap().unwrap();
    assert!(goodbye.contains("\"timeout\":true"), "{goodbye}");
    assert!(goodbye.contains("idle timeout"), "{goodbye}");
    assert!(lines.next().is_none(), "connection must be closed after");

    // An idle disconnect is policy, not an I/O failure.
    server.join().unwrap().unwrap();
}

#[test]
fn idle_timeout_over_tcp() {
    use std::net::{TcpListener, TcpStream};
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        // Sandboxed environments may forbid even loopback sockets; the
        // loopback-transport test above covers the logic.
        Err(_) => return,
    };
    let addr = listener.local_addr().unwrap();
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServiceLimits::default()
    };
    std::thread::spawn(move || {
        let _ = qompress_service::serve_tcp(listener, session, limits, DrainHandle::new());
    });

    let stream = TcpStream::connect(addr).unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    let goodbye = lines.next().unwrap().unwrap();
    assert!(goodbye.contains("\"timeout\":true"), "{goodbye}");
    assert!(lines.next().is_none(), "server must close after the line");

    // The listener is still accepting: a second, active client is fine.
    let stream2 = TcpStream::connect(addr).unwrap();
    let reader2 = BufReader::new(stream2.try_clone().unwrap());
    let mut client = ServiceClient::new(reader2, stream2);
    assert_eq!(client.stats().unwrap().service.submitted, 0);
}

#[test]
fn hostile_neighbour_does_not_starve_a_well_behaved_client() {
    let session = Arc::new(Compiler::builder().workers(2).build());
    let (mut attacker, attacker_server) = connect(Arc::clone(&session));
    let (mut victim, victim_server) = connect(Arc::clone(&session));

    let attack = std::thread::spawn(move || {
        for _ in 0..50 {
            let _ = attacker
                .submit("a", Strategy::Eqm, "line:100000000", SMALL_QASM)
                .unwrap_err();
            let _ = attacker
                .submit(
                    "b",
                    Strategy::Eqm,
                    "grid:3",
                    "OPENQASM 2.0;\nqreg q[1000000000];\n",
                )
                .unwrap_err();
            let _ = attacker.poll(u64::MAX).unwrap_err();
        }
        attacker
    });

    // Interleaved with the attack, real work completes normally.
    for round in 0..10 {
        let id = victim
            .submit(
                &format!("legit-{round}"),
                Strategy::Eqm,
                "grid:2",
                SMALL_QASM,
            )
            .unwrap();
        assert!(matches!(
            victim.next_event().unwrap(),
            ServiceEvent::Done { job, .. } if job == id
        ));
    }
    let attacker = attack.join().unwrap();

    let stats = victim.stats().unwrap();
    assert_eq!(stats.service.submitted, 10, "only real work was enqueued");
    assert_eq!(stats.service.completed, 10);

    drop(attacker);
    drop(victim);
    attacker_server.join().unwrap().unwrap();
    victim_server.join().unwrap().unwrap();
}
