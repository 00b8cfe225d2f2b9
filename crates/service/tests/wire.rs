//! End-to-end wire-protocol tests: the full protocol over the loopback
//! transport and over real TCP, with byte-identity of streamed results
//! against direct session compilation, deterministic cancellation of
//! queued work, and protocol-error resilience.

use qompress::{BatchJob, Compiler, Strategy};
use qompress_qasm::to_qasm;
use qompress_service::{
    loopback, parse_topology_spec, result_fingerprint, serve_duplex, DrainHandle, ServiceClient,
    ServiceError, ServiceEvent, ServiceLimits,
};
use qompress_workloads::{build, Benchmark};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

type LoopClient =
    ServiceClient<BufReader<qompress_service::LoopbackReader>, qompress_service::LoopbackWriter>;

/// Spawns a loopback server over `session`; returns the connected client
/// and the server thread handle.
fn connect(session: Arc<Compiler>) -> (LoopClient, std::thread::JoinHandle<std::io::Result<()>>) {
    let (client_end, server_end) = loopback();
    let (server_reader, server_writer) = server_end.split();
    let server = std::thread::spawn(move || serve_duplex(session, server_reader, server_writer));
    let (reader, writer) = client_end.split();
    (ServiceClient::new(BufReader::new(reader), writer), server)
}

fn sweep_jobs(size: usize) -> Vec<(String, Strategy, String)> {
    let mut jobs = Vec::new();
    for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased] {
        jobs.push((
            format!("cuccaro/{}", strategy.name()),
            strategy,
            format!("grid:{size}"),
        ));
    }
    jobs.push((
        "cuccaro/awe-line".to_string(),
        Strategy::Awe,
        format!("line:{size}"),
    ));
    jobs
}

#[test]
fn streamed_results_match_direct_compilation_byte_for_byte() {
    let session = Arc::new(Compiler::builder().workers(2).build());
    let (mut client, server) = connect(Arc::clone(&session));

    let size = 6;
    let circuit = build(Benchmark::Cuccaro, size, 7);
    let qasm = to_qasm(&circuit);
    let jobs = sweep_jobs(size);
    let mut expected_fp = HashMap::new();
    for (label, strategy, spec) in &jobs {
        let id = client.submit(label, *strategy, spec, &qasm).unwrap();
        // Compile the identical job directly on a *separate* session: the
        // wire path must stream the byte-identical result (the pipeline
        // is deterministic, so cross-session agreement is exact).
        let reference = Compiler::builder().caching(false).build().compile(
            &circuit,
            &parse_topology_spec(spec).unwrap(),
            *strategy,
        );
        expected_fp.insert(id, (label.clone(), result_fingerprint(&reference)));
    }

    let mut seen = 0;
    while seen < jobs.len() {
        match client.next_event().unwrap() {
            ServiceEvent::Done {
                job,
                label,
                result_fp,
                metrics,
                ..
            } => {
                let (want_label, want_fp) = &expected_fp[&job];
                assert_eq!(&label, want_label);
                assert_eq!(
                    result_fp, *want_fp,
                    "streamed result for `{label}` diverged from direct compilation"
                );
                assert!(metrics.total_eps > 0.0 && metrics.total_eps <= 1.0);
                assert!(metrics.logical_gates > 0);
                seen += 1;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    // Every job observable as done via poll, and the stats add up.
    for id in expected_fp.keys() {
        assert_eq!(client.poll(*id).unwrap(), "done");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.service.submitted, jobs.len() as u64);
    assert_eq!(stats.service.completed, jobs.len() as u64);
    assert_eq!(stats.service.queued + stats.service.running, 0);

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn submit_sweep_streams_stamped_results_identical_to_direct_compiles() {
    let session = Arc::new(Compiler::builder().workers(2).build());
    let (mut client, server) = connect(Arc::clone(&session));

    // A two-parameter skeleton; theta0 and theta1 each appear twice.
    let qasm = "OPENQASM 2.0;\nqreg q[4];\nh q[0];\nrz(theta0) q[0];\n\
                cx q[0], q[1];\nrx(theta1) q[1];\ncx q[1], q[2];\n\
                ry(theta0) q[2];\ncx q[2], q[3];\nrz(theta1) q[3];\n";
    let mut bindings: Vec<Vec<f64>> = (0..4)
        .map(|i| vec![0.05 + 0.1 * i as f64, 2.0 - 0.3 * i as f64])
        .collect();
    // The cache keys angles by bit pattern, so `-0.0` is a job of its own
    // and must cross the wire with its sign.
    bindings.push(vec![-0.0, 0.5]);
    let ids = client
        .submit_sweep("vqe", Strategy::Eqm, "grid:4", qasm, &bindings)
        .unwrap();
    assert_eq!(ids.len(), bindings.len());

    // Every streamed (stamped) result must be byte-identical to directly
    // compiling the bound circuit on an independent session.
    let skeleton = qompress_qasm::parse_parametric_qasm(qasm).unwrap();
    let reference = Compiler::builder().caching(false).build();
    let topo = parse_topology_spec("grid:4").unwrap();
    let mut want = HashMap::new();
    for (i, (id, angles)) in ids.iter().zip(&bindings).enumerate() {
        let direct = reference.compile(&skeleton.bind(angles), &topo, Strategy::Eqm);
        want.insert(*id, (format!("vqe#{i}"), result_fingerprint(&direct)));
    }
    let mut seen = 0;
    while seen < ids.len() {
        match client.next_event().unwrap() {
            ServiceEvent::Done {
                job,
                label,
                result_fp,
                ..
            } => {
                let (want_label, want_fp) = &want[&job];
                assert_eq!(&label, want_label);
                assert_eq!(
                    result_fp, *want_fp,
                    "stamped result for `{label}` diverged from direct compilation"
                );
                seen += 1;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    for id in &ids {
        assert_eq!(client.poll(*id).unwrap(), "done");
    }

    // Sweep jobs stamp from the skeleton artifact — the concrete result
    // cache is never consulted, and an arity-mismatched sweep is rejected
    // atomically (nothing enqueued).
    let stats = client.stats().unwrap();
    assert_eq!(stats.service.completed, ids.len() as u64);
    assert_eq!((stats.cache.hits, stats.cache.misses), (0, 0));
    let err = client
        .submit_sweep("bad", Strategy::Eqm, "grid:4", qasm, &[vec![0.1]])
        .unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "{err}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.service.submitted, ids.len() as u64);

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn pause_cancel_resume_is_deterministic() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(Arc::clone(&session));
    let qasm = to_qasm(&build(Benchmark::Bv, 5, 7));

    // Paused workers claim nothing, so every submitted job is still
    // queued when the cancels arrive — fully deterministic.
    client.pause().unwrap();
    let keep = client
        .submit("keep", Strategy::Eqm, "grid:5", &qasm)
        .unwrap();
    let drop_a = client
        .submit("drop-a", Strategy::Awe, "grid:5", &qasm)
        .unwrap();
    let drop_b = client
        .submit("drop-b", Strategy::QubitOnly, "line:5", &qasm)
        .unwrap();
    assert_eq!(client.poll(drop_a).unwrap(), "queued");
    assert!(client.cancel(drop_a).unwrap());
    assert!(client.cancel(drop_b).unwrap());
    assert!(
        !client.cancel(drop_a).unwrap(),
        "double cancel reports false"
    );
    assert_eq!(client.poll(drop_a).unwrap(), "cancelled");
    client.resume().unwrap();

    // Cancellation events stream (they fired at cancel time), then the
    // surviving job's completion.
    let mut cancelled = Vec::new();
    let mut done = None;
    for _ in 0..3 {
        match client.next_event().unwrap() {
            ServiceEvent::Cancelled { job, .. } => cancelled.push(job),
            ServiceEvent::Done { job, .. } => done = Some(job),
            other => panic!("unexpected event {other:?}"),
        }
    }
    cancelled.sort_unstable();
    let mut want = vec![drop_a, drop_b];
    want.sort_unstable();
    assert_eq!(cancelled, want);
    assert_eq!(done, Some(keep));

    let stats = client.stats().unwrap();
    assert_eq!(stats.service.submitted, 3);
    assert_eq!(stats.service.completed, 1);
    assert_eq!(stats.service.cancelled, 2);
    // Cancelled jobs never touched the result cache: exactly one compile.
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits, 0);

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn shared_session_serves_wire_hits_from_cache() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(Arc::clone(&session));
    let qasm = to_qasm(&build(Benchmark::Cuccaro, 5, 7));
    let first = client
        .submit("one", Strategy::Eqm, "grid:5", &qasm)
        .unwrap();
    let e1 = client.next_event().unwrap();
    let second = client
        .submit("two", Strategy::Eqm, "grid:5", &qasm)
        .unwrap();
    let e2 = client.next_event().unwrap();
    assert_eq!(e1.job(), first);
    assert_eq!(e2.job(), second);
    let (ServiceEvent::Done { result_fp: fp1, .. }, ServiceEvent::Done { result_fp: fp2, .. }) =
        (&e1, &e2)
    else {
        panic!("both jobs must complete");
    };
    assert_eq!(fp1, fp2, "repeat job must stream the identical result");
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.hits, 1, "the repeat was a cache hit");
    assert!((stats.cache.hit_rate() - 0.5).abs() < 1e-12);
    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn stats_surface_oracle_row_accounting() {
    // Small device on the paper config: exact mode. A line device forces
    // real routing, so distance rows actually materialize.
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(Arc::clone(&session));
    let qasm = to_qasm(&build(Benchmark::Cuccaro, 8, 7));
    client
        .submit("a", Strategy::QubitOnly, "line:8", &qasm)
        .unwrap();
    client.next_event().unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.oracle.exact_oracles >= 1);
    assert_eq!(stats.oracle.landmark_oracles, 0);
    assert!(stats.oracle.rows_materialized > 0);
    assert!(stats.oracle.approx_bytes > 0);
    drop(client);
    server.join().unwrap().unwrap();

    // Same workload with the exact threshold forced below the device
    // size: landmark mode, bounded rows.
    let mut config = qompress::CompilerConfig::paper();
    config.oracle_exact_threshold = 1;
    let session = Arc::new(Compiler::builder().workers(1).config(config).build());
    let (mut client, server) = connect(Arc::clone(&session));
    let qasm = to_qasm(&build(Benchmark::Cuccaro, 8, 7));
    client
        .submit("a", Strategy::QubitOnly, "line:8", &qasm)
        .unwrap();
    client.next_event().unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.oracle.landmark_oracles >= 1);
    assert_eq!(stats.oracle.exact_oracles, 0);
    assert!(stats.oracle.landmark_rows > 0);
    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn protocol_errors_do_not_end_the_connection() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(session);
    let qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n";

    // Unknown strategy (request-level), unknown topology and bad QASM
    // (job-level), unknown job id — each a Remote error, none fatal.
    for (label, strategy, spec, qasm) in [
        ("bad-topo", Strategy::Eqm, "torus:4", qasm),
        ("bad-qasm", Strategy::Eqm, "grid:4", "qreg q[2];"),
    ] {
        let err = client.submit(label, strategy, spec, qasm).unwrap_err();
        assert!(matches!(err, ServiceError::Remote(_)), "{label}: {err}");
    }
    assert!(matches!(
        client.poll(999).unwrap_err(),
        ServiceError::Remote(_)
    ));
    assert!(matches!(
        client.cancel(999).unwrap_err(),
        ServiceError::Remote(_)
    ));

    // The connection still works end-to-end.
    let id = client.submit("ok", Strategy::Eqm, "grid:2", qasm).unwrap();
    let event = client.next_event().unwrap();
    assert_eq!(event.job(), id);
    assert!(matches!(event, ServiceEvent::Done { .. }));
    let stats = client.stats().unwrap();
    assert_eq!(stats.service.submitted, 1, "failed submits never enqueued");

    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn failed_jobs_stream_failure_events() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (mut client, server) = connect(session);
    // Admission lets AWE bring up to 2 qubits per unit, but with no
    // two-qubit gate it finds no pair to pack: 3 qubits on a 2-node line
    // panic in mapping, and the wire reports it.
    let idle = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\n";
    let id = client
        .submit("boom", Strategy::Awe, "line:2", idle)
        .unwrap();
    match client.next_event().unwrap() {
        ServiceEvent::Failed { job, error, .. } => {
            assert_eq!(job, id);
            assert!(
                error.contains("architecture offers only"),
                "the failure event carries the panic message: {error}"
            );
        }
        other => panic!("expected failure event, got {other:?}"),
    }
    assert_eq!(client.poll(id).unwrap(), "failed");
    // The worker survived; the service keeps serving.
    let qasm = to_qasm(&build(Benchmark::Bv, 6, 7));
    let ok = client
        .submit("fine", Strategy::QubitOnly, "line:6", &qasm)
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == ok
    ));
    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn tcp_round_trip() {
    use std::net::{TcpListener, TcpStream};
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        // Sandboxed environments may forbid even loopback sockets; the
        // loopback-transport tests above cover the protocol itself.
        Err(_) => return,
    };
    let addr = listener.local_addr().unwrap();
    let session = Arc::new(Compiler::builder().workers(1).build());
    std::thread::spawn(move || {
        let _ = qompress_service::serve_tcp(
            listener,
            session,
            ServiceLimits::default(),
            DrainHandle::new(),
        );
    });

    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let mut client = ServiceClient::new(reader, stream);
    let qasm = to_qasm(&build(Benchmark::Cuccaro, 4, 7));
    let id = client
        .submit("tcp", Strategy::Eqm, "grid:4", &qasm)
        .unwrap();
    let event = client.next_event().unwrap();
    assert_eq!(event.job(), id);
    assert!(matches!(event, ServiceEvent::Done { .. }));
    assert_eq!(client.poll(id).unwrap(), "done");

    // Session-wide admin ops are refused on shared listeners: no remote
    // client may stall every other client's jobs.
    let err = client.pause().unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "{err}");
    let err = client.resume().unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "{err}");
    // …and the refusal is non-fatal.
    assert_eq!(client.poll(id).unwrap(), "done");
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    use std::os::unix::net::{UnixListener, UnixStream};
    let dir = std::env::temp_dir().join(format!("qompress-svc-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("wire.sock");
    let _ = std::fs::remove_file(&path);
    let listener = match UnixListener::bind(&path) {
        Ok(l) => l,
        Err(_) => return, // sandboxed FS; protocol covered by loopback
    };
    let session = Arc::new(Compiler::builder().workers(1).build());
    std::thread::spawn(move || {
        let _ = qompress_service::serve_unix(
            listener,
            session,
            ServiceLimits::default(),
            DrainHandle::new(),
        );
    });

    let stream = UnixStream::connect(&path).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let mut client = ServiceClient::new(reader, stream);
    let qasm = to_qasm(&build(Benchmark::Bv, 4, 7));
    let id = client
        .submit("unix", Strategy::Awe, "ring:4", &qasm)
        .unwrap();
    assert!(matches!(
        client.next_event().unwrap(),
        ServiceEvent::Done { job, .. } if job == id
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn raw_wire_lines_are_line_delimited_json() {
    // Drive the server with hand-written bytes (no client helper) to pin
    // the wire format itself.
    let session = Arc::new(Compiler::builder().workers(1).build());
    let (client_end, server_end) = loopback();
    let (server_reader, server_writer) = server_end.split();
    let server = std::thread::spawn(move || serve_duplex(session, server_reader, server_writer));
    let (reader, mut writer) = client_end.split();
    let mut lines = BufReader::new(reader).lines();

    writeln!(writer, "this is not json").unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(reply.contains("\"ok\":false"), "{reply}");

    writeln!(writer, "{{\"op\":\"stats\"}}").unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(
        reply.starts_with("{\"ok\":true,\"op\":\"stats\""),
        "{reply}"
    );
    assert!(reply.contains("\"cache\""), "{reply}");

    // compile_batch equivalence over the rawest possible submit.
    let circuit = build(Benchmark::Cuccaro, 4, 7);
    let want = Compiler::builder()
        .caching(false)
        .build()
        .compile_batch(&[BatchJob::new(
            "raw",
            circuit.clone(),
            Strategy::Eqm,
            parse_topology_spec("grid:4").unwrap(),
        )]);
    let want = want[0].result().expect("the job compiles");
    let want_fp = format!("{:016x}", result_fingerprint(want));
    let qasm_escaped = qompress_service::json::escape(&to_qasm(&circuit));
    writeln!(
        writer,
        "{{\"op\":\"submit\",\"label\":\"raw\",\"strategy\":\"eqm\",\
         \"topology\":\"grid:4\",\"qasm\":\"{qasm_escaped}\"}}"
    )
    .unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(reply.contains("\"job\":1"), "{reply}");
    let event = lines.next().unwrap().unwrap();
    assert!(event.contains("\"event\":\"done\""), "{event}");
    assert!(
        event.contains(&want_fp),
        "wire fingerprint must equal compile_batch's: {event}"
    );

    drop(writer);
    drop(lines);
    server.join().unwrap().unwrap();
}
