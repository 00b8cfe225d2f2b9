//! Client-retry and graceful-drain behaviour: `busy` backpressure is
//! ridden out by a [`RetryPolicy`], transport loss is ridden out by a
//! reconnect hook (safe to resubmit — results are content-addressed), a
//! draining server rejects new submits structurally while still
//! streaming in-flight completions (over the loopback, TCP and Unix
//! transports), the backoff schedule itself is deterministic, and all of
//! it together with a flaky disk and a tripping breaker loses no job.

use qompress::{BreakerState, Compiler, FaultKind, FaultOp, FaultPlan, Strategy};
use qompress_qasm::{parse_qasm, to_qasm};
#[cfg(unix)]
use qompress_service::serve_unix;
use qompress_service::{
    loopback, parse_topology_spec, result_fingerprint, serve_duplex_with, serve_tcp, DrainHandle,
    RetryPolicy, ServiceClient, ServiceError, ServiceEvent, ServiceLimits,
};
use qompress_workloads::random_circuit;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

type LoopClient =
    ServiceClient<BufReader<qompress_service::LoopbackReader>, qompress_service::LoopbackWriter>;

/// Spawns a loopback server with explicit limits, watching `drain`;
/// returns the connected client and the server thread handle.
fn connect(
    session: Arc<Compiler>,
    limits: ServiceLimits,
    drain: DrainHandle,
) -> (LoopClient, std::thread::JoinHandle<std::io::Result<()>>) {
    let (client_end, server_end) = loopback();
    let (server_reader, server_writer) = server_end.split();
    let server = std::thread::spawn(move || {
        serve_duplex_with(session, server_reader, server_writer, limits, drain)
    });
    let (reader, writer) = client_end.split();
    (ServiceClient::new(BufReader::new(reader), writer), server)
}

const SMALL_QASM: &str = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";

/// A fast test policy: generous attempts, millisecond backoff.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 20,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        deadline: Some(Duration::from_secs(10)),
        jitter: true,
        seed: 7,
    }
}

#[test]
fn busy_submits_retry_until_the_queue_drains() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_queue_depth: 1,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect(Arc::clone(&session), limits, DrainHandle::new());
    client.set_retry_policy(fast_policy());

    // Pause the pool so the first submit parks in the queue, filling it.
    session.pause_workers();
    let first = client
        .submit("first", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("first submit fills the queue");

    // Un-pause shortly, from outside the blocked client.
    let unpause = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            session.resume_workers();
        })
    };

    // This submit hits `busy`, backs off, and lands once the queue
    // drains — the caller never sees the transient.
    let second = client
        .submit("second", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("retry must ride out the backpressure");
    assert!(
        client.retry_stats().busy_retries >= 1,
        "the transient was retried, not avoided: {:?}",
        client.retry_stats()
    );
    assert_eq!(client.retry_stats().give_ups, 0);

    for expected in [first, second] {
        assert!(matches!(
            client.next_event().expect("completion"),
            ServiceEvent::Done { job, .. } if job == expected
        ));
    }
    unpause.join().expect("unpause thread");
    drop(client);
    server.join().expect("server thread").expect("server exit");
}

/// One wire job: label, strategy, topology spec, QASM text.
type WireJob = (String, Strategy, String, String);

/// Submits every job (retrying under the client's policy) and returns
/// label → result fingerprint once every completion has streamed back.
/// Any event but `done` is a lost job.
fn run_sweep(client: &mut LoopClient, jobs: &[WireJob]) -> HashMap<String, u64> {
    let mut pending = HashMap::new();
    for (label, strategy, spec, qasm) in jobs {
        let id = client
            .submit(label, *strategy, spec, qasm)
            .unwrap_or_else(|err| panic!("submit {label}: {err}"));
        pending.insert(id, label.clone());
    }
    let mut fingerprints = HashMap::new();
    while !pending.is_empty() {
        match client.next_event().expect("completion event") {
            ServiceEvent::Done {
                job,
                label,
                result_fp,
                ..
            } => {
                assert_eq!(pending.remove(&job), Some(label.clone()));
                fingerprints.insert(label, result_fp);
            }
            other => panic!("job lost to chaos: {other:?}"),
        }
    }
    fingerprints
}

#[test]
fn chaos_over_the_wire_loses_no_job_and_the_breaker_recovers() {
    // Every 3rd disk write-back fails with ENOSPC, a one-failure breaker
    // with a 100 ms cooldown guards the disk, a 4-deep queue behind a
    // paused pool forces `busy`, and a retrying client rides over it all.
    const COOLDOWN: Duration = Duration::from_millis(100);
    let strategies = [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
        Strategy::ProgressivePairing,
    ];
    let jobs: Vec<WireJob> = (0..=24)
        .map(|i| {
            let n = 4 + i % 4;
            let spec = match i % 3 {
                0 => format!("grid:{n}"),
                1 => format!("line:{n}"),
                _ => format!("ring:{n}"),
            };
            let qasm = to_qasm(&random_circuit(n, 20 + 3 * i, i as u64));
            (format!("job-{i}"), strategies[i % 5], spec, qasm)
        })
        .collect();
    // The last job rides along as the post-heal recovery probe.
    let (sweep, probe) = jobs.split_at(24);

    // The clean run: the same programs compiled in-process, no faults.
    let reference = Compiler::builder().caching(false).build();
    let clean: HashMap<String, u64> = jobs
        .iter()
        .map(|(label, strategy, spec, qasm)| {
            let circuit = parse_qasm(qasm).expect("generated QASM parses");
            let topo = parse_topology_spec(spec).expect("valid spec");
            let result = reference.compile(&circuit, &topo, *strategy);
            (label.clone(), result_fingerprint(&result))
        })
        .collect();

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resilience-chaos");
    let _ = std::fs::remove_dir_all(&dir);
    let faults = FaultPlan::every_nth(3, FaultKind::DiskFull).on_ops(&[FaultOp::Store]);
    let session = Arc::new(
        Compiler::builder()
            .workers(1)
            .persist_dir(&dir)
            .persist_faults(faults.clone())
            .persist_breaker(1, COOLDOWN)
            .build(),
    );
    assert!(session.persistence_enabled());
    let drain = DrainHandle::new();
    let limits = ServiceLimits {
        max_queue_depth: 4,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect(Arc::clone(&session), limits, drain.clone());
    client.set_retry_policy(RetryPolicy {
        max_attempts: 40,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        deadline: Some(Duration::from_secs(30)),
        jitter: true,
        seed: 0xC4A05,
    });

    // Park the pool so the queue fills and submits hit `busy`; un-park
    // from the side once the client is deep in its retry loop.
    session.pause_workers();
    let unpause = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            session.resume_workers();
        })
    };
    let chaotic = run_sweep(&mut client, sweep);
    unpause.join().expect("unpause thread");
    assert_eq!(chaotic.len(), sweep.len(), "every job must complete");
    for (label, ..) in sweep {
        assert_eq!(chaotic[label], clean[label], "chaos changed `{label}`");
    }
    let retries = client.retry_stats();
    assert!(retries.busy_retries >= 1, "{retries:?}");
    assert_eq!(retries.give_ups, 0, "{retries:?}");
    let tiers = client.stats().expect("stats").tiers;
    assert!(
        tiers.disk_write_errors >= 1,
        "the flaky disk bit: {tiers:?}"
    );
    assert!(tiers.breaker_trips >= 1, "the breaker tripped: {tiers:?}");
    assert!(tiers.disk_writes >= 1, "some write-backs landed: {tiers:?}");

    // Heal the disk: past the cooldown the breaker recovers through a
    // half-open probe.
    faults.heal();
    std::thread::sleep(COOLDOWN + Duration::from_millis(150));
    let recovered = run_sweep(&mut client, probe);
    assert_eq!(recovered[&probe[0].0], clean[&probe[0].0]);
    let healed = client.stats().expect("stats").tiers;
    assert!(healed.breaker_probes >= 1, "{healed:?}");
    assert_eq!(healed.breaker_state, BreakerState::Closed, "{healed:?}");

    drain.trigger();
    let err = client
        .submit("late", Strategy::Eqm, "grid:2", &sweep[0].3)
        .expect_err("a draining server accepts no new jobs");
    assert!(matches!(err, ServiceError::Draining { .. }), "{err}");
    client.stats().expect("stats during drain");
    drop(client);
    server.join().expect("server thread").expect("server exit");
}

#[test]
fn retry_gives_up_at_the_attempt_cap() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_queue_depth: 1,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect(Arc::clone(&session), limits, DrainHandle::new());
    client.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(8),
        deadline: None,
        jitter: false,
        seed: 0,
    });

    // The queue stays full: nobody resumes the pool this time.
    session.pause_workers();
    let parked = client
        .submit("parked", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("fills the queue");
    let err = client
        .submit("doomed", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect_err("cap must surface the busy error");
    assert!(matches!(err, ServiceError::Busy { .. }), "{err}");
    let stats = client.retry_stats();
    assert_eq!(stats.busy_retries, 2, "attempts 2 and 3 were retries");
    assert_eq!(stats.give_ups, 1);

    session.resume_workers();
    assert!(matches!(
        client.next_event().expect("completion"),
        ServiceEvent::Done { job, .. } if job == parked
    ));
    drop(client);
    server.join().expect("server thread").expect("server exit");
}

#[test]
fn fail_fast_policy_surfaces_busy_immediately() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let limits = ServiceLimits {
        max_queue_depth: 1,
        ..ServiceLimits::default()
    };
    let (mut client, server) = connect(Arc::clone(&session), limits, DrainHandle::new());
    // The default policy is RetryPolicy::none(): no sleeps, no retries.

    session.pause_workers();
    let parked = client
        .submit("parked", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("fills the queue");
    let err = client
        .submit("rejected", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect_err("no policy, no retry");
    assert!(matches!(err, ServiceError::Busy { .. }), "{err}");
    let stats = client.retry_stats();
    assert_eq!((stats.busy_retries, stats.give_ups), (0, 0));

    session.resume_workers();
    assert!(matches!(
        client.next_event().expect("completion"),
        ServiceEvent::Done { job, .. } if job == parked
    ));
    drop(client);
    server.join().expect("server thread").expect("server exit");
}

#[test]
fn draining_server_rejects_submits_but_streams_in_flight_work() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let drain = DrainHandle::new();
    let (mut client, server) = connect(
        Arc::clone(&session),
        ServiceLimits::default(),
        drain.clone(),
    );
    // Even an aggressive retry policy must not retry `draining`.
    client.set_retry_policy(fast_policy());

    // Park one job in flight, then trip the drain.
    session.pause_workers();
    let inflight = client
        .submit("inflight", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("accepted before the drain");
    drain.trigger();

    let err = client
        .submit("late", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect_err("draining server accepts no new jobs");
    let ServiceError::Draining { message } = &err else {
        panic!("expected a draining rejection, got {err}");
    };
    assert!(message.contains("draining"), "{message}");
    assert_eq!(
        client.retry_stats().busy_retries,
        0,
        "draining is terminal — never retried"
    );

    // Non-submit ops keep working, and the in-flight job still completes
    // with its event streamed to the client.
    assert!(
        client
            .stats()
            .expect("stats during drain")
            .service
            .submitted
            >= 1
    );
    session.resume_workers();
    assert!(matches!(
        client.next_event().expect("in-flight completion"),
        ServiceEvent::Done { job, .. } if job == inflight
    ));

    drop(client);
    server.join().expect("server thread").expect("server exit");
}

#[test]
fn reconnect_hook_rides_over_transport_loss() {
    let session = Arc::new(Compiler::builder().workers(1).build());
    let drain = DrainHandle::new();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let session = Arc::clone(&session);
        let drain = drain.clone();
        std::thread::spawn(move || serve_tcp(listener, session, ServiceLimits::default(), drain))
    };

    let dial = move || -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
        let stream = TcpStream::connect(addr)?;
        Ok((BufReader::new(stream.try_clone()?), stream))
    };
    let (reader, writer) = dial().expect("initial dial");
    // Keep a handle on the first socket so the test can sever it.
    let first_socket = writer.try_clone().expect("clone socket");
    let mut client = ServiceClient::new(reader, writer);
    client.set_retry_policy(fast_policy());
    client.set_reconnect(dial);

    let job = client
        .submit("before", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("submit over the first connection");
    assert!(matches!(
        client.next_event().expect("completion"),
        ServiceEvent::Done { job: done, .. } if done == job
    ));

    // Sever the transport under the client's feet.
    first_socket
        .shutdown(std::net::Shutdown::Both)
        .expect("sever first connection");

    // The next submit fails on the dead socket, reconnects, resubmits —
    // safe because an identical circuit resolves to the same cached,
    // content-addressed result.
    let retried = client
        .submit("after", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("reconnect must ride over transport loss");
    assert!(matches!(
        client.next_event().expect("completion after reconnect"),
        ServiceEvent::Done { job, .. } if job == retried
    ));
    let stats = client.retry_stats();
    assert!(stats.reconnects >= 1, "the hook was exercised: {stats:?}");

    drop(client);
    drain.trigger();
    server
        .join()
        .expect("server thread")
        .expect("accept loop exit");
}

#[cfg(unix)]
#[test]
fn draining_unix_listener_stops_accepting_but_streams_in_flight_work() {
    use std::os::unix::net::{UnixListener, UnixStream};
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("resilience-drain.sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind");
    let session = Arc::new(Compiler::builder().workers(1).build());
    let drain = DrainHandle::new();
    let server = {
        let (session, drain) = (Arc::clone(&session), drain.clone());
        std::thread::spawn(move || serve_unix(listener, session, ServiceLimits::default(), drain))
    };
    let stream = UnixStream::connect(&path).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut client = ServiceClient::new(reader, stream);

    // Park one job in flight, then trip the drain: the accept loop
    // notices the flag and returns.
    session.pause_workers();
    let inflight = client
        .submit("inflight", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect("accepted before the drain");
    drain.trigger();
    server
        .join()
        .expect("server thread")
        .expect("accept loop exit");

    // The open connection keeps talking: new work answers `draining`,
    // and the admitted job's event still streams.
    let err = client
        .submit("late", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect_err("draining server accepts no new jobs");
    assert!(matches!(err, ServiceError::Draining { .. }), "{err}");
    session.resume_workers();
    assert!(matches!(
        client.next_event().expect("in-flight completion"),
        ServiceEvent::Done { job, .. } if job == inflight
    ));
    drop(client);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn io_errors_without_a_reconnect_hook_fail_fast() {
    // A dead loopback: drop the server end immediately.
    let (client_end, server_end) = loopback();
    drop(server_end);
    let (reader, writer) = client_end.split();
    let mut client = ServiceClient::new(BufReader::new(reader), writer);
    client.set_retry_policy(fast_policy());

    let err = client
        .submit("nowhere", Strategy::Eqm, "grid:2", SMALL_QASM)
        .expect_err("no transport, no hook, no retry");
    assert!(matches!(err, ServiceError::Io(_)), "{err}");
    assert_eq!(client.retry_stats().reconnects, 0);
}

#[test]
fn backoff_schedule_is_deterministic_and_bounded() {
    let policy = RetryPolicy::standard();
    let replay = RetryPolicy::standard();
    for i in 0..8 {
        let delay = policy.delay_for(i);
        assert_eq!(delay, replay.delay_for(i), "same seed, same schedule");
        assert!(delay <= policy.max_delay, "retry {i}: {delay:?} over cap");
    }
    // Jitter stays in [0.5, 1.0) of the unjittered value.
    let unjittered = RetryPolicy {
        jitter: false,
        ..RetryPolicy::standard()
    };
    for i in 0..8 {
        let base = unjittered.delay_for(i);
        let jittered = policy.delay_for(i);
        assert!(
            jittered >= base.mul_f64(0.5),
            "retry {i}: {jittered:?} < half of {base:?}"
        );
        assert!(jittered <= base, "retry {i}: {jittered:?} > {base:?}");
    }
    // Different seeds desynchronize at least one retry slot.
    let other = RetryPolicy {
        seed: 999,
        ..RetryPolicy::standard()
    };
    assert!(
        (0..8).any(|i| other.delay_for(i) != policy.delay_for(i)),
        "distinct seeds must produce distinct schedules"
    );
    // The growth is exponential until the cap.
    assert_eq!(unjittered.delay_for(0), Duration::from_millis(25));
    assert_eq!(unjittered.delay_for(1), Duration::from_millis(50));
    assert_eq!(unjittered.delay_for(5), Duration::from_millis(800));
    assert_eq!(unjittered.delay_for(6), Duration::from_secs(1), "capped");
    assert_eq!(unjittered.delay_for(31), Duration::from_secs(1));
    assert_eq!(unjittered.delay_for(63), Duration::from_secs(1));
}
