//! `wire_hot`: two closed-loop clients, each on its own loopback
//! connection to `serve_duplex`, over one session with two workers.
//!
//! Set-up preloads every program of a working set of 64 QASM programs
//! through the wire, so every timed request is a memory-tier
//! hit: the request path with no compile. A quarter of the programs
//! target `heavyhex:21`, where each request rebuilds the 1121-unit
//! topology from its spec and fingerprints it.
//!
//! The timed window runs as ten equal slices. The traced run alternates
//! untraced and traced slices (the traced ones record each request as a
//! span and sample the session's queue depth), then replays every
//! program's request path stage by stage through the public functions
//! the server calls.

use crate::check;
use crate::corpus::{Rng, FAMILIES};
use crate::trace::{JobSpans, Tracer};
use crate::{Args, Outcome};
use qompress::{BatchJob, CompilationResult, Compiler, CompilerConfig, JobOutcome, Strategy};
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use qompress_qasm::{parse_qasm_bounded, to_qasm};
use qompress_service::{
    loopback, parse_topology_spec_bounded, result_fingerprint, serve_duplex, LoopbackReader,
    LoopbackWriter, Request, ServiceClient, ServiceEvent, ServiceLimits, WireMetrics,
};
use std::io::BufReader;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PROGRAMS: usize = 64;
const CLIENTS: usize = 2;
const SETUP_REPETITIONS: usize = 5;
/// The timed window runs as this many equal slices; the traced run
/// alternates untraced and traced slices.
const SLICES: usize = 10;
/// Stage replays per program in the traced run.
const REPLAYS: usize = 20;

/// One program of the working set, with the fingerprint of its
/// in-process compile.
struct Program {
    label: String,
    strategy: Strategy,
    spec: &'static str,
    qasm: String,
    circuit: Circuit,
    topology: Topology,
    fp: u64,
}

/// The working set: 64 distinct (family, strategy, size, device)
/// programs of 10 to 15 qubits, every fourth on `heavyhex:21`. The
/// composition is fixed; the seed picks the circuit instances (see
/// `Family::build`).
fn working_set(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0x5749_5245);
    let strategies = [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
    ];
    (0..PROGRAMS)
        .map(|i| {
            let family = FAMILIES[i % FAMILIES.len()];
            let strategy = strategies[(i / FAMILIES.len()) % strategies.len()];
            // Every 28 programs repeat a (family, strategy) pair, at a
            // different size.
            let size = 10 + 2 * (i / 28) + i % 2;
            let spec = if i % 4 == 0 { "heavyhex:21" } else { "grid:16" };
            let qasm = to_qasm(&family.build(size, rng.next_u64()));
            let circuit = parse_qasm_bounded(&qasm, 256).expect("corpus QASM parses");
            Program {
                label: format!("{}{size}/{}@{spec}", family.name(), strategy.name()),
                strategy,
                spec,
                qasm,
                circuit,
                topology: qompress_service::parse_topology_spec(spec).expect("corpus device spec"),
                fp: 0,
            }
        })
        .collect()
}

type Client = ServiceClient<BufReader<LoopbackReader>, LoopbackWriter>;

/// One session served over `CLIENTS` loopback connections.
struct Server {
    session: Arc<Compiler>,
    clients: Vec<Client>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start() -> Server {
        let session = Arc::new(Compiler::builder().workers(2).build());
        let mut clients = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..CLIENTS {
            let (client_end, server_end) = loopback();
            let (reader, writer) = server_end.split();
            let shared = Arc::clone(&session);
            threads.push(std::thread::spawn(move || {
                serve_duplex(shared, reader, writer)
            }));
            let (reader, writer) = client_end.split();
            clients.push(ServiceClient::new(BufReader::new(reader), writer));
        }
        Server {
            session,
            clients,
            threads,
        }
    }

    /// Closes every connection and joins the server threads.
    fn stop(self) -> bool {
        drop(self.clients);
        self.threads
            .into_iter()
            .all(|t| matches!(t.join(), Ok(Ok(()))))
    }
}

/// Submits one program and waits for its `done` event; returns the
/// streamed result fingerprint.
fn request(client: &mut Client, p: &Program) -> Result<u64, String> {
    let id = client
        .submit(&p.label, p.strategy, p.spec, &p.qasm)
        .map_err(|e| format!("{}: submit refused: {e}", p.label))?;
    match client.next_event() {
        Ok(ServiceEvent::Done { job, result_fp, .. }) if job == id => Ok(result_fp),
        other => Err(format!("{}: unexpected event {other:?}", p.label)),
    }
}

/// Set-up: session, server threads, connections, and every program
/// preloaded through the wire.
fn set_up(programs: &[Program], out: &mut Outcome) -> (Server, Vec<u64>) {
    let started = Instant::now();
    let mut server = Server::start();
    let mut wire_fps = Vec::with_capacity(programs.len());
    for p in programs {
        match request(&mut server.clients[0], p) {
            Ok(fp) => wire_fps.push(fp),
            Err(why) => {
                out.fail(why);
                wire_fps.push(0);
            }
        }
    }
    out.setup_s.push(started.elapsed().as_secs_f64());
    (server, wire_fps)
}

/// What one client thread measured in one window.
#[derive(Default)]
struct ClientRun {
    latencies_ms: Vec<f64>,
    spans: Vec<(usize, Instant, Instant)>,
    queue_depths: Vec<f64>,
    failures: Vec<String>,
}

/// Runs both clients closed-loop until `deadline`; each walks its own
/// seeded permutation of the working set.
fn window(
    server: &mut Server,
    programs: &[Program],
    rng: &mut Rng,
    length: Duration,
    traced: bool,
) -> (Vec<ClientRun>, f64) {
    let orders: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|_| {
            let mut order: Vec<usize> = (0..programs.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let session = &server.session;
    let started = Instant::now();
    let deadline = started + length;
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = server
            .clients
            .iter_mut()
            .zip(&orders)
            .map(|(client, order)| {
                scope.spawn(move || {
                    let mut run = ClientRun::default();
                    for &p in order.iter().cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        if traced {
                            run.queue_depths.push(session.queue_depth() as f64);
                        }
                        let t0 = Instant::now();
                        let outcome = request(client, &programs[p]);
                        let t1 = Instant::now();
                        match outcome {
                            Ok(fp) if fp == programs[p].fp => {
                                run.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
                                if traced {
                                    run.spans.push((p, t0, t1));
                                }
                            }
                            Ok(fp) => run.failures.push(format!(
                                "{}: wire result_fp {fp:016x} != in-process {:016x}",
                                programs[p].label, programs[p].fp
                            )),
                            Err(why) => run.failures.push(why),
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (runs, started.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Outcome {
    let config = CompilerConfig::paper();
    let mut out = Outcome::default();
    let (attempted, failed) = check::equivalence_slice();
    out.attempted += attempted;
    out.failed += failed;

    let mut programs = working_set(args.seed);
    let (mut server, mut wire_fps) = set_up(&programs, &mut out);
    for _ in 1..SETUP_REPETITIONS {
        if !server.stop() {
            out.fail("server connection ended with an error");
        }
        (server, wire_fps) = set_up(&programs, &mut out);
    }

    // Correctness, untimed: each preloaded result must equal an
    // in-process compile of the same job and be valid on its device.
    let reference = Compiler::builder().caching(false).workers(1).build();
    for (p, wire_fp) in programs.iter_mut().zip(&wire_fps) {
        let result = reference.compile(&p.circuit, &p.topology, p.strategy);
        p.fp = result_fingerprint(&result);
        out.attempted += 1;
        if *wire_fp != p.fp || !check::valid(&result, &p.topology) {
            out.fail(format!(
                "{}: preload differs from in-process compile",
                p.label
            ));
        }
        out.quality.add(&result, &config);
    }

    let mut rng = Rng::new(args.seed ^ 0x4c4f_4144);
    let before = server.session.cache_stats();
    let mut tracer = Tracer::new();
    let mut queue_depths = Vec::new();
    let mut busy_s = 0.0;
    let length = Duration::from_secs_f64(args.seconds / SLICES as f64);
    for slice in 0..SLICES {
        let traced = args.trace && slice % 2 == 1;
        let (runs, elapsed) = window(&mut server, &programs, &mut rng, length, traced);
        busy_s += elapsed;
        let done: usize = runs.iter().map(|r| r.latencies_ms.len()).sum();
        if !traced {
            out.rates.push(done as f64 / elapsed);
        }
        for run in runs {
            out.attempted += (run.latencies_ms.len() + run.failures.len()) as u64;
            out.completed += run.latencies_ms.len() as u64;
            for why in run.failures {
                out.fail(why);
            }
            if traced {
                out.traced_latencies_ms.extend(run.latencies_ms);
            } else {
                out.latencies_ms.extend(run.latencies_ms);
            }
            queue_depths.extend(run.queue_depths);
            for (p, t0, t1) in run.spans {
                tracer.record("service.wire", p as u64, t0, t1);
            }
        }
    }
    out.window_s = busy_s;

    // Guard: every timed request must have been a memory-tier hit.
    let after = server.session.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    if misses != 0 || hits != out.completed {
        out.fail(format!(
            "wire_hot window: {misses} misses and {hits} hits for {} requests",
            out.completed
        ));
    }

    if args.trace {
        replay(&server.session, &programs, &mut tracer, &mut out);
        out.set_layer(
            "jobs.queue_depth_mean",
            queue_depths.iter().sum::<f64>() / queue_depths.len().max(1) as f64,
        );
        out.set_layer("tiers.memory_hits", hits as f64);
        out.set_layer("tiers.misses", misses as f64);
        tracer.finish(&crate::trace_path(args));
    }
    if !server.stop() {
        out.fail("server connection ended with an error");
    }
    out
}

/// Replays each program's request path stage by stage, in the order the
/// server runs it, and derives the per-layer means.
fn replay(session: &Compiler, programs: &[Program], tracer: &mut Tracer, out: &mut Outcome) {
    let limits = ServiceLimits::default();
    for rep in 0..REPLAYS {
        for (i, p) in programs.iter().enumerate() {
            let id = (rep * programs.len() + i) as u64;
            let line = Request::Submit {
                label: p.label.clone(),
                strategy: p.strategy,
                topology: p.spec.to_string(),
                qasm: p.qasm.clone(),
            }
            .to_line();
            let mut buf = JobSpans::default();
            let root = tracer.open(&mut buf, "request", id);
            let under = Some(root);
            tracer.time(&mut buf, "service.request_parse", id, under, || {
                Request::parse(&line).expect("request line parses")
            });
            let (topology, _) =
                tracer.time(&mut buf, "service.topology_resolve", id, under, || {
                    parse_topology_spec_bounded(p.spec, limits.max_topology_nodes)
                        .expect("spec resolves")
                });
            let (circuit, _) = tracer.time(&mut buf, "qasm.parse", id, under, || {
                parse_qasm_bounded(&p.qasm, limits.max_circuit_qubits).expect("QASM parses")
            });
            tracer.time(&mut buf, "arch.topology_fp", id, under, || {
                topology.structural_fingerprint()
            });
            let (hit, _) = tracer.time(&mut buf, "session.hit", id, under, || {
                session.compile(&circuit, &topology, p.strategy)
            });
            let (waited, _) = tracer.time(&mut buf, "jobs.submit_wait", id, under, || {
                session
                    .submit(BatchJob::new(
                        p.label.clone(),
                        circuit,
                        p.strategy,
                        topology,
                    ))
                    .wait()
            });
            let (fp, _) = tracer.time(&mut buf, "service.result_fp", id, under, || {
                result_fingerprint(&hit)
            });
            tracer.time(&mut buf, "service.event_encode", id, under, || {
                done_line(id, p, &hit, fp)
            });
            tracer.close(&mut buf, root);
            let served = match waited {
                JobOutcome::Done(r) => result_fingerprint(&r),
                _ => 0,
            };
            out.attempted += 1;
            if fp != p.fp || served != p.fp {
                out.fail(format!("{}: replayed hit differs", p.label));
                continue;
            }
            tracer.commit(buf);
        }
    }
    let mean = |name: &str| tracer.mean_us(name).0;
    let stages = [
        ("service.request_parse", "service.request_parse_us"),
        ("service.topology_resolve", "service.topology_resolve_us"),
        ("qasm.parse", "qasm.parse_us"),
        ("arch.topology_fp", "arch.topology_fp_us"),
        ("service.result_fp", "service.result_fp_us"),
        ("service.event_encode", "service.event_encode_us"),
    ];
    for (span, metric) in stages {
        out.set_layer(metric, mean(span));
    }
    // The session hit fingerprints the topology itself; its own share is
    // the hit minus that separately timed fingerprint.
    out.set_layer(
        "session.hit_us",
        mean("session.hit") - mean("arch.topology_fp"),
    );
    out.set_layer(
        "jobs.handoff_us",
        mean("jobs.submit_wait") - mean("session.hit"),
    );
    let accounted: f64 = [
        "service.request_parse",
        "service.topology_resolve",
        "qasm.parse",
        "jobs.submit_wait",
        "service.result_fp",
        "service.event_encode",
    ]
    .iter()
    .map(|s| mean(s))
    .sum();
    out.set_layer("service.wire_residual_us", mean("service.wire") - accounted);
    out.set_layer("trace.replayed_jobs", programs.len() as f64);
}

/// The `done` event line the server streams for a hit.
fn done_line(job: u64, p: &Program, result: &CompilationResult, fp: u64) -> String {
    ServiceEvent::Done {
        job,
        label: p.label.clone(),
        strategy: result.strategy.clone(),
        result_fp: fp,
        metrics: WireMetrics::of(result),
    }
    .to_line()
}
