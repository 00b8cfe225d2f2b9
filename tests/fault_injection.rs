//! Fault-injection coverage for the self-healing cache tiers: an
//! unopenable cache dir degrades the session to memory-only instead of
//! aborting, write-back failures (disk full, permission denied) never
//! fail a compile, the disk-tier circuit breaker trips after consecutive
//! I/O errors and recovers through a half-open probe, a torn write is
//! caught on the next load, and `compile_batch` isolates per-job failures
//! as `JobOutcome::Failed` carrying the panic message.

use qompress::{
    BatchJob, BreakerState, CompilationResult, Compiler, FaultKind, FaultOp, FaultPlan, JobOutcome,
    Strategy,
};
use qompress_arch::Topology;
use qompress_workloads::{build, random_circuit, Benchmark};
use std::path::PathBuf;
use std::time::Duration;

/// A per-test directory under the Cargo-managed tmp root (inside
/// `target/`), recreated empty so reruns start clean.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A prior run may have left either a directory or a blocker *file*
    // (see `unopenable_dir`) at this path — clear both shapes.
    if dir.is_dir() {
        std::fs::remove_dir_all(&dir).expect("clear test dir");
    } else if dir.exists() {
        std::fs::remove_file(&dir).expect("clear blocker file");
    }
    dir
}

/// A path that can never be opened as a directory: a child of a regular
/// file. (Permission tricks don't work here — the suite may run as
/// root, which ignores mode bits.)
fn unopenable_dir(name: &str) -> PathBuf {
    let blocker = fresh_dir(name);
    std::fs::create_dir_all(blocker.parent().expect("tmp root")).expect("tmp root exists");
    std::fs::write(&blocker, b"not a directory").expect("plant blocker file");
    blocker.join("cache")
}

/// Renders every observable field, so "identical result" is a literal
/// string comparison.
fn render(r: &CompilationResult) -> String {
    format!(
        "{}\nmetrics: {:?}\nschedule: {:?}\nplacements: {:?} -> {:?}\nencoded: {:?}\npairs: {:?}\ngates: {}\ntrace: {:?}\n",
        r.strategy,
        r.metrics,
        r.schedule,
        r.initial_placements,
        r.final_placements,
        r.encoded_units,
        r.pairs,
        r.logical_gates,
        r.trace,
    )
}

#[test]
fn unopenable_cache_dir_degrades_to_memory_only() {
    let dir = unopenable_dir("fault_degrade_blocker");
    let session = Compiler::builder().workers(1).persist_dir(&dir).build();

    assert!(
        !session.persistence_enabled(),
        "unopenable dir must disable the disk tier, not abort"
    );
    let diagnostics = session.diagnostics();
    assert_eq!(diagnostics.len(), 1, "exactly one degradation diagnostic");
    assert!(
        diagnostics[0].contains("persistent cache disabled"),
        "diagnostic names the degradation: {}",
        diagnostics[0]
    );
    assert!(
        diagnostics[0].contains("persist_strict"),
        "diagnostic points at the fail-fast opt-in: {}",
        diagnostics[0]
    );

    // The session still compiles and caches in memory.
    let circuit = random_circuit(4, 12, 3);
    let _ = session.compile(&circuit, &Topology::grid(4), Strategy::Eqm);
    let _ = session.compile(&circuit, &Topology::grid(4), Strategy::Eqm);
    let stats = session.tiered_cache_stats();
    assert_eq!(stats.memory_hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.disk_writes, 0);
    assert_eq!(stats.breaker_state, BreakerState::Closed);
}

#[test]
#[should_panic(expected = "cannot open persistent cache")]
fn persist_strict_restores_the_fail_fast_contract() {
    let dir = unopenable_dir("fault_strict_blocker");
    let _ = Compiler::builder()
        .workers(1)
        .persist_dir(&dir)
        .persist_strict(true)
        .build();
}

#[test]
fn healthy_sessions_report_no_diagnostics() {
    let session = Compiler::builder().workers(1).build();
    assert!(session.diagnostics().is_empty());
    let dir = fresh_dir("fault_healthy_diag");
    let session = Compiler::builder().workers(1).persist_dir(&dir).build();
    assert!(session.diagnostics().is_empty());
    assert!(session.persistence_enabled());
}

#[test]
fn disk_full_write_back_never_fails_a_compile() {
    let dir = fresh_dir("fault_disk_full");
    let faults = FaultPlan::always(FaultKind::DiskFull).on_ops(&[FaultOp::Store]);
    let clean = {
        let session = Compiler::builder().workers(1).build();
        render(&session.compile(
            &random_circuit(4, 12, 17),
            &Topology::grid(4),
            Strategy::Awe,
        ))
    };

    let session = Compiler::builder()
        .workers(1)
        .persist_dir(&dir)
        .persist_faults(faults.clone())
        .build();
    let got = session.compile(
        &random_circuit(4, 12, 17),
        &Topology::grid(4),
        Strategy::Awe,
    );
    assert_eq!(render(&got), clean, "a full disk must not change results");

    let stats = session.tiered_cache_stats();
    assert_eq!(stats.disk_writes, 0, "nothing lands on a full disk");
    assert_eq!(stats.disk_write_errors, 1, "but the failure is counted");
    assert_eq!(
        stats.breaker_state,
        BreakerState::Closed,
        "one failure is below threshold"
    );
    assert!(faults.injected() >= 1);

    // Heal the disk: the next distinct compile writes back normally.
    faults.heal();
    let _ = session.compile(
        &random_circuit(4, 12, 18),
        &Topology::grid(4),
        Strategy::Awe,
    );
    let stats = session.tiered_cache_stats();
    assert_eq!(
        stats.disk_writes, 1,
        "healed disk accepts write-backs again"
    );
}

#[test]
fn permission_denied_write_back_never_fails_a_compile() {
    let dir = fresh_dir("fault_perm_denied");
    let faults = FaultPlan::always(FaultKind::PermissionDenied).on_ops(&[FaultOp::Store]);
    let session = Compiler::builder()
        .workers(1)
        .persist_dir(&dir)
        .persist_faults(faults)
        .build();

    let circuit = random_circuit(5, 14, 29);
    let _ = session.compile(&circuit, &Topology::line(5), Strategy::QubitOnly);
    let stats = session.tiered_cache_stats();
    assert_eq!(stats.disk_writes, 0);
    assert_eq!(stats.disk_write_errors, 1);
    // The result is still served — from memory — on the next lookup.
    let _ = session.compile(&circuit, &Topology::line(5), Strategy::QubitOnly);
    assert_eq!(session.tiered_cache_stats().memory_hits, 1);
}

#[test]
fn breaker_trips_after_consecutive_errors_and_skips_the_disk() {
    let dir = fresh_dir("fault_breaker_trip");
    let faults = FaultPlan::always(FaultKind::Io);
    // A cooldown far beyond the test's runtime makes "stays open" exact.
    let session = Compiler::builder()
        .workers(1)
        .persist_dir(&dir)
        .persist_faults(faults)
        .persist_breaker(2, Duration::from_secs(600))
        .build();

    // First compile: the tier-2 load fails (streak 1), then the
    // write-back fails (streak 2) — the breaker trips.
    let _ = session.compile(
        &random_circuit(4, 12, 41),
        &Topology::grid(4),
        Strategy::Eqm,
    );
    let stats = session.tiered_cache_stats();
    assert_eq!(stats.disk_read_errors, 1);
    assert_eq!(stats.disk_write_errors, 1);
    assert_eq!(
        stats.breaker_trips, 1,
        "two consecutive errors trip the breaker"
    );
    assert_eq!(stats.breaker_state, BreakerState::Open);

    // While open, the disk is skipped entirely — no new error counts.
    let _ = session.compile(
        &random_circuit(4, 12, 42),
        &Topology::grid(4),
        Strategy::Eqm,
    );
    let stats = session.tiered_cache_stats();
    assert_eq!(stats.disk_skipped, 2, "load and write-back both skipped");
    assert_eq!(stats.disk_read_errors, 1, "no disk op, no new read error");
    assert_eq!(stats.disk_write_errors, 1);
    assert_eq!(stats.breaker_probes, 0, "cooldown has not elapsed");
    assert_eq!(stats.breaker_state, BreakerState::Open);
}

#[test]
fn breaker_recovers_through_a_half_open_probe() {
    let dir = fresh_dir("fault_breaker_recover");
    let faults = FaultPlan::always(FaultKind::Io).on_ops(&[FaultOp::Store]);
    let cooldown = Duration::from_millis(50);
    let session = Compiler::builder()
        .workers(1)
        .persist_dir(&dir)
        .persist_faults(faults.clone())
        .persist_breaker(1, cooldown)
        .build();

    // Trip: threshold 1 means the first write-back failure opens it.
    let _ = session.compile(
        &random_circuit(4, 12, 53),
        &Topology::grid(4),
        Strategy::Eqm,
    );
    let stats = session.tiered_cache_stats();
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.breaker_state, BreakerState::Open);

    // Heal the disk and wait out the cooldown: the next disk op is a
    // half-open probe, it succeeds, and the breaker closes.
    faults.heal();
    std::thread::sleep(cooldown + Duration::from_millis(100));
    let _ = session.compile(
        &random_circuit(4, 12, 54),
        &Topology::grid(4),
        Strategy::Eqm,
    );
    let stats = session.tiered_cache_stats();
    assert!(stats.breaker_probes >= 1, "recovery goes through a probe");
    assert_eq!(stats.breaker_state, BreakerState::Closed);
    assert_eq!(stats.breaker_trips, 1, "no re-trip after healing");
    assert_eq!(stats.disk_writes, 1, "the healed write-back landed");
}

#[test]
fn torn_write_is_caught_on_the_next_load() {
    let dir = fresh_dir("fault_torn_write");
    let circuit = random_circuit(4, 12, 67);
    let topo = Topology::grid(4);

    let clean = {
        let session = Compiler::builder().workers(1).build();
        render(&session.compile(&circuit, &topo, Strategy::ProgressivePairing))
    };

    // Session A's write is torn: the disk "succeeds" but truncates.
    {
        let faults = FaultPlan::first(1, FaultKind::TornWrite).on_ops(&[FaultOp::Store]);
        let a = Compiler::builder()
            .workers(1)
            .persist_dir(&dir)
            .persist_faults(faults)
            .build();
        let _ = a.compile(&circuit, &topo, Strategy::ProgressivePairing);
        let stats = a.tiered_cache_stats();
        assert_eq!(stats.disk_writes, 1, "a torn write looks like a success");
        assert_eq!(stats.disk_write_errors, 0);
    }

    // Session B rejects the truncated envelope and recompiles — byte
    // identical to a clean run — then writes a sound replacement.
    let b = Compiler::builder().workers(1).persist_dir(&dir).build();
    let recompiled = b.compile(&circuit, &topo, Strategy::ProgressivePairing);
    let stats = b.tiered_cache_stats();
    assert_eq!(stats.disk_hits, 0, "truncated entry must not be served");
    assert_eq!(stats.disk_rejects, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(render(&recompiled), clean);
    drop(b);

    let c = Compiler::builder().workers(1).persist_dir(&dir).build();
    let served = c.compile(&circuit, &topo, Strategy::ProgressivePairing);
    assert_eq!(
        c.tiered_cache_stats().disk_hits,
        1,
        "replacement entry serves"
    );
    assert_eq!(render(&served), clean);
}

#[test]
fn compile_batch_isolates_per_job_failures() {
    let session = Compiler::builder().workers(1).build();
    let jobs = vec![
        BatchJob::new(
            "fine",
            build(Benchmark::Cuccaro, 5, 7),
            Strategy::Eqm,
            Topology::grid(5),
        ),
        BatchJob::new(
            "too-big",
            build(Benchmark::Cuccaro, 6, 7),
            Strategy::QubitOnly,
            Topology::line(2),
        ),
        BatchJob::new(
            "also-fine",
            build(Benchmark::Cuccaro, 4, 7),
            Strategy::Awe,
            Topology::grid(4),
        ),
    ];

    let outcomes = session.compile_batch(&jobs);
    assert_eq!(outcomes.len(), 3, "every job reports, in input order");
    let ok = outcomes[0].result().expect("first job succeeds");
    assert_eq!(ok.strategy, "eqm");
    match &outcomes[1] {
        JobOutcome::Failed(message) => assert!(
            message.contains("architecture offers only"),
            "the failure carries the panic message: {message}"
        ),
        other => panic!("oversized job must fail, got {other:?}"),
    }
    let ok = outcomes[2]
        .result()
        .expect("job after the failure still runs");
    assert_eq!(ok.strategy, "awe");
    let m = session.service_metrics();
    assert_eq!((m.completed, m.failed), (2, 1));

    // Failures never poison the session: it keeps compiling.
    let _ = session.compile(
        &random_circuit(4, 10, 71),
        &Topology::grid(4),
        Strategy::Eqm,
    );
}
