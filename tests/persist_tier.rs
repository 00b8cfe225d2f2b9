//! Session-level behaviour of the persistent cache tier: a restarted
//! process serves previously compiled circuits as disk hits (byte
//! identical), corruption degrades to a recompile, sessions share one
//! directory safely, and the wire `stats` op reports the tier split.

use qompress::{CompilationResult, Compiler, Strategy};
use qompress_arch::Topology;
use qompress_service::{loopback, serve_duplex, ServiceClient};
use qompress_workloads::random_circuit;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A per-test directory under the Cargo-managed tmp root (inside
/// `target/`), recreated empty so reruns start clean.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear test dir");
    }
    dir
}

/// Renders every observable field, so "byte-identical across restarts"
/// is a literal string comparison.
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

/// The lone `.bin` entry inside a persist dir.
fn only_entry(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read persist dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one entry in {dir:?}");
    entries.pop().expect("one entry")
}

#[test]
fn restart_serves_disk_hit_byte_identical() {
    let dir = fresh_dir("tier_restart");
    let strategies = [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
        Strategy::ProgressivePairing,
    ];
    let mut jobs = Vec::new();
    for (i, strategy) in strategies.into_iter().enumerate() {
        let n = 4 + i % 4;
        for topo in [Topology::grid(n), Topology::line(n), Topology::ring(n)] {
            jobs.push((random_circuit(n, 14 + 3 * i, 11 + i as u64), topo, strategy));
        }
    }
    let n_jobs = jobs.len() as u64;

    let cold: Vec<String> = {
        let a = Compiler::builder().workers(1).persist_dir(&dir).build();
        assert!(a.persistence_enabled());
        let rendered = jobs
            .iter()
            .map(|(circuit, topo, strategy)| render(&a.compile(circuit, topo, *strategy)))
            .collect();
        let stats = a.tiered_cache_stats();
        assert_eq!(stats.memory_hits, 0);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.misses, n_jobs);
        assert_eq!(stats.disk_writes, n_jobs, "every result written back");
        assert_eq!(stats.disk_write_errors, 0);
        rendered
    }; // session A dropped: the memory tier is gone, the directory stays

    let b = Compiler::builder().workers(1).persist_dir(&dir).build();
    for ((circuit, topo, strategy), cold) in jobs.iter().zip(&cold) {
        let warm = b.compile(circuit, topo, *strategy);
        assert_eq!(
            &render(&warm),
            cold,
            "{strategy} on {}: disk hit must be byte-identical",
            topo.name()
        );
    }
    let stats = b.tiered_cache_stats();
    assert_eq!(stats.disk_hits, n_jobs, "restart must hit the disk tier");
    assert_eq!(stats.misses, 0, "no recompile after restart");
    assert_eq!(stats.disk_rejects, 0, "no artifact may fail validation");

    // The disk hits were promoted into session B's memory tier: a second
    // lookup is a memory hit and never touches the disk counters again.
    for ((circuit, topo, strategy), cold) in jobs.iter().zip(&cold) {
        assert_eq!(&render(&b.compile(circuit, topo, *strategy)), cold);
    }
    let stats = b.tiered_cache_stats();
    assert_eq!(stats.memory_hits, n_jobs);
    assert_eq!(stats.disk_hits, n_jobs);
}

#[test]
fn two_live_sessions_share_one_directory() {
    let dir = fresh_dir("tier_shared");
    let circuit = random_circuit(5, 16, 23);
    let topo = Topology::line(5);

    let a = Compiler::builder().workers(1).persist_dir(&dir).build();
    let b = Compiler::builder().workers(1).persist_dir(&dir).build();

    let from_a = a.compile(&circuit, &topo, Strategy::Awe);
    // B never compiled this circuit, but shares the directory: disk hit.
    let from_b = b.compile(&circuit, &topo, Strategy::Awe);
    assert_eq!(b.tiered_cache_stats().disk_hits, 1);
    assert_eq!(b.tiered_cache_stats().misses, 0);
    assert_eq!(render(&from_a), render(&from_b));

    // And the reverse direction: B's fresh compile is visible to A.
    let circuit2 = random_circuit(4, 10, 99);
    let from_b2 = b.compile(&circuit2, &topo, Strategy::QubitOnly);
    let from_a2 = a.compile(&circuit2, &topo, Strategy::QubitOnly);
    assert_eq!(a.tiered_cache_stats().disk_hits, 1);
    assert_eq!(render(&from_a2), render(&from_b2));
}

#[test]
fn stray_temp_files_are_swept_and_never_served() {
    let dir = fresh_dir("tier_stray_tmp");
    std::fs::create_dir_all(&dir).expect("create dir");
    // A writer killed mid-write leaves a temp file behind; opening a
    // session on the directory sweeps it.
    let stray = dir.join("deadbeef.12345.7.tmp");
    std::fs::write(&stray, b"half-written artifact").expect("plant stray tmp");

    let session = Compiler::builder().workers(1).persist_dir(&dir).build();
    assert!(!stray.exists(), "stray .tmp must be swept on open");

    // The directory still works normally afterwards.
    let circuit = random_circuit(3, 8, 5);
    let _ = session.compile(&circuit, &Topology::ring(3), Strategy::RingBased);
    assert_eq!(session.tiered_cache_stats().disk_writes, 1);
}

#[test]
fn corrupt_entry_degrades_to_a_recompile() {
    let dir = fresh_dir("tier_corrupt");
    let circuit = random_circuit(4, 12, 37);
    let topo = Topology::grid(4);

    let cold = {
        let a = Compiler::builder().workers(1).persist_dir(&dir).build();
        render(&a.compile(&circuit, &topo, Strategy::ProgressivePairing))
    };

    // Flip one payload byte on disk (past the 24-byte envelope header).
    let entry = only_entry(&dir);
    let mut bytes = std::fs::read(&entry).expect("read entry");
    let pos = 24 + (bytes.len() - 24) / 2;
    bytes[pos] ^= 0x40;
    std::fs::write(&entry, &bytes).expect("rewrite corrupted entry");

    let b = Compiler::builder().workers(1).persist_dir(&dir).build();
    let recompiled = b.compile(&circuit, &topo, Strategy::ProgressivePairing);
    let stats = b.tiered_cache_stats();
    assert_eq!(stats.disk_hits, 0, "corrupt entry must not be served");
    assert_eq!(stats.disk_rejects, 1, "corruption must be counted");
    assert_eq!(stats.misses, 1, "and degrade to a recompile");
    assert_eq!(render(&recompiled), cold, "recompile matches the original");

    // The recompile wrote a clean replacement: a third session hits disk.
    drop(b);
    let c = Compiler::builder().workers(1).persist_dir(&dir).build();
    let served = c.compile(&circuit, &topo, Strategy::ProgressivePairing);
    assert_eq!(c.tiered_cache_stats().disk_hits, 1);
    assert_eq!(render(&served), cold);
}

#[test]
fn persistence_works_with_the_memory_tier_disabled() {
    let dir = fresh_dir("tier_memory_off");
    let circuit = random_circuit(4, 10, 61);
    let topo = Topology::line(4);

    let a = Compiler::builder()
        .workers(1)
        .caching(false)
        .persist_dir(&dir)
        .build();
    assert!(!a.caching_enabled());
    assert!(a.persistence_enabled());

    let cold = render(&a.compile(&circuit, &topo, Strategy::Eqm));
    // With no memory tier, the second lookup in the *same* session is
    // already a disk hit.
    let warm = a.compile(&circuit, &topo, Strategy::Eqm);
    let stats = a.tiered_cache_stats();
    assert_eq!(stats.memory_hits, 0);
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(render(&warm), cold);
}

#[test]
fn verify_hits_audits_the_disk_tier() {
    let dir = fresh_dir("tier_verify_hits");
    let circuit = random_circuit(4, 12, 83);
    let topo = Topology::grid(4);

    {
        let a = Compiler::builder().workers(1).persist_dir(&dir).build();
        let _ = a.compile(&circuit, &topo, Strategy::Awe);
    }

    // verify_hits recompiles behind every hit and asserts equality; a
    // disk hit that decoded to anything else would panic here.
    let b = Compiler::builder()
        .workers(1)
        .verify_hits(true)
        .persist_dir(&dir)
        .build();
    let _ = b.compile(&circuit, &topo, Strategy::Awe);
    assert_eq!(b.tiered_cache_stats().disk_hits, 1);
    // And a memory hit under auditing, for completeness.
    let _ = b.compile(&circuit, &topo, Strategy::Awe);
    assert_eq!(b.tiered_cache_stats().memory_hits, 1);
}

#[test]
#[should_panic(expected = "diverged")]
fn verify_hits_catches_a_divergent_disk_hit() {
    let (dir_a, dir_b) = (fresh_dir("tier_diverge_a"), fresh_dir("tier_diverge_b"));
    let topo = Topology::grid(4);
    let (job_a, job_b) = (random_circuit(4, 12, 5), random_circuit(4, 12, 6));
    for (dir, circuit) in [(&dir_a, &job_a), (&dir_b, &job_b)] {
        let session = Compiler::builder().workers(1).persist_dir(dir).build();
        let _ = session.compile(circuit, &topo, Strategy::Eqm);
    }
    // The store's envelope carries no key, so A's entry copied over B's
    // loads as a disk hit for B — one the audit must refuse to serve.
    std::fs::copy(only_entry(&dir_a), only_entry(&dir_b)).expect("swap entries");
    let audited = Compiler::builder()
        .workers(1)
        .verify_hits(true)
        .persist_dir(&dir_b)
        .build();
    let _ = audited.compile(&job_b, &topo, Strategy::Eqm);
}

#[test]
fn clear_cache_leaves_the_disk_tier_intact() {
    let dir = fresh_dir("tier_clear_cache");
    let circuit = random_circuit(4, 10, 29);
    let topo = Topology::ring(4);

    let session = Compiler::builder().workers(1).persist_dir(&dir).build();
    let first = session.compile(&circuit, &topo, Strategy::QubitOnly);
    session.clear_cache();
    // The memory tier is empty, but the artifact survives on disk.
    let second = session.compile(&circuit, &topo, Strategy::QubitOnly);
    let stats = session.tiered_cache_stats();
    assert_eq!(stats.disk_hits, 1, "post-clear lookup lands on disk");
    assert_eq!(stats.misses, 1, "only the original cold compile");
    assert_eq!(render(&first), render(&second));
}

#[test]
fn tiered_stats_without_persistence_mirror_the_memory_cache() {
    let session = Compiler::builder().workers(1).build();
    assert!(!session.persistence_enabled());
    let circuit = random_circuit(3, 8, 7);
    let topo = Topology::grid(3);
    let _ = session.compile(&circuit, &topo, Strategy::Eqm);
    let _ = session.compile(&circuit, &topo, Strategy::Eqm);

    let tiers = session.tiered_cache_stats();
    let memory = session.cache_stats();
    assert_eq!(tiers.memory_hits, memory.hits);
    assert_eq!(tiers.misses, memory.misses);
    assert_eq!(tiers.disk_hits, 0);
    assert_eq!(tiers.disk_writes, 0);
    assert_eq!(tiers.disk_rejects, 0);
    assert_eq!(tiers.disk_write_errors, 0);
}

/// Wire-level: the `stats` op reports the skeleton cache and the tier
/// split, and a server configured with a persist dir shows disk writes.
#[test]
fn wire_stats_carry_skeleton_and_tier_counters() {
    let dir = fresh_dir("tier_wire_stats");
    let session = Arc::new(Compiler::builder().workers(1).persist_dir(&dir).build());

    let (client_end, server_end) = loopback();
    let (server_reader, server_writer) = server_end.split();
    let server = std::thread::spawn(move || serve_duplex(session, server_reader, server_writer));

    let (reader, writer) = client_end.split();
    let mut client = ServiceClient::new(BufReader::new(reader), writer);
    let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q;\ncx q[0], q[1];\n";
    let job = client
        .submit("wire", Strategy::Eqm, "grid:3", qasm)
        .expect("submit");
    let event = client.next_event().expect("completion");
    assert_eq!(event.job(), job);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.tiers.misses, 1, "one cold compile");
    assert_eq!(stats.tiers.disk_writes, 1, "written back to the disk tier");
    assert_eq!(stats.tiers.disk_hits, 0);
    assert_eq!(stats.skeleton_cache.hits, 0, "no sweeps submitted");
    assert_eq!(stats.cache.misses, 1);

    drop(client);
    server.join().expect("server thread").expect("server exit");
}
