//! Job-service lifecycle guarantees: cancellation never perturbs the
//! shared result cache, dropping a session joins its worker pool without
//! deadlock (the submit-side sibling of
//! `verify_hits_replays_exhaustive_strategy_without_deadlock`), and a
//! batch through the service stays byte-identical to streaming submits.

use qompress::{BatchJob, CacheStats, Compiler, CompletionQueue, JobOutcome, JobStatus, Strategy};
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use qompress_workloads::{build, Benchmark};
use std::sync::mpsc;
use std::time::Duration;

fn job(label: &str, size: usize, strategy: Strategy) -> BatchJob {
    BatchJob::new(
        label,
        build(Benchmark::Cuccaro, size, 7),
        strategy,
        Topology::grid(size),
    )
}

#[test]
fn cancelled_jobs_never_touch_the_result_cache() {
    let session = Compiler::builder().workers(1).build();
    // Pausing the (not-yet-spawned) pool makes "still queued" exact, not
    // a race: no worker claims anything until resume.
    session.pause_workers();
    let doomed_a = session.submit(job("doomed-a", 6, Strategy::Eqm));
    let doomed_b = session.submit(job("doomed-b", 6, Strategy::Awe));
    let survivor = session.submit(job("survivor", 6, Strategy::QubitOnly));
    assert_eq!(doomed_a.status(), JobStatus::Queued);
    assert!(doomed_a.cancel());
    assert!(doomed_b.cancel());
    assert!(
        matches!(doomed_a.wait(), JobOutcome::Cancelled),
        "wait on a cancelled job returns immediately"
    );
    // Nothing has compiled yet, so the cache has seen zero lookups.
    assert_eq!(session.cache_stats(), CacheStats::default());

    session.resume_workers();
    assert!(survivor.wait().result().is_some());

    // Stats stay exact: only the survivor compiled (one miss, no hits,
    // nothing cached for the cancelled jobs).
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));
    assert_eq!(session.cached_results(), 1);

    // Compiling a formerly-cancelled job now is a *miss* — its result was
    // never smuggled into the cache by the cancelled submission.
    let fresh = session.compile(
        &build(Benchmark::Cuccaro, 6, 7),
        &Topology::grid(6),
        Strategy::Eqm,
    );
    assert!(fresh.metrics.total_eps > 0.0);
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));

    let m = session.service_metrics();
    assert_eq!((m.submitted, m.completed, m.cancelled), (3, 1, 2));
    assert_eq!(m.queued + m.running + m.failed, 0);
}

#[test]
fn dropping_the_session_joins_workers_without_deadlock() {
    // Run the drop on a watchdog so a deadlocked join fails the test
    // instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // Busy pool: several jobs queued behind one worker.
        let session = Compiler::builder().workers(1).build();
        let handles: Vec<_> = (0..4)
            .map(|i| session.submit(job(&format!("inflight-{i}"), 8, Strategy::Eqm)))
            .collect();
        // Wait until the single worker has actually claimed the head job,
        // so the shutdown below provably overlaps an in-flight compile.
        while handles[0].status() == JobStatus::Queued {
            std::thread::yield_now();
        }
        drop(session); // must cancel the queue tail and join the pool
        let outcomes: Vec<JobOutcome> = handles.iter().map(|h| h.wait()).collect();
        tx.send(outcomes).unwrap();
    });
    let outcomes = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("dropping a busy session must not deadlock");
    // Every handle resolved: claimed jobs finished, queued jobs were
    // cancelled by the shutdown. No outcome may be missing or failed.
    assert_eq!(outcomes.len(), 4);
    for outcome in &outcomes {
        assert!(
            matches!(outcome, JobOutcome::Done(_) | JobOutcome::Cancelled),
            "unexpected outcome {outcome:?}"
        );
    }
    assert!(
        outcomes.iter().any(|o| matches!(o, JobOutcome::Done(_))),
        "the in-flight job finishes during shutdown"
    );
}

#[test]
fn dropping_a_paused_session_cancels_the_whole_queue() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let session = Compiler::builder().workers(2).build();
        session.pause_workers();
        let handles: Vec<_> = (0..3)
            .map(|i| session.submit(job(&format!("parked-{i}"), 5, Strategy::Eqm)))
            .collect();
        drop(session); // workers blocked on a paused queue must still join
        tx.send(handles).unwrap();
    });
    let handles = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("dropping a paused session must not deadlock");
    for handle in &handles {
        assert!(
            matches!(handle.wait(), JobOutcome::Cancelled),
            "{}",
            handle.label()
        );
        assert_eq!(handle.status(), JobStatus::Cancelled);
    }
}

#[test]
fn watcher_sees_cancellations_and_completions() {
    let session = Compiler::builder().workers(1).build();
    let watcher = CompletionQueue::new();
    session.pause_workers();
    let keep = session.submit_watched(job("keep", 5, Strategy::Eqm), &watcher);
    let drop_me = session.submit_watched(job("drop", 5, Strategy::Awe), &watcher);
    assert!(drop_me.cancel());
    // The cancellation streams immediately, before any worker runs.
    assert_eq!(watcher.pop(), Some(drop_me.id()));
    session.resume_workers();
    assert_eq!(watcher.pop(), Some(keep.id()));
    assert!(keep.wait().result().is_some());
}

#[test]
fn batch_through_the_service_is_byte_identical_to_streaming_submits() {
    let jobs: Vec<BatchJob> = [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
    ]
    .into_iter()
    .map(|s| job(&format!("sweep-{}", s.name()), 6, s))
    .collect();

    // Streaming path: one handle per job on a fresh session.
    let streaming = Compiler::builder().workers(2).caching(false).build();
    let handles: Vec<_> = jobs.iter().map(|j| streaming.submit(j.clone())).collect();
    let streamed: Vec<String> = handles
        .iter()
        .map(|h| format!("{:?}", *h.wait().result().expect("job must succeed")))
        .collect();

    // Batch path: the same jobs as one batch on another session.
    let batcher = Compiler::builder().workers(2).caching(false).build();
    let outcomes = batcher.compile_batch(&jobs);
    assert_eq!(outcomes.len(), jobs.len());
    for (job, (streamed, got)) in jobs.iter().zip(streamed.iter().zip(&outcomes)) {
        let got = got.result().expect("job must succeed");
        assert_eq!(
            streamed,
            &format!("{:?}", **got),
            "{}: streaming and batch must agree byte-for-byte",
            job.label
        );
    }
    let m = batcher.service_metrics();
    assert_eq!((m.submitted, m.completed), (4, 4));
}

#[test]
fn empty_circuit_jobs_flow_through_the_service() {
    let session = Compiler::builder().workers(1).build();
    let handle = session.submit(BatchJob::new(
        "empty",
        Circuit::new(3),
        Strategy::QubitOnly,
        Topology::grid(3),
    ));
    let outcome = handle.wait();
    let result = outcome.result().expect("empty circuits compile");
    assert_eq!(result.logical_gates, 0);
}
