//! Jobs of the session job service: the submitted [`BatchJob`], its
//! identity, lifecycle state, outcome and handle.
//!
//! A [`crate::Compiler`] session owns a persistent worker pool (see
//! `service.rs`); [`crate::Compiler::submit`] enqueues one [`BatchJob`]
//! and returns a [`JobHandle`] that supports [`poll`](JobHandle::poll),
//! [`wait`](JobHandle::wait) and [`cancel`](JobHandle::cancel). Every job
//! ends in exactly one [`JobOutcome`], stored once when it reaches a
//! terminal state; [`crate::Compiler::compile_batch`] returns those same
//! outcomes for a whole job list. Handles are cheap to clone and may
//! outlive the session: when a `Compiler` is dropped, still-queued jobs
//! are marked [`JobStatus::Cancelled`] and every waiter is woken.
//!
//! Callers multiplexing many jobs (the wire-protocol front-end in
//! `qompress-service` is one) can attach a [`CompletionQueue`] at submit
//! time and pop job ids as they reach a terminal state, in completion
//! order — the "stream results as they finish" primitive.

use crate::parametric::SweepBinding;
use crate::pipeline::CompilationResult;
use crate::service::ServiceInner;
use crate::strategies::Strategy;
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One independent compilation job: a `(circuit, strategy, topology)`
/// triple plus a free-form label.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Free-form identifier echoed into the job's [`JobHandle::label`]
    /// (benchmark name, file stem, sweep coordinates, …).
    pub label: String,
    /// When the job was minted by [`crate::ParamSweep::job`], the sweep
    /// binding that routes it through the skeleton-stamp path instead of a
    /// full pipeline run. `None` for ordinary jobs.
    pub(crate) binding: Option<SweepBinding>,
    /// The logical circuit to compile.
    pub circuit: Circuit,
    /// The compression strategy to apply.
    pub strategy: Strategy,
    /// The physical topology to compile onto.
    pub topology: Topology,
}

impl BatchJob {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        circuit: Circuit,
        strategy: Strategy,
        topology: Topology,
    ) -> Self {
        BatchJob {
            label: label.into(),
            binding: None,
            circuit,
            strategy,
            topology,
        }
    }
}

/// Identifier of one submitted job, unique within its session (ids start
/// at 1 and increase in submit order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the service queue.
    Queued,
    /// Claimed by a worker; the compilation is in flight.
    Running,
    /// Finished successfully; the result is available.
    Done,
    /// Cancelled while still queued (running jobs cannot be cancelled).
    Cancelled,
    /// The compilation panicked; the panic message is available.
    Failed,
}

impl JobStatus {
    /// Lower-case wire/report name (`"queued"`, `"running"`, `"done"`,
    /// `"cancelled"`, `"failed"`).
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        }
    }

    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Terminal outcome of a job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The compilation finished; repeats share the cached `Arc`.
    Done(Arc<CompilationResult>),
    /// The job was cancelled before a worker claimed it.
    Cancelled,
    /// The compilation panicked with this message.
    Failed(String),
}

impl JobOutcome {
    /// The compiled result, if the job finished successfully.
    pub fn result(&self) -> Option<&Arc<CompilationResult>> {
        match self {
            JobOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// The terminal [`JobStatus`] this outcome corresponds to.
    pub fn status(&self) -> JobStatus {
        match self {
            JobOutcome::Done(_) => JobStatus::Done,
            JobOutcome::Cancelled => JobStatus::Cancelled,
            JobOutcome::Failed(_) => JobStatus::Failed,
        }
    }
}

/// Shared per-job state: status + outcome under one mutex, a condvar for
/// waiters, and the optional completion watcher attached at submit.
#[derive(Debug)]
pub(crate) struct JobState {
    pub(crate) inner: Mutex<JobInner>,
    pub(crate) done: Condvar,
}

#[derive(Debug)]
pub(crate) struct JobInner {
    pub(crate) status: JobStatus,
    /// Set exactly when `status` is terminal.
    outcome: Option<JobOutcome>,
    watcher: Option<CompletionQueue>,
}

impl JobState {
    pub(crate) fn new(watcher: Option<CompletionQueue>) -> Self {
        JobState {
            inner: Mutex::new(JobInner {
                status: JobStatus::Queued,
                outcome: None,
                watcher,
            }),
            done: Condvar::new(),
        }
    }

    /// Stores the job's terminal `outcome`, wakes every waiter, and
    /// notifies the completion watcher (outside the state lock, so a
    /// watcher pop racing this call never contends with it).
    pub(crate) fn finish(&self, id: JobId, outcome: JobOutcome) {
        let watcher = {
            let mut inner = self.inner.lock().expect("job state poisoned");
            inner.status = outcome.status();
            inner.outcome = Some(outcome);
            self.done.notify_all();
            inner.watcher.clone()
        };
        if let Some(w) = watcher {
            w.push(id);
        }
    }

    /// The one cancellation protocol, shared by [`JobHandle::cancel`] and
    /// the service shutdown drain: flip a still-queued job to cancelled
    /// under the state lock, wake waiters, count it, and notify the
    /// watcher outside the lock. Returns `false` (touching nothing) once
    /// a worker has claimed the job or it already finished.
    pub(crate) fn cancel_if_queued(&self, id: JobId, service: &ServiceInner) -> bool {
        let watcher = {
            let mut inner = self.inner.lock().expect("job state poisoned");
            if inner.status != JobStatus::Queued {
                return false;
            }
            inner.status = JobStatus::Cancelled;
            inner.outcome = Some(JobOutcome::Cancelled);
            self.done.notify_all();
            inner.watcher.clone()
        };
        service.note_cancelled();
        if let Some(w) = watcher {
            w.push(id);
        }
        true
    }
}

/// A handle to one submitted job.
///
/// Cloning is cheap (the underlying state is shared); handles stay valid
/// after the session is dropped — the drop cancels whatever was still
/// queued and wakes every waiter, so [`JobHandle::wait`] never hangs on a
/// dead session.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) label: String,
    pub(crate) state: Arc<JobState>,
    pub(crate) service: Arc<ServiceInner>,
}

impl JobHandle {
    /// The job's session-unique id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The label copied from the submitted [`BatchJob`].
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The job's current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.state.inner.lock().expect("job state poisoned").status
    }

    /// Returns the outcome if the job has reached a terminal state,
    /// without blocking.
    pub fn poll(&self) -> Option<JobOutcome> {
        self.state
            .inner
            .lock()
            .expect("job state poisoned")
            .outcome
            .clone()
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// outcome.
    pub fn wait(&self) -> JobOutcome {
        let mut inner = self.state.inner.lock().expect("job state poisoned");
        loop {
            if let Some(outcome) = &inner.outcome {
                return outcome.clone();
            }
            inner = self.state.done.wait(inner).expect("job state poisoned");
        }
    }

    /// Cancels the job if it is still queued. Returns `true` when the job
    /// was cancelled by this call; `false` when a worker already claimed
    /// it (or it already finished) — running jobs are never interrupted,
    /// so a cancelled job has done **no** work and touched **no** shared
    /// state (in particular, the session's result cache never sees it).
    pub fn cancel(&self) -> bool {
        self.state.cancel_if_queued(self.id, &self.service)
    }
}

/// A multi-producer completion stream: job ids are pushed as jobs reach a
/// terminal state (in completion order, not submit order) and popped by a
/// consumer multiplexing many outstanding jobs.
///
/// Attach one at submit time via [`crate::Compiler::submit_watched`].
/// Cloning shares the underlying queue. [`CompletionQueue::close`] wakes
/// blocked consumers; a closed queue still drains already-pushed ids.
#[derive(Debug, Clone, Default)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

#[derive(Debug, Default)]
struct CqInner {
    state: Mutex<CqState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct CqState {
    ids: VecDeque<JobId>,
    closed: bool,
}

impl CompletionQueue {
    /// An empty, open queue.
    pub fn new() -> Self {
        CompletionQueue::default()
    }

    pub(crate) fn push(&self, id: JobId) {
        let mut state = self.inner.state.lock().expect("completion queue poisoned");
        state.ids.push_back(id);
        self.inner.ready.notify_all();
    }

    /// Pops the next completed job id without blocking.
    pub fn try_pop(&self) -> Option<JobId> {
        self.inner
            .state
            .lock()
            .expect("completion queue poisoned")
            .ids
            .pop_front()
    }

    /// Blocks until a completion arrives (`Some`) or the queue is closed
    /// and drained (`None`).
    pub fn pop(&self) -> Option<JobId> {
        let mut state = self.inner.state.lock().expect("completion queue poisoned");
        loop {
            if let Some(id) = state.ids.pop_front() {
                return Some(id);
            }
            if state.closed {
                return None;
            }
            state = self
                .inner
                .ready
                .wait(state)
                .expect("completion queue poisoned");
        }
    }

    /// Like [`CompletionQueue::pop`] with an upper bound on the wait;
    /// returns `None` on timeout or on a closed, drained queue.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<JobId> {
        // Track an absolute deadline: spurious wakeups (or a sibling
        // consumer winning a pushed id) must not restart the full budget.
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.state.lock().expect("completion queue poisoned");
        loop {
            if let Some(id) = state.ids.pop_front() {
                return Some(id);
            }
            if state.closed {
                return None;
            }
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .filter(|d| !d.is_zero())?;
            let (next, _result) = self
                .inner
                .ready
                .wait_timeout(state, remaining)
                .expect("completion queue poisoned");
            state = next;
        }
    }

    /// Number of completions currently buffered.
    pub fn len(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("completion queue poisoned")
            .ids
            .len()
    }

    /// `true` when no completions are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: blocked consumers wake, and once the buffered ids
    /// drain, `pop` returns `None`. Jobs finishing later still push —
    /// their ids are simply never consumed.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().expect("completion queue poisoned");
        state.closed = true;
        self.inner.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_names_and_terminality() {
        assert_eq!(JobStatus::Queued.name(), "queued");
        assert_eq!(JobStatus::Running.name(), "running");
        assert_eq!(JobStatus::Done.name(), "done");
        assert_eq!(JobStatus::Cancelled.name(), "cancelled");
        assert_eq!(JobStatus::Failed.name(), "failed");
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(JobStatus::Done.is_terminal());
        assert!(JobStatus::Cancelled.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert_eq!(format!("{}", JobStatus::Done), "done");
        assert_eq!(format!("{}", JobId(7)), "7");
    }

    #[test]
    fn completion_queue_orders_and_closes() {
        let q = CompletionQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.try_pop(), None);
        q.push(JobId(3));
        q.push(JobId(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(JobId(3)), "completion order, not id order");
        q.close();
        // Closed queues drain buffered ids before reporting exhaustion.
        assert_eq!(q.pop(), Some(JobId(1)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), None);
        // Late pushes after close are allowed (the producer may still be
        // finishing) — they are just never required to be consumed.
        q.push(JobId(9));
        assert_eq!(q.try_pop(), Some(JobId(9)));
    }

    #[test]
    fn pop_timeout_times_out_on_open_queue() {
        let q = CompletionQueue::new();
        let t = std::time::Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None);
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn pop_wakes_across_threads() {
        let q = CompletionQueue::new();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(10));
        q.push(JobId(42));
        assert_eq!(h.join().unwrap(), Some(JobId(42)));
    }
}
