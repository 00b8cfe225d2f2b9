//! Graceful-drain signalling for the socket servers.
//!
//! A [`DrainHandle`] is a shared flag connecting whoever decides to shut
//! down (a signal handler, a test, an operator thread) to the accept
//! loops and connection handlers that must wind work down:
//!
//! * the listeners ([`crate::serve_tcp`], [`crate::serve_unix`]) stop
//!   accepting connections and return once the flag trips;
//! * connections already being served answer new `submit` /
//!   `submit_sweep` requests with a structured
//!   `{"ok":false,"draining":true,…}` rejection (surfaced client-side as
//!   [`crate::ServiceError::Draining`]) while every other op — `poll`,
//!   `stats`, `cancel`, event streaming — keeps working, so in-flight
//!   jobs finish and their completions still reach their clients.
//!
//! The flag is one-way: once tripped, a server never resumes accepting.
//! Process exit (waiting out in-flight jobs up to a deadline, flushing
//! write-backs) is the binary's job — see `qompress-serve`'s
//! `--drain-timeout`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable drain flag (see the module docs). All clones
/// observe one trip.
#[derive(Debug, Clone, Default)]
pub struct DrainHandle {
    inner: Arc<AtomicBool>,
}

impl DrainHandle {
    /// A fresh, untripped handle.
    pub fn new() -> Self {
        DrainHandle::default()
    }

    /// Trips the flag: accept loops stop, submits start answering
    /// `draining`. Idempotent.
    pub fn trigger(&self) {
        self.inner.store(true, Ordering::Release);
    }

    /// Whether the flag has tripped.
    pub fn is_draining(&self) -> bool {
        self.inner.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_once_for_every_clone() {
        let handle = DrainHandle::new();
        let clone = handle.clone();
        assert!(!handle.is_draining());
        assert!(!clone.is_draining());
        clone.trigger();
        assert!(handle.is_draining());
        clone.trigger(); // idempotent
        assert!(handle.is_draining());
        // A fresh handle is its own flag.
        assert!(!DrainHandle::new().is_draining());
    }
}
