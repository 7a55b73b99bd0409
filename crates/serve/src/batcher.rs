//! Dynamic micro-batching: the size-or-deadline coalescing trigger.
//!
//! A worker never serves requests straight off the queue; it pulls the
//! next batch under its [`BatchPolicy`]. The queue blocks while it is
//! empty, then coalesces whatever is queued — up to
//! [`BatchPolicy::max_batch`] requests, waiting at most
//! [`BatchPolicy::max_wait`] for stragglers (the standard dynamic-batching
//! shape). Batching amortizes the per-dispatch synchronization (one queue
//! pop, one metrics flush per batch) without changing any result: frames
//! are independent, so batch composition can never influence a response.
//! A batch is a dispatch unit only; the worker runs each of its requests
//! as its own supervised unit.

use std::time::Duration;

/// The size-or-deadline micro-batching trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    max_batch: usize,
    max_wait: Duration,
}

impl BatchPolicy {
    /// A policy dispatching batches of up to `max_batch` requests, waiting
    /// up to `max_wait` after the first request of a batch arrives for the
    /// batch to fill.
    pub fn new(max_batch: usize, max_wait: Duration) -> Self {
        Self {
            max_batch: max_batch.max(1),
            max_wait,
        }
    }

    /// A greedy policy: dispatch immediately with whatever is queued (up to
    /// `max_batch`) — the zero-deadline corner that minimizes latency.
    pub fn greedy(max_batch: usize) -> Self {
        Self::new(max_batch, Duration::ZERO)
    }

    /// One request per dispatch, no coalescing (the no-batching reference).
    pub fn unbatched() -> Self {
        Self::greedy(1)
    }

    /// Maximum requests per dispatched batch.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Longest a non-full batch waits for stragglers after its first
    /// request is seen.
    pub fn max_wait(&self) -> Duration {
        self.max_wait
    }
}

impl Default for BatchPolicy {
    /// Greedy batches of up to 8 requests: coalesce what is already queued,
    /// never trade latency for batch size.
    fn default() -> Self {
        Self::greedy(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_clamps_and_reports() {
        let policy = BatchPolicy::new(0, Duration::from_micros(10));
        assert_eq!(policy.max_batch(), 1, "batch size clamps to 1");
        assert_eq!(policy.max_wait(), Duration::from_micros(10));
        assert_eq!(BatchPolicy::default().max_batch(), 8);
        assert_eq!(BatchPolicy::default().max_wait(), Duration::ZERO);
        assert_eq!(BatchPolicy::unbatched().max_batch(), 1);
    }
}
