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

use std::time::Duration;

/// The size-or-deadline micro-batching trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    max_batch: usize,
    max_wait: Duration,
    slice_width: usize,
}

impl BatchPolicy {
    /// A policy dispatching batches of up to `max_batch` requests, waiting
    /// up to `max_wait` after the first request of a batch arrives for the
    /// batch to fill.
    pub fn new(max_batch: usize, max_wait: Duration) -> Self {
        Self {
            max_batch: max_batch.max(1),
            max_wait,
            slice_width: 1,
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

    /// Prefers batch sizes that are multiples of `width` (clamped to at
    /// least 1): when a ready batch overshoots a multiple, the extraction
    /// rounds it down to the nearest one — **only** if the requests it
    /// would defer have not already waited out [`max_wait`](Self::max_wait).
    /// Aligning batches to the bit-sliced lane width keeps worker blocks
    /// full (see [`FrameBlock`](esam_bits::FrameBlock)); latency always
    /// wins when the two goals conflict.
    pub fn slice_aligned(mut self, width: usize) -> Self {
        self.slice_width = width.max(1);
        self
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

    /// Preferred batch-size multiple (1 = no alignment preference).
    pub fn slice_width(&self) -> usize {
        self.slice_width
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
        assert_eq!(BatchPolicy::default().slice_width(), 1);
    }

    #[test]
    fn slice_alignment_clamps_and_reports() {
        let policy = BatchPolicy::new(128, Duration::from_micros(50)).slice_aligned(64);
        assert_eq!(policy.slice_width(), 64);
        assert_eq!(policy.max_batch(), 128, "alignment leaves the cap alone");
        let clamped = BatchPolicy::greedy(8).slice_aligned(0);
        assert_eq!(clamped.slice_width(), 1, "width clamps to 1");
    }
}
