//! The bounded request queue and its admission policies — the service's
//! backpressure boundary.
//!
//! All coordination is `std::sync::{Mutex, Condvar}`: producers push under
//! an [`AdmissionPolicy`]; worker threads pull coalesced batches through
//! the queue's size-or-deadline batch extraction, triggered by their
//! [`BatchPolicy`]. Closing the queue stops intake but lets workers drain
//! what was already admitted, so every admitted ticket resolves.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::batcher::BatchPolicy;
use crate::error::ServeError;
use crate::request::PendingRequest;
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};

/// What happens to a new request when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// The submitting thread blocks until a slot frees up (closed-loop
    /// clients; open-loop producers should not use this, it distorts the
    /// arrival process).
    #[default]
    Block,
    /// The request is refused immediately with [`ServeError::Rejected`] —
    /// load shedding at the front door, the bounded-queue answer to
    /// sustained overload.
    Reject,
    /// The *oldest* queued request is evicted (its ticket resolves with
    /// [`ServeError::Dropped`]) and the new one admitted — freshness over
    /// fairness, for workloads where a stale inference is worthless.
    DropOldest,
}

impl AdmissionPolicy {
    /// Short lowercase name (stable; used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::DropOldest => "drop-oldest",
        }
    }
}

/// Counter snapshot of a queue's admission history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueCounters {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests refused under [`AdmissionPolicy::Reject`].
    pub rejected: u64,
    /// Admitted requests evicted under [`AdmissionPolicy::DropOldest`].
    pub dropped: u64,
    /// Highest queue depth observed at any admission.
    pub peak_depth: usize,
}

#[derive(Debug)]
struct QueueState {
    pending: VecDeque<PendingRequest>,
    open: bool,
    counters: QueueCounters,
}

/// A bounded multi-producer queue of pending inference requests.
#[derive(Debug)]
pub struct RequestQueue {
    capacity: usize,
    admission: AdmissionPolicy,
    state: Mutex<QueueState>,
    /// Signalled when a request is admitted or the queue closes.
    not_empty: Condvar,
    /// Signalled when batch extraction frees capacity or the queue closes.
    not_full: Condvar,
}

impl RequestQueue {
    /// Creates a queue holding at most `capacity` requests (clamped to at
    /// least 1) under the given admission policy.
    pub fn new(capacity: usize, admission: AdmissionPolicy) -> Self {
        Self {
            capacity: capacity.max(1),
            admission,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                open: true,
                counters: QueueCounters::default(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Maximum number of queued requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The admission policy applied at capacity.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        lock_recover(&self.state).pending.len()
    }

    /// Snapshot of the admission counters.
    pub fn counters(&self) -> QueueCounters {
        lock_recover(&self.state).counters
    }

    /// Admits a request, applying the admission policy at capacity.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`close`](Self::close);
    /// [`ServeError::Rejected`] at capacity under
    /// [`AdmissionPolicy::Reject`].
    pub(crate) fn push(&self, request: PendingRequest) -> Result<(), ServeError> {
        let mut state = lock_recover(&self.state);
        if !state.open {
            return Err(ServeError::ShuttingDown);
        }
        while state.pending.len() >= self.capacity {
            match self.admission {
                AdmissionPolicy::Block => {
                    state = wait_recover(&self.not_full, state);
                    if !state.open {
                        return Err(ServeError::ShuttingDown);
                    }
                }
                AdmissionPolicy::Reject => {
                    state.counters.rejected += 1;
                    return Err(ServeError::Rejected);
                }
                AdmissionPolicy::DropOldest => {
                    match state.pending.pop_front() {
                        Some(victim) => {
                            state.counters.dropped += 1;
                            // Completing the victim's ticket while holding
                            // the queue lock is safe: the slot mutex is a
                            // leaf lock — nothing takes the queue lock
                            // while holding it.
                            victim.slot.complete(Err(ServeError::Dropped));
                        }
                        // Unreachable (the queue is at capacity >= 1), but
                        // falling through to admission beats panicking.
                        None => break,
                    }
                }
            }
        }
        state.pending.push_back(request);
        state.counters.admitted += 1;
        state.counters.peak_depth = state.counters.peak_depth.max(state.pending.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pulls the next micro-batch: blocks while the queue is empty and
    /// open; once at least one request is available, waits up to
    /// `policy.max_wait()` for the batch to fill to `policy.max_batch()`
    /// (the size-or-deadline trigger). Returns `None` only when the queue
    /// is closed *and* fully drained — the worker-exit signal.
    pub(crate) fn pop_batch(&self, policy: &BatchPolicy) -> Option<Vec<PendingRequest>> {
        let mut state = lock_recover(&self.state);
        loop {
            while state.pending.is_empty() {
                if !state.open {
                    return None;
                }
                state = wait_recover(&self.not_empty, state);
            }
            if policy.max_wait() > Duration::ZERO {
                // Deadline trigger: measured from the moment this worker
                // saw the first request of its batch.
                let deadline = Instant::now() + policy.max_wait();
                while state.pending.len() < policy.max_batch() && state.open {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    let (guard, timeout) = wait_timeout_recover(&self.not_empty, state, remaining);
                    state = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            let take = state.pending.len().min(policy.max_batch());
            if take == 0 {
                // A peer worker drained the queue while this one released
                // the lock during the straggler wait: go back to the
                // empty-wait rather than dispatching a phantom batch.
                continue;
            }
            let batch: Vec<PendingRequest> = state.pending.drain(..take).collect();
            drop(state);
            // Capacity freed: wake blocked producers (all of them —
            // several may fit now) and peer workers that might find
            // leftover requests.
            self.not_full.notify_all();
            self.not_empty.notify_one();
            return Some(batch);
        }
    }

    /// Re-enqueues a request a worker could not finish (it unwound out of
    /// a crashed execution attempt) at the *front* of the queue, so a
    /// retried request keeps its place in the latency order.
    ///
    /// Bypasses the admission boundary on purpose: the request was already
    /// admitted once and the caller holds the retry budget, so re-entry
    /// must succeed even when the queue is closed (shutdown still drains
    /// it) or momentarily over capacity (bounded by workers × batch size
    /// requests in flight).
    pub(crate) fn requeue(&self, request: PendingRequest) {
        let mut state = lock_recover(&self.state);
        state.pending.push_front(request);
        state.counters.peak_depth = state.counters.peak_depth.max(state.pending.len());
        drop(state);
        self.not_empty.notify_one();
    }

    /// Closes intake: subsequent [`push`](Self::push) calls fail with
    /// [`ServeError::ShuttingDown`], blocked producers wake up with the
    /// same error, and workers drain the remaining requests before
    /// [`pop_batch`](Self::pop_batch) returns `None`.
    pub(crate) fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.open = false;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResponseSlot;
    use esam_bits::BitVec;
    use std::sync::Arc;

    fn request(id: u64) -> (PendingRequest, crate::Ticket) {
        let slot = ResponseSlot::new();
        (
            PendingRequest {
                id,
                frame: BitVec::new(8),
                slot: Arc::clone(&slot),
                submitted: Instant::now(),
                attempts: 0,
                arrival_cycle: None,
            },
            crate::Ticket { id, slot },
        )
    }

    #[test]
    fn fifo_order_and_depth() {
        let queue = RequestQueue::new(4, AdmissionPolicy::Block);
        for id in 0..3 {
            queue.push(request(id).0).unwrap();
        }
        assert_eq!(queue.depth(), 3);
        let batch = queue.pop_batch(&BatchPolicy::greedy(2)).unwrap();
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(queue.depth(), 1);
        assert_eq!(queue.counters().admitted, 3);
        assert_eq!(queue.counters().peak_depth, 3);
    }

    #[test]
    fn reject_policy_refuses_at_capacity() {
        let queue = RequestQueue::new(2, AdmissionPolicy::Reject);
        queue.push(request(0).0).unwrap();
        queue.push(request(1).0).unwrap();
        assert_eq!(queue.push(request(2).0), Err(ServeError::Rejected));
        let counters = queue.counters();
        assert_eq!(counters.admitted, 2);
        assert_eq!(counters.rejected, 1);
    }

    #[test]
    fn drop_oldest_evicts_and_resolves_the_victim() {
        let queue = RequestQueue::new(2, AdmissionPolicy::DropOldest);
        let (r0, t0) = request(0);
        queue.push(r0).unwrap();
        queue.push(request(1).0).unwrap();
        queue.push(request(2).0).unwrap();
        assert_eq!(t0.wait(), Err(ServeError::Dropped));
        assert_eq!(queue.counters().dropped, 1);
        let batch = queue.pop_batch(&BatchPolicy::greedy(8)).unwrap();
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn requeue_goes_to_the_front_and_survives_close() {
        let queue = RequestQueue::new(2, AdmissionPolicy::Block);
        queue.push(request(0).0).unwrap();
        queue.push(request(1).0).unwrap();
        let mut batch = queue.pop_batch(&BatchPolicy::greedy(1)).unwrap();
        let mut retried = batch.pop().unwrap();
        retried.attempts += 1;
        queue.close();
        // Retry re-entry bypasses the closed intake (the request was
        // already admitted) and lands at the front of the queue.
        queue.requeue(retried);
        assert_eq!(queue.counters().admitted, 2, "retries are not re-admitted");
        let batch = queue.pop_batch(&BatchPolicy::greedy(8)).unwrap();
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(batch[0].attempts, 1);
        assert!(queue.pop_batch(&BatchPolicy::greedy(8)).is_none());
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let queue = RequestQueue::new(4, AdmissionPolicy::Block);
        queue.push(request(0).0).unwrap();
        queue.close();
        assert_eq!(queue.push(request(1).0), Err(ServeError::ShuttingDown));
        let batch = queue.pop_batch(&BatchPolicy::greedy(8)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(queue.pop_batch(&BatchPolicy::greedy(8)).is_none());
    }

    #[test]
    fn blocked_producer_wakes_on_capacity() {
        let queue = Arc::new(RequestQueue::new(1, AdmissionPolicy::Block));
        queue.push(request(0).0).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(request(1).0))
        };
        std::thread::sleep(Duration::from_millis(10));
        let batch = queue.pop_batch(&BatchPolicy::greedy(1)).unwrap();
        assert_eq!(batch[0].id, 0);
        producer.join().expect("producer").expect("admitted");
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn deadline_trigger_returns_a_partial_batch() {
        let queue = RequestQueue::new(8, AdmissionPolicy::Block);
        queue.push(request(0).0).unwrap();
        let policy = BatchPolicy::new(4, Duration::from_millis(5));
        let start = Instant::now();
        let batch = queue.pop_batch(&policy).unwrap();
        assert_eq!(batch.len(), 1, "deadline must release a partial batch");
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn size_trigger_fires_without_waiting_out_the_deadline() {
        let queue = Arc::new(RequestQueue::new(8, AdmissionPolicy::Block));
        queue.push(request(0).0).unwrap();
        let feeder = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                queue.push(request(1).0).unwrap();
            })
        };
        let policy = BatchPolicy::new(2, Duration::from_secs(10));
        let start = Instant::now();
        let batch = queue.pop_batch(&policy).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "size trigger must fire long before the 10 s deadline"
        );
        feeder.join().expect("feeder");
    }
}
