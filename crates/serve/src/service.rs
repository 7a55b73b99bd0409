//! The inference service: bounded queue → micro-batches → worker pool.
//!
//! [`EsamService::start`] clones the source [`EsamSystem`] once per worker
//! (cheap: tiles share their weight arrays behind `Arc`, only the mutable
//! neuron/scratch state is duplicated — the same sharing the offline
//! [`BatchEngine`](esam_core::BatchEngine) relies on) and spawns one plain
//! `std::thread` per worker. Each worker loops: pull a micro-batch off the
//! queue under its [`BatchPolicy`], run each request through its own
//! pipeline clone as one supervised unit, fulfil the tickets, flush the
//! batch's latency samples and counters into the shared metrics under one
//! lock.
//!
//! A unit is one request under one `catch_unwind`: stall and panic
//! injection, [`EsamSystem::infer_checked`](esam_core::EsamSystem::infer_checked)
//! (the closed-form frame kernel wherever it is exact), banking,
//! fulfilment. A panic re-clones the worker's pipeline and either requeues
//! that one request or resolves it with
//! [`ServeError::RetriesExhausted`], so every worker restart is exactly
//! one retry or one exhausted request. The batch is a dispatch unit only:
//! it amortizes the queue pop and the metrics flush.
//!
//! Results are **bit-identical** to calling
//! [`EsamSystem::infer_checked`](esam_core::EsamSystem::infer_checked)
//! sequentially on the same frames, keyed on their request ids: weights
//! are restored after every frame, and a system whose membranes carry from
//! frame to frame ([`EsamSystem::frames_are_independent`] is false) is
//! served by one worker, the way the
//! [`BatchEngine`](esam_core::BatchEngine) clamps itself. Neither the
//! worker count, the batch composition, the admission policy nor the
//! health policy can influence a response (pinned across worker counts and
//! policies by the workspace's execution matrix,
//! `tests/execution_matrix.rs`). The one exception is a worker panic on
//! such a state-carrying system: the restart re-clones the worker from the
//! template, which resets the membranes it carried, so its later responses
//! leave the sequential walk.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use esam_bits::BitVec;
use esam_core::{
    BatchTally, EsamSystem, InferenceResult, IntegrityMode, IntegrityTally, SystemMetrics,
};
use esam_fault::{FaultPlan, FaultTally};
use esam_obs::{Trace, TraceConfig, TrackTrace};
use esam_tech::units::{Joules, Seconds};

use crate::batcher::BatchPolicy;
use crate::error::ServeError;
use crate::health::{HealthMonitor, HealthPolicy, HealthVerdict};
use crate::metrics::{CycleSummary, LatencyHistogram, LatencySummary};
use crate::queue::{AdmissionPolicy, QueueCounters, RequestQueue};
use crate::request::{PendingRequest, Response, ResponseSlot, Ticket};
use crate::sync::lock_recover;

/// Configuration of an [`EsamService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
    admission: AdmissionPolicy,
    batch: BatchPolicy,
    faults: FaultPlan,
    integrity: IntegrityMode,
    health: HealthPolicy,
    max_retries: u32,
    deadline: Option<Duration>,
    trace: TraceConfig,
}

impl ServeConfig {
    /// A service plan with `workers` worker pipelines (clamped to at least
    /// 1), a 256-slot queue, blocking admission, the default greedy batch
    /// policy, no injected faults, a retry budget of 2 and no deadline.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            queue_capacity: 256,
            admission: AdmissionPolicy::default(),
            batch: BatchPolicy::default(),
            faults: FaultPlan::none(),
            integrity: IntegrityMode::Off,
            health: HealthPolicy::default(),
            max_retries: 2,
            deadline: None,
            trace: TraceConfig::disabled(),
        }
    }

    /// Sets the queue capacity (clamped to at least 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the admission policy applied when the queue is full.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the micro-batching trigger policy.
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Installs a deterministic fault plan: the workers' pipeline clones
    /// carry its SRAM-domain faults, and its serve-domain faults (worker
    /// panics and stalls) are injected around request execution, keyed on
    /// `(request id, attempt)` so replays are reproducible and retries
    /// terminate.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Switches on SECDED self-checking on the workers' weight reads
    /// ([`IntegrityMode::Detect`] or [`Correct`](IntegrityMode::Correct)):
    /// requests run through
    /// [`EsamSystem::infer_checked`](esam_core::EsamSystem::infer_checked)
    /// — transient weight flips are *left in the array* (no oracle
    /// restore) and the syndrome-check / scrub ladder recovers them —
    /// and each worker's [`IntegrityTally`] feeds the health monitor's
    /// quarantine decisions. [`IntegrityMode::Off`] (the default) is
    /// bit-identical to the unprotected service.
    pub fn integrity(mut self, integrity: IntegrityMode) -> Self {
        self.integrity = integrity;
        self
    }

    /// Sets the health policy that turns per-worker integrity counters
    /// into quarantine decisions (see [`HealthPolicy`]). Only consulted
    /// when [`integrity`](Self::integrity) checking is on; the default
    /// quarantines on the first uncorrectable event.
    pub fn health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Sets how many times a request unwound out of a crashed worker is
    /// re-enqueued before its ticket resolves with
    /// [`ServeError::RetriesExhausted`].
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets a per-request deadline budget: a request whose
    /// submission-to-dispatch age already exceeds it is shed with
    /// [`ServeError::DeadlineExceeded`] instead of served stale.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables request-lifecycle tracing: each worker records
    /// queue-wait / infer (with per-layer attribution) spans and
    /// fulfil/restart/retry/shed instants into a private fixed-capacity
    /// ring buffer ([`esam_obs::TrackTrace`]), merged into
    /// [`ServiceReport::trace`] at shutdown. Disabled by default — the
    /// disabled path costs one branch per request, like
    /// [`FaultPlan::none`].
    ///
    /// Cycle-domain timestamps model each worker as its own pipeline: a
    /// request's service span starts at
    /// `max(worker cursor, arrival cycle)` (the arrival cycle comes from
    /// [`EsamService::submit_at`]; plain submissions arrive "now", i.e.
    /// at the cursor) — so with one worker and size-1 batches the trace
    /// is a deterministic queueing timeline.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Number of worker pipelines.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queue capacity.
    pub fn queue_capacity_slots(&self) -> usize {
        self.queue_capacity
    }

    /// The admission policy.
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.admission
    }

    /// The micro-batching policy.
    pub fn batch_policy(&self) -> BatchPolicy {
        self.batch
    }

    /// The installed fault plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> FaultPlan {
        self.faults
    }

    /// The integrity mode ([`IntegrityMode::Off`] by default).
    pub fn integrity_mode(&self) -> IntegrityMode {
        self.integrity
    }

    /// The worker health policy (first-strike quarantine by default).
    pub fn health_policy(&self) -> HealthPolicy {
        self.health
    }

    /// The retry budget for requests that hit a crashing worker.
    pub fn retry_limit(&self) -> u32 {
        self.max_retries
    }

    /// The per-request deadline budget, if one is set.
    pub fn deadline_budget(&self) -> Option<Duration> {
        self.deadline
    }

    /// The tracing configuration ([`TraceConfig::disabled`] by default).
    pub fn trace_config(&self) -> TraceConfig {
        self.trace
    }
}

impl Default for ServeConfig {
    /// One worker per available hardware thread.
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_workers(workers)
    }
}

/// Latency samples a worker flushes per batch (kept out of the shared
/// lock's critical path).
struct BatchSamples {
    wall_ns: u64,
    wait_ns: u64,
    cycles: u64,
}

esam_obs::counters! {
    /// Request and resilience counters a worker accumulates per batch and
    /// merges into the shared collector with the latency samples — plain u64
    /// sums, so the shutdown fold obeys the same exact merge law as every
    /// other counter in the stack.
    #[derive(Debug, Default)]
    struct WorkerCounters {
        completed: u64,
        failed: u64,
        batches: u64,
        batched_requests: u64,
        worker_restarts: u64,
        retries: u64,
        deadline_shed: u64,
        worker_stalls: u64,
        quarantines: u64,
    }
}

/// The shared, mutex-guarded metrics collector.
#[derive(Debug, Default)]
struct SharedMetrics {
    wall_ns: LatencyHistogram,
    wait_ns: LatencyHistogram,
    cycles: LatencyHistogram,
    totals: WorkerCounters,
    last_done: Option<Instant>,
}

/// A running inference service over a worker pool of system clones.
///
/// # Examples
///
/// ```
/// use esam_bits::BitVec;
/// use esam_core::{EsamSystem, SystemConfig};
/// use esam_nn::{BnnNetwork, SnnModel};
/// use esam_serve::{EsamService, ServeConfig};
/// use esam_sram::BitcellKind;
///
/// let net = BnnNetwork::new(&[128, 32, 10], 7)?;
/// let model = SnnModel::from_bnn(&net)?;
/// let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 32, 10])
///     .build()?;
/// let system = EsamSystem::from_model(&model, &config)?;
///
/// let service = EsamService::start(&system, ServeConfig::with_workers(2));
/// let ticket = service.submit(BitVec::from_indices(128, &[3, 70, 90]))?;
/// let response = ticket.wait()?;
/// assert!(response.prediction < 10);
/// let report = service.shutdown();
/// assert_eq!(report.completed, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EsamService {
    config: ServeConfig,
    queue: Arc<RequestQueue>,
    metrics: Arc<Mutex<SharedMetrics>>,
    handles: Vec<JoinHandle<(EsamSystem, BatchTally, Option<TrackTrace>)>>,
    reference: EsamSystem,
    next_id: AtomicU64,
    first_submit: OnceLock<Instant>,
    input_width: usize,
}

/// Perfetto process id under which serve-worker tracks are exported.
pub const SERVE_TRACE_PID: u32 = 1;

impl EsamService {
    /// Starts the service: clones `system` once per worker (installing the
    /// configured [`FaultPlan`] on each clone) and spawns the worker pool.
    /// The source system is untouched (its activity counters do not
    /// advance; the workers' clones count, and are folded back into the
    /// [`ServiceReport`] at shutdown).
    ///
    /// A system whose frames are not independent
    /// ([`EsamSystem::frames_are_independent`]) carries membranes from one
    /// request to the next, so it gets **one** worker whatever
    /// [`ServeConfig::workers`] asks for: requests then run in submission
    /// order, as the sequential walk runs them. Such a service stays
    /// bit-identical to the sequential walk only while no worker panics: a
    /// restart re-clones the worker and so resets its membranes.
    ///
    /// Thread-spawn failure is non-fatal: the service runs with however
    /// many workers came up. If *none* did, intake closes immediately so
    /// [`submit`](Self::submit) fails with [`ServeError::ShuttingDown`]
    /// instead of queueing requests nobody will serve.
    pub fn start(system: &EsamSystem, config: ServeConfig) -> Self {
        let queue = Arc::new(RequestQueue::new(config.queue_capacity, config.admission));
        let metrics = Arc::new(Mutex::new(SharedMetrics::default()));
        let mut reference = system.clone();
        reference.reset_stats();
        let mut template = system.clone();
        template.reset_stats();
        // Every stuck/transient coordinate the plan can name is in range by
        // construction (the materializer iterates the system's own
        // dimensions), so installation cannot fail; if it somehow does,
        // serve unfaulted rather than crash the caller.
        let _ = template.set_fault_plan(config.faults);
        // Before the worker clones, so clones share the codewords and
        // golden image.
        template.set_integrity_mode(config.integrity);
        // One wall epoch for the whole service, so worker tracks line up.
        let epoch = Instant::now();
        let workers = if system.frames_are_independent() {
            config.workers
        } else {
            1
        };
        let handles: Vec<JoinHandle<(EsamSystem, BatchTally, Option<TrackTrace>)>> = (0..workers)
            .filter_map(|index| {
                let worker = template.clone();
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let track = config.trace.is_enabled().then(|| {
                    TrackTrace::with_epoch(
                        SERVE_TRACE_PID,
                        index as u32,
                        format!("worker {index}"),
                        config.trace.capacity(),
                        epoch,
                    )
                });
                std::thread::Builder::new()
                    .name(format!("esam-serve-{index}"))
                    .spawn(move || worker_loop(worker, config, &queue, &metrics, track))
                    .ok()
            })
            .collect();
        if handles.is_empty() {
            queue.close();
        }
        let input_width = system.input_width();
        Self {
            config,
            queue,
            metrics,
            handles,
            reference,
            next_id: AtomicU64::new(0),
            first_submit: OnceLock::new(),
            input_width,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current queue depth (racy by nature; for observability only).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Width of the input frames this service accepts.
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Number of readout classes of the served system.
    pub fn output_classes(&self) -> usize {
        self.reference.output_classes()
    }

    /// Snapshot of the admission counters.
    pub fn queue_counters(&self) -> QueueCounters {
        self.queue.counters()
    }

    /// Submits one spike frame for inference.
    ///
    /// Returns a [`Ticket`] resolving to the request's [`Response`]. Under
    /// [`AdmissionPolicy::Block`] this call blocks while the queue is full;
    /// under [`AdmissionPolicy::Reject`] it fails fast with
    /// [`ServeError::Rejected`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InputWidthMismatch`] for a wrong frame width,
    /// [`ServeError::Rejected`] on shed load, [`ServeError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(&self, frame: BitVec) -> Result<Ticket, ServeError> {
        self.submit_inner(frame, None)
    }

    /// Like [`submit`](Self::submit), but stamps the request with a
    /// modeled-cycle arrival time for the tracer's deterministic
    /// queueing timeline (see [`ServeConfig::trace`]): the traced
    /// queue-wait span runs from `arrival_cycle` to the serving worker's
    /// cycle cursor. Without tracing the stamp is inert.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_at(&self, frame: BitVec, arrival_cycle: u64) -> Result<Ticket, ServeError> {
        self.submit_inner(frame, Some(arrival_cycle))
    }

    fn submit_inner(
        &self,
        frame: BitVec,
        arrival_cycle: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        if frame.len() != self.input_width {
            return Err(ServeError::InputWidthMismatch {
                expected: self.input_width,
                got: frame.len(),
            });
        }
        let _ = self.first_submit.set(Instant::now());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = ResponseSlot::new();
        self.queue.push(PendingRequest {
            id,
            frame,
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
            attempts: 0,
            arrival_cycle,
        })?;
        Ok(Ticket { id, slot })
    }

    /// Convenience: submit and block for the response.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit), plus the request's own failure.
    pub fn infer(&self, frame: BitVec) -> Result<Response, ServeError> {
        self.submit(frame)?.wait()
    }

    /// Stops accepting new requests while the workers keep draining what
    /// was already admitted — the graceful half of shutdown. Subsequent
    /// [`submit`](Self::submit) calls fail with
    /// [`ServeError::ShuttingDown`]; call [`shutdown`](Self::shutdown) to
    /// join the workers and collect the report.
    pub fn close_intake(&self) {
        self.queue.close();
    }

    /// Stops intake, drains the queue, joins the workers and folds their
    /// counters into the final [`ServiceReport`]. Every admitted ticket has
    /// resolved when this returns.
    pub fn shutdown(mut self) -> ServiceReport {
        self.queue.close();
        let workers = self.handles.len();
        let mut tally = BatchTally::default();
        let mut trace = Trace::new();
        if self.config.trace.is_enabled() {
            trace.name_process(SERVE_TRACE_PID, "esam-serve");
        }
        self.reference.reset_stats();
        for handle in self.handles.drain(..) {
            // A top-level worker panic (everything request-scoped is
            // already caught and supervised inside the loop) loses that
            // worker's counters but nothing else: its in-flight tickets
            // resolved when the requests unwound, so the report is merely
            // missing one worker's activity, not wrong about outcomes.
            if let Ok((worker, worker_tally, track)) = handle.join() {
                tally.merge(&worker_tally);
                self.reference.absorb_stats(&worker);
                if let Some(track) = track {
                    trace.push(track);
                }
            }
        }
        let metrics = lock_recover(&self.metrics);
        let counters = self.queue.counters();
        let busy_time = match (self.first_submit.get(), metrics.last_done) {
            (Some(&start), Some(end)) => end.saturating_duration_since(start),
            _ => Duration::ZERO,
        };
        let throughput_rps = if busy_time > Duration::ZERO {
            metrics.totals.completed as f64 / busy_time.as_secs_f64()
        } else {
            0.0
        };
        let mut modeling_error = None;
        let modeled = if tally.frames > 0 {
            match self.reference.finalize_metrics(&tally) {
                Ok(metrics) => Some(metrics),
                Err(error) => {
                    // Surface the failure instead of masquerading as "no
                    // traffic ran" — the latency/throughput half of the
                    // report is still valid.
                    modeling_error = Some(error.to_string());
                    None
                }
            }
        } else {
            None
        };
        let clock_period = self.reference.pipeline().clock_period();
        let cycles = CycleSummary::from_histogram(&metrics.cycles);
        ServiceReport {
            workers,
            queue_capacity: self.config.queue_capacity,
            admission: self.config.admission,
            batch_policy: self.config.batch,
            admitted: counters.admitted,
            completed: metrics.totals.completed,
            rejected: counters.rejected,
            dropped: counters.dropped,
            failed: metrics.totals.failed,
            peak_queue_depth: counters.peak_depth,
            batches: metrics.totals.batches,
            mean_batch_size: if metrics.totals.batches > 0 {
                metrics.totals.batched_requests as f64 / metrics.totals.batches as f64
            } else {
                0.0
            },
            busy_time,
            throughput_rps,
            wall: LatencySummary::from_nanos(&metrics.wall_ns),
            queue_wait: LatencySummary::from_nanos(&metrics.wait_ns),
            cycle_latency_p99: clock_period * cycles.p99 as f64,
            cycles,
            energy_per_request: modeled.as_ref().map(|m| m.energy_per_inf),
            modeled,
            modeling_error,
            worker_restarts: metrics.totals.worker_restarts,
            retries: metrics.totals.retries,
            deadline_shed: metrics.totals.deadline_shed,
            worker_stalls: metrics.totals.worker_stalls,
            quarantines: metrics.totals.quarantines,
            fault_tally: *self.reference.fault_tally(),
            integrity: self.reference.integrity_tally(),
            trace,
        }
    }
}

impl Drop for EsamService {
    /// A dropped service still drains and joins cleanly (tickets are never
    /// lost); the report is simply discarded. Prefer
    /// [`shutdown`](Self::shutdown).
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Resolves one request's ticket from its inference outcome and flushes the
/// latency sample; returns 1 on failure (for the batch's failure count).
/// The worker loop's one fulfilment site.
///
/// When the worker has a track, this is also where the request's timeline
/// is recorded: a `queue-wait` span from the modeled arrival cycle to the
/// worker's cursor, an `infer` span tiled by per-layer `layer` spans
/// ([`InferenceResult::trace_layers`], the cascade's exact per-tile cycle
/// attribution), and a `fulfil` instant — or a `request-failed` instant on
/// the error path.
fn fulfil(
    request: PendingRequest,
    outcome: Result<InferenceResult, ServeError>,
    dispatch: Instant,
    size: usize,
    tally: &mut BatchTally,
    samples: &mut Vec<BatchSamples>,
    track: Option<&mut TrackTrace>,
) -> u64 {
    let queue_wait = dispatch.saturating_duration_since(request.submitted);
    match outcome {
        Ok(result) => {
            tally.record(&result);
            let wall_latency = request.submitted.elapsed();
            let pipeline_cycles = result.total_cycles();
            let bottleneck_cycles = result.bottleneck_cycles();
            if let Some(track) = track {
                let arrival = request.arrival_cycle.unwrap_or_else(|| track.cursor());
                let start = track.cursor().max(arrival);
                track.span_at(
                    "queue-wait",
                    arrival,
                    start - arrival,
                    [Some(("request", request.id)), None],
                );
                let wall_now = track.wall_elapsed_ns();
                let wall_dur = dispatch.elapsed().as_nanos() as u64;
                track.span_walled(
                    "infer",
                    start,
                    pipeline_cycles,
                    wall_now.saturating_sub(wall_dur),
                    wall_dur,
                    [Some(("request", request.id)), Some(("batch", size as u64))],
                );
                result.trace_layers(track, start);
                track.instant("fulfil", [Some(("request", request.id)), None]);
            }
            samples.push(BatchSamples {
                wall_ns: wall_latency.as_nanos() as u64,
                wait_ns: queue_wait.as_nanos() as u64,
                cycles: pipeline_cycles,
            });
            request.slot.complete(Ok(Response {
                id: request.id,
                prediction: result.prediction,
                logits: result.logits,
                membranes: result.membranes,
                pipeline_cycles,
                bottleneck_cycles,
                wall_latency,
                queue_wait,
                batch_size: size,
            }));
            0
        }
        Err(error) => {
            if let Some(track) = track {
                track.instant("request-failed", [Some(("request", request.id)), None]);
            }
            request.slot.complete(Err(error));
            1
        }
    }
}

/// One worker's supervised serve loop: pull micro-batches until the queue
/// closes and drains; return the worker's banked pipeline counters and
/// cycle tally for the shutdown fold.
///
/// Each request of a batch is one supervised unit (see the module docs):
/// stall/panic injection, execution under one `catch_unwind`, banking,
/// fulfilment — and a panic ends it with a re-clone from the template. A
/// quarantine verdict is counted and traced; the worker keeps serving,
/// since every checked frame's scrub has already reloaded its arrays from
/// the pristine image (see [`crate::health`]).
///
/// Supervision model: `template` is the pristine (fault-plan-installed)
/// pipeline the worker restarts from. Execution runs on a `working` clone;
/// after every *successful* request the working counters are banked
/// (`banked.absorb_stats` + `working.reset_stats`), so when an execution
/// attempt panics — injected by the fault plan or genuine — discarding the
/// half-updated `working` clone loses nothing that was already reported.
/// That keeps the shutdown fold's `modeled` metrics exactly consistent
/// with the completed traffic even across restarts. The unwound request is
/// re-enqueued (front of the queue) while it has retry budget, else its
/// ticket resolves with [`ServeError::RetriesExhausted`].
fn worker_loop(
    template: EsamSystem,
    config: ServeConfig,
    queue: &RequestQueue,
    metrics: &Mutex<SharedMetrics>,
    mut track: Option<TrackTrace>,
) -> (EsamSystem, BatchTally, Option<TrackTrace>) {
    let faults = config.fault_plan();
    // The quarantine rung only exists when self-checking produces the
    // uncorrectable counts it keys on.
    let mut health = config
        .integrity_mode()
        .checks()
        .then(|| HealthMonitor::new(config.health_policy()));
    let mut banked = template.clone();
    banked.reset_stats();
    let mut working = template.clone();
    working.reset_stats();
    let mut tally = BatchTally::default();
    let mut samples: Vec<BatchSamples> = Vec::with_capacity(config.batch_policy().max_batch());
    while let Some(mut batch) = queue.pop_batch(&config.batch_policy()) {
        let dispatch = Instant::now();
        samples.clear();
        let mut counts = WorkerCounters::default();
        // Deadline shed happens at dispatch: a request whose budget is
        // already spent would be served stale, so resolve it now (this is
        // also what bounds a retry loop under a deadline).
        if let Some(budget) = config.deadline_budget() {
            batch.retain(|request| {
                let stale = dispatch.saturating_duration_since(request.submitted) > budget;
                if stale {
                    if let Some(track) = track.as_mut() {
                        track.instant("deadline-shed", [Some(("request", request.id)), None]);
                    }
                    request.slot.complete(Err(ServeError::DeadlineExceeded));
                    counts.deadline_shed += 1;
                    counts.failed += 1;
                }
                !stale
            });
        }
        let size = batch.len();
        counts.batches = 1;
        counts.batched_requests = size as u64;
        if let Some(track) = track.as_mut() {
            track.instant("batch-form", [Some(("size", size as u64)), None]);
        }
        for mut request in batch {
            let attempt = u64::from(request.attempts);
            if faults.worker_stall(request.id, attempt) {
                counts.worker_stalls += 1;
                if let Some(track) = track.as_mut() {
                    track.instant("worker-stall", [Some(("request", request.id)), None]);
                }
                std::thread::sleep(faults.config().worker_stall());
            }
            let injected_panic = faults.worker_panic(request.id, attempt);
            let run = catch_unwind(AssertUnwindSafe(|| {
                if injected_panic {
                    panic!(
                        "injected worker fault (request {}, attempt {})",
                        request.id, request.attempts
                    );
                }
                // The transient-fault coordinate is the request id —
                // assigned at submission, so the faulted result is
                // independent of which worker serves it, of batch
                // composition, and of retries (a replayed request hits the
                // same weight bits and reproduces the same response
                // bit-for-bit). With integrity Off the oracle restores the
                // flips after the frame; with checking on, the flips stay
                // in and the SECDED ladder recovers them.
                working
                    .infer_checked(&request.frame, request.id)
                    .map_err(|error| ServeError::Worker(error.to_string()))
            }));
            let request_id = request.id;
            match run {
                Ok(outcome) => {
                    // Health reads the request's integrity delta off the
                    // working clone *before* banking zeroes it.
                    let verdict = health
                        .as_mut()
                        .map(|monitor| monitor.observe(&working.integrity_tally()));
                    banked.absorb_stats(&working);
                    working.reset_stats();
                    counts.failed += fulfil(
                        request,
                        outcome,
                        dispatch,
                        size,
                        &mut tally,
                        &mut samples,
                        track.as_mut(),
                    );
                    // Quarantine: the worker's arrays take too many
                    // uncorrectable hits. The scrub has already reloaded
                    // them from the pristine image, so it is a ledger
                    // entry, not a restart.
                    if verdict == Some(HealthVerdict::Quarantine) {
                        counts.quarantines += 1;
                        if let Some(track) = track.as_mut() {
                            track.instant("quarantine", [Some(("request", request_id)), None]);
                        }
                    }
                }
                Err(_) => {
                    counts.worker_restarts += 1;
                    if let Some(track) = track.as_mut() {
                        track.abandon_open();
                        track.instant("worker-restart", [Some(("request", request_id)), None]);
                    }
                    request.attempts += 1;
                    if request.attempts <= config.retry_limit() {
                        counts.retries += 1;
                        if let Some(track) = track.as_mut() {
                            track.instant("retry", [Some(("request", request_id)), None]);
                        }
                        queue.requeue(request);
                    } else {
                        let attempts = request.attempts;
                        if let Some(track) = track.as_mut() {
                            track.instant(
                                "retries-exhausted",
                                [Some(("request", request_id)), None],
                            );
                        }
                        request
                            .slot
                            .complete(Err(ServeError::RetriesExhausted { attempts }));
                        counts.failed += 1;
                    }
                    // The unwound attempt left `working` mid-frame.
                    working = template.clone();
                    working.reset_stats();
                }
            }
        }
        let done = Instant::now();
        counts.completed = samples.len() as u64;
        let mut shared = lock_recover(metrics);
        for sample in &samples {
            shared.wall_ns.record(sample.wall_ns);
            shared.wait_ns.record(sample.wait_ns);
            shared.cycles.record(sample.cycles);
        }
        shared.totals.merge(&counts);
        shared.last_done = Some(shared.last_done.map_or(done, |t| t.max(done)));
    }
    banked.absorb_stats(&working);
    (banked, tally, track)
}

/// The final accounting of a service's lifetime
/// ([`EsamService::shutdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Worker pipelines that served the traffic: [`ServeConfig::workers`]
    /// (one for a system whose frames are not independent), fewer only
    /// when thread spawns failed.
    pub workers: usize,
    /// Queue capacity (admission boundary).
    pub queue_capacity: usize,
    /// Admission policy that was in force.
    pub admission: AdmissionPolicy,
    /// Micro-batching policy that was in force.
    pub batch_policy: BatchPolicy,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests refused at admission ([`AdmissionPolicy::Reject`]).
    pub rejected: u64,
    /// Admitted requests evicted by backpressure
    /// ([`AdmissionPolicy::DropOldest`]).
    pub dropped: u64,
    /// Requests whose execution failed ([`ServeError::Worker`]).
    pub failed: u64,
    /// Highest queue depth observed.
    pub peak_queue_depth: usize,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// First submission → last completion.
    pub busy_time: Duration,
    /// Sustained throughput over the busy window (completed / busy time).
    pub throughput_rps: f64,
    /// Wall-clock request latency (submission → completion; includes
    /// queueing and batching delay).
    pub wall: LatencySummary,
    /// Wall-clock time requests spent queued before dispatch.
    pub queue_wait: LatencySummary,
    /// Modeled cascade cycles per request (the workload invariant; see
    /// [`crate::metrics`] for why both domains are reported).
    pub cycles: CycleSummary,
    /// p99 modeled latency: p99 cycles × the pipeline clock period.
    pub cycle_latency_p99: Seconds,
    /// Modeled dynamic energy per completed request, folded from the
    /// worker pipelines' spike-by-spike access counters.
    pub energy_per_request: Option<Joules>,
    /// Full modeled-silicon metrics over the served traffic — identical in
    /// derivation to [`EsamSystem::measure_batch`](esam_core::EsamSystem)
    /// over the same frames, request id `i` as batch index `i`, transient
    /// faults included (`None` when nothing completed, or when the fold
    /// failed — see [`modeling_error`](Self::modeling_error)).
    pub modeled: Option<SystemMetrics>,
    /// Why [`modeled`](Self::modeled) is absent despite completed traffic
    /// (a propagated energy-model error), `None` on the happy path.
    pub modeling_error: Option<String>,
    /// Worker pipelines discarded and restarted from the pristine template
    /// after an execution attempt panicked (injected or genuine). Each
    /// attempt is one request, so this equals [`retries`](Self::retries)
    /// plus the requests resolved with [`ServeError::RetriesExhausted`].
    pub worker_restarts: u64,
    /// Requests re-enqueued after unwinding out of a crashed attempt.
    pub retries: u64,
    /// Requests shed at dispatch because their deadline budget was spent.
    pub deadline_shed: u64,
    /// Injected worker stalls served through (latency faults, not errors).
    pub worker_stalls: u64,
    /// Times a worker's uncorrectable-event count crossed the
    /// [`HealthPolicy`] limit (the last rung of the integrity ladder; zero
    /// unless [`ServeConfig::integrity`] checking is on). Each is counted
    /// and traced; the worker serves on, its arrays already reloaded from
    /// the pristine image by the scrub.
    pub quarantines: u64,
    /// SRAM-domain fault injections folded from the worker pipelines
    /// (transient weight flips and membrane upsets actually applied).
    pub fault_tally: FaultTally,
    /// SECDED integrity events folded from the worker pipelines:
    /// corrected / detected-uncorrectable / silent read verdicts plus
    /// the scrub pass's heals and golden reloads (all zero when
    /// [`ServeConfig::integrity`] is [`IntegrityMode::Off`]).
    pub integrity: IntegrityTally,
    /// The merged request-lifecycle trace (one track per worker; empty
    /// unless [`ServeConfig::trace`] enabled tracing). Not part of the
    /// textual report — export it with
    /// [`Trace::chrome_json`](esam_obs::Trace::chrome_json).
    pub trace: Trace,
}

impl ServiceReport {
    /// Fraction of admitted requests that were evicted before execution.
    pub fn drop_rate(&self) -> f64 {
        if self.admitted == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.admitted as f64
    }

    /// Fraction of submission attempts refused at admission.
    pub fn reject_rate(&self) -> f64 {
        let offered = self.admitted + self.rejected;
        if offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / offered as f64
    }
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served:      {} completed / {} admitted ({} rejected, {} dropped, {} failed)",
            self.completed, self.admitted, self.rejected, self.dropped, self.failed
        )?;
        writeln!(
            f,
            "throughput:  {:.0} req/s over {:.1} ms busy ({} workers, mean batch {:.2})",
            self.throughput_rps,
            self.busy_time.as_secs_f64() * 1e3,
            self.workers,
            self.mean_batch_size
        )?;
        writeln!(
            f,
            "wall:        p50 {:.1} µs  p95 {:.1} µs  p99 {:.1} µs  max {:.1} µs",
            self.wall.p50.as_secs_f64() * 1e6,
            self.wall.p95.as_secs_f64() * 1e6,
            self.wall.p99.as_secs_f64() * 1e6,
            self.wall.max.as_secs_f64() * 1e6
        )?;
        write!(
            f,
            "modeled:     p50 {} / p99 {} cycles (p99 = {:.2}), peak queue {}",
            self.cycles.p50, self.cycles.p99, self.cycle_latency_p99, self.peak_queue_depth
        )?;
        let injected = self.worker_restarts
            + self.retries
            + self.deadline_shed
            + self.worker_stalls
            + self.fault_tally.weight_flips
            + self.fault_tally.membrane_flips;
        if injected > 0 {
            write!(
                f,
                "\nresilience:  {} restarts, {} retries, {} deadline-shed, {} stalls ({} weight flips, {} membrane upsets)",
                self.worker_restarts,
                self.retries,
                self.deadline_shed,
                self.worker_stalls,
                self.fault_tally.weight_flips,
                self.fault_tally.membrane_flips
            )?;
        }
        if self.integrity.checked_reads > 0 || self.quarantines > 0 {
            write!(
                f,
                "\nintegrity:   {} corrected, {} uncorrectable, {} silent over {} checked reads; {} quarantines",
                self.integrity.corrected + self.integrity.scrub_corrected,
                self.integrity.uncorrectable(),
                self.integrity.silent,
                self.integrity.checked_reads,
                self.quarantines
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esam_core::SystemConfig;
    use esam_nn::{BnnNetwork, SnnModel};
    use esam_sram::BitcellKind;

    fn small_system() -> EsamSystem {
        let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
            .build()
            .unwrap();
        EsamSystem::from_model(&model, &config).unwrap()
    }

    fn frame(seed: usize) -> BitVec {
        BitVec::from_indices(
            128,
            &[seed % 128, (seed * 7 + 3) % 128, (seed * 31 + 9) % 128],
        )
    }

    #[test]
    fn serves_requests_and_reports() {
        let system = small_system();
        let service = EsamService::start(&system, ServeConfig::with_workers(2));
        let tickets: Vec<Ticket> = (0..40)
            .map(|i| service.submit(frame(i)).expect("admitted"))
            .collect();
        let mut expected = system.clone();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("served");
            let reference = expected.infer(&frame(i)).expect("reference");
            assert_eq!(response.prediction, reference.prediction, "request {i}");
            assert_eq!(response.logits, reference.logits, "request {i}");
            assert_eq!(response.pipeline_cycles, reference.total_cycles());
            assert!(response.wall_latency >= response.queue_wait);
            assert!(response.batch_size >= 1);
        }
        let report = service.shutdown();
        assert_eq!(report.completed, 40);
        assert_eq!(report.admitted, 40);
        assert_eq!(report.rejected + report.dropped + report.failed, 0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.wall.p99 >= report.wall.p50);
        assert!(report.cycles.p99 >= report.cycles.p50);
        assert!(report.cycles.p99 > 0, "finite, nonzero modeled latency");
        assert!(report.cycle_latency_p99 > Seconds::ZERO);
        assert!(report.energy_per_request.expect("traffic ran").pj() > 0.0);
        assert!(report.batches >= 1);
        assert!(report.mean_batch_size >= 1.0);
        let text = report.to_string();
        assert!(text.contains("throughput"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn wrong_width_is_refused_at_submission() {
        let service = EsamService::start(&small_system(), ServeConfig::with_workers(1));
        assert!(matches!(
            service.submit(BitVec::new(64)),
            Err(ServeError::InputWidthMismatch {
                expected: 128,
                got: 64
            })
        ));
        let report = service.shutdown();
        assert_eq!(report.admitted, 0);
        assert!(report.modeled.is_none());
        assert!(report.energy_per_request.is_none());
        assert_eq!(report.throughput_rps, 0.0);
    }

    #[test]
    fn submit_after_shutdown_fails_cleanly() {
        let system = small_system();
        let service = EsamService::start(&system, ServeConfig::with_workers(1));
        let service2 = EsamService::start(&system, ServeConfig::with_workers(1));
        drop(service2); // Drop path: close + join without a report.
        let ticket = service.submit(frame(0)).unwrap();
        ticket.wait().unwrap();
        service.shutdown();
    }

    #[test]
    fn config_accessors() {
        let config = ServeConfig::with_workers(0)
            .queue_capacity(0)
            .admission(AdmissionPolicy::Reject)
            .batch(BatchPolicy::new(4, Duration::from_micros(50)));
        assert_eq!(config.workers(), 1, "clamped");
        assert_eq!(config.queue_capacity_slots(), 1, "clamped");
        assert_eq!(config.admission_policy(), AdmissionPolicy::Reject);
        assert_eq!(config.batch_policy().max_batch(), 4);
        assert!(ServeConfig::default().workers() >= 1);
    }
}
