//! Parallel batch-inference engine: shard → simulate → merge.
//!
//! [`BatchEngine`] serves a batch of spike frames by sharding it across `N`
//! worker pipelines — independent clones of the whole tile cascade, cheap
//! because tiles share their weight arrays (see [`crate::tile`]) — then
//! merging the per-worker activity counters and cycle tallies into one
//! [`SystemMetrics`]. The merge is *exact*: workers only accumulate `u64`
//! counters, integer addition is associative/commutative, and the float
//! finalization runs once over the merged counters, so results are
//! bit-identical to the sequential [`EsamSystem::measure_batch`] at any
//! thread count (see [`crate::metrics`] for the full argument).
//!
//! This mirrors, in software, how the multi-core neuromorphic architectures
//! the paper builds on scale throughput: replicate the compute tile, farm
//! out the workload, aggregate per-tile statistics.
//!
//! Work distribution is dynamic: workers claim chunks of consecutive
//! frames (about four per worker) from a shared atomic cursor, so an
//! unlucky worker stuck with dense (slow) frames does not stall the batch.
//! Dynamic claiming changes *which* worker runs a frame, never the result.
//!
//! Learning does not shard: each sample's update changes the weights the
//! next sample is inferred with, so online learning is one sequential
//! stream ([`OnlineSession`](crate::OnlineSession)).
//!
//! # Examples
//!
//! ```no_run
//! use esam_core::{BatchConfig, BatchEngine, EsamSystem, SystemConfig};
//! use esam_nn::{BnnNetwork, SnnModel};
//! use esam_sram::BitcellKind;
//! # use esam_bits::BitVec;
//!
//! let net = BnnNetwork::new(&[128, 64, 10], 7)?;
//! let model = SnnModel::from_bnn(&net)?;
//! let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
//!     .build()?;
//! let system = EsamSystem::from_model(&model, &config)?;
//!
//! let mut engine = BatchEngine::new(&system, &BatchConfig::default());
//! let frames: Vec<BitVec> = (0..1024).map(|i| BitVec::from_indices(128, &[i % 128])).collect();
//! let metrics = engine.measure(&frames)?;        // == system.measure_batch(&frames)
//! let results = engine.infer_batch(&frames)?;    // per-frame results, in order
//! assert_eq!(results.len(), frames.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use esam_bits::BitVec;

use crate::config::BatchConfig;
use crate::error::CoreError;
use crate::metrics::{BatchTally, SystemMetrics};
use crate::system::{EsamSystem, InferenceResult};

/// A reusable pool of worker pipelines serving frame batches in parallel.
///
/// Workers are cloned once at construction and reused across batches, so
/// the (already small) setup cost amortizes to zero for repeated
/// measurement sweeps like the `batch_scaling` experiment.
#[derive(Debug)]
pub struct BatchEngine {
    /// Worker pipelines, each holding its own shard's counters after a run.
    workers: Vec<EsamSystem>,
    /// Merged counter holder + finalizer (a clone of the source system).
    reference: EsamSystem,
    config: BatchConfig,
}

impl BatchEngine {
    /// Builds an engine with [`BatchConfig::threads`] workers cloned from
    /// `system`.
    ///
    /// Sharding requires per-frame independence
    /// ([`EsamSystem::frames_are_independent`]); for a state-carrying
    /// policy ([`ResetPolicy::OnFire`](esam_neuron::ResetPolicy)) the
    /// engine clamps itself to **one** worker, which claims chunks in frame
    /// order — degenerating to the sequential walk rather than silently
    /// returning thread-count-dependent numbers.
    pub fn new(system: &EsamSystem, config: &BatchConfig) -> Self {
        let threads = if system.frames_are_independent() {
            config.threads()
        } else {
            1
        };
        let workers = (0..threads).map(|_| system.clone()).collect();
        Self {
            workers,
            reference: system.clone(),
            config: *config,
        }
    }

    /// Resizes the worker pool in place: growth clones new workers from
    /// the reference pipeline, shrink drops the excess. The per-frame
    /// independence clamp of [`Self::new`] still applies, so a
    /// state-carrying reset policy pins the pool at one worker regardless
    /// of `threads`.
    ///
    /// This is what makes a thread-count *sweep* cheap: one engine, resized
    /// per point, instead of re-cloning the whole tile cascade for every
    /// point (the `batch_scaling` experiment reports the setup time this
    /// hoists out of its wall-clock measurements). After a resize,
    /// [`threads`](Self::threads) reflects the live pool;
    /// [`config`](Self::config) keeps the originally requested plan.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = if self.reference.frames_are_independent() {
            threads.max(1)
        } else {
            1
        };
        if threads <= self.workers.len() {
            self.workers.truncate(threads);
        } else {
            let reference = &self.reference;
            self.workers.resize_with(threads, || reference.clone());
        }
    }

    /// Number of worker pipelines.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The sharding plan.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// The per-worker pipelines (after a run: holding their shard's
    /// counters).
    pub fn workers(&self) -> &[EsamSystem] {
        &self.workers
    }

    /// Measures a batch: shard, simulate, merge — bit-identical to
    /// [`EsamSystem::measure_batch`] on the same frames. Like
    /// [`infer_batch`](Self::infer_batch), frames run under the installed
    /// [`FaultPlan`](esam_fault::FaultPlan)'s transients keyed on their
    /// global batch index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty batch and
    /// propagates the first worker error otherwise.
    pub fn measure(&mut self, frames: &[BitVec]) -> Result<SystemMetrics, CoreError> {
        if frames.is_empty() {
            return Err(CoreError::InvalidConfig(
                "metrics need at least one frame".into(),
            ));
        }
        // Tally merges are exact u64 sums, so the order in which chunks
        // land in the sink cannot change the result.
        let tally = Mutex::new(BatchTally::default());
        self.run_workers(frames, |chunk_start, chunk, worker| {
            let chunk_tally = worker.run_frames(chunk, chunk_start as u64)?;
            tally
                .lock()
                .expect("tally sink poisoned")
                .merge(&chunk_tally);
            Ok(())
        })?;
        let tally = tally.into_inner().expect("tally sink poisoned");
        self.reference.reset_stats();
        for worker in &self.workers {
            self.reference.absorb_stats(worker);
        }
        self.reference.finalize_metrics(&tally)
    }

    /// Runs every frame and returns its [`InferenceResult`], in frame
    /// order — the parallel counterpart of calling
    /// [`EsamSystem::infer`] in a loop.
    ///
    /// Per-frame results are independent of the thread count: with the
    /// default `EveryTimestep` reset each inference starts from reset
    /// membranes, so which worker serves a frame cannot influence its
    /// outcome — and a state-carrying reset policy clamps the engine to a
    /// single worker claiming chunks in frame order (see [`Self::new`]).
    ///
    /// Frames run under the source system's installed
    /// [`FaultPlan`](esam_fault::FaultPlan) with the *global batch index*
    /// as the fault coordinate, so transient fault sites — like everything
    /// else here — are identical at any thread count or chunk size. With
    /// no plan installed this is exactly the unfaulted batch walk.
    ///
    /// # Errors
    ///
    /// Propagates the first worker error.
    pub fn infer_batch(&mut self, frames: &[BitVec]) -> Result<Vec<InferenceResult>, CoreError> {
        let collected: Mutex<Vec<(usize, Vec<InferenceResult>)>> =
            Mutex::new(Vec::with_capacity(frames.len()));
        self.run_workers(frames, |chunk_start, chunk, worker| {
            let mut results = Vec::with_capacity(chunk.len());
            for (offset, frame) in chunk.iter().enumerate() {
                results.push(worker.infer_checked(frame, (chunk_start + offset) as u64)?);
            }
            collected
                .lock()
                .expect("result sink poisoned")
                .push((chunk_start, results));
            Ok(())
        })?;
        let mut chunks = collected.into_inner().expect("result sink poisoned");
        chunks.sort_unstable_by_key(|(start, _)| *start);
        Ok(chunks
            .into_iter()
            .flat_map(|(_, results)| results)
            .collect())
    }

    /// Resets every worker, then serves `frames` on one scoped thread per
    /// worker: each claims chunks of [`chunk_size`] consecutive frames from
    /// a shared cursor and feeds them to
    /// `serve(chunk_start, chunk, worker)` until the cursor runs past the
    /// batch. The first error stops further claims and is propagated.
    ///
    /// Every batch starts from the source system's state: a state-carrying
    /// pool's one worker is re-cloned from the reference, since its
    /// membranes would otherwise carry over from the previous batch.
    ///
    /// A fresh [`std::thread::scope`] is opened per call on purpose: the
    /// closure borrows the caller's frames, and under `forbid(unsafe_code)`
    /// a long-lived thread pool could not hold that borrow across calls.
    /// OS-thread spawn cost is nanoseconds-to-microseconds against
    /// milliseconds-to-seconds of simulation per chunk; what *is* worth
    /// hoisting — cloning the tile cascade per worker — happens once in
    /// [`new`](Self::new) / [`set_threads`](Self::set_threads), not here.
    fn run_workers<F>(&mut self, frames: &[BitVec], serve: F) -> Result<(), CoreError>
    where
        F: Fn(usize, &[BitVec], &mut EsamSystem) -> Result<(), CoreError> + Sync,
    {
        if !self.reference.frames_are_independent() {
            self.workers[0] = self.reference.clone();
        }
        for worker in &mut self.workers {
            worker.reset_stats();
        }
        let len = frames.len();
        let chunk_size = chunk_size(len, self.workers.len());
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let errors: Mutex<Vec<CoreError>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for worker in &mut self.workers {
                let cursor = &cursor;
                let failed = &failed;
                let errors = &errors;
                let serve = &serve;
                scope.spawn(move || loop {
                    if failed.load(Ordering::Relaxed) {
                        return;
                    }
                    let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                    if start >= len {
                        return;
                    }
                    let end = (start + chunk_size).min(len);
                    if let Err(e) = serve(start, &frames[start..end], worker) {
                        failed.store(true, Ordering::Relaxed);
                        errors.lock().expect("error sink poisoned").push(e);
                        return;
                    }
                });
            }
        });
        match errors.into_inner().expect("error sink poisoned").pop() {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}

/// Frames a worker claims per pop of the shared cursor when `workers`
/// workers serve `frames` frames: about four chunks per worker bounds the
/// idle tail at the end of the batch while keeping cursor traffic
/// negligible.
fn chunk_size(frames: usize, workers: usize) -> usize {
    (frames / (workers.max(1) * 4)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use esam_nn::{BnnNetwork, SnnModel};
    use esam_sram::BitcellKind;
    use rand::RngExt;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn system() -> EsamSystem {
        let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
            .build()
            .unwrap();
        EsamSystem::from_model(&model, &config).unwrap()
    }

    fn frames(count: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..128).map(|_| rng.random_bool(0.25)).collect())
            .collect()
    }

    #[test]
    fn engine_is_reusable_across_batches() {
        let mut engine = BatchEngine::new(&system(), &BatchConfig::with_threads(2));
        let first = frames(10, 1);
        let second = frames(16, 2);
        let metrics_first = engine.measure(&first).unwrap();
        let metrics_second = engine.measure(&second).unwrap();
        // Re-measuring the first batch reproduces it exactly: no state
        // leaks between runs.
        assert_eq!(engine.measure(&first).unwrap(), metrics_first);
        assert_ne!(metrics_first, metrics_second);
        // A resize to zero keeps one worker.
        engine.set_threads(0);
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn worker_errors_propagate() {
        let mut engine = BatchEngine::new(&system(), &BatchConfig::with_threads(2));
        let mut batch = frames(8, 4);
        batch.push(BitVec::new(64)); // wrong width
        assert!(matches!(
            engine.measure(&batch),
            Err(CoreError::InputWidthMismatch { .. })
        ));
        assert!(engine.measure(&frames(8, 4)).is_ok(), "engine recovers");
    }

    #[test]
    fn state_carrying_reset_policy_clamps_to_sequential() {
        // OnFire membranes integrate across frames, so sharding would make
        // results depend on the thread count; the engine must degenerate to
        // the sequential walk instead.
        let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
            .neuron(esam_neuron::NeuronConfig::new(
                12,
                12,
                esam_neuron::ResetPolicy::OnFire,
            ))
            .build()
            .unwrap();
        let batch = frames(21, 6);

        let mut sequential = EsamSystem::from_model(&model, &config).unwrap();
        let reference = sequential.measure_batch(&batch).unwrap();

        let mut engine = BatchEngine::new(
            &EsamSystem::from_model(&model, &config).unwrap(),
            &BatchConfig::with_threads(4),
        );
        assert_eq!(engine.threads(), 1, "engine must clamp to one worker");
        assert_eq!(engine.measure(&batch).unwrap(), reference);
        engine.set_threads(6);
        assert_eq!(engine.threads(), 1, "resizing must respect the clamp");
    }

    #[test]
    fn empty_batch_rejected() {
        let mut engine = BatchEngine::new(&system(), &BatchConfig::default());
        assert!(engine.measure(&[]).is_err());
    }
}
