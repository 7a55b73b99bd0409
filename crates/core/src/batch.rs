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
//! Work distribution is dynamic: workers claim chunks of
//! [`BatchConfig::effective_chunk_size`] consecutive frames from a shared
//! atomic cursor, so an unlucky worker stuck with dense (slow) frames does
//! not stall the batch. Dynamic claiming changes *which* worker runs a
//! frame, never the result.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use esam_bits::{BitMatrix, BitVec};

use crate::config::{BatchConfig, EpochConfig, WeightMergePolicy};
use crate::error::CoreError;
use crate::learning::{LearningCurve, OnlineSession};
use crate::metrics::{BatchTally, LearningTally, SystemMetrics};
use crate::system::{EsamSystem, InferenceResult};

/// One labelled sample of a learning epoch: input spike frame + class.
pub type LabelledSample = (BitVec, u8);

/// Result of one data-parallel learning epoch
/// ([`BatchEngine::learn_epoch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochResult {
    /// Learning accounting merged over shards, in shard order (the float
    /// cost sums are therefore thread-count independent).
    pub tally: LearningTally,
    /// Inference-side cycle tally of the epoch (learning counters folded
    /// in; see [`BatchTally`]).
    pub inference: BatchTally,
    /// The merged accuracy-over-samples curve (see
    /// [`LearningCurve::merge_shards`]).
    pub curve: LearningCurve,
    /// Logical shards the epoch actually used.
    pub shards: usize,
}

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
    /// Sharding requires per-frame independence, which only holds when the
    /// neurons reset every timestep; for a state-carrying policy
    /// ([`ResetPolicy::OnFire`](esam_neuron::ResetPolicy)) the engine
    /// clamps itself to **one** worker, which claims chunks in frame order
    /// — degenerating to the sequential walk rather than silently returning
    /// thread-count-dependent numbers.
    pub fn new(system: &EsamSystem, config: &BatchConfig) -> Self {
        let threads = if frames_are_independent(system) {
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
        let threads = if frames_are_independent(&self.reference) {
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
    /// [`EsamSystem::measure_batch`] on the same frames.
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
        self.run_workers(frames, |_, chunk, worker| {
            let chunk_tally = worker.run_frames(chunk)?;
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

    /// Runs one data-parallel online-learning epoch over `samples`,
    /// updating `system`'s output-layer weights in place.
    ///
    /// The epoch is split into [`EpochConfig::shards_count`] *logical*
    /// shards of contiguous samples; shard `i` trains its own cheap clone
    /// of `system` (weights un-share copy-on-write at the first update)
    /// under an [`OnlineSession`] seeded `seed ⊕ i`. The engine's threads
    /// claim shards from a shared cursor — which thread runs a shard can
    /// never change its result, so for a fixed seed and shard count the
    /// final weights, tally and curve are **identical at any thread count**
    /// (property-tested in `tests/learning_epoch_determinism.rs`).
    ///
    /// Shard replicas are then folded back by the configured
    /// [`WeightMergePolicy`]:
    ///
    /// * [`MajorityVote`](WeightMergePolicy::MajorityVote) — per-bit
    ///   majority across replicas, ties keeping the pre-epoch bit. An
    ///   off-chip aggregation (federated-style); not counted as runtime
    ///   SRAM accesses.
    /// * [`Sequential`](WeightMergePolicy::Sequential) — the exactness
    ///   fallback: one sequential stream over the whole epoch on `system`
    ///   itself, bit-identical to [`OnlineSession`] with `seed ⊕ 0`.
    ///
    /// The inference-path bit-identity guarantees of
    /// [`measure`](Self::measure) are untouched: learning never runs under
    /// `measure`, and after this call `system`'s activity counters hold the
    /// epoch's inference traffic (the learning access cost is reported in
    /// [`EpochResult::tally`]; under `Sequential` it additionally remains
    /// in the arrays' own counters).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty epoch and
    /// propagates the first shard error otherwise.
    pub fn learn_epoch(
        &mut self,
        system: &mut EsamSystem,
        samples: &[LabelledSample],
        epoch: &EpochConfig,
    ) -> Result<EpochResult, CoreError> {
        if samples.is_empty() {
            return Err(CoreError::InvalidConfig(
                "a learning epoch needs at least one sample".into(),
            ));
        }
        if epoch.merge_policy_kind() == WeightMergePolicy::Sequential {
            let mut session = OnlineSession::with_curve_interval(
                system,
                epoch.rule(),
                epoch.seed(),
                epoch.curve_interval_samples(),
            );
            for (frame, label) in samples {
                session.learn_sample(frame, *label as usize)?;
            }
            return Ok(EpochResult {
                tally: *session.tally(),
                inference: *session.batch_tally(),
                curve: session.curve().clone(),
                shards: 1,
            });
        }

        let shards = epoch.shards_count().min(samples.len());
        let slices = shard_slices(samples.len(), shards);
        let slots: Vec<Mutex<ShardSlot>> = (0..shards)
            .map(|i| {
                let mut worker = system.clone();
                worker.reset_stats();
                Mutex::new(ShardSlot {
                    system: worker,
                    range: slices[i].clone(),
                    result: None,
                })
            })
            .collect();

        // Use the *configured* thread count, not the worker-pool size: the
        // pool is clamped to 1 for state-carrying reset policies because
        // inference sharding would be order-dependent, but epoch shards are
        // self-contained sequential walks whose results cannot depend on
        // which thread runs them.
        let threads = self.config.threads().min(shards).max(1);
        claim_chunks(0..threads, shards, 1, |_, claimed| {
            for shard in claimed {
                let mut slot = slots[shard].lock().expect("shard slot poisoned");
                let range = slot.range.clone();
                let mut session = OnlineSession::with_curve_interval(
                    &mut slot.system,
                    epoch.rule(),
                    epoch.seed() ^ shard as u64,
                    epoch.curve_interval_samples(),
                );
                for (frame, label) in &samples[range] {
                    session.learn_sample(frame, *label as usize)?;
                }
                let result = (
                    *session.tally(),
                    *session.batch_tally(),
                    session.curve().clone(),
                );
                slot.result = Some(result);
            }
            Ok(())
        })?;

        // Extract the shard outcomes (deterministic shard order from here
        // on: every fold below walks slots 0..shards).
        let shards_done: Vec<ShardSlot> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("shard slot poisoned"))
            .collect();
        let mut tally = LearningTally::default();
        let mut inference = BatchTally::default();
        let mut curves = Vec::with_capacity(shards);
        for slot in &shards_done {
            let (shard_tally, shard_batch, shard_curve) =
                slot.result.as_ref().expect("every shard completed");
            tally.merge(shard_tally);
            inference.merge(shard_batch);
            curves.push(shard_curve.clone());
        }

        merge_majority_weights(system, &shards_done)?;
        system.reset_stats();
        for slot in &shards_done {
            system.absorb_stats(&slot.system);
        }
        Ok(EpochResult {
            tally,
            inference,
            curve: LearningCurve::merge_shards(&curves),
            shards,
        })
    }

    /// Resets every worker, then runs [`claim_chunks`] over the pool:
    /// each worker feeds the chunks of
    /// [`BatchConfig::effective_chunk_size`] frames it claims to
    /// `serve(chunk_start, chunk, worker)`.
    fn run_workers<F>(&mut self, frames: &[BitVec], serve: F) -> Result<(), CoreError>
    where
        F: Fn(usize, &[BitVec], &mut EsamSystem) -> Result<(), CoreError> + Sync,
    {
        for worker in &mut self.workers {
            worker.reset_stats();
        }
        let chunk_size = self
            .config
            .effective_chunk_size(frames.len(), self.workers.len());
        claim_chunks(
            self.workers.iter_mut(),
            frames.len(),
            chunk_size,
            |worker, claimed| serve(claimed.start, &frames[claimed], worker),
        )
    }
}

/// The engine's one scheduler: a scoped thread per item of `workers`
/// claims `chunk_size`-long ranges of `0..len` from a shared cursor and
/// feeds each to `serve(worker, range)` until the cursor runs past `len`.
/// The first error stops further claims and is propagated.
///
/// A fresh [`std::thread::scope`] is opened per call on purpose: the
/// closure borrows the caller's frames or samples, and under
/// `forbid(unsafe_code)` a long-lived thread pool could not hold that
/// borrow across calls. OS-thread spawn cost is nanoseconds-to-
/// microseconds against milliseconds-to-seconds of simulation per
/// chunk; what *is* worth hoisting — cloning the tile cascade per
/// worker — happens once in [`BatchEngine::new`] /
/// [`BatchEngine::set_threads`], not here.
fn claim_chunks<W, F>(
    workers: impl IntoIterator<Item = W>,
    len: usize,
    chunk_size: usize,
    serve: F,
) -> Result<(), CoreError>
where
    W: Send,
    F: Fn(&mut W, std::ops::Range<usize>) -> Result<(), CoreError> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let errors: Mutex<Vec<CoreError>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for mut worker in workers {
            let cursor = &cursor;
            let failed = &failed;
            let errors = &errors;
            let serve = &serve;
            scope.spawn(move || loop {
                if failed.load(Ordering::Relaxed) != 0 {
                    return;
                }
                let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                if start >= len {
                    return;
                }
                let end = (start + chunk_size).min(len);
                if let Err(e) = serve(&mut worker, start..end) {
                    failed.store(1, Ordering::Relaxed);
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

/// Whether each inference is independent of the frames before it — true
/// for the default `EveryTimestep` reset (membranes start every timestep
/// from zero), false when membranes integrate across timesteps.
pub(crate) fn frames_are_independent(system: &EsamSystem) -> bool {
    system.config().neuron().reset_policy() == esam_neuron::ResetPolicy::EveryTimestep
}

/// One logical shard of a learning epoch: its worker replica, its sample
/// range, and (after the run) its tallies and curve.
#[derive(Debug)]
struct ShardSlot {
    system: EsamSystem,
    range: std::ops::Range<usize>,
    result: Option<(LearningTally, BatchTally, LearningCurve)>,
}

/// Splits `len` samples into `shards` contiguous, near-equal ranges (the
/// first `len % shards` ranges are one longer).
fn shard_slices(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / shards;
    let extra = len % shards;
    let mut slices = Vec::with_capacity(shards);
    let mut start = 0usize;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        slices.push(start..start + size);
        start += size;
    }
    slices
}

/// Folds the shard replicas' output-layer weights into `system` by per-bit
/// majority vote, ties keeping `system`'s pre-epoch bit.
fn merge_majority_weights(system: &mut EsamSystem, shards: &[ShardSlot]) -> Result<(), CoreError> {
    let layer = system.tiles().len() - 1;
    let votes_needed = shards.len();
    let (row_groups, col_groups) = {
        let tile = &system.tiles()[layer];
        (tile.row_groups(), tile.col_groups())
    };
    for rg in 0..row_groups {
        for cg in 0..col_groups {
            let index = rg * col_groups + cg;
            let original = system.tiles()[layer].arrays()[index].bits().clone();
            let merged = BitMatrix::from_fn(original.rows(), original.cols(), |r, c| {
                let votes = shards
                    .iter()
                    .filter(|slot| slot.system.tiles()[layer].arrays()[index].bits().get(r, c))
                    .count();
                if 2 * votes > votes_needed {
                    true
                } else if 2 * votes < votes_needed {
                    false
                } else {
                    original.get(r, c)
                }
            });
            system.tile_mut(layer).load_block(rg, cg, &merged)?;
        }
    }
    Ok(())
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
    fn parallel_metrics_are_bit_identical_to_sequential() {
        let mut reference = system();
        let batch = frames(37, 5);
        let sequential = reference.measure_batch(&batch).unwrap();
        for threads in [1, 2, 3, 4, 7] {
            let mut engine = BatchEngine::new(&system(), &BatchConfig::with_threads(threads));
            let parallel = engine.measure(&batch).unwrap();
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }

    #[test]
    fn chunk_size_does_not_change_results() {
        let mut reference = system();
        let batch = frames(23, 9);
        let sequential = reference.measure_batch(&batch).unwrap();
        for chunk in [1, 2, 5, 100] {
            let config = BatchConfig::with_threads(3).chunk_size(chunk);
            let mut engine = BatchEngine::new(&system(), &config);
            assert_eq!(engine.measure(&batch).unwrap(), sequential, "chunk {chunk}");
        }
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
    }

    #[test]
    fn resized_engine_stays_bit_identical() {
        // The sweep pattern: one engine, resized per point. Every size —
        // growing, shrinking, zero-clamped — must reproduce the sequential
        // metrics exactly.
        let mut reference = system();
        let batch = frames(31, 13);
        let sequential = reference.measure_batch(&batch).unwrap();
        let mut engine = BatchEngine::new(&system(), &BatchConfig::sequential());
        for threads in [1usize, 4, 2, 7, 0, 3] {
            engine.set_threads(threads);
            assert_eq!(engine.threads(), threads.max(1));
            assert_eq!(
                engine.measure(&batch).unwrap(),
                sequential,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn infer_batch_matches_sequential_order() {
        let mut reference = system();
        let batch = frames(29, 3);
        let expected: Vec<_> = batch.iter().map(|f| reference.infer(f).unwrap()).collect();
        let mut engine = BatchEngine::new(&system(), &BatchConfig::with_threads(4).chunk_size(3));
        let got = engine.infer_batch(&batch).unwrap();
        assert_eq!(got, expected);
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

    fn labelled(count: usize, seed: u64) -> Vec<LabelledSample> {
        frames(count, seed)
            .into_iter()
            .enumerate()
            .map(|(i, f)| (f, (i % 10) as u8))
            .collect()
    }

    fn output_weights(system: &EsamSystem) -> Vec<BitVec> {
        let tile = system.tiles().last().unwrap();
        (0..tile.outputs()).map(|n| tile.weight_column(n)).collect()
    }

    #[test]
    fn sequential_epoch_matches_a_plain_session() {
        use crate::learning::OnlineSession;
        use esam_nn::StdpRule;

        let samples = labelled(30, 11);
        let epoch = EpochConfig::new(StdpRule::paper_default(), 5)
            .merge_policy(WeightMergePolicy::Sequential);

        let mut reference = system();
        let mut session = OnlineSession::with_curve_interval(
            &mut reference,
            epoch.rule(),
            epoch.seed(),
            epoch.curve_interval_samples(),
        );
        for (frame, label) in &samples {
            session.learn_sample(frame, *label as usize).unwrap();
        }
        let expected_tally = *session.tally();
        let expected_curve = session.curve().clone();

        let mut target = system();
        let mut engine = BatchEngine::new(&target, &BatchConfig::with_threads(4));
        let result = engine.learn_epoch(&mut target, &samples, &epoch).unwrap();
        assert_eq!(result.tally, expected_tally);
        assert_eq!(result.curve, expected_curve);
        assert_eq!(result.shards, 1);
        assert_eq!(output_weights(&target), output_weights(&reference));
    }

    #[test]
    fn majority_epoch_is_thread_count_independent() {
        use esam_nn::StdpRule;

        let samples = labelled(41, 13);
        let epoch = EpochConfig::new(StdpRule::new(0.5, 0.2), 9).shards(4);
        let mut reference_weights = None;
        let mut reference_result = None;
        for threads in [1usize, 2, 4, 7] {
            let mut target = system();
            let mut engine = BatchEngine::new(&target, &BatchConfig::with_threads(threads));
            let result = engine.learn_epoch(&mut target, &samples, &epoch).unwrap();
            assert_eq!(result.shards, 4);
            assert_eq!(result.tally.samples, 41);
            let weights = output_weights(&target);
            match (&reference_weights, &reference_result) {
                (None, _) => {
                    reference_weights = Some(weights);
                    reference_result = Some(result);
                }
                (Some(expected_weights), Some(expected_result)) => {
                    assert_eq!(&weights, expected_weights, "{threads} threads");
                    assert_eq!(&result, expected_result, "{threads} threads");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn majority_merge_outvotes_a_minority_shard() {
        use esam_nn::StdpRule;

        // With 1 shard the "majority" is that shard: the merged weights
        // must equal the shard replica's weights, and with an odd shard
        // count ties cannot occur.
        let samples = labelled(12, 3);
        let epoch = EpochConfig::new(StdpRule::new(1.0, 1.0), 2).shards(1);
        let mut voted = system();
        let mut engine = BatchEngine::new(&voted, &BatchConfig::with_threads(2));
        engine.learn_epoch(&mut voted, &samples, &epoch).unwrap();

        let mut sequential = system();
        let seq_epoch = epoch.merge_policy(WeightMergePolicy::Sequential);
        let mut engine = BatchEngine::new(&sequential, &BatchConfig::sequential());
        engine
            .learn_epoch(&mut sequential, &samples, &seq_epoch)
            .unwrap();
        assert_eq!(output_weights(&voted), output_weights(&sequential));
    }

    #[test]
    fn epoch_rejects_empty_and_bad_labels() {
        use esam_nn::StdpRule;

        let epoch = EpochConfig::new(StdpRule::paper_default(), 1);
        let mut target = system();
        let mut engine = BatchEngine::new(&target, &BatchConfig::with_threads(2));
        assert!(engine.learn_epoch(&mut target, &[], &epoch).is_err());
        let bad = vec![(frames(1, 1).pop().unwrap(), 200u8)];
        assert!(matches!(
            engine.learn_epoch(&mut target, &bad, &epoch),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shard_slices_are_contiguous_and_balanced() {
        let slices = shard_slices(10, 3);
        assert_eq!(slices, vec![0..4, 4..7, 7..10]);
        let slices = shard_slices(4, 4);
        assert_eq!(slices.len(), 4);
        assert!(slices.iter().all(|s| s.len() == 1));
    }
}
