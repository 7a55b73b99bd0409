//! The full multi-tile ESAM system (§3.1): cascaded tiles forming a
//! fully-connected SNN, with spike-by-spike timing/energy accounting.
//!
//! Tiles are cascaded directly; spike frames travel between them as parallel
//! binary pulses, so no decoding or routing is modeled (or needed). The
//! pipeline operates at the clock period derived in
//! [`PipelineTiming`]; in steady state every
//! tile works on a different inference, so throughput is set by the
//! *bottleneck* tile's cycle count while latency is the sum over tiles.

use esam_bits::{BitVec, FrameBlock};
use esam_fault::{FaultPlan, FaultTally};
use esam_nn::bnn::argmax;
use esam_nn::{derive_teacher_signals, SnnModel};
use esam_obs::TraceScope;
use esam_sram::{IntegrityMode, IntegrityTally};
use esam_tech::units::{AreaUm2, Joules, Watts};

use crate::cascade::{walk_block, walk_frame};
use crate::config::SystemConfig;
use crate::error::CoreError;
use crate::learning::{LearningCost, OnlineLearningEngine, SampleOutcome};
use crate::metrics::{BatchTally, LearningSummary, SystemMetrics};
use crate::pipeline::PipelineTiming;
use crate::tile::Tile;

/// Result of one inference.
///
/// Deliberately *does not* carry the inter-tile spike frames: cloning every
/// frame per inference is a per-request allocation the serving/batch hot
/// path must not pay. Callers that need the frames (tests, examples) use
/// [`EsamSystem::infer_traced`], which returns a [`TracedInference`]
/// wrapping this result.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Predicted class (argmax of the readout logits).
    pub prediction: usize,
    /// Readout logits: output membrane potentials plus the converted biases.
    pub logits: Vec<f32>,
    /// Output-layer membrane potentials.
    pub membranes: Vec<i32>,
    /// The output tile's fired spike frame — the observed output the
    /// teacher derivation compares against the label during online
    /// learning.
    pub output_spikes: BitVec,
    /// Clock cycles each tile spent on this inference (serve + fire).
    pub per_tile_cycles: Vec<u64>,
}

/// An inference with its inter-tile spike trace captured
/// ([`EsamSystem::infer_traced`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TracedInference {
    /// The inference outcome (identical to what [`EsamSystem::infer`]
    /// returns for the same frame).
    pub result: InferenceResult,
    /// The spike frame that entered each tile (`[0]` is the input).
    pub layer_inputs: Vec<BitVec>,
}

impl InferenceResult {
    /// Reads a result out of the output layer: the logits are the output
    /// membranes plus the converted biases — exactly the BNN logits (see
    /// `esam_nn::convert`) — and the prediction is their argmax.
    pub fn from_readout(
        membranes: Vec<i32>,
        output_bias: &[f32],
        output_spikes: BitVec,
        per_tile_cycles: Vec<u64>,
    ) -> Self {
        let logits: Vec<f32> = membranes
            .iter()
            .zip(output_bias)
            .map(|(&m, &b)| m as f32 + b)
            .collect();
        Self {
            prediction: argmax(&logits),
            logits,
            membranes,
            output_spikes,
            per_tile_cycles,
        }
    }

    /// Cycles of the slowest tile — the pipelined throughput limiter.
    pub fn bottleneck_cycles(&self) -> u64 {
        self.per_tile_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Total cycles through the cascade (latency).
    pub fn total_cycles(&self) -> u64 {
        self.per_tile_cycles.iter().sum()
    }
}

/// A complete ESAM accelerator instance.
///
/// # Examples
///
/// ```
/// use esam_bits::BitVec;
/// use esam_core::{EsamSystem, SystemConfig};
/// use esam_nn::{BnnNetwork, SnnModel};
/// use esam_sram::BitcellKind;
///
/// let net = BnnNetwork::new(&[128, 64, 10], 7)?;
/// let model = SnnModel::from_bnn(&net)?;
/// let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
///     .build()?;
/// let mut system = EsamSystem::from_model(&model, &config)?;
/// let result = system.infer(&BitVec::from_indices(128, &[5, 9, 70]))?;
/// assert!(result.prediction < 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct EsamSystem {
    config: SystemConfig,
    tiles: Vec<Tile>,
    pipeline: PipelineTiming,
    output_bias: Vec<f32>,
    /// Installed fault plan ([`FaultPlan::none`] by default — every fault
    /// helper then short-circuits, keeping the unfaulted paths bit-exact).
    faults: FaultPlan,
    /// SRAM-domain injection counters (merged/reset with the activity
    /// counters under the same exact u64 law).
    fault_tally: FaultTally,
    /// Stuck-at sites materialized into the weights by the current plan
    /// whose stored bit actually changed — kept so a plan swap can revert
    /// them (toggles are involutive).
    stuck_flips: Vec<(usize, usize, usize)>,
    /// Stuck-at sites the current plan pins (changed or not).
    stuck_bits: u64,
    /// Integrity mode in effect on every tile's weight reads
    /// ([`IntegrityMode::Off`] by default — bit-identical baseline).
    integrity: IntegrityMode,
}

impl EsamSystem {
    /// Builds the system and loads the converted model into the tiles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyMismatch`] when the model does not match
    /// the configured topology, or propagated construction errors.
    pub fn from_model(model: &SnnModel, config: &SystemConfig) -> Result<Self, CoreError> {
        if model.topology() != config.topology() {
            return Err(CoreError::TopologyMismatch {
                expected: config.topology().to_vec(),
                got: model.topology(),
            });
        }
        let mut tiles = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            let mut tile = Tile::new(layer.inputs(), layer.outputs(), config)?;
            tile.load_layer(layer)?;
            tiles.push(tile);
        }
        Ok(Self {
            config: config.clone(),
            tiles,
            pipeline: PipelineTiming::analyze(config)?,
            output_bias: model.output_bias().to_vec(),
            faults: FaultPlan::none(),
            fault_tally: FaultTally::default(),
            stuck_flips: Vec::new(),
            stuck_bits: 0,
            integrity: IntegrityMode::Off,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Width of the input spike frames this system accepts
    /// (`topology()[0]`) — what a serving front end validates against
    /// before enqueueing a request.
    pub fn input_width(&self) -> usize {
        self.config.topology()[0]
    }

    /// Number of readout classes (the logit width).
    pub fn output_classes(&self) -> usize {
        self.output_bias.len()
    }

    /// The tile cascade.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Mutable tile access (online learning).
    pub fn tile_mut(&mut self, index: usize) -> &mut Tile {
        &mut self.tiles[index]
    }

    /// Pipeline timing (clock plan).
    pub fn pipeline(&self) -> &PipelineTiming {
        &self.pipeline
    }

    /// Runs one inference through the cascade.
    ///
    /// Hidden tiles drain their request registers and fire; the output tile
    /// is read out as membrane potentials plus the converted biases, exactly
    /// reproducing the BNN logits (see `esam_nn::convert`).
    ///
    /// This is the serving/batch hot path: it does **not** clone the
    /// inter-tile spike frames. Use [`infer_traced`](Self::infer_traced)
    /// when the per-layer frames are needed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for a wrong input width.
    pub fn infer(&mut self, input: &BitVec) -> Result<InferenceResult, CoreError> {
        self.infer_frame(input, None)
    }

    /// Runs one inference and attributes its modeled cycles to per-layer
    /// spans on the scope's track.
    ///
    /// The inference itself is *exactly* [`infer`](Self::infer) — the
    /// cascade walk is untouched, so the result is bit-identical at any
    /// scope state (pinned by `tests/trace_equivalence.rs`). Attribution
    /// happens post-hoc from the result's
    /// [`per_tile_cycles`](InferenceResult::per_tile_cycles): their sum is
    /// [`total_cycles`](InferenceResult::total_cycles), so the `layer`
    /// spans tile the frame's cycle interval exactly, advancing the
    /// track's cursor by the frame's full latency. Every recorded event is
    /// `Copy` into the track's preallocated ring, so the hot path stays
    /// allocation-free with tracing *on*; with [`TraceScope::Off`] the
    /// whole addition is one branch. The function is `#[inline]` so that
    /// branch folds away in another crate too: a caller passing `Off`
    /// compiles to the same code as one calling `infer`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for a wrong input width.
    #[inline]
    pub fn infer_scoped(
        &mut self,
        input: &BitVec,
        scope: &mut TraceScope<'_>,
    ) -> Result<InferenceResult, CoreError> {
        let result = self.infer(input)?;
        if let TraceScope::On(track) = scope {
            for (layer, &cycles) in result.per_tile_cycles.iter().enumerate() {
                track.span("layer", cycles, [Some(("layer", layer as u64)), None]);
            }
        }
        Ok(result)
    }

    /// Runs one inference and additionally captures the spike frame that
    /// entered each tile (`layer_inputs[0]` is the input itself).
    ///
    /// The inference outcome is bit-identical to [`infer`](Self::infer) on
    /// the same frame; only the trace capture (one clone per inter-tile
    /// frame) is added. Equivalence tests and examples live here; the
    /// serving and learning paths never pay for it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for a wrong input width.
    pub fn infer_traced(&mut self, input: &BitVec) -> Result<TracedInference, CoreError> {
        let mut layer_inputs = Vec::with_capacity(self.tiles.len());
        let result = self.infer_frame(input, Some(&mut layer_inputs))?;
        Ok(TracedInference {
            result,
            layer_inputs,
        })
    }

    /// [`walk_frame`] over the whole cascade, read out as a result — the
    /// path behind [`infer`](Self::infer) and
    /// [`infer_traced`](Self::infer_traced).
    fn infer_frame(
        &mut self,
        input: &BitVec,
        layer_inputs: Option<&mut Vec<BitVec>>,
    ) -> Result<InferenceResult, CoreError> {
        // Under the frame kernel the result's four buffers (spikes,
        // cycles, membranes, logits) are all a frame allocates.
        let classes = self.tiles.last().map_or(0, Tile::outputs);
        let mut output_spikes = BitVec::new(classes);
        let mut per_tile_cycles = Vec::with_capacity(self.tiles.len());
        let mut membranes = Vec::with_capacity(classes);
        walk_frame(
            &mut self.tiles,
            input,
            &mut output_spikes,
            &mut per_tile_cycles,
            Some(&mut membranes),
            layer_inputs,
        )?;
        Ok(InferenceResult::from_readout(
            membranes,
            &self.output_bias,
            output_spikes,
            per_tile_cycles,
        ))
    }

    /// Installs a fault plan on this system.
    ///
    /// Stuck-at faults are **materialized once, here**: every weight bit
    /// the plan pins is forced to its stuck value in the SRAM arrays, so
    /// the word-parallel hot path pays nothing per inference for them.
    /// Installing a new plan (including [`FaultPlan::none`]) first reverts
    /// the previous plan's materialization, restoring the original weights
    /// exactly (flips are involutive). Transient faults (weight/membrane
    /// flips) take effect in [`infer_checked`](Self::infer_checked);
    /// serve-/mesh-domain rates are carried but injected by those layers.
    ///
    /// Install the plan **before** cloning worker systems so every clone
    /// shares the same stuck-at weights and plan.
    ///
    /// # Errors
    ///
    /// Propagates SRAM bounds errors (impossible for in-range topologies).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), CoreError> {
        // Revert the previous plan's materialized stuck bits.
        for index in 0..self.stuck_flips.len() {
            let (layer, input, output) = self.stuck_flips[index];
            self.tiles[layer].toggle_weight_bit(input, output)?;
        }
        self.stuck_flips.clear();
        self.stuck_bits = 0;
        self.faults = plan;
        self.fault_tally = FaultTally::default();
        if plan.stuck_active() {
            for layer in 0..self.tiles.len() {
                let (inputs, outputs) = (self.tiles[layer].inputs(), self.tiles[layer].outputs());
                for input in 0..inputs {
                    for output in 0..outputs {
                        let Some(value) =
                            plan.stuck_site(layer as u64, input as u64, output as u64)
                        else {
                            continue;
                        };
                        self.stuck_bits += 1;
                        if self.tiles[layer].weight_bit(input, output) != value {
                            self.tiles[layer].toggle_weight_bit(input, output)?;
                            self.stuck_flips.push((layer, input, output));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The installed fault plan ([`FaultPlan::none`] unless
    /// [`set_fault_plan`](Self::set_fault_plan) was called).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// SRAM-domain injection counters accumulated since the last stats
    /// reset.
    pub fn fault_tally(&self) -> &FaultTally {
        &self.fault_tally
    }

    /// Number of weight bits the current plan pins to a stuck value
    /// (a property of the installed plan, not reset with the activity
    /// counters).
    pub fn stuck_bits(&self) -> u64 {
        self.stuck_bits
    }

    /// Toggles every weight bit the plan flips for `frame_id` and returns
    /// the flip count. Involutive: calling it a second time with the same
    /// `frame_id` restores the weights exactly — which is how
    /// [`infer_checked`](Self::infer_checked) reverts a frame's transient
    /// faults when integrity checking is off.
    fn toggle_frame_flips(&mut self, frame_id: u64) -> Result<u64, CoreError> {
        let mut flips = 0u64;
        for layer in 0..self.tiles.len() {
            let (inputs, outputs) = (self.tiles[layer].inputs(), self.tiles[layer].outputs());
            for input in 0..inputs {
                for output in 0..outputs {
                    if self
                        .faults
                        .weight_flip(frame_id, layer as u64, input as u64, output as u64)
                    {
                        self.tiles[layer].toggle_weight_bit(input, output)?;
                        flips += 1;
                    }
                }
            }
        }
        Ok(flips)
    }

    /// Applies the plan's membrane-word upsets for `frame_id` to a
    /// finished result: low-bit flips on the readout registers, logits and
    /// prediction re-read when anything struck.
    fn apply_membrane_upsets(
        &mut self,
        mut result: InferenceResult,
        frame_id: u64,
    ) -> InferenceResult {
        if self.faults.config().membrane_flip_rate() > 0.0 {
            let mut upset = false;
            for (neuron, membrane) in result.membranes.iter_mut().enumerate() {
                if self.faults.membrane_flip(frame_id, neuron as u64) {
                    *membrane ^= 1;
                    self.fault_tally.membrane_flips += 1;
                    upset = true;
                }
            }
            if upset {
                result = InferenceResult::from_readout(
                    result.membranes,
                    &self.output_bias,
                    result.output_spikes,
                    result.per_tile_cycles,
                );
            }
        }
        result
    }

    /// The integrity mode in effect on this system's weight reads.
    pub fn integrity_mode(&self) -> IntegrityMode {
        self.integrity
    }

    /// Switches the integrity mode on every tile (see
    /// [`Tile::set_integrity_mode`]): [`Detect`](IntegrityMode::Detect) /
    /// [`Correct`](IntegrityMode::Correct) encode SECDED
    /// codewords from the current weights and capture the golden off-chip
    /// image the scrub pass reloads from.
    ///
    /// Enable **after** [`set_fault_plan`](Self::set_fault_plan) when
    /// stuck-at faults are active: the plan materializes stuck bits into
    /// the weights, and enabling afterwards folds them into the codewords
    /// and golden image (a stuck cell is part of the fabricated array, not
    /// a transient upset for scrub to undo). Enable **before** cloning
    /// worker systems so clones share codewords and golden image.
    pub fn set_integrity_mode(&mut self, mode: IntegrityMode) {
        self.integrity = mode;
        for tile in &mut self.tiles {
            tile.set_integrity_mode(mode);
        }
    }

    /// Integrity event counters accumulated since the last stats reset,
    /// summed over tiles.
    pub fn integrity_tally(&self) -> IntegrityTally {
        let mut total = IntegrityTally::default();
        for tile in &self.tiles {
            total.merge(tile.integrity_tally());
        }
        total
    }

    /// Runs one inference under the installed fault plan's *transient*
    /// SRAM faults: the plan's weight-bit flips for `frame_id` are toggled
    /// into the array, the frame runs through the ordinary word-parallel
    /// walk, and the store is restored by the integrity mode in effect:
    ///
    /// * [`Off`] — no self-checking exists, so the flips are toggled back
    ///   out by the oracle (exact restore; the unprotected baseline the
    ///   integrity experiment compares against);
    /// * [`Detect`] — reads are checked and counted but delivered raw; the
    ///   post-frame scrub restores drifted rows so frames stay independent;
    /// * [`Correct`] — every weight read carries a SECDED syndrome check
    ///   that repairs single-bit rows in the delivered data, and the
    ///   post-frame scrub heals the store (golden reload for uncorrectable
    ///   rows, silent-corruption audit).
    ///
    /// Membrane-word upsets are then applied to the output neurons
    /// (low-bit flip, logits and prediction re-read; `output_spikes` keeps
    /// the pre-upset firing — the upset models a readout-register strike
    /// after the compare, downstream of the protected SRAM).
    ///
    /// `frame_id` is the fault coordinate: callers use a stable global
    /// index (batch position, request id) so fault sites are independent
    /// of chunking, thread count or arrival order. Because the store is
    /// restored after every frame, frames are independent and the
    /// [`IntegrityTally`] is a deterministic function of (seed, frame ids)
    /// — identical at any thread or core count. With no transient faults
    /// active this is exactly [`infer`](Self::infer) — no toggling, no
    /// re-read, zero cost.
    ///
    /// [`Correct`]: IntegrityMode::Correct
    /// [`Detect`]: IntegrityMode::Detect
    /// [`Off`]: IntegrityMode::Off
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for a wrong input width.
    pub fn infer_checked(
        &mut self,
        input: &BitVec,
        frame_id: u64,
    ) -> Result<InferenceResult, CoreError> {
        if !self.faults.transient_active() {
            return self.infer(input);
        }
        let flips = self.toggle_frame_flips(frame_id)?;
        let outcome = self.infer(input);
        // Restore the store before error propagation, so a failed
        // inference cannot leave corruption behind.
        if self.integrity.checks() {
            // No oracle toggle-out: the scrub pass (ECC heal + golden
            // reload + audit) is the only thing restoring the store.
            for tile in &mut self.tiles {
                tile.scrub_audited()?;
            }
        } else {
            self.toggle_frame_flips(frame_id)?;
        }
        let result = outcome?;
        self.fault_tally.weight_flips += flips;
        Ok(self.apply_membrane_upsets(result, frame_id))
    }

    /// Closes the online-learning loop for one labelled sample: infer,
    /// derive teacher signals from the observed output spike frame, and
    /// apply the signalled column updates to the *output* tile through the
    /// learning engine (transposed port on multiport cells, row-wise RMW on
    /// the 6T baseline).
    ///
    /// The observed frame is the output tile's fired spikes with the
    /// readout winner (argmax of the logits) counted as fired too — the
    /// emitted decision *is* an observation, which lets depression correct
    /// a wrong winner even when no output neuron crossed its threshold. A
    /// correct, unambiguous sample derives no signals and costs nothing.
    ///
    /// The functional weight trajectory depends only on the rule, the
    /// engine's RNG stream and the sample sequence — not on the bitcell —
    /// so multiport and 6T systems taught identically stay bit-identical in
    /// weights and differ only in [`SampleOutcome::cost`].
    ///
    /// In steady state (the engine's buffers sized, the weights not shared
    /// with a clone) a sample allocates [`infer`](Self::infer)'s result and
    /// the teacher-signal list when it is non-empty, nothing else: the
    /// output spikes become the observed frame, and the pre-synaptic frame
    /// is read where the cascade walk keeps it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an out-of-range label and
    /// propagates inference/teaching errors.
    pub fn learn_sample(
        &mut self,
        engine: &mut OnlineLearningEngine,
        frame: &BitVec,
        label: usize,
    ) -> Result<SampleOutcome, CoreError> {
        let classes = self.output_bias.len();
        if label >= classes {
            return Err(CoreError::InvalidConfig(format!(
                "label {label} out of range for {classes} output classes"
            )));
        }
        let result = self.infer(frame)?;
        let prediction = result.prediction;
        let bottleneck_cycles = result.bottleneck_cycles();
        let total_cycles = result.total_cycles();
        let mut observed = result.output_spikes;
        observed.set(prediction, true);
        let signals = derive_teacher_signals(&observed, label);
        // The output tile learns from the frame that entered it: the one the
        // tile before it fired last, which the walk keeps there, or the
        // input itself on a one-tile system.
        let clock = self.pipeline.clock_period();
        let (output, upstream) = self
            .tiles
            .split_last_mut()
            .expect("a successful inference walked at least one tile");
        let pre_spikes = upstream.last().map_or(frame, Tile::fired);
        let mut cost = LearningCost::default();
        for &(neuron, signal) in &signals {
            cost += engine.teach(output, clock, pre_spikes, neuron, signal)?;
        }
        Ok(SampleOutcome {
            prediction,
            label,
            correct: prediction == label,
            updates: signals.len(),
            cost,
            bottleneck_cycles,
            total_cycles,
        })
    }

    /// Resets all activity counters, including the SRAM-domain fault
    /// tally (weights, state and the installed fault plan are untouched).
    pub fn reset_stats(&mut self) {
        for tile in &mut self.tiles {
            tile.reset_stats();
        }
        self.fault_tally = FaultTally::default();
    }

    /// Dynamic energy accumulated since the last stats reset.
    ///
    /// # Errors
    ///
    /// Propagates SRAM energy-model errors.
    pub fn accumulated_energy(&self) -> Result<Joules, CoreError> {
        let mut total = Joules::ZERO;
        for tile in &self.tiles {
            total += tile.dynamic_energy()?;
        }
        Ok(total)
    }

    /// Dynamic energy of *learning* traffic only, since the last stats
    /// reset: the in-array counters are advanced solely by the learning
    /// engine's transposed/row-wise accesses (inference reads count in the
    /// tiles' per-clone mirrors), so their energy is exactly the training
    /// share of [`accumulated_energy`](Self::accumulated_energy).
    ///
    /// # Errors
    ///
    /// Propagates SRAM energy-model errors.
    pub fn learning_energy(&self) -> Result<Joules, CoreError> {
        let mut total = Joules::ZERO;
        for tile in &self.tiles {
            for array in tile.arrays() {
                total += array.energy_for_stats(array.stats())?;
            }
        }
        Ok(total)
    }

    /// Static leakage power of the whole system.
    pub fn leakage_power(&self) -> Watts {
        self.tiles.iter().map(|t| t.leakage_power()).sum()
    }

    /// Total silicon area.
    pub fn area(&self) -> AreaUm2 {
        self.tiles.iter().map(|t| t.area()).sum()
    }

    /// Runs a batch of frames and derives the Fig. 8 / Table 3 metrics:
    /// pipelined throughput from the average bottleneck-tile cycle count,
    /// dynamic energy per inference from the spike-by-spike counters, and
    /// power as `E/inf × throughput + leakage`.
    ///
    /// This is the sequential reference path; it shares its accumulation
    /// (`run_frames`) and finalization (`finalize_metrics`) with the
    /// parallel engine, which is why [`BatchEngine::measure`] is
    /// bit-identical to it at any thread count.
    ///
    /// [`BatchEngine::measure`]: crate::BatchEngine::measure
    ///
    /// # Errors
    ///
    /// Propagates inference errors; returns
    /// [`CoreError::InvalidConfig`] for an empty batch.
    pub fn measure_batch(&mut self, frames: &[BitVec]) -> Result<SystemMetrics, CoreError> {
        if frames.is_empty() {
            return Err(CoreError::InvalidConfig(
                "metrics need at least one frame".into(),
            ));
        }
        self.reset_stats();
        let tally = self.run_frames(frames)?;
        self.finalize_metrics(&tally)
    }

    /// Accumulation core shared by the sequential and parallel paths: runs
    /// every frame, tallying cycle counts (activity counters accumulate in
    /// the tiles as a side effect of [`infer`](Self::infer)).
    ///
    /// # Errors
    ///
    /// Propagates per-frame inference errors.
    pub(crate) fn run_frames(&mut self, frames: &[BitVec]) -> Result<BatchTally, CoreError> {
        let mut tally = BatchTally::default();
        for frame in frames {
            let result = self.infer(frame)?;
            tally.record(&result);
        }
        Ok(tally)
    }

    /// Whether the batch-major bit-sliced block path reproduces the
    /// sequential walk bit for bit from this system's *current* state:
    /// every tile is [`block_ready`](Tile::block_ready), and no per-frame
    /// hook is needed. Transient faults are per-frame and integrity checks
    /// are per-read, while the block path reads raw packed words once per
    /// block — so either takes the sequential walk. Stuck-at faults live in
    /// the weights themselves and keep the block path (and its exactness).
    ///
    /// Consulted by [`infer_block`](Self::infer_block).
    fn block_path_eligible(&self) -> bool {
        !self.faults.transient_active()
            && !self.integrity.checks()
            && self.tiles.iter().all(Tile::block_ready)
    }

    /// Runs a batch of frames through the batch-major bit-sliced path:
    /// frames are transposed into [`FrameBlock`]s of up to 64 lanes (the
    /// last block carries the ragged tail) and each tile advances every
    /// lane at once ([`Tile::step_block`]).
    ///
    /// Results — predictions, logits, membranes, output spikes, per-tile
    /// cycle counts *and every activity counter* — are bit-identical to
    /// looping [`infer`](Self::infer) over the same frames in order
    /// (property-tested in `tests/bitslice_equivalence.rs`). When the
    /// system state or configuration rules the block path out (a tile that
    /// is not [`block_ready`](Tile::block_ready), planned transient faults
    /// or integrity checking), the frames run through the sequential walk
    /// instead, so the call is *always* exact.
    ///
    /// An empty slice yields an empty result vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when any frame has the
    /// wrong width.
    pub fn infer_block(&mut self, frames: &[BitVec]) -> Result<Vec<InferenceResult>, CoreError> {
        let expected = self.config.topology()[0];
        for frame in frames {
            if frame.len() != expected {
                return Err(CoreError::InputWidthMismatch {
                    expected,
                    got: frame.len(),
                });
            }
        }
        if !self.block_path_eligible() {
            return frames.iter().map(|frame| self.infer(frame)).collect();
        }
        let mut results = Vec::with_capacity(frames.len());
        for chunk in frames.chunks(FrameBlock::LANES) {
            self.infer_block_chunk(chunk, &mut results)?;
        }
        Ok(results)
    }

    /// [`infer_block`](Self::infer_block) with per-layer cycle
    /// attribution for each executed block.
    ///
    /// Under batch-major execution all lanes of a block advance in
    /// lockstep through the bit-sliced tile, so a layer's occupancy for
    /// the block is the **maximum** over its lanes' per-layer cycle
    /// counts; blocks execute back to back, so each block contributes one
    /// `layer-block` span per layer (lane count attached) and the cursor
    /// advances by the block's summed per-layer maxima. Results are
    /// bit-identical to [`infer_block`](Self::infer_block) — the
    /// execution path is shared and attribution is post-hoc.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when any frame has the
    /// wrong width.
    pub fn infer_block_scoped(
        &mut self,
        frames: &[BitVec],
        scope: &mut TraceScope<'_>,
    ) -> Result<Vec<InferenceResult>, CoreError> {
        let results = self.infer_block(frames)?;
        if let TraceScope::On(track) = scope {
            let layers = self.tiles.len();
            for block in results.chunks(FrameBlock::LANES) {
                for layer in 0..layers {
                    let cycles = block
                        .iter()
                        .map(|r| r.per_tile_cycles[layer])
                        .max()
                        .unwrap_or(0);
                    track.span(
                        "layer-block",
                        cycles,
                        [
                            Some(("layer", layer as u64)),
                            Some(("lanes", block.len() as u64)),
                        ],
                    );
                }
            }
        }
        Ok(results)
    }

    /// Advances one ≤64-lane chunk through the cascade ([`walk_block`])
    /// and reads every lane out as its own result.
    fn infer_block_chunk(
        &mut self,
        frames: &[BitVec],
        results: &mut Vec<InferenceResult>,
    ) -> Result<(), CoreError> {
        let lanes = frames.len();
        let mut cycles = Vec::with_capacity(self.tiles.len() * lanes);
        let mut membranes = Vec::new();
        let fired = walk_block(
            &mut self.tiles,
            &FrameBlock::from_frames(frames),
            &mut cycles,
            Some(&mut membranes),
        )?;
        let classes = self.output_bias.len();
        for (lane, lane_membranes) in membranes.chunks_exact(classes).enumerate() {
            results.push(InferenceResult::from_readout(
                lane_membranes.to_vec(),
                &self.output_bias,
                fired.lane_frame(lane),
                cycles.iter().skip(lane).step_by(lanes).copied().collect(),
            ));
        }
        Ok(())
    }

    /// Finalization core shared by the sequential and parallel paths (and
    /// by external aggregators like the `esam-serve` worker pool): derives
    /// [`SystemMetrics`] from a cycle tally plus this system's accumulated
    /// activity counters. Callers that ran frames on worker clones fold
    /// them in first via [`absorb_stats`](Self::absorb_stats) and
    /// [`BatchTally::merge`].
    ///
    /// # Errors
    ///
    /// Propagates SRAM energy-model errors; returns
    /// [`CoreError::InvalidConfig`] for an empty tally.
    pub fn finalize_metrics(&self, tally: &BatchTally) -> Result<SystemMetrics, CoreError> {
        if tally.frames == 0 {
            return Err(CoreError::InvalidConfig(
                "metrics need at least one frame".into(),
            ));
        }
        let n = tally.frames as f64;
        let bottleneck_cycles = tally.bottleneck_cycles as f64 / n;
        let throughput = self.pipeline.throughput_for_cycles(bottleneck_cycles);
        let energy_per_inf = self.accumulated_energy()? / n;
        // A learning batch is recognizable even when it applied zero
        // updates: only `record_outcome` advances `correct`, and a wrong
        // prediction always derives at least one teacher signal, so a
        // labelled batch has `learning_updates > 0 || correct > 0` while a
        // pure-inference batch has both at zero.
        let learning = if tally.learning_updates == 0 && tally.correct == 0 {
            None
        } else {
            Some(LearningSummary {
                samples: tally.frames,
                updates: tally.learning_updates,
                online_accuracy: tally.correct as f64 / n,
                cost: LearningCost {
                    cycles: tally.learning_cycles,
                    latency: self.pipeline.clock_period() * tally.learning_cycles as f64,
                    energy: self.learning_energy()?,
                    bits_flipped: tally.learning_bits_flipped as usize,
                },
            })
        };
        Ok(SystemMetrics {
            clock: self.pipeline.clock_frequency(),
            bottleneck_cycles,
            throughput_inf_s: throughput,
            latency: self
                .pipeline
                .seconds_for_cycles(tally.latency_cycles as f64 / n),
            energy_per_inf,
            dynamic_power: Watts::new(energy_per_inf.value() * throughput),
            leakage_power: self.leakage_power(),
            area: self.area(),
            learning,
        })
    }

    /// Merges another system's activity counters into this one
    /// (tile-by-tile; see [`Tile::absorb_stats`]).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the two systems have different
    /// topologies.
    pub fn absorb_stats(&mut self, other: &EsamSystem) {
        debug_assert_eq!(self.tiles.len(), other.tiles.len());
        for (mine, theirs) in self.tiles.iter_mut().zip(&other.tiles) {
            mine.absorb_stats(theirs);
        }
        self.fault_tally.merge(&other.fault_tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esam_nn::BnnNetwork;
    use esam_sram::BitcellKind;
    use esam_tech::units::Seconds;
    use rand::RngExt;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_system(cell: BitcellKind) -> (EsamSystem, SnnModel) {
        let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(cell, &[128, 64, 10]).build().unwrap();
        (EsamSystem::from_model(&model, &config).unwrap(), model)
    }

    fn random_frame(width: usize, seed: u64) -> BitVec {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..width).map(|_| rng.random_bool(0.25)).collect()
    }

    #[test]
    fn hardware_matches_golden_model_bit_exactly() {
        for cell in BitcellKind::ALL {
            let (mut system, model) = small_system(cell);
            for seed in 0..25 {
                let input = random_frame(128, seed);
                let traced = system.infer_traced(&input).unwrap();
                let hw = &traced.result;
                let golden = model.forward(&input).unwrap();
                assert_eq!(hw.membranes, golden.membranes, "{cell} seed {seed}");
                assert_eq!(hw.prediction, golden.prediction(), "{cell} seed {seed}");
                // Hidden spike frames match too.
                assert_eq!(
                    traced.layer_inputs[1], golden.spikes[1],
                    "{cell} seed {seed}"
                );
                // The observed output spike frame is the threshold
                // comparison over the golden membranes (the golden model
                // only reads the readout out, it never fires it).
                let thresholds = model.layers().last().unwrap().thresholds();
                for (n, (&membrane, &threshold)) in
                    golden.membranes.iter().zip(thresholds).enumerate()
                {
                    assert_eq!(
                        hw.output_spikes.get(n),
                        membrane >= threshold,
                        "{cell} seed {seed} output neuron {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn topology_mismatch_rejected() {
        let net = BnnNetwork::new(&[128, 64, 10], 1).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::Std6T, &[128, 32, 10])
            .build()
            .unwrap();
        assert!(matches!(
            EsamSystem::from_model(&model, &config),
            Err(CoreError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn multiport_needs_fewer_bottleneck_cycles() {
        let (mut single, _) = small_system(BitcellKind::Std6T);
        let (mut multi, _) = small_system(BitcellKind::multiport(4).unwrap());
        let input = random_frame(128, 3);
        let c1 = single.infer(&input).unwrap().bottleneck_cycles();
        let c4 = multi.infer(&input).unwrap().bottleneck_cycles();
        assert!(
            c4 * 2 < c1,
            "4-port ({c4} cycles) must be far faster than single-port ({c1})"
        );
    }

    #[test]
    fn batch_metrics_are_plausible() {
        let (mut system, _) = small_system(BitcellKind::multiport(4).unwrap());
        let frames: Vec<BitVec> = (0..10).map(|s| random_frame(128, s)).collect();
        let metrics = system.measure_batch(&frames).unwrap();
        assert!(metrics.throughput_inf_s > 1e6);
        assert!(metrics.energy_per_inf.pj() > 1.0);
        assert!(metrics.total_power().mw() > 0.0);
        assert!(metrics.area.value() > 100.0);
        assert!(metrics.latency > Seconds::ZERO);
        assert!(metrics.bottleneck_cycles >= 2.0);
    }

    #[test]
    fn energy_accumulates_across_inferences() {
        let (mut system, _) = small_system(BitcellKind::multiport(2).unwrap());
        system.infer(&random_frame(128, 1)).unwrap();
        let e1 = system.accumulated_energy().unwrap();
        system.infer(&random_frame(128, 2)).unwrap();
        let e2 = system.accumulated_energy().unwrap();
        assert!(e2 > e1);
        system.reset_stats();
        assert!(system.accumulated_energy().unwrap().is_zero());
    }

    #[test]
    fn learn_sample_closes_the_loop() {
        use crate::learning::OnlineLearningEngine;
        use esam_nn::StdpRule;

        let (mut system, _) = small_system(BitcellKind::multiport(4).unwrap());
        let frame = random_frame(128, 9);
        let traced = system.infer_traced(&frame).unwrap();
        let before = &traced.result;
        // Teach toward a label the system neither predicts nor fires for,
        // so the session must emit a ShouldFire for it.
        let label = (0..10)
            .find(|&c| c != before.prediction && !before.output_spikes.get(c))
            .expect("an untrained readout leaves some class silent");
        let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 1.0), 3);
        let outcome = system.learn_sample(&mut engine, &frame, label).unwrap();
        assert_eq!(outcome.prediction, before.prediction);
        assert!(!outcome.correct);
        assert!(outcome.updates >= 1, "a wrong prediction must teach");
        assert!(outcome.cost.cycles > 0);
        assert_eq!(
            outcome.bottleneck_cycles,
            before.bottleneck_cycles(),
            "the triggering inference's cycles are reported"
        );
        // Deterministic potentiation (p = 1) must align the label column
        // with the pre-synaptic frame that entered the output tile.
        let column = system.tiles().last().unwrap().weight_column(label);
        for i in traced.layer_inputs[1].iter_ones() {
            assert!(column.get(i), "active input {i} must be potentiated");
        }
        // Learning energy is the in-array share and is now non-zero.
        assert!(system.learning_energy().unwrap().pj() > 0.0);
    }

    #[test]
    fn learn_sample_is_free_when_correct_and_unambiguous() {
        use crate::learning::OnlineLearningEngine;
        use esam_nn::StdpRule;

        let (mut system, _) = small_system(BitcellKind::multiport(2).unwrap());
        let frame = random_frame(128, 4);
        let prediction = system.infer(&frame).unwrap();
        // Label = prediction and no spurious output spikes → no updates.
        if prediction.output_spikes.count_ones()
            > usize::from(prediction.output_spikes.get(prediction.prediction))
        {
            return; // ambiguous frame under this seed: vacuous
        }
        let mut engine = OnlineLearningEngine::new(StdpRule::paper_default(), 5);
        let outcome = system
            .learn_sample(&mut engine, &frame, prediction.prediction)
            .unwrap();
        assert!(outcome.correct);
        assert_eq!(outcome.updates, 0);
        assert_eq!(outcome.cost, crate::learning::LearningCost::default());
    }

    #[test]
    fn finalize_keeps_the_learning_summary_for_an_all_correct_session() {
        // A labelled batch that needed zero updates (every prediction
        // correct and unambiguous) still finalizes with a learning
        // summary — `None` is reserved for pure-inference batches.
        let (system, _) = small_system(BitcellKind::multiport(2).unwrap());
        let tally = BatchTally {
            frames: 3,
            bottleneck_cycles: 12,
            latency_cycles: 30,
            correct: 3,
            ..BatchTally::default()
        };
        let metrics = system.finalize_metrics(&tally).unwrap();
        let learning = metrics.learning.expect("labelled batch keeps its summary");
        assert_eq!(learning.samples, 3);
        assert_eq!(learning.updates, 0);
        assert!((learning.online_accuracy - 1.0).abs() < 1e-12);
        assert_eq!(learning.cost.cycles, 0);
    }

    #[test]
    fn learn_sample_rejects_bad_label() {
        use crate::learning::OnlineLearningEngine;
        use esam_nn::StdpRule;

        let (mut system, _) = small_system(BitcellKind::Std6T);
        let mut engine = OnlineLearningEngine::new(StdpRule::paper_default(), 1);
        assert!(matches!(
            system.learn_sample(&mut engine, &random_frame(128, 1), 10),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn wrong_input_width_rejected() {
        let (mut system, _) = small_system(BitcellKind::Std6T);
        assert!(matches!(
            system.infer(&BitVec::new(100)),
            Err(CoreError::InputWidthMismatch { .. })
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        let (mut system, _) = small_system(BitcellKind::Std6T);
        assert!(system.measure_batch(&[]).is_err());
    }
}
