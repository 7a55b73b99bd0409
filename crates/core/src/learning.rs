//! On-chip online learning through the transposed port (§4.4.1).
//!
//! Learning updates the weight column of a post-synaptic neuron. With
//! transposed access this costs `2 × mux` clock cycles per 128-row block
//! (4 read + 4 write cycles in the paper); without it, the 6T baseline must
//! read-modify-write every row of the array: `2 × 128` cycles. The engine
//! performs the *functional* update with the stochastic 1-bit STDP rule of
//! `esam_nn::stdp` and reports the exact cycle/time/energy cost from the
//! arrays' access counters.
//!
//! Two layers sit on top of the per-column [`OnlineLearningEngine`], and
//! together they are the system's one way to learn:
//!
//! * [`EsamSystem::learn_sample`] closes the loop for one labelled sample —
//!   infer, derive teacher signals from the observed output spike frame
//!   ([`esam_nn::derive_teacher_signals`]), update the signalled output
//!   columns through the transposed port;
//! * [`OnlineSession`] streams many samples, one at a time, accumulating a
//!   [`LearningTally`], a [`BatchTally`] and an accuracy-over-samples
//!   [`LearningCurve`], and finalizes them into [`SystemMetrics`] whose
//!   `learning` summary folds the training cost in.
//!
//! Under checked integrity ([`IntegrityMode::Detect`] /
//! [`IntegrityMode::Correct`]) a learning write also updates the tile's
//! golden image, so the scrub after a checked frame keeps what was learned
//! instead of reloading the pre-learning weights.
//!
//! The functional trajectory is *cell-independent*: the same rule and seed
//! produce bit-identical weights on multiport and 6T tiles — the cells
//! differ only in what each update costs (the functional/cost split §4.4.1
//! relies on, property-tested in `tests/learning_equivalence.rs`, which
//! also pins whole digit-stream trajectories to recorded constants).
//!
//! # Cost of an update on the host
//!
//! An update costs what its words cost:
//!
//! * per row group, the column is copied into an engine-owned buffer
//!   ([`SramArray::transposed_read_into`]) and the rule updates it in place,
//!   one 64-bit word at a time, drawing in ascending bit order;
//! * the transposed write flips the row-major store only in the rows it
//!   changes;
//! * the before/after energy reads weigh the counters with per-access
//!   energies each array evaluated once, at construction;
//! * [`EsamSystem::learn_sample`] teaches from the frame that entered the
//!   output tile, which the cascade walk keeps in the tile before it (the
//!   input itself on a one-tile system), so no layer frame is cloned.
//!
//! The 6T baseline runs the same in-place update on a copy of its column
//! view, then its counted per-row read-modify-write through
//! [`SramArray::rowwise_read_into`] and [`SramArray::rowwise_write`].
//!
//! [`SramArray::transposed_read_into`]: esam_sram::SramArray::transposed_read_into
//! [`SramArray::rowwise_read_into`]: esam_sram::SramArray::rowwise_read_into
//! [`SramArray::rowwise_write`]: esam_sram::SramArray::rowwise_write
//! [`IntegrityMode::Detect`]: esam_sram::IntegrityMode::Detect
//! [`IntegrityMode::Correct`]: esam_sram::IntegrityMode::Correct

use std::iter::Sum;
use std::ops::{Add, AddAssign};

use esam_bits::BitVec;
use esam_fault::FaultPlan;
use esam_nn::{RunningAccuracy, StdpRule, TeacherSignal};
use esam_tech::units::{Joules, Seconds};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::ARRAY_DIM;
use crate::error::CoreError;
use crate::metrics::{BatchTally, LearningTally, SystemMetrics};
use crate::system::EsamSystem;
use crate::tile::Tile;

/// Cost of one learning operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LearningCost {
    /// SRAM access cycles consumed.
    pub cycles: u64,
    /// Wall-clock time at the system clock.
    pub latency: Seconds,
    /// Dynamic energy of the SRAM accesses.
    pub energy: Joules,
    /// Weight bits actually flipped.
    pub bits_flipped: usize,
}

impl AddAssign for LearningCost {
    fn add_assign(&mut self, rhs: Self) {
        self.cycles += rhs.cycles;
        self.latency += rhs.latency;
        self.energy += rhs.energy;
        self.bits_flipped += rhs.bits_flipped;
    }
}

impl Add for LearningCost {
    type Output = Self;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl Sum for LearningCost {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), Add::add)
    }
}

/// Online-learning engine: applies teacher-driven stochastic STDP updates to
/// a tile's weight columns and accounts for the memory-access cost.
///
/// The engine owns the buffers an update works in, sized on first use, so
/// a steady-state [`teach`](Self::teach) allocates nothing.
#[derive(Debug, Clone)]
pub struct OnlineLearningEngine {
    rule: StdpRule,
    rng: ChaCha8Rng,
    /// One row group's slice of the pre-synaptic frame.
    pre: BitVec,
    /// One row group's weight column, updated in place.
    column: BitVec,
    /// One array row: the 6T baseline's read-modify-write buffer.
    row: BitVec,
}

impl OnlineLearningEngine {
    /// Creates an engine with the given rule and RNG seed.
    pub fn new(rule: StdpRule, seed: u64) -> Self {
        Self {
            rule,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pre: BitVec::default(),
            column: BitVec::default(),
            row: BitVec::default(),
        }
    }

    /// The STDP rule in use.
    pub fn rule(&self) -> &StdpRule {
        &self.rule
    }

    /// Updates the weight column of `neuron` in `tile` according to the
    /// teacher signal, given the pre-synaptic spike frame that triggered
    /// learning. Returns the exact access cost.
    ///
    /// Transposable (multiport) tiles read+write the column through the
    /// transposed port; the 6T baseline falls back to row-wise
    /// read-modify-write of every row that must change (costed as the full
    /// `2 × rows` sweep the paper describes, since the row data must be read
    /// to be merged). Both run the same word-level update
    /// ([`StdpRule::update_column_in_place`]) on one row group's column at
    /// a time, drawing in ascending row order, so the cells learn the same
    /// bits. Under checked integrity each written column also goes into the
    /// tile's golden image, so the next scrub keeps it.
    ///
    /// # Errors
    ///
    /// Propagates SRAM access errors; `neuron` must be within the tile's
    /// outputs.
    pub fn teach(
        &mut self,
        tile: &mut Tile,
        clock_period: Seconds,
        pre_spikes: &BitVec,
        neuron: usize,
        signal: TeacherSignal,
    ) -> Result<LearningCost, CoreError> {
        self.teach_around(tile, clock_period, pre_spikes, neuron, signal, None)
    }

    /// [`teach`](Self::teach) around the stuck-at cells `stuck` pins in the
    /// tile: after the rule updates a row group's column and before the
    /// column is written, every stuck cell in it is set back to its stuck
    /// value, so the write (and, under checked integrity, the codewords
    /// and the golden image) keeps it. `bits_flipped` counts only cells
    /// whose stored value changed.
    pub(crate) fn teach_around(
        &mut self,
        tile: &mut Tile,
        clock_period: Seconds,
        pre_spikes: &BitVec,
        neuron: usize,
        signal: TeacherSignal,
        stuck: Option<StuckCells<'_>>,
    ) -> Result<LearningCost, CoreError> {
        if neuron >= tile.outputs() {
            return Err(CoreError::InvalidConfig(format!(
                "neuron {neuron} out of range for a {}-output tile",
                tile.outputs()
            )));
        }
        if pre_spikes.len() != tile.inputs() {
            return Err(CoreError::InputWidthMismatch {
                expected: tile.inputs(),
                got: pre_spikes.len(),
            });
        }
        let col_group = neuron / ARRAY_DIM;
        let local_col = neuron % ARRAY_DIM;
        let transposable = tile.arrays()[0].config().cell().is_transposable();

        let mut cycles_before = 0u64;
        let mut energy_before = Joules::ZERO;
        for array in tile.arrays() {
            let stats = array.stats();
            cycles_before += stats.rw_read_cycles + stats.rw_write_cycles;
            energy_before += array.consumed_energy()?;
        }

        let mut bits_flipped = 0usize;
        let row_groups = tile.row_groups();
        for rg in 0..row_groups {
            let offset = rg * ARRAY_DIM;
            let rows = (tile.inputs() - offset).min(ARRAY_DIM);
            // Slice of the pre-synaptic frame feeding this block
            // (word-aligned extraction: `offset` is a multiple of 128).
            self.pre.reset(rows);
            self.pre.or_window_of(pre_spikes, offset);
            self.column.reset(rows);
            let array = tile.array_mut(rg, col_group);
            // Both cells update the column in one buffer: multiport reads it
            // through the transposed port, the 6T baseline copies its column
            // view and pays for the row-wise RMW below.
            if transposable {
                array.transposed_read_into(local_col, &mut self.column)?;
            } else {
                self.column
                    .words_mut()
                    .copy_from_slice(array.column_words(local_col));
            }
            bits_flipped += self.rule.update_column_in_place(
                &mut self.column,
                &self.pre,
                signal,
                &mut self.rng,
            )?;
            if let Some(stuck) = stuck {
                let (layer, output) = (stuck.layer as u64, neuron as u64);
                for row in 0..rows {
                    let input = (offset + row) as u64;
                    let Some(value) = stuck.plan.stuck_site(layer, input, output) else {
                        continue;
                    };
                    let stored = array.bits().get(row, local_col);
                    bits_flipped -= usize::from(self.column.get(row) != stored);
                    bits_flipped += usize::from(value != stored);
                    self.column.set(row, value);
                }
            }
            if transposable {
                array.transposed_write(local_col, &self.column)?;
            } else {
                // 6T baseline: RMW every row of the block (§4.4.1's 2×128).
                self.row.reset(array.config().cols());
                for row in 0..rows {
                    array.rowwise_read_into(row, &mut self.row)?;
                    self.row.set(local_col, self.column.get(row));
                    array.rowwise_write(row, &self.row)?;
                }
            }
        }
        tile.refresh_golden_column(neuron);

        let mut cycles_after = 0u64;
        let mut energy_after = Joules::ZERO;
        for array in tile.arrays() {
            let stats = array.stats();
            cycles_after += stats.rw_read_cycles + stats.rw_write_cycles;
            energy_after += array.consumed_energy()?;
        }
        let cycles = cycles_after - cycles_before;
        Ok(LearningCost {
            cycles,
            latency: clock_period * cycles as f64,
            energy: energy_after - energy_before,
            bits_flipped,
        })
    }

    /// Convenience wrapper: teaches a neuron of layer `layer` inside a full
    /// system, using the system's clock and keeping the stuck-at cells its
    /// installed fault plan pins (see
    /// [`EsamSystem::set_fault_plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `layer` is not a tile of
    /// the system, before any state changes; otherwise the conditions of
    /// [`teach`](Self::teach).
    pub fn teach_system(
        &mut self,
        system: &mut EsamSystem,
        layer: usize,
        pre_spikes: &BitVec,
        neuron: usize,
        signal: TeacherSignal,
    ) -> Result<LearningCost, CoreError> {
        let tiles = system.tiles().len();
        if layer >= tiles {
            return Err(CoreError::InvalidConfig(format!(
                "layer {layer} out of range for a {tiles}-tile system"
            )));
        }
        let plan = *system.fault_plan();
        let clock = system.pipeline().clock_period();
        let stuck = StuckCells::of(&plan, layer);
        let tile = system.tile_mut(layer);
        self.teach_around(tile, clock, pre_spikes, neuron, signal, stuck)
    }
}

/// The stuck-at cells of one tile that a learning write keeps: the
/// installed fault plan and the tile's layer index in it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StuckCells<'p> {
    plan: &'p FaultPlan,
    layer: usize,
}

impl<'p> StuckCells<'p> {
    /// Tile `layer`'s stuck-at cells under `plan`; `None` when the plan
    /// pins none, so a write without faults skips the check.
    pub(crate) fn of(plan: &'p FaultPlan, layer: usize) -> Option<Self> {
        plan.stuck_active().then_some(Self { plan, layer })
    }
}

/// What one labelled sample did to the system: the inference verdict plus
/// the learning activity its teacher signals triggered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleOutcome {
    /// The system's prediction *before* any weight update.
    pub prediction: usize,
    /// The supervising label.
    pub label: usize,
    /// Whether the pre-update prediction matched the label.
    pub correct: bool,
    /// Output columns taught (0 for a correct, unambiguous frame).
    pub updates: usize,
    /// Exact access cost of those updates.
    pub cost: LearningCost,
    /// Bottleneck-tile cycles of the triggering inference.
    pub bottleneck_cycles: u64,
    /// Whole-cascade cycles of the triggering inference.
    pub total_cycles: u64,
}

/// An accuracy-over-samples learning curve.
///
/// Every `interval` samples a [`CurvePoint`] snapshots the *cumulative*
/// `(samples, correct)` counts.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningCurve {
    interval: u64,
    running: RunningAccuracy,
    points: Vec<CurvePoint>,
}

/// One checkpoint of a [`LearningCurve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurvePoint {
    /// Cumulative samples observed at this checkpoint.
    pub samples: u64,
    /// Cumulative correct (pre-update) predictions at this checkpoint.
    pub correct: u64,
}

impl CurvePoint {
    /// Cumulative accuracy at this checkpoint.
    pub fn accuracy(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.correct as f64 / self.samples as f64
    }
}

impl LearningCurve {
    /// Default checkpoint spacing.
    pub const DEFAULT_INTERVAL: u64 = 25;

    /// Creates an empty curve that checkpoints every `interval` samples
    /// (clamped to at least 1).
    pub fn new(interval: u64) -> Self {
        Self {
            interval: interval.max(1),
            running: RunningAccuracy::new(),
            points: Vec::new(),
        }
    }

    /// Records one prediction outcome, snapshotting a point on interval
    /// boundaries.
    pub fn record(&mut self, correct: bool) {
        self.running.record(correct);
        if self.running.seen().is_multiple_of(self.interval) {
            self.points.push(CurvePoint {
                samples: self.running.seen(),
                correct: self.running.correct(),
            });
        }
    }

    /// The checkpoint spacing.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The checkpoints recorded so far.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Cumulative accuracy over everything recorded (including samples past
    /// the last checkpoint).
    pub fn final_accuracy(&self) -> f64 {
        self.running.accuracy()
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.running.seen()
    }
}

/// A streaming online-learning session over one [`EsamSystem`]: the
/// system-level workload §4.4 costs per column, closed into an actual
/// learning loop.
///
/// Feed labelled samples through [`learn_sample`](Self::learn_sample) (or a
/// whole stream through [`run_stream`](Self::run_stream)); the session runs
/// infer → teacher derivation → transposed-port STDP for each, and
/// accumulates the learning tally, the inference cycle tally and the
/// accuracy-over-samples curve. [`finalize_metrics`](Self::finalize_metrics)
/// folds everything into [`SystemMetrics`] with a populated `learning`
/// summary.
///
/// # Examples
///
/// ```
/// use esam_core::{EsamSystem, OnlineSession, SystemConfig};
/// use esam_nn::{BnnNetwork, Dataset, DigitsConfig, SnnModel, StdpRule};
/// use esam_sram::BitcellKind;
///
/// let data = Dataset::generate(&DigitsConfig {
///     train_count: 30, test_count: 5, ..DigitsConfig::default()
/// })?;
/// let net = BnnNetwork::new(&[768, 10], 3)?;
/// let model = SnnModel::from_bnn(&net)?;
/// let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[768, 10]).build()?;
/// let mut system = EsamSystem::from_model(&model, &config)?;
///
/// let mut session = OnlineSession::new(&mut system, StdpRule::new(0.25, 0.05), 7);
/// session.run_stream(data.train.stream(1))?;
/// let metrics = session.finalize_metrics()?;
/// let learning = metrics.learning.expect("a learning batch");
/// assert_eq!(learning.samples, 30);
/// assert!(learning.cost.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OnlineSession<'s> {
    system: &'s mut EsamSystem,
    engine: OnlineLearningEngine,
    tally: LearningTally,
    batch: BatchTally,
    curve: LearningCurve,
}

impl<'s> OnlineSession<'s> {
    /// Starts a session applying `rule` with a ChaCha stream seeded by
    /// `seed`, teaching the system's output layer. Resets the system's
    /// activity counters so the finalized metrics cover exactly this
    /// session.
    pub fn new(system: &'s mut EsamSystem, rule: StdpRule, seed: u64) -> Self {
        Self::with_curve_interval(system, rule, seed, LearningCurve::DEFAULT_INTERVAL)
    }

    /// Like [`new`](Self::new) with an explicit curve checkpoint interval
    /// (clamped to at least 1; see [`LearningCurve::new`]).
    pub fn with_curve_interval(
        system: &'s mut EsamSystem,
        rule: StdpRule,
        seed: u64,
        curve_interval: u64,
    ) -> Self {
        system.reset_stats();
        Self {
            system,
            engine: OnlineLearningEngine::new(rule, seed),
            tally: LearningTally::default(),
            batch: BatchTally::default(),
            curve: LearningCurve::new(curve_interval),
        }
    }

    /// Learns from one labelled sample (see [`EsamSystem::learn_sample`])
    /// and folds the outcome into the session's tallies and curve.
    ///
    /// # Errors
    ///
    /// Propagates inference/teaching errors; the label must be a valid
    /// output class.
    pub fn learn_sample(
        &mut self,
        frame: &BitVec,
        label: usize,
    ) -> Result<SampleOutcome, CoreError> {
        let outcome = self.system.learn_sample(&mut self.engine, frame, label)?;
        self.tally.record(&outcome);
        self.batch.record_outcome(&outcome);
        self.curve.record(outcome.correct);
        Ok(outcome)
    }

    /// Drains a sample stream through [`learn_sample`](Self::learn_sample).
    ///
    /// # Errors
    ///
    /// Stops at (and propagates) the first per-sample error.
    pub fn run_stream(
        &mut self,
        samples: impl IntoIterator<Item = (BitVec, u8)>,
    ) -> Result<(), CoreError> {
        for (frame, label) in samples {
            self.learn_sample(&frame, label as usize)?;
        }
        Ok(())
    }

    /// The learning tally so far.
    pub fn tally(&self) -> &LearningTally {
        &self.tally
    }

    /// The inference-side cycle tally so far (learning counters folded in).
    pub fn batch_tally(&self) -> &BatchTally {
        &self.batch
    }

    /// The accuracy-over-samples curve so far.
    pub fn curve(&self) -> &LearningCurve {
        &self.curve
    }

    /// The system under training.
    pub fn system(&self) -> &EsamSystem {
        self.system
    }

    /// Derives [`SystemMetrics`] over everything the session processed;
    /// the `learning` summary carries the training cost, and
    /// `energy_per_inf` includes the learning writes (they advanced the
    /// same array counters).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when no samples were processed;
    /// propagates SRAM energy-model errors.
    pub fn finalize_metrics(&self) -> Result<SystemMetrics, CoreError> {
        self.system.finalize_metrics(&self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use esam_sram::BitcellKind;
    use esam_tech::calibration::paper;

    fn tile(cell: BitcellKind) -> (Tile, Seconds) {
        let config = SystemConfig::builder(cell, &[128, 128, 10])
            .build()
            .unwrap();
        let pipeline = crate::pipeline::PipelineTiming::analyze(&config).unwrap();
        (
            Tile::new(128, 128, &config).unwrap(),
            pipeline.clock_period(),
        )
    }

    #[test]
    fn transposed_update_costs_2x4_cycles() {
        let (mut t, clock) = tile(BitcellKind::multiport(4).unwrap());
        let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 0.0), 1);
        let pre = BitVec::from_indices(128, &[0, 5, 9]);
        let cost = engine
            .teach(&mut t, clock, &pre, 3, TeacherSignal::ShouldFire)
            .unwrap();
        assert_eq!(cost.cycles, 2 * 4, "§4.4.1: 4 read + 4 write cycles");
        // 8 cycles at ~1.2 ns ≈ 9.9 ns (26× faster than row-wise).
        assert!(
            (cost.latency.ns() - paper::LEARN_ROWWISE_NS / paper::LEARN_TIME_GAIN).abs() < 1.5,
            "latency {} vs ≈9.9 ns",
            cost.latency
        );
        assert_eq!(cost.bits_flipped, 3, "deterministic potentiation of 3 bits");
    }

    #[test]
    fn rowwise_update_costs_2x128_cycles() {
        let (mut t, clock) = tile(BitcellKind::Std6T);
        let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 0.0), 1);
        let pre = BitVec::from_indices(128, &[0, 5, 9]);
        let cost = engine
            .teach(&mut t, clock, &pre, 3, TeacherSignal::ShouldFire)
            .unwrap();
        assert_eq!(cost.cycles, 2 * 128, "§4.4.1: read+write every row");
        assert!(
            (cost.latency.ns() - paper::LEARN_ROWWISE_NS).abs() / paper::LEARN_ROWWISE_NS < 0.05,
            "latency {} vs 257.8 ns",
            cost.latency
        );
    }

    #[test]
    fn update_changes_the_weights_functionally() {
        let (mut t, clock) = tile(BitcellKind::multiport(2).unwrap());
        let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 1.0), 2);
        let pre = BitVec::from_indices(128, &[10, 20, 30]);
        engine
            .teach(&mut t, clock, &pre, 7, TeacherSignal::ShouldFire)
            .unwrap();
        let bits = t.arrays()[0].bits();
        assert!(bits.get(10, 7) && bits.get(20, 7) && bits.get(30, 7));
    }

    #[test]
    fn should_not_fire_depresses_active_synapses() {
        let (mut t, clock) = tile(BitcellKind::multiport(2).unwrap());
        // Start with all-ones weights in column 0.
        let mut ones = BitVec::new(128);
        ones.set_all();
        t.array_mut(0, 0).transposed_write(0, &ones).unwrap();
        t.array_mut(0, 0).reset_stats();
        let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 0.0), 3);
        let pre = BitVec::from_indices(128, &[4, 8]);
        let cost = engine
            .teach(&mut t, clock, &pre, 0, TeacherSignal::ShouldNotFire)
            .unwrap();
        assert_eq!(cost.bits_flipped, 2);
        assert!(!t.arrays()[0].bits().get(4, 0));
        assert!(!t.arrays()[0].bits().get(8, 0));
    }

    #[test]
    fn costs_match_441_gains() {
        let (mut t4, clock4) = tile(BitcellKind::multiport(4).unwrap());
        let (mut t6, clock6) = tile(BitcellKind::Std6T);
        let mut engine = OnlineLearningEngine::new(StdpRule::paper_default(), 4);
        let pre = BitVec::from_indices(128, &[1, 2, 3]);
        let transposed = engine
            .teach(&mut t4, clock4, &pre, 0, TeacherSignal::ShouldFire)
            .unwrap();
        let rowwise = engine
            .teach(&mut t6, clock6, &pre, 0, TeacherSignal::ShouldFire)
            .unwrap();
        let time_gain = rowwise.latency / transposed.latency;
        let energy_gain = rowwise.energy / transposed.energy;
        assert!(
            (time_gain - paper::LEARN_TIME_GAIN).abs() / paper::LEARN_TIME_GAIN < 0.2,
            "time gain {time_gain:.1} vs paper 26.0x"
        );
        assert!(
            energy_gain > 10.0 && energy_gain < 40.0,
            "energy gain {energy_gain:.1} should be in the paper's 19.5x class"
        );
    }

    #[test]
    fn zero_curve_interval_records_a_point_per_sample() {
        let net = esam_nn::BnnNetwork::new(&[128, 10], 3).unwrap();
        let model = esam_nn::SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 10])
            .build()
            .unwrap();
        let mut system = EsamSystem::from_model(&model, &config).unwrap();
        let mut session =
            OnlineSession::with_curve_interval(&mut system, StdpRule::paper_default(), 7, 0);
        for (i, label) in [3, 1, 4, 1, 5].into_iter().enumerate() {
            let frame = BitVec::from_indices(128, &[i, 40 + i, 90 + i]);
            session.learn_sample(&frame, label).unwrap();
        }
        let curve = session.curve();
        assert_eq!(curve.interval(), 1);
        let samples: Vec<u64> = curve.points().iter().map(|point| point.samples).collect();
        assert_eq!(samples, [1, 2, 3, 4, 5]);
        assert_eq!(
            curve.points().last().unwrap().correct,
            session.tally().correct
        );
    }

    #[test]
    fn teach_system_rejects_an_out_of_range_layer() {
        let net = esam_nn::BnnNetwork::new(&[128, 10], 3).unwrap();
        let model = esam_nn::SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 10])
            .build()
            .unwrap();
        let mut system = EsamSystem::from_model(&model, &config).unwrap();
        let before = system.tiles()[0].weight_column(0);
        let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 1.0), 5);
        let pre = BitVec::from_indices(128, &[1, 2, 3]);
        let result = engine.teach_system(&mut system, 1, &pre, 0, TeacherSignal::ShouldFire);
        match result {
            Err(CoreError::InvalidConfig(message)) => {
                assert!(message.contains("layer 1"), "{message}");
                assert!(message.contains("1-tile"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(system.tiles()[0].weight_column(0), before);
        assert_eq!(system.tiles()[0].arrays()[0].stats().rw_read_cycles, 0);
    }

    #[test]
    fn bad_neuron_index_rejected() {
        let (mut t, clock) = tile(BitcellKind::multiport(1).unwrap());
        let mut engine = OnlineLearningEngine::new(StdpRule::paper_default(), 5);
        let result = engine.teach(
            &mut t,
            clock,
            &BitVec::new(128),
            500,
            TeacherSignal::ShouldFire,
        );
        assert!(result.is_err());
    }
}
