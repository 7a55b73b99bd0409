//! One CIM-P tile: arbiters + SRAM macros + IF neuron array (Fig. 2).
//!
//! A tile implements one fully-connected layer. Wide layers are split into
//! 128-wide blocks: `⌈inputs/128⌉` *row groups* (each with its own 128-wide
//! arbiter, §4.4.2) × `⌈outputs/128⌉` *column groups*. A granted wordline
//! spans all column groups of its row group, so a 768:256 layer grants up to
//! `6 × p` spikes per clock cycle.
//!
//! Per clock cycle the tile:
//!
//! 1. lets each row-group arbiter grant up to `p` pending spike requests,
//! 2. reads the granted rows on the corresponding SRAM ports,
//! 3. feeds the sensed rows (with validity flags) to the neuron array.
//!
//! When the request register drains (`R_empty`), the neurons compare and
//! fire, producing the parallel spike frame for the next tile (§3.1/§3.4).
//!
//! # Two ways through a frame
//!
//! [`Tile::step`] is that cycle walk, one arbitration per call. Under the
//! every-timestep reset, with a membrane register wider than the fan-in,
//! a whole timestep is instead a function of which rows spiked, and
//! [`Tile::step_frame`] computes it in closed form from the SRAM arrays'
//! column view: one AND + popcount per column word for the membranes,
//! `⌈n_rg / p⌉` for the cycles, and every counter as a sum over the
//! spiking rows. The cascade walk takes the kernel wherever it is exact
//! and keeps the cycle walk as the fallback and as the test reference.
//!
//! # Weight sharing and cheap clones
//!
//! The loaded weight arrays — by far the largest part of a tile — live
//! behind an [`Arc`] ([`TileWeights`]) and are *immutable during inference*.
//! All per-inference mutable state (request registers, membrane potentials,
//! activity counters) sits directly in [`Tile`], so `Tile::clone` costs a
//! reference-count bump plus a few small vectors. The parallel
//! [`BatchEngine`](crate::batch::BatchEngine) exploits this to stamp out one
//! pipeline clone per worker thread. Weight *mutation* (online learning
//! through the transposed port) goes through [`Arc::make_mut`]: unique
//! owners mutate in place, while a tile whose weights are currently shared
//! transparently un-shares them first (copy-on-write).

use std::sync::Arc;

use esam_arbiter::{EncoderStructure, MultiPortArbiter};
use esam_bits::{BitMatrix, BitVec, FrameBlock};
use esam_neuron::{NeuronArray, ResetPolicy};
use esam_nn::SnnLayer;
use esam_sram::{AccessStats, IntegrityMode, IntegrityTally, SramArray, SramMacro};
use esam_tech::calibration::fitted;
use esam_tech::units::{AreaUm2, Joules, Watts};

use crate::config::{SystemConfig, ARRAY_DIM};
use crate::error::CoreError;

/// Leakage of the tile's logic (arbiters, neurons, registers) relative to
/// its SRAM arrays.
const TILE_LOGIC_LEAK_FRACTION: f64 = 0.15;

/// Packed words per row group: a group's slice of a frame, and a block
/// column, start on a word boundary and span at most this many words.
const GROUP_WORDS: usize = ARRAY_DIM / BitVec::WORD_BITS;

esam_obs::counters! {
    /// Activity counters of one tile, reconstructing spike-by-spike energy.
    ///
    /// Every field is a plain sum over processed spikes and cycles, so
    /// merging per-worker counters yields exactly the counters a sequential
    /// run over the concatenated frames would have produced, and the
    /// derived energy figures (pure functions of the counters) are
    /// bit-identical too.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct TileStats {
        /// Cycles in which at least one spike was served (idle cycles are
        /// clock-gated, following the event-driven designs the paper cites).
        pub active_cycles: u64,
        /// Total grants issued (spikes served).
        pub grants: u64,
        /// Spikes injected into the request register.
        pub spikes_in: u64,
        /// `R_empty` fire/compare events.
        pub timesteps: u64,
        /// Port bits integrated by the neuron array.
        pub neuron_bits: u64,
    }
}

/// The immutable, shareable part of a tile: its loaded SRAM weight blocks.
///
/// Held behind an [`Arc`] by every [`Tile`] clone; see the module docs for
/// the sharing contract. The embedded [`SramArray`] access counters are only
/// advanced by *learning* traffic (transposed/row-wise writes) — inference
/// reads are counted in the owning tile's per-clone mirror so concurrent
/// workers never contend on shared counters.
#[derive(Debug, Clone)]
pub struct TileWeights {
    /// Row-major `[row_group][col_group]` blocks.
    arrays: Vec<SramArray>,
}

impl TileWeights {
    /// The SRAM blocks (row-major `[row_group][col_group]`).
    pub fn arrays(&self) -> &[SramArray] {
        &self.arrays
    }
}

/// Reusable per-tile scratch buffers: everything [`Tile::step`] needs per
/// clock cycle lives here, sized once at construction, so a steady-state
/// step performs **zero heap allocations** (verified by
/// `tests/step_no_alloc.rs`). Cloned with the tile (the buffers are small;
/// their *contents* are dead between cycles).
#[derive(Debug)]
struct StepScratch {
    /// Assembled port rows (each `outputs` bits), one per possible grant:
    /// `max_spikes_per_cycle` buffers.
    port_rows: Vec<BitVec>,
    /// Validity flags for the neuron array. The arbiter only hands over
    /// real grants, so every used slot is valid; this is the constant
    /// all-true prefix `integrate` is given (replacing the per-cycle
    /// `vec![true; n]`).
    valid: Vec<bool>,
    /// Grant-index buffer for the in-place arbiter scan (capacity =
    /// ports, so pushes never reallocate).
    granted: Vec<usize>,
    /// One block-row buffer per column group (`block_len(outputs, cg)`
    /// bits) for allocation-free SRAM reads.
    block_rows: Vec<BitVec>,
}

impl Clone for StepScratch {
    /// A derived clone would shrink `granted` to capacity 0 (cloning an
    /// empty `Vec` does not copy its reservation), re-introducing one heap
    /// allocation into the first `step` of every cloned tile — and cloned
    /// tiles are exactly what the batch engine's workers are. Re-reserve
    /// explicitly so clones inherit the allocation-free contract.
    fn clone(&self) -> Self {
        Self {
            port_rows: self.port_rows.clone(),
            valid: self.valid.clone(),
            granted: Vec::with_capacity(self.granted.capacity()),
            block_rows: self.block_rows.clone(),
        }
    }
}

impl StepScratch {
    fn new(outputs: usize, col_groups: usize, max_spikes_per_cycle: usize, ports: usize) -> Self {
        Self {
            port_rows: (0..max_spikes_per_cycle)
                .map(|_| BitVec::new(outputs))
                .collect(),
            valid: vec![true; max_spikes_per_cycle],
            granted: Vec::with_capacity(ports),
            block_rows: (0..col_groups)
                .map(|cg| BitVec::new(block_len(outputs, cg)))
                .collect(),
        }
    }
}

/// Number of bit-planes in each per-row-group vertical request counter:
/// row groups hold at most [`ARRAY_DIM`] = 128 rows, so per-lane request
/// counts fit in 8 bits.
const RG_PLANES: usize = 8;

/// Reusable buffers of the batch-major bit-sliced path
/// ([`Tile::step_block`]): vertical (bit-plane) counters holding one lane
/// per bit, sized once at construction so a steady-state block step performs
/// **zero heap allocations** (verified by `tests/step_no_alloc.rs`). The
/// vectors are non-empty, so a derived clone preserves them and cloned
/// worker tiles inherit the allocation-free contract.
#[derive(Debug, Clone)]
struct BlockScratch {
    /// Per-output vertical spike counters: `nplanes` lane-words per output,
    /// laid out `[output][plane]`. Plane `p` of output `j` holds bit `p` of
    /// that output's per-lane count of received `1`-weight spikes.
    planes: Vec<u64>,
    /// Per-row-group vertical request counters: [`RG_PLANES`] lane-words
    /// per row group, reconstructing each lane's per-group spike count (the
    /// quantity that fixes that lane's serve-cycle count).
    rg_planes: Vec<u64>,
    /// Bit-planes per output counter: `ceil(log2(inputs + 1))`, enough for
    /// a lane receiving every input as a spike.
    nplanes: usize,
}

impl BlockScratch {
    fn new(inputs: usize, outputs: usize, row_groups: usize) -> Self {
        let nplanes = (usize::BITS - inputs.leading_zeros()) as usize;
        Self {
            planes: vec![0; outputs * nplanes],
            rg_planes: vec![0; row_groups * RG_PLANES],
            nplanes,
        }
    }
}

/// Adds one lane-word of unit increments into a vertical (bit-plane)
/// counter: a 64-lane ripple-carry add of 0/1 per lane. The carry chain
/// stops as soon as it is absorbed, so the amortized cost is ~2 word ops.
#[inline]
fn ripple_add(planes: &mut [u64], mut carry: u64) {
    let mut plane = 0;
    while carry != 0 {
        let next = planes[plane] & carry;
        planes[plane] ^= carry;
        carry = next;
        plane += 1;
    }
}

/// Reads lane `lane`'s value out of a vertical counter.
#[inline]
fn lane_count(planes: &[u64], lane: usize) -> u32 {
    planes
        .iter()
        .enumerate()
        .map(|(bit, &plane)| (((plane >> lane) & 1) as u32) << bit)
        .sum()
}

/// One ESAM tile (one network layer).
#[derive(Debug, Clone)]
pub struct Tile {
    inputs: usize,
    outputs: usize,
    row_groups: usize,
    col_groups: usize,
    /// Shared immutable weights (see module docs).
    weights: Arc<TileWeights>,
    arbiters: Vec<MultiPortArbiter>,
    neurons: NeuronArray,
    /// Pending spike requests, one vector per row group.
    requests: Vec<BitVec>,
    grants_per_cycle: usize,
    stats: TileStats,
    /// Per-clone mirror of inference access counters, parallel to
    /// [`TileWeights::arrays`] (learning counters stay inside the arrays).
    array_stats: Vec<AccessStats>,
    /// Reusable hot-path buffers (see [`StepScratch`]).
    scratch: StepScratch,
    /// Reusable bit-sliced-path buffers (see [`BlockScratch`]).
    block_scratch: BlockScratch,
    /// [`step_frame`](Self::step_frame)'s per-output count of spiking rows
    /// holding a 1, sized once so the kernel never allocates.
    frame_ones: Vec<u32>,
    /// The frame this tile fired last in a
    /// [`walk_frame`](crate::cascade::walk_frame), which the next tile of
    /// the cascade reads: sized once, so the walk allocates nothing
    /// between tiles.
    fired: BitVec,
    /// How weight reads treat the SECDED codewords (default [`Off`]:
    /// bit-identical to the unprotected baseline).
    ///
    /// [`Off`]: IntegrityMode::Off
    integrity: IntegrityMode,
    /// Per-clone integrity event counters (merged like the other stats).
    integrity_tally: IntegrityTally,
    /// Pristine per-array weight images captured when integrity was
    /// enabled — the off-chip golden copy the scrub pass reloads
    /// uncorrectable rows from. `Arc`-shared across clones; only a learning
    /// write changes it (copy-on-write, see
    /// [`refresh_golden_column`](Self::refresh_golden_column)).
    /// **Never consulted on the read path**.
    golden: Option<Arc<Vec<BitMatrix>>>,
}

impl Tile {
    /// Builds a tile for an `inputs → outputs` layer.
    ///
    /// # Errors
    ///
    /// Propagates array/arbiter construction errors (e.g. the NBL rule for
    /// invalid block shapes).
    pub fn new(inputs: usize, outputs: usize, config: &SystemConfig) -> Result<Self, CoreError> {
        if inputs == 0 || outputs == 0 {
            return Err(CoreError::InvalidConfig(
                "tile dimensions must be non-zero".into(),
            ));
        }
        let row_groups = inputs.div_ceil(ARRAY_DIM);
        let col_groups = outputs.div_ceil(ARRAY_DIM);
        let mut arrays = Vec::with_capacity(row_groups * col_groups);
        for rg in 0..row_groups {
            let rows = block_len(inputs, rg);
            for cg in 0..col_groups {
                let cols = block_len(outputs, cg);
                let array_config = config.array_config(rows, cols)?;
                arrays.push(SramArray::new(array_config));
            }
        }
        let arbiters = (0..row_groups)
            .map(|rg| {
                arbiter_for_width(
                    block_len(inputs, rg),
                    config.grants_per_arbiter(),
                    config.arbiter_structure(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let requests = (0..row_groups)
            .map(|rg| BitVec::new(block_len(inputs, rg)))
            .collect();
        let array_stats = vec![AccessStats::default(); arrays.len()];
        let grants_per_cycle = config.grants_per_arbiter();
        Ok(Self {
            inputs,
            outputs,
            row_groups,
            col_groups,
            weights: Arc::new(TileWeights { arrays }),
            arbiters,
            neurons: NeuronArray::with_uniform_threshold(config.neuron(), outputs, 0),
            requests,
            grants_per_cycle,
            stats: TileStats::default(),
            array_stats,
            scratch: StepScratch::new(
                outputs,
                col_groups,
                row_groups * grants_per_cycle,
                grants_per_cycle,
            ),
            block_scratch: BlockScratch::new(inputs, outputs, row_groups),
            frame_ones: vec![0; outputs],
            fired: BitVec::new(outputs),
            integrity: IntegrityMode::Off,
            integrity_tally: IntegrityTally::default(),
            golden: None,
        })
    }

    /// Fan-in of the tile.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Fan-out of the tile.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Number of 128-wide row groups (arbiters).
    pub fn row_groups(&self) -> usize {
        self.row_groups
    }

    /// Number of 128-wide column groups.
    pub fn col_groups(&self) -> usize {
        self.col_groups
    }

    /// Maximum spikes served per cycle: `row_groups × p` (§4.4.2).
    pub fn max_spikes_per_cycle(&self) -> usize {
        self.row_groups * self.grants_per_cycle
    }

    /// Accumulated activity counters.
    pub fn stats(&self) -> &TileStats {
        &self.stats
    }

    /// Per-array inference access counters (parallel to [`Self::arrays`]).
    pub fn array_stats(&self) -> &[AccessStats] {
        &self.array_stats
    }

    /// Whether this tile currently shares its weights with other clones.
    pub fn weights_shared(&self) -> bool {
        Arc::strong_count(&self.weights) > 1
    }

    /// The integrity mode in effect on this tile's weight reads.
    pub fn integrity_mode(&self) -> IntegrityMode {
        self.integrity
    }

    /// Per-clone integrity event counters accumulated so far.
    pub fn integrity_tally(&self) -> &IntegrityTally {
        &self.integrity_tally
    }

    /// Switches the integrity mode. Enabling ([`Detect`]/[`Correct`])
    /// encodes SECDED codewords from the *current* weights and captures
    /// the golden (pristine off-chip) image the scrub pass reloads from,
    /// so it must happen **after** the model is loaded — the load paths
    /// re-capture both when called later. Disabling drops codewords and
    /// golden image; [`Off`] tiles never touch either (zero overhead).
    ///
    /// [`Detect`]: IntegrityMode::Detect
    /// [`Correct`]: IntegrityMode::Correct
    /// [`Off`]: IntegrityMode::Off
    pub fn set_integrity_mode(&mut self, mode: IntegrityMode) {
        self.integrity = mode;
        if mode.checks() {
            let weights = Arc::make_mut(&mut self.weights);
            for array in &mut weights.arrays {
                array.enable_ecc();
            }
            self.capture_golden();
        } else {
            if self.weights.arrays.iter().any(|a| a.ecc_enabled()) {
                for array in &mut Arc::make_mut(&mut self.weights).arrays {
                    array.disable_ecc();
                }
            }
            self.golden = None;
        }
    }

    /// Snapshots the current weights as the golden image.
    fn capture_golden(&mut self) {
        self.golden = Some(Arc::new(
            self.weights
                .arrays
                .iter()
                .map(|a| a.bits().clone())
                .collect(),
        ));
    }

    /// Background scrub pass over every SRAM block (see
    /// [`SramArray::scrub_audited`]): heals single-bit rows in place,
    /// reloads uncorrectable rows from the golden image, and audits for
    /// silent corruption under [`IntegrityMode::Correct`]; restores drifted
    /// rows without counting under [`IntegrityMode::Detect`]; no-op under
    /// [`IntegrityMode::Off`]. A tile whose store matches the golden image
    /// returns immediately without un-sharing its weights.
    ///
    /// # Errors
    ///
    /// Propagates SRAM shape errors (none occur for a tile-captured golden
    /// image).
    pub fn scrub_audited(&mut self) -> Result<(), CoreError> {
        if !self.integrity.checks() {
            return Ok(());
        }
        let Some(golden) = &self.golden else {
            return Ok(());
        };
        let golden = Arc::clone(golden);
        let dirty = self
            .weights
            .arrays
            .iter()
            .zip(golden.iter())
            .any(|(a, g)| a.bits() != g);
        if !dirty {
            return Ok(());
        }
        let weights = Arc::make_mut(&mut self.weights);
        for (array, pristine) in weights.arrays.iter_mut().zip(golden.iter()) {
            array.scrub_audited(pristine, self.integrity, &mut self.integrity_tally)?;
        }
        Ok(())
    }

    /// Resets activity counters (contents and membranes are untouched).
    ///
    /// Learning counters live inside the (possibly shared) weight arrays;
    /// they are only cleared when non-zero, so a tile that never learned
    /// resets without un-sharing its weights.
    pub fn reset_stats(&mut self) {
        self.stats = TileStats::default();
        self.integrity_tally = IntegrityTally::default();
        for stats in &mut self.array_stats {
            *stats = AccessStats::default();
        }
        if self
            .weights
            .arrays
            .iter()
            .any(|a| a.stats().total_accesses() != 0)
        {
            for array in &mut Arc::make_mut(&mut self.weights).arrays {
                array.reset_stats();
            }
        }
    }

    /// Merges another tile's activity counters into this one (the batch
    /// engine's shard→merge step; see [`TileStats`] for why this is
    /// exact).
    ///
    /// Only the per-clone counters are merged: learning counters inside
    /// shared weights are visible through every clone already and must not
    /// be double-counted.
    pub fn absorb_stats(&mut self, other: &Tile) {
        debug_assert_eq!(self.array_stats.len(), other.array_stats.len());
        self.stats.merge(&other.stats);
        self.integrity_tally.merge(&other.integrity_tally);
        for (mine, theirs) in self.array_stats.iter_mut().zip(&other.array_stats) {
            mine.merge(theirs);
        }
    }

    /// The SRAM blocks of this tile (row-major `[row_group][col_group]`).
    pub fn arrays(&self) -> &[SramArray] {
        &self.weights.arrays
    }

    /// The shared weight handle (cheap to clone; see module docs).
    pub fn weights(&self) -> &Arc<TileWeights> {
        &self.weights
    }

    /// Mutable access to one SRAM block — used by the online-learning
    /// engine for transposed weight updates. Un-shares the weights first
    /// when they are shared with other clones (copy-on-write).
    pub(crate) fn array_mut(&mut self, row_group: usize, col_group: usize) -> &mut SramArray {
        let index = row_group * self.col_groups + col_group;
        &mut Arc::make_mut(&mut self.weights).arrays[index]
    }

    /// Inverts the stored weight bit at (`input`, `output`) — the fault
    /// layer's physical bit-flip primitive, routed to the owning SRAM
    /// block's [`flip_bit`](SramArray::flip_bit) (uncounted; a strike, not
    /// an access). XOR-involutive: toggling twice restores the tile, which
    /// is how transient per-frame flips are reverted. The golden image is
    /// left alone, so under checked integrity the scrub undoes the flip.
    /// Un-shares the weights first when they are shared with other clones.
    ///
    /// # Errors
    ///
    /// [`SramError::RowOutOfRange`](esam_sram::SramError::RowOutOfRange)
    /// when `input` is not below the fan-in and
    /// [`SramError::ColOutOfRange`](esam_sram::SramError::ColOutOfRange)
    /// when `output` is not below the fan-out, both in tile coordinates.
    pub fn toggle_weight_bit(&mut self, input: usize, output: usize) -> Result<(), CoreError> {
        if input >= self.inputs {
            return Err(CoreError::Sram(esam_sram::SramError::RowOutOfRange {
                row: input,
                rows: self.inputs,
            }));
        }
        if output >= self.outputs {
            return Err(CoreError::Sram(esam_sram::SramError::ColOutOfRange {
                col: output,
                cols: self.outputs,
            }));
        }
        self.array_mut(input / ARRAY_DIM, output / ARRAY_DIM)
            .flip_bit(input % ARRAY_DIM, output % ARRAY_DIM)?;
        Ok(())
    }

    /// Reads the stored weight bit at (`input`, `output`) — a direct,
    /// uncounted content probe (the fault layer compares against it when
    /// materializing stuck-at cells).
    ///
    /// # Panics
    ///
    /// Panics when `input`/`output` exceed the tile dimensions.
    pub fn weight_bit(&self, input: usize, output: usize) -> bool {
        assert!(input < self.inputs && output < self.outputs);
        let index = (input / ARRAY_DIM) * self.col_groups + output / ARRAY_DIM;
        self.weights.arrays[index]
            .bits()
            .get(input % ARRAY_DIM, output % ARRAY_DIM)
    }

    /// The full weight column of output `neuron`, assembled across row
    /// groups (one bit per tile input) — the quantity online learning
    /// reads, updates and merges. Each row group contributes a word copy
    /// of its block's [`column_words`](SramArray::column_words).
    ///
    /// # Panics
    ///
    /// Panics when `neuron` is out of range.
    pub fn weight_column(&self, neuron: usize) -> BitVec {
        assert!(
            neuron < self.outputs,
            "neuron {neuron} out of range for a {}-output tile",
            self.outputs
        );
        let col_group = neuron / ARRAY_DIM;
        let local_col = neuron % ARRAY_DIM;
        let mut column = BitVec::new(self.inputs);
        let words = column.words_mut();
        for rg in 0..self.row_groups {
            let src = self.weights.arrays[rg * self.col_groups + col_group].column_words(local_col);
            words[rg * GROUP_WORDS..rg * GROUP_WORDS + src.len()].copy_from_slice(src);
        }
        column
    }

    /// Copies the stored weight column of output `neuron` into the golden
    /// image: the learning write path's last step. Learned weights are the
    /// new pristine state, so the scrub after the next checked frame keeps
    /// them. Strikes ([`toggle_weight_bit`](Self::toggle_weight_bit)) never
    /// come here, which is what lets the scrub undo them. A no-op unless
    /// the integrity mode checks reads (only then is there an image).
    pub(crate) fn refresh_golden_column(&mut self, neuron: usize) {
        if !self.integrity.checks() {
            return;
        }
        let Some(golden) = &mut self.golden else {
            return;
        };
        let golden = Arc::make_mut(golden);
        let (col_group, col) = (neuron / ARRAY_DIM, neuron % ARRAY_DIM);
        for rg in 0..self.row_groups {
            let index = rg * self.col_groups + col_group;
            let stored = self.weights.arrays[index].bits();
            for row in 0..stored.rows() {
                golden[index].set(row, col, stored.get(row, col));
            }
        }
    }

    /// The neuron array.
    pub fn neurons(&self) -> &NeuronArray {
        &self.neurons
    }

    /// Loads a converted layer's weights and thresholds: the whole-layer
    /// case of [`load_layer_slice`](Self::load_layer_slice).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyMismatch`] for shape mismatches and a
    /// threshold-overflow error when a threshold exceeds the neuron's
    /// register width.
    pub fn load_layer(&mut self, layer: &SnnLayer) -> Result<(), CoreError> {
        if layer.inputs() != self.inputs || layer.outputs() != self.outputs {
            return Err(CoreError::TopologyMismatch {
                expected: vec![self.inputs, self.outputs],
                got: vec![layer.inputs(), layer.outputs()],
            });
        }
        self.load_layer_slice(layer, 0)
    }

    /// Loads a column slice of a converted layer: the tile becomes the
    /// shard owning output neurons `col_start .. col_start + outputs()` of
    /// `layer` (full fan-in, sliced fan-out) — the construction primitive
    /// for column-split mesh cores.
    ///
    /// `col_start` must be a multiple of [`ARRAY_DIM`]: the shard's column
    /// groups then coincide with a suffix-aligned subset of the unsplit
    /// tile's groups, so its SRAM arrays — and therefore its per-array
    /// [`AccessStats`] — are exactly a partition of the unsplit tile's
    /// (the mesh equivalence suite relies on this).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyMismatch`] when the fan-in differs or
    /// the column range exceeds the layer, [`CoreError::InvalidConfig`]
    /// for an unaligned `col_start`, and a threshold-overflow error when a
    /// sliced threshold exceeds the neuron's register width.
    pub fn load_layer_slice(
        &mut self,
        layer: &SnnLayer,
        col_start: usize,
    ) -> Result<(), CoreError> {
        if !col_start.is_multiple_of(ARRAY_DIM) {
            return Err(CoreError::InvalidConfig(format!(
                "column slices start on {ARRAY_DIM}-aligned group boundaries, got {col_start}"
            )));
        }
        if layer.inputs() != self.inputs || col_start + self.outputs > layer.outputs() {
            return Err(CoreError::TopologyMismatch {
                expected: vec![self.inputs, self.outputs],
                got: vec![layer.inputs(), layer.outputs().saturating_sub(col_start)],
            });
        }
        let thresholds = &layer.thresholds()[col_start..col_start + self.outputs];
        let neuron_config = self.neurons.config();
        for &threshold in thresholds {
            if threshold > neuron_config.threshold_max()
                || threshold < neuron_config.threshold_min()
            {
                return Err(CoreError::Nn(esam_nn::NnError::ThresholdOverflow {
                    threshold,
                    bits: neuron_config.threshold_bits(),
                }));
            }
        }
        // Block edges are 128-aligned in both dimensions, so each block row
        // is a word-aligned window of one layer row.
        let weights = Arc::make_mut(&mut self.weights);
        let mut layer_row = BitVec::new(layer.outputs());
        for rg in 0..self.row_groups {
            let rows = block_len(self.inputs, rg);
            for cg in 0..self.col_groups {
                let cols = block_len(self.outputs, cg);
                let mut block = BitMatrix::new(rows, cols);
                let mut block_row = BitVec::new(cols);
                for r in 0..rows {
                    layer
                        .bits()
                        .copy_row_into(rg * ARRAY_DIM + r, &mut layer_row);
                    block_row.clear();
                    block_row.or_window_of(&layer_row, col_start + cg * ARRAY_DIM);
                    block.set_row(r, &block_row);
                }
                weights.arrays[rg * self.col_groups + cg].load_weights(&block)?;
            }
        }
        self.neurons.load_thresholds(thresholds);
        if self.integrity.checks() {
            self.capture_golden();
        }
        Ok(())
    }

    /// Injects a spike frame into the request register (binary pulses from
    /// the previous tile arriving fully in parallel, §3.1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for a wrong frame width.
    pub fn inject(&mut self, frame: &BitVec) -> Result<(), CoreError> {
        if frame.len() != self.inputs {
            return Err(CoreError::InputWidthMismatch {
                expected: self.inputs,
                got: frame.len(),
            });
        }
        // Word-parallel latch: each row group's register ORs in its
        // 128-bit (word-aligned) slice of the frame.
        for (rg, requests) in self.requests.iter_mut().enumerate() {
            requests.or_window_of(frame, rg * ARRAY_DIM);
        }
        self.stats.spikes_in += frame.count_ones() as u64;
        Ok(())
    }

    /// `true` when no spike requests are pending (the `R_empty` condition).
    pub fn is_drained(&self) -> bool {
        self.requests.iter().all(|r| !r.any())
    }

    /// Executes one clock cycle: arbitration, SRAM reads, neuron
    /// integration. Returns the number of spikes served (0 when idle).
    ///
    /// This is the word-parallel, allocation-free hot path: the arbiter
    /// scan clears granted bits in place, SRAM rows land in reusable
    /// scratch, and the full port row is assembled by word-aligned copies
    /// (`ARRAY_DIM = 128` → two-word moves per column group). It is
    /// bit-identical — outputs, membranes *and* every activity counter —
    /// to the retained scalar path
    /// ([`step_reference`](Self::step_reference)), property-tested in
    /// `tests/hot_path_equivalence.rs`.
    ///
    /// # Errors
    ///
    /// Propagates SRAM access errors (none occur for in-range grants).
    pub fn step(&mut self) -> Result<usize, CoreError> {
        let mut used = 0usize;
        for rg in 0..self.row_groups {
            if !self.requests[rg].any() {
                continue;
            }
            let granted = &mut self.scratch.granted;
            self.arbiters[rg].arbitrate_into(&mut self.requests[rg], granted);
            for (slot, &local_row) in granted.iter().enumerate() {
                let full_row = &mut self.scratch.port_rows[used];
                for cg in 0..self.col_groups {
                    let index = rg * self.col_groups + cg;
                    let block_row = &mut self.scratch.block_rows[cg];
                    // Counted in the per-clone mirror (not the shared
                    // array) so concurrent batch workers never contend;
                    // same bounds and increments as SramArray::inference_read.
                    // With integrity Off (and ECC never enabled) the checked
                    // read is exactly the unchecked one — no extra work, no
                    // allocation; otherwise the SECDED syndrome piggybacks
                    // on this packed-row read.
                    self.weights.arrays[index].read_row_checked_into(
                        &mut self.array_stats[index],
                        &mut self.integrity_tally,
                        self.integrity,
                        slot,
                        local_row,
                        block_row,
                    )?;
                    full_row.copy_bits_from(block_row, cg * ARRAY_DIM);
                }
                used += 1;
            }
        }
        if used == 0 {
            return Ok(0);
        }
        self.neurons
            .integrate(&self.scratch.port_rows[..used], &self.scratch.valid[..used]);
        self.stats.active_cycles += 1;
        self.stats.grants += used as u64;
        self.stats.neuron_bits += (used * self.outputs) as u64;
        Ok(used)
    }

    /// The retained scalar reference for [`step`](Self::step): cascaded
    /// encoder passes, per-bit row assembly, freshly allocated buffers —
    /// the original implementation, kept as the executable specification
    /// the optimized path is property-tested against (same outputs,
    /// membranes and counters, bit for bit). Not for production use.
    ///
    /// The neuron integration itself goes through the same
    /// [`NeuronArray`]; its word-parallel decode is separately
    /// property-tested against the scalar
    /// [`ScalarNeuronArray`](esam_neuron::ScalarNeuronArray) in the
    /// `esam-neuron` crate, so the two layers of equivalence compose.
    ///
    /// # Errors
    ///
    /// Propagates SRAM access errors (none occur for in-range grants).
    pub fn step_reference(&mut self) -> Result<usize, CoreError> {
        let mut port_rows: Vec<BitVec> = Vec::with_capacity(self.max_spikes_per_cycle());
        for rg in 0..self.row_groups {
            if !self.requests[rg].any() {
                continue;
            }
            let grants = self.arbiters[rg].arbitrate(&self.requests[rg]);
            self.requests[rg] = grants.remaining().clone();
            for (slot, &local_row) in grants.granted().iter().enumerate() {
                let mut full_row = BitVec::new(self.outputs);
                for cg in 0..self.col_groups {
                    let index = rg * self.col_groups + cg;
                    let array = &self.weights.arrays[index];
                    let mut bits = BitVec::new(array.config().cols());
                    // Same checked read as the optimized path (fresh
                    // buffer: this is the executable specification, not
                    // the production path).
                    array.read_row_checked_into(
                        &mut self.array_stats[index],
                        &mut self.integrity_tally,
                        self.integrity,
                        slot,
                        local_row,
                        &mut bits,
                    )?;
                    for c in bits.iter_ones() {
                        full_row.set(cg * ARRAY_DIM + c, true);
                    }
                }
                port_rows.push(full_row);
            }
        }
        if port_rows.is_empty() {
            return Ok(0);
        }
        let valid = vec![true; port_rows.len()];
        self.neurons.integrate(&port_rows, &valid);
        self.stats.active_cycles += 1;
        self.stats.grants += port_rows.len() as u64;
        self.stats.neuron_bits += (port_rows.len() * self.outputs) as u64;
        Ok(port_rows.len())
    }

    /// End-of-timestep evaluation (`R_empty` asserted): every neuron
    /// compares and conditionally fires. Returns the output spike frame.
    pub fn finish_timestep(&mut self) -> BitVec {
        self.stats.timesteps += 1;
        self.stats.active_cycles += 1; // the compare/fire cycle
        let fired = self.neurons.end_timestep();
        self.neurons.grant(&fired); // next tile latches the pulses at once
        fired
    }

    /// The frame this tile fired last in a
    /// [`walk_frame`](crate::cascade::walk_frame): the spike frame that
    /// entered the next tile. The last tile of a walk fires into the
    /// caller's buffer instead, so its frame is read there (for
    /// [`EsamSystem::infer`](crate::EsamSystem::infer), in
    /// [`InferenceResult::output_spikes`](crate::InferenceResult::output_spikes)).
    pub fn fired(&self) -> &BitVec {
        &self.fired
    }

    /// The last-fired buffer, mutably — what the cascade walk fires into.
    pub(crate) fn fired_mut(&mut self) -> &mut BitVec {
        &mut self.fired
    }

    /// Membrane potentials (output-layer readout, taken before
    /// [`finish_timestep`](Self::finish_timestep)). Borrowed, not copied —
    /// the readout allocates nothing.
    pub fn membranes(&self) -> &[i32] {
        self.neurons.membranes()
    }

    /// Processes one full input frame — the
    /// [`walk_frame`](crate::cascade::walk_frame) over this tile alone, so
    /// the closed-form kernel where it is exact and inject, drain, fire
    /// otherwise. Returns the output spike frame and the number of clock
    /// cycles consumed.
    ///
    /// # Errors
    ///
    /// Propagates injection/step errors.
    pub fn process_frame(&mut self, frame: &BitVec) -> Result<(BitVec, u64), CoreError> {
        let mut fired = BitVec::new(self.outputs);
        let mut cycles = Vec::with_capacity(1);
        crate::cascade::walk_frame(
            std::slice::from_mut(self),
            frame,
            &mut fired,
            &mut cycles,
            None,
        )?;
        Ok((fired, cycles[0]))
    }

    /// Whether [`step_block`](Self::step_block) reproduces the sequential
    /// walk bit for bit from this tile's *current* state.
    ///
    /// The block step needs per-frame independence (the `EveryTimestep`
    /// reset), a clean pipeline (drained requests, zero membranes, no
    /// pending neuron requests — all guaranteed again after every frame
    /// under that reset), and membrane registers wide enough that the
    /// per-cycle clamp can never engage mid-frame (`inputs ≤ min(mem_max,
    /// −mem_min)`; the running sum's magnitude is bounded by the spikes
    /// processed so far, so it then never leaves the register range and the
    /// closed-form `2·ones − spikes` is exact).
    pub fn block_ready(&self) -> bool {
        let neuron_config = self.neurons.config();
        let clamp_guard = neuron_config.mem_max().min(-neuron_config.mem_min());
        neuron_config.reset_policy() == ResetPolicy::EveryTimestep
            && self.inputs as i64 <= i64::from(clamp_guard)
            && self.is_drained()
            && !self.neurons.spike_requests().any()
            && self.membranes().iter().fold(0, |any, &m| any | m) == 0
    }

    /// Processes one whole frame in closed form — the frame kernel
    /// [`walk_frame`](crate::cascade::walk_frame) takes instead of
    /// [`inject`](Self::inject) / [`step`](Self::step) /
    /// [`finish_timestep`](Self::finish_timestep) wherever it is exact.
    ///
    /// Writes the fired frame into `fired` and, when `membranes_out` is
    /// given, the pre-fire membrane potentials; returns the pipeline
    /// cycles (serve cycles plus the fire cycle). With `n_rg` spikes in row
    /// group `rg` and `n` in all:
    ///
    /// * membrane `j` is `2·ones_j − n`, where `ones_j` is `Σ_rg
    ///   popcount(x_rg ∧ column_j)` over the column view, walked as one
    ///   slice per array ([`SramArray::column_view`]), and neuron `j` fires
    ///   when it reaches its threshold;
    /// * the cycles are `max_rg ⌈n_rg / p⌉ + 1`: each arbiter grants `p`
    ///   rows per cycle and the groups drain in parallel;
    /// * each array of row group `rg` adds `n_rg` inference reads and
    ///   `n_rg·cols − Σ_c ones` zero bits (the zero bits of the spiking
    ///   rows, so no row is read); the tile adds `n` spikes in and grants,
    ///   `n·outputs` neuron bits, the cycles and one timestep.
    ///
    /// The neuron array is never touched: the cycle walk leaves it with
    /// zero membranes and no pending requests, which is where it starts.
    ///
    /// # Bit-identity contract
    ///
    /// Outputs, membranes, cycles, [`TileStats`], [`AccessStats`] and the
    /// post-state equal the cycle walk's whenever the tile is
    /// [`block_ready`](Self::block_ready) (no mid-frame clamp, so the sums
    /// are exact) and its integrity mode is
    /// [`Off`](IntegrityMode::Off) (no per-read syndrome check to model).
    /// Callers uphold both; property-tested in
    /// `tests/frame_kernel_equivalence.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `input` does not
    /// match the fan-in, and [`CoreError::BufferMismatch`] when `fired` or
    /// `membranes_out` is not `outputs()` long. Shapes are checked before
    /// any state changes, so a rejected call leaves the tile as it was.
    pub fn step_frame(
        &mut self,
        input: &BitVec,
        fired: &mut BitVec,
        membranes_out: Option<&mut [i32]>,
    ) -> Result<u64, CoreError> {
        if input.len() != self.inputs {
            return Err(CoreError::InputWidthMismatch {
                expected: self.inputs,
                got: input.len(),
            });
        }
        let membranes = membranes_out.as_deref().map_or(self.outputs, <[i32]>::len);
        let shapes = [
            ("fired frame width", fired.len()),
            ("membranes length", membranes),
        ];
        if let Some(&(buffer, got)) = shapes.iter().find(|(_, got)| *got != self.outputs) {
            return Err(CoreError::BufferMismatch {
                buffer,
                expected: self.outputs,
                got,
            });
        }
        debug_assert!(self.is_drained(), "frame kernel needs a drained tile");
        debug_assert!(
            self.membranes().iter().all(|&m| m == 0),
            "frame kernel needs zeroed membranes"
        );

        // Per row group: its spike count fixes its reads and serve cycles.
        // The group's frame window is one word for up to 64 rows and two
        // otherwise, the same as a column of each of its arrays, so the
        // spiking rows of column `c` holding a 1 are chunk `c` of the
        // array's column view ANDed with the window. Whatever they do not
        // hold is a zero bit the rows would have returned.
        let ports = self.grants_per_cycle as u64;
        let (mut total, mut serve) = (0u64, 0u64);
        let ones = &mut self.frame_ones;
        ones.fill(0);
        let windows = input.words().chunks(GROUP_WORDS);
        let blocks = self.weights.arrays.chunks(self.col_groups);
        let block_stats = self.array_stats.chunks_mut(self.col_groups);
        for (window, (arrays, stats)) in windows.zip(blocks.zip(block_stats)) {
            let count: u64 = window.iter().map(|w| u64::from(w.count_ones())).sum();
            if count == 0 {
                continue;
            }
            total += count;
            serve = serve.max(count.div_ceil(ports));
            let columns = arrays.iter().zip(stats).zip(ones.chunks_mut(ARRAY_DIM));
            for ((array, stats), slots) in columns {
                let view = array.column_view();
                let block_ones = match *window {
                    [x] => accumulate_hits([x], view, slots),
                    [x0, x1] => accumulate_hits([x0, x1], view, slots),
                    _ => unreachable!("a row group spans one or two words"),
                };
                stats.inference_reads += count;
                stats.inference_zero_bits += count * array.config().cols() as u64 - block_ones;
            }
        }

        let spikes = total as i32;
        fire_words(fired.words_mut(), ones, self.neurons.thresholds(), spikes);
        if let Some(out) = membranes_out {
            for (slot, &column_ones) in out.iter_mut().zip(ones.iter()) {
                *slot = membrane(column_ones, spikes);
            }
        }

        let cycles = serve + 1;
        self.stats.spikes_in += total;
        self.stats.grants += total;
        self.stats.neuron_bits += total * self.outputs as u64;
        self.stats.active_cycles += cycles;
        self.stats.timesteps += 1;
        Ok(cycles)
    }

    /// Processes one [`FrameBlock`] — up to 64 independent frames at once,
    /// one pass over the active weight rows advancing every lane per word.
    ///
    /// Writes the fired spike frame of every lane into `fired` (its lane
    /// words are the next tile's `FrameBlock` words — cascading blocks
    /// needs no re-transpose), the per-lane pipeline cycle counts
    /// (serve cycles + the fire cycle) into `cycles`, and — when
    /// `membranes_out` is given, e.g. for the output tile readout — each
    /// lane's pre-reset membrane potentials into
    /// `membranes_out[lane * outputs + neuron]`.
    ///
    /// # Bit-identity contract
    ///
    /// For every lane, outputs, membranes, [`TileStats`] and
    /// [`AccessStats`] land exactly as if the lanes had been processed one
    /// at a time with [`inject`](Self::inject) / [`step`](Self::step) /
    /// [`finish_timestep`](Self::finish_timestep): all activity counters
    /// are order-independent sums over (lane, spike) events, accumulated
    /// here in closed form, and the per-lane membrane `2·ones − spikes` is
    /// the exact integration result whenever the membrane register cannot
    /// clamp mid-frame. Callers must uphold the preconditions
    /// ([`block_ready`](Self::block_ready)) —
    /// [`EsamSystem::infer_block`](crate::EsamSystem::infer_block) checks
    /// them and falls back to the sequential walk otherwise. Equivalence is
    /// pinned by the workspace's execution matrix,
    /// `tests/execution_matrix.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when the block width does
    /// not match the tile fan-in, and [`CoreError::BufferMismatch`] when
    /// `fired`, `cycles` or `membranes_out` are mis-shaped for this tile and
    /// the block's lane count. Shapes are checked before any state changes,
    /// so a rejected call leaves the tile exactly as it was.
    pub fn step_block(
        &mut self,
        block: &FrameBlock,
        fired: &mut FrameBlock,
        cycles: &mut [u64],
        mut membranes_out: Option<&mut [i32]>,
    ) -> Result<(), CoreError> {
        if block.width() != self.inputs {
            return Err(CoreError::InputWidthMismatch {
                expected: self.inputs,
                got: block.width(),
            });
        }
        let lanes = block.lanes();
        let readout = lanes * self.outputs;
        let membranes = membranes_out.as_deref().map_or(readout, <[i32]>::len);
        let shapes = [
            ("fired block width", self.outputs, fired.width()),
            ("fired block lanes", lanes, fired.lanes()),
            ("cycles length", lanes, cycles.len()),
            ("membranes length", readout, membranes),
        ];
        if let Some(&(buffer, expected, got)) = shapes.iter().find(|(_, e, g)| e != g) {
            return Err(CoreError::BufferMismatch {
                buffer,
                expected,
                got,
            });
        }
        debug_assert!(self.is_drained(), "block step needs a drained tile");
        debug_assert!(
            self.membranes().iter().all(|&m| m == 0),
            "block step needs zeroed membranes"
        );

        let nplanes = self.block_scratch.nplanes;
        self.block_scratch.planes.fill(0);
        self.block_scratch.rg_planes.fill(0);
        let planes = &mut self.block_scratch.planes;
        let rg_planes = &mut self.block_scratch.rg_planes;

        // One pass over the active weight rows. For input row `i` with lane
        // word `s` (one bit per lane in which that input spikes), every
        // column `j` with weight 1 receives `s` as a 64-lane unit increment
        // into its vertical counter; the per-array counters advance by the
        // same amounts a per-lane `read_row_counted_into` walk would have
        // accumulated (one read per granted lane).
        let mut block_spikes = 0u64;
        for rg in 0..self.row_groups {
            let rows = block_len(self.inputs, rg);
            let rg_counter = &mut rg_planes[rg * RG_PLANES..(rg + 1) * RG_PLANES];
            for local_row in 0..rows {
                let lanes_word = block.word(rg * ARRAY_DIM + local_row);
                if lanes_word == 0 {
                    continue;
                }
                let granted_lanes = u64::from(lanes_word.count_ones());
                block_spikes += granted_lanes;
                ripple_add(rg_counter, lanes_word);
                for cg in 0..self.col_groups {
                    let index = rg * self.col_groups + cg;
                    let array = &self.weights.arrays[index];
                    let mut row_ones = 0u64;
                    for (word_index, &weights_word) in
                        array.bits().row_words(local_row).iter().enumerate()
                    {
                        row_ones += u64::from(weights_word.count_ones());
                        let mut remaining = weights_word;
                        while remaining != 0 {
                            let column = word_index * 64 + remaining.trailing_zeros() as usize;
                            remaining &= remaining - 1;
                            let output = cg * ARRAY_DIM + column;
                            ripple_add(
                                &mut planes[output * nplanes..(output + 1) * nplanes],
                                lanes_word,
                            );
                        }
                    }
                    // Same increments as `read_row_counted_into`, once per
                    // granted lane.
                    let stats = &mut self.array_stats[index];
                    stats.inference_reads += granted_lanes;
                    stats.inference_zero_bits +=
                        granted_lanes * (array.config().cols() as u64 - row_ones);
                }
            }
        }

        // Per-lane serve-cycle plan: each row group drains its lane count in
        // `ceil(n / p)` cycles, groups drain in parallel, plus one compare/
        // fire cycle — exactly `process_frame`'s cycle count per lane.
        let ports = self.grants_per_cycle as u32;
        let mut totals = [0i32; FrameBlock::LANES];
        for (lane, (cycle_slot, total)) in cycles.iter_mut().zip(totals.iter_mut()).enumerate() {
            let mut serve = 0u32;
            for rg in 0..self.row_groups {
                let count = lane_count(&rg_planes[rg * RG_PLANES..(rg + 1) * RG_PLANES], lane);
                *total += count as i32;
                serve = serve.max(count.div_ceil(ports));
            }
            *cycle_slot = u64::from(serve) + 1;
            self.stats.active_cycles += u64::from(serve) + 1;
        }

        // Per-lane compare/fire: with zeroed start and no mid-frame clamp,
        // the membrane is exactly `2·ones − spikes` (every 1-weight spike
        // adds 1, every 0-weight spike subtracts 1). The fired lane words
        // are the block path's output currency.
        let thresholds = self.neurons.thresholds();
        for (output, &threshold) in thresholds.iter().enumerate() {
            let counter = &planes[output * nplanes..(output + 1) * nplanes];
            let mut fired_word = 0u64;
            for (lane, &total) in totals.iter().enumerate().take(lanes) {
                let membrane = 2 * lane_count(counter, lane) as i32 - total;
                if let Some(out) = membranes_out.as_deref_mut() {
                    out[lane * self.outputs + output] = membrane;
                }
                fired_word |= u64::from(membrane >= threshold) << lane;
            }
            fired.set_word(output, fired_word);
        }

        self.stats.spikes_in += block_spikes;
        self.stats.grants += block_spikes;
        self.stats.neuron_bits += block_spikes * self.outputs as u64;
        self.stats.timesteps += lanes as u64;
        Ok(())
    }

    /// Dynamic energy implied by the accumulated counters: SRAM accesses,
    /// arbitration, neuron integration and the fitted per-cycle
    /// control/clock/pipeline overheads.
    ///
    /// Inference accesses are counted in the tile's per-clone mirror and
    /// learning accesses inside the arrays; both are combined per array
    /// before the energy reconstruction, so the result is a pure function of
    /// the summed counters (the property the batch engine's merge relies
    /// on).
    ///
    /// # Errors
    ///
    /// Propagates SRAM energy-model errors.
    pub fn dynamic_energy(&self) -> Result<Joules, CoreError> {
        let mut total = Joules::ZERO;
        for (array, inference) in self.weights.arrays.iter().zip(&self.array_stats) {
            let mut combined = *array.stats();
            combined.merge(inference);
            total += array.energy_for_stats(&combined)?;
        }
        // Arbiters: idle masked by clock gating; active cycles clock every
        // row-group arbiter of the tile.
        total += Joules::new(fitted::ARBITER_ENERGY_PER_CYCLE)
            * (self.stats.active_cycles * self.row_groups as u64) as f64
            + Joules::new(fitted::ARBITER_ENERGY_PER_GRANT) * self.stats.grants as f64;
        // Neuron datapath.
        total += Joules::new(fitted::NEURON_ACCUM_ENERGY_PER_BIT) * self.stats.neuron_bits as f64
            + Joules::new(fitted::NEURON_FIRE_ENERGY)
                * (self.stats.timesteps * self.outputs as u64) as f64;
        // Fitted system overheads: control/clock per column-cycle and
        // pipeline registers per port-bit-cycle.
        let column_cycles = (self.stats.active_cycles * self.outputs as u64) as f64;
        total += Joules::new(fitted::CONTROL_ENERGY_PER_COLUMN_CYCLE) * column_cycles
            + Joules::new(fitted::PIPE_ENERGY_PER_PORT_BIT_CYCLE)
                * column_cycles
                * self.grants_per_cycle as f64;
        Ok(total)
    }

    /// Static leakage of the tile (arrays plus logic share).
    pub fn leakage_power(&self) -> Watts {
        let arrays: Watts = self
            .weights
            .arrays
            .iter()
            .map(|a| a.energy().leakage_power())
            .sum();
        arrays * (1.0 + TILE_LOGIC_LEAK_FRACTION)
    }

    /// Silicon area of the tile: SRAM macros, arbiters and neurons.
    pub fn area(&self) -> AreaUm2 {
        let arrays: AreaUm2 = self
            .weights
            .arrays
            .iter()
            .map(|a| SramMacro::new(a.config().clone()).area().total())
            .sum();
        let arbiters: AreaUm2 = self.arbiters.iter().map(|a| a.area()).sum();
        arrays + arbiters + AreaUm2::new(fitted::NEURON_AREA_UM2) * self.outputs as f64
    }
}

/// One array's share of [`Tile::step_frame`]: walks its column view
/// (`W`-word columns back to back) beside the array's output slots, adds
/// each column's hits `popcount(column ∧ window)` — the spiking rows
/// holding a 1 — into its slot, and returns the hits summed over the
/// array. `W` is a constant, so each column is one fixed-width AND and
/// popcount with no per-column call or bounds check.
#[inline]
fn accumulate_hits<const W: usize>(window: [u64; W], view: &[u64], slots: &mut [u32]) -> u64 {
    let mut block_ones = 0u64;
    for (column, slot) in view.chunks_exact(W).zip(slots) {
        let hits: u32 = column
            .iter()
            .zip(window)
            .map(|(&c, x)| (c & x).count_ones())
            .sum();
        *slot += hits;
        block_ones += u64::from(hits);
    }
    block_ones
}

/// The frame kernel's membrane, `2·ones − spikes`, for a neuron whose
/// column holds `ones` 1-weights among `spikes` spiking rows: with zeroed
/// start and no mid-frame clamp, each 1-weight spike adds 1 and each
/// 0-weight spike subtracts 1.
fn membrane(ones: u32, spikes: i32) -> i32 {
    2 * ones as i32 - spikes
}

/// Multiplying eight 0/1 bytes by this moves byte `i` to bit `56 + i`:
/// byte `i` (bit `8i`) times factor bit `7k + 7` lands on bit
/// `8i + 7k + 7`, which is `56 + i` for `k = 7 − i`. No two of these
/// products share a bit, so nothing carries.
const PACK_VERDICTS: u64 = 0x0102_0408_1020_4080;

/// Fires `ones.len()` outputs into `fired`, one word per 64: output `j`
/// fires when its [`membrane`] reaches `thresholds[j]`. A word's verdicts
/// land one per byte, then each multiply by [`PACK_VERDICTS`] packs eight
/// into their bits. Bits past the last output are written 0.
fn fire_words(fired: &mut [u64], ones: &[u32], thresholds: &[i32], spikes: i32) {
    let outputs = ones
        .chunks(BitVec::WORD_BITS)
        .zip(thresholds.chunks(BitVec::WORD_BITS));
    for (word, (ones, thresholds)) in fired.iter_mut().zip(outputs) {
        let mut verdicts = [0u8; BitVec::WORD_BITS];
        for ((verdict, &o), &t) in verdicts.iter_mut().zip(ones).zip(thresholds) {
            *verdict = u8::from(membrane(o, spikes) >= t);
        }
        let (bytes, _) = verdicts.as_chunks::<8>();
        *word = bytes.iter().enumerate().fold(0, |word, (i, &eight)| {
            word | (u64::from_le_bytes(eight).wrapping_mul(PACK_VERDICTS) >> 56) << (8 * i)
        });
    }
}

/// Width of block `index` when splitting `total` into 128-wide groups.
fn block_len(total: usize, index: usize) -> usize {
    (total - index * ARRAY_DIM).min(ARRAY_DIM)
}

/// Builds a row-group arbiter, falling back to a flat encoder when the tree
/// base width does not divide the (edge-block) width.
fn arbiter_for_width(
    width: usize,
    ports: usize,
    structure: EncoderStructure,
) -> Result<MultiPortArbiter, CoreError> {
    let structure = match structure {
        EncoderStructure::Tree { base_width }
            if base_width < width && width.is_multiple_of(base_width) =>
        {
            EncoderStructure::Tree { base_width }
        }
        _ => EncoderStructure::Flat,
    };
    Ok(MultiPortArbiter::new(width, ports, structure)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esam_sram::BitcellKind;

    fn config(cell: BitcellKind) -> SystemConfig {
        SystemConfig::paper_default(cell)
    }

    fn tile(inputs: usize, outputs: usize, cell: BitcellKind) -> Tile {
        Tile::new(inputs, outputs, &config(cell)).unwrap()
    }

    #[test]
    fn block_decomposition() {
        let t = tile(768, 256, BitcellKind::multiport(4).unwrap());
        assert_eq!(t.row_groups(), 6);
        assert_eq!(t.col_groups(), 2);
        assert_eq!(t.arrays().len(), 12);
        assert_eq!(t.max_spikes_per_cycle(), 24);
        let t = tile(256, 10, BitcellKind::multiport(4).unwrap());
        assert_eq!((t.row_groups(), t.col_groups()), (2, 1));
        assert_eq!(t.arrays()[0].config().cols(), 10);
    }

    #[test]
    fn identity_like_layer_fires_correctly() {
        // Weight matrix: all ones in column j for j < 4, zeros elsewhere.
        // With threshold = spike count, neuron j<4 fires, others get -count.
        let mut t = tile(128, 8, BitcellKind::multiport(4).unwrap());
        let net = esam_nn::BnnNetwork::new(&[128, 8], 1).unwrap();
        let mut model_net = net;
        for o in 0..8 {
            for i in 0..128 {
                *model_net.layers_mut()[0].latent_mut().get_mut(o, i) =
                    if o < 4 { 1.0 } else { -1.0 };
            }
            model_net.layers_mut()[0].bias_mut()[o] = if o < 4 { -3.0 } else { 0.0 };
        }
        let model = esam_nn::SnnModel::from_bnn(&model_net).unwrap();
        t.load_layer(&model.layers()[0]).unwrap();

        let frame = BitVec::from_indices(128, &[3, 50, 90]); // 3 spikes
        let (fired, cycles) = t.process_frame(&frame).unwrap();
        // Neurons 0..4: sum=+3, threshold=3 → fire; neurons 4..8: sum=−3,
        // threshold 0 → silent.
        assert_eq!(fired.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // 3 spikes on one 4-port arbiter: 1 serve cycle + 1 fire cycle.
        assert_eq!(cycles, 2);
    }

    #[test]
    fn cycle_count_follows_parallelism() {
        for (cell, expected_serve_cycles) in [
            (BitcellKind::Std6T, 9), // 9 spikes / 1 per cycle
            (BitcellKind::multiport(1).unwrap(), 9),
            (BitcellKind::multiport(3).unwrap(), 3),
            (BitcellKind::multiport(4).unwrap(), 3), // ceil(9/4)
        ] {
            let mut t = tile(128, 16, cell);
            let frame = BitVec::from_indices(128, &(0..9).map(|i| i * 13).collect::<Vec<_>>());
            let (_, cycles) = t.process_frame(&frame).unwrap();
            assert_eq!(
                cycles,
                expected_serve_cycles + 1,
                "{cell}: expected {expected_serve_cycles} serve cycles + 1 fire"
            );
        }
    }

    #[test]
    fn multi_group_grants_are_parallel() {
        // 768 inputs = 6 arbiters: 24 spikes spread evenly over groups are
        // served in ceil(4 per group / 4 ports) = 1 cycle on the 4R cell.
        let mut t = tile(768, 128, BitcellKind::multiport(4).unwrap());
        let spikes: Vec<usize> = (0..24).map(|i| i * 32).collect(); // 4 per group
        let frame = BitVec::from_indices(768, &spikes);
        let (_, cycles) = t.process_frame(&frame).unwrap();
        assert_eq!(cycles, 2, "1 serve cycle + 1 fire cycle");
        assert_eq!(t.stats().grants, 24);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut t = tile(128, 32, BitcellKind::multiport(2).unwrap());
        let frame = BitVec::from_indices(128, &[1, 2, 3, 4, 5]);
        t.process_frame(&frame).unwrap();
        assert_eq!(t.stats().spikes_in, 5);
        assert_eq!(t.stats().grants, 5);
        assert_eq!(t.stats().timesteps, 1);
        assert!(t.stats().active_cycles >= 4);
        assert!(t.dynamic_energy().unwrap().pj() > 0.0);
        t.reset_stats();
        assert_eq!(t.stats().grants, 0);
        assert!(t.dynamic_energy().unwrap().is_zero());
    }

    #[test]
    fn clones_share_weights_until_learning_unshares_them() {
        let mut t = tile(128, 32, BitcellKind::multiport(2).unwrap());
        let clone = t.clone();
        assert!(t.weights_shared());
        assert!(Arc::ptr_eq(t.weights(), clone.weights()));
        // Inference on the clone's lineage never un-shares.
        let mut active = clone.clone();
        active
            .process_frame(&BitVec::from_indices(128, &[1, 5, 9]))
            .unwrap();
        assert!(Arc::ptr_eq(t.weights(), active.weights()));
        // Weight mutation through the learning path un-shares (copy-on-write).
        let column = active.arrays()[0].bits().column(0);
        active.array_mut(0, 0).transposed_write(0, &column).unwrap();
        assert!(!Arc::ptr_eq(t.weights(), active.weights()));
        let _ = t.array_mut(0, 0); // unique again after the clone diverged
    }

    #[test]
    fn clone_counters_are_independent_and_merge_exactly() {
        let mut sequential = tile(128, 32, BitcellKind::multiport(2).unwrap());
        let mut shard_a = sequential.clone();
        let mut shard_b = sequential.clone();
        let frame_a = BitVec::from_indices(128, &[1, 2, 3]);
        let frame_b = BitVec::from_indices(128, &[4, 5, 6, 7]);
        sequential.process_frame(&frame_a).unwrap();
        sequential.process_frame(&frame_b).unwrap();
        shard_a.process_frame(&frame_a).unwrap();
        shard_b.process_frame(&frame_b).unwrap();
        let mut merged = tile(128, 32, BitcellKind::multiport(2).unwrap());
        merged.absorb_stats(&shard_a);
        merged.absorb_stats(&shard_b);
        assert_eq!(merged.stats(), sequential.stats());
        assert_eq!(merged.array_stats(), sequential.array_stats());
        assert_eq!(
            merged.dynamic_energy().unwrap(),
            sequential.dynamic_energy().unwrap(),
            "energy is a pure function of the merged counters"
        );
    }

    #[test]
    fn weight_column_spans_row_groups() {
        let mut t = tile(256, 130, BitcellKind::multiport(2).unwrap());
        // Set one bit in each row group of output neuron 129 (col group 1).
        t.array_mut(0, 1)
            .transposed_write(1, &{
                let mut v = BitVec::new(128);
                v.set(5, true);
                v
            })
            .unwrap();
        t.array_mut(1, 1)
            .transposed_write(1, &{
                let mut v = BitVec::new(128);
                v.set(7, true);
                v
            })
            .unwrap();
        let column = t.weight_column(129);
        assert_eq!(column.len(), 256);
        assert_eq!(column.iter_ones().collect::<Vec<_>>(), vec![5, 128 + 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn weight_column_rejects_bad_neuron() {
        tile(128, 8, BitcellKind::Std6T).weight_column(8);
    }

    #[test]
    fn toggle_weight_bit_reports_tile_coordinates() {
        use esam_sram::SramError;
        // 132 inputs leave a 4-row edge block; 10 outputs one column group.
        let mut t = tile(132, 10, BitcellKind::multiport(2).unwrap());
        assert!(matches!(
            t.toggle_weight_bit(0, 200),
            Err(CoreError::Sram(SramError::ColOutOfRange {
                col: 200,
                cols: 10
            }))
        ));
        assert!(matches!(
            t.toggle_weight_bit(200, 0),
            Err(CoreError::Sram(SramError::RowOutOfRange {
                row: 200,
                rows: 132
            }))
        ));
        assert!(matches!(
            t.toggle_weight_bit(132, 10),
            Err(CoreError::Sram(SramError::RowOutOfRange {
                row: 132,
                rows: 132
            }))
        ));
        t.toggle_weight_bit(131, 9).unwrap();
        assert!(t.weight_bit(131, 9), "the edge block's last cell flips");
    }

    #[test]
    fn wrong_frame_width_rejected() {
        let mut t = tile(128, 32, BitcellKind::Std6T);
        assert!(matches!(
            t.inject(&BitVec::new(100)),
            Err(CoreError::InputWidthMismatch {
                expected: 128,
                got: 100
            })
        ));
    }

    #[test]
    fn load_layer_shape_checked() {
        let mut t = tile(128, 32, BitcellKind::multiport(4).unwrap());
        let net = esam_nn::BnnNetwork::new(&[64, 32], 2).unwrap();
        let model = esam_nn::SnnModel::from_bnn(&net).unwrap();
        assert!(matches!(
            t.load_layer(&model.layers()[0]),
            Err(CoreError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn layer_slices_partition_the_full_layer() {
        // A 128->300 layer sliced at group boundaries: every shard's
        // weight columns and thresholds must equal the unsplit tile's at
        // the shifted index.
        let cell = BitcellKind::multiport(4).unwrap();
        let net = esam_nn::BnnNetwork::new(&[128, 300], 9).unwrap();
        let model = esam_nn::SnnModel::from_bnn(&net).unwrap();
        let layer = &model.layers()[0];
        let mut whole = Tile::new(128, 300, &config(cell)).unwrap();
        whole.load_layer(layer).unwrap();
        for (start, width) in [(0usize, 128usize), (128, 128), (256, 44)] {
            let mut shard = Tile::new(128, width, &config(cell)).unwrap();
            shard.load_layer_slice(layer, start).unwrap();
            for n in 0..width {
                assert_eq!(
                    shard.weight_column(n),
                    whole.weight_column(start + n),
                    "column {n} of slice at {start}"
                );
                assert_eq!(
                    shard.neurons().thresholds()[n],
                    whole.neurons().thresholds()[start + n],
                    "threshold {n} of slice at {start}"
                );
            }
        }
    }

    #[test]
    fn layer_slice_rejects_misalignment_and_overflow() {
        let cell = BitcellKind::multiport(2).unwrap();
        let net = esam_nn::BnnNetwork::new(&[128, 300], 9).unwrap();
        let model = esam_nn::SnnModel::from_bnn(&net).unwrap();
        let layer = &model.layers()[0];
        let mut shard = Tile::new(128, 64, &config(cell)).unwrap();
        assert!(matches!(
            shard.load_layer_slice(layer, 64),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            shard.load_layer_slice(layer, 256),
            Err(CoreError::TopologyMismatch { .. })
        ));
        let mut wrong_fan_in = Tile::new(96, 64, &config(cell)).unwrap();
        assert!(matches!(
            wrong_fan_in.load_layer_slice(layer, 0),
            Err(CoreError::TopologyMismatch { .. })
        ));
    }

    /// A loaded 136→40 tile (two row groups) and a 3-lane block for it.
    fn block_fixture() -> (Tile, FrameBlock) {
        let net = esam_nn::BnnNetwork::new(&[136, 40], 4).unwrap();
        let model = esam_nn::SnnModel::from_bnn(&net).unwrap();
        let mut t = tile(136, 40, BitcellKind::multiport(2).unwrap());
        t.load_layer(&model.layers()[0]).unwrap();
        let frames: Vec<BitVec> = (0..3)
            .map(|lane| BitVec::from_indices(136, &[lane, 40 + lane, 135 - lane]))
            .collect();
        (t, FrameBlock::from_frames(&frames))
    }

    /// Block-steps a fixture tile with buffers shaped `(fired width, fired
    /// lanes, cycles, membranes)`: the call must be rejected naming
    /// `buffer`, leaving the tile drained and untouched, and the tile's
    /// next well-shaped call must match a fresh tile's.
    fn assert_shape_rejected(shape: (usize, usize, usize, usize), buffer: &str) {
        let (mut t, block) = block_fixture();
        let (width, lanes, cycles, membranes) = shape;
        let result = t.step_block(
            &block,
            &mut FrameBlock::new(width, lanes),
            &mut vec![0; cycles],
            Some(&mut vec![0; membranes]),
        );
        assert!(
            matches!(result, Err(CoreError::BufferMismatch { buffer: b, .. }) if b == buffer),
            "{buffer}: {result:?}"
        );
        assert!(
            t.is_drained() && t.block_ready(),
            "{buffer}: tile left dirty"
        );
        assert_eq!(*t.stats(), TileStats::default(), "{buffer}: counters moved");
        let well_shaped = |t: &mut Tile| {
            let (mut fired, mut cycles, mut membranes) =
                (FrameBlock::new(40, 3), vec![0; 3], vec![0; 3 * 40]);
            t.step_block(&block, &mut fired, &mut cycles, Some(&mut membranes))
                .unwrap();
            (fired, cycles, membranes)
        };
        let fresh = well_shaped(&mut block_fixture().0);
        assert_eq!(well_shaped(&mut t), fresh, "{buffer}: tile unusable");
    }

    #[test]
    fn step_block_rejects_a_misshaped_fired_block() {
        assert_shape_rejected((41, 3, 3, 120), "fired block width");
        assert_shape_rejected((40, 4, 3, 120), "fired block lanes");
    }

    #[test]
    fn step_block_rejects_a_misshaped_cycle_buffer() {
        assert_shape_rejected((40, 3, 2, 120), "cycles length");
    }

    #[test]
    fn step_block_rejects_a_misshaped_membrane_buffer() {
        assert_shape_rejected((40, 3, 3, 119), "membranes length");
    }

    #[test]
    fn area_and_leakage_scale_with_cell() {
        let a6 = tile(256, 256, BitcellKind::Std6T);
        let a4 = tile(256, 256, BitcellKind::multiport(4).unwrap());
        assert!(a4.area().value() > 2.0 * a6.area().value());
        assert!(a4.leakage_power().value() > a6.leakage_power().value());
    }

    #[test]
    fn packed_fire_matches_a_per_output_compare() {
        // Membranes spread over the whole 153-spike range. Each threshold
        // sits at its membrane, one above it or one below it in turn, so
        // the verdicts repeat fire, hold, fire out of step with the bytes
        // they are packed from: a packing that reorders a byte's bits
        // reads wrong.
        let spikes = 153;
        for outputs in [1, 10, 63, 64, 65, 129, 256] {
            let ones: Vec<u32> = (0..outputs).map(|j| (j * 37 % 154) as u32).collect();
            let thresholds: Vec<i32> = (0..outputs)
                .map(|j| membrane(ones[j], spikes) + [0, 1, -1][j % 3])
                .collect();
            let mut fired = vec![u64::MAX; outputs.div_ceil(BitVec::WORD_BITS)];
            fire_words(&mut fired, &ones, &thresholds, spikes);
            for j in 0..outputs {
                let bit = fired[j / BitVec::WORD_BITS] >> (j % BitVec::WORD_BITS) & 1 == 1;
                let fires = membrane(ones[j], spikes) >= thresholds[j];
                assert_eq!(bit, fires, "{outputs} outputs: output {j}");
            }
            let last = fired.len() - 1;
            let tail = fired[last].checked_shr((outputs - last * BitVec::WORD_BITS) as u32);
            assert_eq!(
                tail.unwrap_or(0),
                0,
                "{outputs} outputs: bits past the last"
            );
        }
    }

    #[test]
    fn idle_step_costs_nothing() {
        let mut t = tile(128, 8, BitcellKind::multiport(4).unwrap());
        assert_eq!(t.step().unwrap(), 0);
        assert_eq!(t.stats().active_cycles, 0, "idle cycles are clock-gated");
    }
}
