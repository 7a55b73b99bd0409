//! Functional multiport SRAM array with access accounting.
//!
//! [`SramArray`] stores actual weight bits and mimics the port semantics of
//! the hardware: row-parallel inference reads on up to four decoupled ports,
//! and column-wise (transposed) Read/Write in `mux_ratio` cycles per column.
//! Every operation updates [`AccessStats`], from which
//! [`SramArray::consumed_energy`] reconstructs the energy spike-by-spike, the
//! same methodology the paper uses (§4.1: "simulate the network on a
//! spike-by-spike basis … to determine the timing, power and energy").
//!
//! # Column view
//!
//! Beside the row-major store the array keeps a column-major copy of the
//! same bits — the software form of the transposable port, which makes a
//! weight column a native access (§3.2, §4.4.1).
//! [`column_words`](SramArray::column_words) hands out a column as packed
//! words, and [`column_view`](SramArray::column_view) every column as one
//! slice; the transposed read and the closed-form frame kernel of
//! `esam-core` consume them. Every mutator (bulk load, bit flip, scrub heal
//! and reload, transposed and row-wise writes) updates both copies in the
//! same call, and both stores are private, so the view is coherent by
//! construction. A transposed write copies the new column into the view
//! and flips the row-major store only in the rows whose bit changed; a row
//! write does the same the other way round.
//!
//! # Learning accesses
//!
//! The transposed and row-wise reads come in two forms. One returns a
//! fresh [`BitVec`]; the `_into` form copies words into a buffer the caller
//! owns, so the online-learning engine reads and writes columns without
//! allocating. Energy reconstruction weighs the counters with four
//! per-access energies. They are evaluated once, when the array is built,
//! since they depend on the configuration alone. A geometry past the NBL
//! write-margin limit keeps its error and reports it only when a write
//! cycle is costed.

use esam_bits::{BitMatrix, BitVec};

use crate::config::ArrayConfig;
use crate::ecc::{EccState, IntegrityMode, IntegrityTally, RowVerdict};
use crate::energy::EnergyAnalysis;
use crate::error::SramError;
use crate::timing::TimingAnalysis;
use esam_tech::units::Joules;

esam_obs::counters! {
    /// Operation counters for energy reconstruction.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct AccessStats {
        /// Row activations on inference ports.
        pub inference_reads: u64,
        /// Total zero-bits returned by inference reads (each discharges an RBL).
        pub inference_zero_bits: u64,
        /// RW-port read cycles (transposed reads for multiport cells, row reads
        /// for the 6T baseline).
        pub rw_read_cycles: u64,
        /// RW-port write cycles.
        pub rw_write_cycles: u64,
    }
}

impl AccessStats {
    /// Sum of all port activities (any kind of cycle).
    pub fn total_accesses(&self) -> u64 {
        self.inference_reads + self.rw_read_cycles + self.rw_write_cycles
    }
}

/// A functional `rows × cols` SRAM array of a given bitcell kind.
///
/// # Examples
///
/// ```
/// use esam_bits::BitMatrix;
/// use esam_sram::{ArrayConfig, BitcellKind, SramArray};
///
/// let cfg = ArrayConfig::paper_default(BitcellKind::multiport(4).unwrap());
/// let mut array = SramArray::new(cfg);
/// array.load_weights(&BitMatrix::from_fn(128, 128, |r, c| (r + c) % 2 == 0)).unwrap();
/// let row = array.inference_read(0, 5).unwrap();
/// assert_eq!(row.len(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct SramArray {
    config: ArrayConfig,
    bits: BitMatrix,
    /// Column-major copy of `bits` (its transpose): row `c` holds column
    /// `c`. Every method that writes `bits` writes this copy too.
    columns: BitMatrix,
    stats: AccessStats,
    ecc: Option<EccState>,
    /// The per-access energies of `config`, evaluated once.
    energies: AccessEnergies,
}

/// The four per-access energy factors of one array configuration — the
/// constants [`SramArray::energy_for_stats`] weighs the counters with,
/// taken from [`EnergyAnalysis`] when the array is built.
#[derive(Debug, Clone)]
struct AccessEnergies {
    inference_read_fixed: Joules,
    inference_read_per_zero: Joules,
    rw_read_cycle: Joules,
    /// The NBL write-margin verdict rides along: a geometry past the limit
    /// can still be read, and fails only once a write cycle is costed.
    rw_write_cycle: Result<Joules, SramError>,
}

impl AccessEnergies {
    fn new(energy: &EnergyAnalysis) -> Self {
        Self {
            inference_read_fixed: energy.inference_read_fixed(),
            inference_read_per_zero: energy.inference_read_per_zero(),
            rw_read_cycle: energy.rw_read_cycle(),
            rw_write_cycle: energy.rw_write_cycle(),
        }
    }
}

impl SramArray {
    /// Creates an array with all-zero content. Evaluates the
    /// configuration's per-access energies once, here (see
    /// [`energy_for_stats`](Self::energy_for_stats)).
    pub fn new(config: ArrayConfig) -> Self {
        let bits = BitMatrix::new(config.rows(), config.cols());
        let columns = BitMatrix::new(config.cols(), config.rows());
        let energies = AccessEnergies::new(&EnergyAnalysis::new(&config));
        Self {
            config,
            bits,
            columns,
            stats: AccessStats::default(),
            ecc: None,
            energies,
        }
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Immutable view of the stored bits.
    pub fn bits(&self) -> &BitMatrix {
        &self.bits
    }

    /// The packed words of column `col`: `rows().div_ceil(64)` words, row 0
    /// at the LSB of the first word and the tail bits zero — a copy-free
    /// look at the column view (see the module docs). Uncounted: a content
    /// probe, not a port access.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols()`.
    #[inline]
    pub fn column_words(&self, col: usize) -> &[u64] {
        self.columns.row_words(col)
    }

    /// The whole column view as one word slice, columns back to back:
    /// chunk `c` of `chunks_exact(rows().div_ceil(64))` is
    /// [`column_words(c)`](Self::column_words). A walk over every column
    /// reads it with no per-column call. Uncounted, like `column_words`.
    #[inline]
    pub fn column_view(&self) -> &[u64] {
        self.columns.words()
    }

    /// Access counters accumulated so far.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Resets the access counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    /// Bulk-initializes the contents (boot-time weight load; not counted as
    /// runtime accesses).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::DimensionMismatch`] when the matrix shape does
    /// not match the array.
    pub fn load_weights(&mut self, weights: &BitMatrix) -> Result<(), SramError> {
        if weights.rows() != self.config.rows() || weights.cols() != self.config.cols() {
            return Err(SramError::DimensionMismatch {
                expected: self.config.rows() * self.config.cols(),
                got: weights.rows() * weights.cols(),
            });
        }
        self.bits = weights.clone();
        self.columns = weights.transposed();
        if let Some(ecc) = &mut self.ecc {
            ecc.refresh_all(&self.bits);
        }
        Ok(())
    }

    /// Enables SECDED protection: encodes one codeword sidecar per row from
    /// the *current* contents (the spare-column check bits of a real
    /// macro). Idempotent — re-enabling re-encodes from the current store.
    pub fn enable_ecc(&mut self) {
        self.ecc = Some(EccState::encode_matrix(&self.bits));
    }

    /// Drops the stored codewords (back to the unprotected baseline).
    pub fn disable_ecc(&mut self) {
        self.ecc = None;
    }

    /// Whether codewords are currently stored.
    pub fn ecc_enabled(&self) -> bool {
        self.ecc.is_some()
    }

    /// Inverts one stored bit in place — the fault layer's physical
    /// bit-flip primitive (a particle strike or stuck-at materialization,
    /// not a port access), so it is **not counted** in [`AccessStats`] and
    /// needs no port. Flipping the same bit twice restores the cell. It
    /// deliberately bypasses the SECDED codeword refresh: the strike
    /// corrupts the cell *behind* the code's back, which is what the
    /// syndrome check exists to catch.
    ///
    /// # Errors
    ///
    /// [`SramError::RowOutOfRange`] or [`SramError::ColOutOfRange`].
    pub fn flip_bit(&mut self, row: usize, col: usize) -> Result<(), SramError> {
        if row >= self.config.rows() {
            return Err(SramError::RowOutOfRange {
                row,
                rows: self.config.rows(),
            });
        }
        if col >= self.config.cols() {
            return Err(SramError::ColOutOfRange {
                col,
                cols: self.config.cols(),
            });
        }
        self.flip(row, col);
        Ok(())
    }

    /// Reads one row through inference port `port` (0-based).
    ///
    /// For the 6T baseline only port 0 exists (its RW port). The returned
    /// bits mirror the cell contents exactly (M7 inverts `QB`, §3.2).
    ///
    /// # Errors
    ///
    /// [`SramError::PortOutOfRange`] or [`SramError::RowOutOfRange`].
    pub fn inference_read(&mut self, port: usize, row: usize) -> Result<BitVec, SramError> {
        let mut bits = BitVec::new(self.config.cols());
        let mut stats = self.stats;
        self.read_row_counted_into(&mut stats, port, row, &mut bits)?;
        self.stats = stats;
        Ok(bits)
    }

    /// Reads one row through inference port `port` into caller-owned
    /// scratch, counting the access in an *external* counter set instead of
    /// this array's own — the read behind
    /// [`inference_read`](Self::inference_read), also used by callers that
    /// keep per-worker counter mirrors so concurrent shards can read the
    /// same (immutable) array. The row lands in `dst` as a straight word
    /// copy (column 0 at the LSB of the first word).
    ///
    /// # Errors
    ///
    /// [`SramError::PortOutOfRange`] or [`SramError::RowOutOfRange`];
    /// [`SramError::DimensionMismatch`] when `dst.len()` is not the column
    /// count.
    pub fn read_row_counted_into(
        &self,
        stats: &mut AccessStats,
        port: usize,
        row: usize,
        dst: &mut BitVec,
    ) -> Result<(), SramError> {
        let available = self.config.cell().inference_parallelism();
        if port >= available {
            return Err(SramError::PortOutOfRange { port, available });
        }
        if row >= self.config.rows() {
            return Err(SramError::RowOutOfRange {
                row,
                rows: self.config.rows(),
            });
        }
        if dst.len() != self.config.cols() {
            return Err(SramError::DimensionMismatch {
                expected: self.config.cols(),
                got: dst.len(),
            });
        }
        self.bits.copy_row_into(row, dst);
        stats.inference_reads += 1;
        stats.inference_zero_bits += (self.config.cols() - dst.count_ones()) as u64;
        Ok(())
    }

    /// Reads one row into caller-owned scratch with a word-parallel SECDED
    /// syndrome check piggybacked on the packed-row read — the self-checking
    /// form of [`read_row_counted_into`](Self::read_row_counted_into).
    ///
    /// Under [`IntegrityMode::Correct`] a located single-bit data error is
    /// repaired in the *delivered* bits (`dst`); the stored row is healed
    /// later by [`scrub_audited`](Self::scrub_audited). Under
    /// [`IntegrityMode::Detect`] errors are counted but the raw bits are
    /// delivered unchanged. Under [`IntegrityMode::Off`] (or with ECC never
    /// enabled) this is exactly the unchecked read and reports
    /// [`RowVerdict::Clean`].
    ///
    /// Zero-bit energy counting happens *before* correction: the read-
    /// bitline discharge is driven by the stored (possibly corrupted)
    /// cells; the repair is downstream logic.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`read_row_counted_into`](Self::read_row_counted_into).
    #[allow(clippy::too_many_arguments)]
    pub fn read_row_checked_into(
        &self,
        stats: &mut AccessStats,
        tally: &mut IntegrityTally,
        mode: IntegrityMode,
        port: usize,
        row: usize,
        dst: &mut BitVec,
    ) -> Result<RowVerdict, SramError> {
        self.read_row_counted_into(stats, port, row, dst)?;
        let ecc = match (mode.checks(), &self.ecc) {
            (true, Some(ecc)) => ecc,
            _ => return Ok(RowVerdict::Clean),
        };
        tally.checked_reads += 1;
        let verdict = ecc.check_row(row, dst.words());
        match verdict {
            RowVerdict::Clean => {}
            RowVerdict::CorrectedData(col) => {
                tally.corrected += 1;
                if mode == IntegrityMode::Correct {
                    dst.set(col, !dst.get(col));
                }
            }
            RowVerdict::CorrectedCheck => tally.corrected += 1,
            RowVerdict::DetectedUncorrectable => tally.detected += 1,
        }
        Ok(verdict)
    }

    /// Background scrub pass with a golden audit.
    ///
    /// Under [`IntegrityMode::Correct`], walks every row: single-bit data
    /// errors are healed in place (`scrub_corrected`), flipped check bits
    /// re-encoded, and detected-uncorrectable rows reloaded from `golden`
    /// (`scrub_reloaded`). A final content audit against `golden` catches
    /// corruption the codeword could not see — counted as `silent` (SECDED
    /// guarantees zero for ≤ 2 flipped bits per row) and also reloaded.
    ///
    /// Under [`IntegrityMode::Detect`], rows differing from `golden` are
    /// reloaded without classification or counting — a frame-independence
    /// restore, not an audit. Under [`IntegrityMode::Off`] this is a no-op.
    ///
    /// `golden` models the pristine off-chip weight image a real deployment
    /// reloads from; it is never consulted on the read path.
    ///
    /// # Errors
    ///
    /// [`SramError::DimensionMismatch`] when `golden` does not match the
    /// array shape.
    pub fn scrub_audited(
        &mut self,
        golden: &BitMatrix,
        mode: IntegrityMode,
        tally: &mut IntegrityTally,
    ) -> Result<(), SramError> {
        if !mode.checks() {
            return Ok(());
        }
        if golden.rows() != self.config.rows() || golden.cols() != self.config.cols() {
            return Err(SramError::DimensionMismatch {
                expected: self.config.rows() * self.config.cols(),
                got: golden.rows() * golden.cols(),
            });
        }
        for row in 0..self.config.rows() {
            if mode == IntegrityMode::Detect {
                if self.bits.row_words(row) != golden.row_words(row) {
                    self.write_row(row, &golden.row(row));
                }
                continue;
            }
            let verdict = self
                .ecc
                .as_ref()
                .map(|ecc| ecc.check_row(row, self.bits.row_words(row)));
            match verdict {
                None | Some(RowVerdict::Clean) => {}
                Some(RowVerdict::CorrectedData(col)) => {
                    self.flip(row, col);
                    tally.scrub_corrected += 1;
                }
                Some(RowVerdict::CorrectedCheck) => {
                    if let Some(ecc) = &mut self.ecc {
                        ecc.refresh_row(row, self.bits.row_words(row));
                    }
                    tally.scrub_corrected += 1;
                }
                Some(RowVerdict::DetectedUncorrectable) => {
                    self.write_row(row, &golden.row(row));
                    tally.scrub_reloaded += 1;
                }
            }
            if self.bits.row_words(row) != golden.row_words(row) {
                tally.silent += 1;
                self.write_row(row, &golden.row(row));
                tally.scrub_reloaded += 1;
            }
        }
        Ok(())
    }

    /// Reads a full weight column through the transposed port.
    ///
    /// Costs `mux_ratio` RW-port cycles (4 in the paper: §4.4.1's `2 × 4`
    /// counts 4 read + 4 write cycles per column update). Allocates the
    /// column; [`transposed_read_into`](Self::transposed_read_into) is the
    /// same read into caller-owned scratch.
    ///
    /// # Errors
    ///
    /// [`SramError::NotTransposable`] on the 6T baseline,
    /// [`SramError::ColOutOfRange`] for bad addresses.
    pub fn transposed_read(&mut self, col: usize) -> Result<BitVec, SramError> {
        let mut column = BitVec::new(self.config.rows());
        self.transposed_read_into(col, &mut column)?;
        Ok(column)
    }

    /// Reads a full weight column through the transposed port into `dst`:
    /// a word copy of the column view, with the checks and the
    /// `mux_ratio`-cycle count of [`transposed_read`](Self::transposed_read).
    ///
    /// # Errors
    ///
    /// [`SramError::NotTransposable`] on the 6T baseline,
    /// [`SramError::ColOutOfRange`] for bad addresses and
    /// [`SramError::DimensionMismatch`] when `dst.len()` is not the row
    /// count; nothing is counted then.
    pub fn transposed_read_into(&mut self, col: usize, dst: &mut BitVec) -> Result<(), SramError> {
        self.require_transposable()?;
        if col >= self.config.cols() {
            return Err(SramError::ColOutOfRange {
                col,
                cols: self.config.cols(),
            });
        }
        if dst.len() != self.config.rows() {
            return Err(SramError::DimensionMismatch {
                expected: self.config.rows(),
                got: dst.len(),
            });
        }
        dst.words_mut().copy_from_slice(self.columns.row_words(col));
        self.stats.rw_read_cycles += self.config.mux_ratio() as u64;
        Ok(())
    }

    /// Writes a full weight column through the transposed port
    /// (`mux_ratio` NBL-assisted cycles).
    ///
    /// The column view takes the new column as a word copy; the row-major
    /// store changes only in the rows whose bit differs (the old and new
    /// column words XORed, the difference walked with `trailing_zeros`).
    ///
    /// # Errors
    ///
    /// [`SramError::NotTransposable`], [`SramError::ColOutOfRange`] or
    /// [`SramError::DimensionMismatch`].
    pub fn transposed_write(&mut self, col: usize, bits: &BitVec) -> Result<(), SramError> {
        self.require_transposable()?;
        if col >= self.config.cols() {
            return Err(SramError::ColOutOfRange {
                col,
                cols: self.config.cols(),
            });
        }
        if bits.len() != self.config.rows() {
            return Err(SramError::DimensionMismatch {
                expected: self.config.rows(),
                got: bits.len(),
            });
        }
        flip_differences(
            &mut self.bits,
            col,
            self.columns.row_words(col),
            bits.words(),
        );
        self.columns.set_row(col, bits);
        if let Some(ecc) = &mut self.ecc {
            // A column write touches one bit of every row: re-encode all
            // sidecars (the learning path is not read-latency critical).
            ecc.refresh_all(&self.bits);
        }
        self.stats.rw_write_cycles += self.config.mux_ratio() as u64;
        Ok(())
    }

    /// Reads one row through the RW port — the 6T baseline's only way to
    /// access weights for learning (one cycle per row, §4.4.1). Allocates
    /// the row; [`rowwise_read_into`](Self::rowwise_read_into) is the same
    /// read into caller-owned scratch.
    ///
    /// # Errors
    ///
    /// [`SramError::RowOutOfRange`]; also fails on multiport cells, whose RW
    /// port is column-oriented.
    pub fn rowwise_read(&mut self, row: usize) -> Result<BitVec, SramError> {
        let mut bits = BitVec::new(self.config.cols());
        self.rowwise_read_into(row, &mut bits)?;
        Ok(bits)
    }

    /// Reads one row through the RW port into `dst`, with the checks and
    /// the one-cycle count of [`rowwise_read`](Self::rowwise_read).
    ///
    /// # Errors
    ///
    /// Same conditions as [`rowwise_read`](Self::rowwise_read), plus
    /// [`SramError::DimensionMismatch`] when `dst.len()` is not the column
    /// count; nothing is counted then.
    pub fn rowwise_read_into(&mut self, row: usize, dst: &mut BitVec) -> Result<(), SramError> {
        if self.config.cell().is_transposable() {
            return Err(SramError::InvalidConfig(
                "row-wise RW access applies to the standard-orientation 6T baseline".into(),
            ));
        }
        if row >= self.config.rows() {
            return Err(SramError::RowOutOfRange {
                row,
                rows: self.config.rows(),
            });
        }
        if dst.len() != self.config.cols() {
            return Err(SramError::DimensionMismatch {
                expected: self.config.cols(),
                got: dst.len(),
            });
        }
        self.bits.copy_row_into(row, dst);
        self.stats.rw_read_cycles += 1;
        Ok(())
    }

    /// Writes one row through the RW port (6T baseline learning path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`rowwise_read`](Self::rowwise_read), plus
    /// [`SramError::DimensionMismatch`].
    pub fn rowwise_write(&mut self, row: usize, bits: &BitVec) -> Result<(), SramError> {
        if self.config.cell().is_transposable() {
            return Err(SramError::InvalidConfig(
                "row-wise RW access applies to the standard-orientation 6T baseline".into(),
            ));
        }
        if row >= self.config.rows() {
            return Err(SramError::RowOutOfRange {
                row,
                rows: self.config.rows(),
            });
        }
        if bits.len() != self.config.cols() {
            return Err(SramError::DimensionMismatch {
                expected: self.config.cols(),
                got: bits.len(),
            });
        }
        self.write_row(row, bits);
        self.stats.rw_write_cycles += 1;
        Ok(())
    }

    /// Timing analysis for this array's configuration.
    pub fn timing(&self) -> TimingAnalysis {
        TimingAnalysis::new(&self.config)
    }

    /// Energy analysis for this array's configuration.
    pub fn energy(&self) -> EnergyAnalysis {
        EnergyAnalysis::new(&self.config)
    }

    /// Dynamic energy implied by the accumulated [`AccessStats`].
    ///
    /// # Errors
    ///
    /// Propagates write-margin violations from the write-energy model.
    pub fn consumed_energy(&self) -> Result<Joules, SramError> {
        self.energy_for_stats(&self.stats)
    }

    /// Dynamic energy implied by an *external* counter set for an array of
    /// this configuration — the same reconstruction as
    /// [`consumed_energy`](Self::consumed_energy), used by callers that
    /// account accesses outside the array (e.g. per-worker shard counters).
    ///
    /// # Errors
    ///
    /// Propagates write-margin violations from the write-energy model.
    pub fn energy_for_stats(&self, stats: &AccessStats) -> Result<Joules, SramError> {
        let energy = &self.energies;
        let write = if stats.rw_write_cycles > 0 {
            energy.rw_write_cycle.clone()? * stats.rw_write_cycles as f64
        } else {
            Joules::ZERO
        };
        Ok(energy.inference_read_fixed * stats.inference_reads as f64
            + energy.inference_read_per_zero * stats.inference_zero_bits as f64
            + energy.rw_read_cycle * stats.rw_read_cycles as f64
            + write)
    }

    /// Writes row `row` into both stores and re-encodes its codeword — the
    /// row writer behind row-wise writes and scrub reloads. The column view
    /// changes only in the columns whose bit differs.
    fn write_row(&mut self, row: usize, bits: &BitVec) {
        flip_differences(
            &mut self.columns,
            row,
            self.bits.row_words(row),
            bits.words(),
        );
        self.bits.set_row(row, bits);
        if let Some(ecc) = &mut self.ecc {
            ecc.refresh_row(row, self.bits.row_words(row));
        }
    }

    /// Inverts one bit in both stores and leaves the codeword alone — a
    /// strike, or the scrub's in-place repair of a located data error.
    fn flip(&mut self, row: usize, col: usize) {
        self.bits.flip(row, col);
        self.columns.flip(col, row);
    }

    fn require_transposable(&self) -> Result<(), SramError> {
        if self.config.cell().is_transposable() {
            Ok(())
        } else {
            Err(SramError::NotTransposable)
        }
    }
}

/// Brings line `line` of the other store in step with a write: where the
/// `old` and `new` words of the written line differ at bit `k`, flips
/// `store`'s bit (`k`, `line`). A written column thus touches only the rows
/// it changes, and a written row only the columns it changes.
fn flip_differences(store: &mut BitMatrix, line: usize, old: &[u64], new: &[u64]) {
    for (index, (&before, &after)) in old.iter().zip(new).enumerate() {
        let mut diff = before ^ after;
        while diff != 0 {
            store.flip(
                index * BitVec::WORD_BITS + diff.trailing_zeros() as usize,
                line,
            );
            diff &= diff - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::BitcellKind;

    fn array(cell: BitcellKind) -> SramArray {
        SramArray::new(ArrayConfig::paper_default(cell))
    }

    fn checkerboard() -> BitMatrix {
        BitMatrix::from_fn(128, 128, |r, c| (r + c) % 2 == 0)
    }

    #[test]
    fn inference_read_mirrors_contents() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&checkerboard()).unwrap();
        for port in 0..4 {
            let row = a.inference_read(port, 7).unwrap();
            assert_eq!(row.to_bools(), checkerboard().row(7).to_bools());
        }
        assert_eq!(a.stats().inference_reads, 4);
        assert_eq!(a.stats().inference_zero_bits, 4 * 64);
    }

    #[test]
    fn flip_bit_is_uncounted_and_involutive() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&checkerboard()).unwrap();
        let before = a.bits().clone();
        a.flip_bit(3, 40).unwrap();
        assert_ne!(a.bits().get(3, 40), before.get(3, 40));
        a.flip_bit(3, 40).unwrap();
        assert_eq!(*a.bits(), before, "double flip restores the array");
        assert_eq!(a.stats().inference_reads, 0, "faults are not accesses");
        assert!(matches!(
            a.flip_bit(128, 0),
            Err(SramError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            a.flip_bit(0, 128),
            Err(SramError::ColOutOfRange { .. })
        ));
    }

    #[test]
    fn port_bounds_enforced() {
        let mut a = array(BitcellKind::multiport(2).unwrap());
        assert!(matches!(
            a.inference_read(2, 0),
            Err(SramError::PortOutOfRange {
                port: 2,
                available: 2
            })
        ));
        let mut a6 = array(BitcellKind::Std6T);
        assert!(a6.inference_read(0, 0).is_ok(), "6T reads via its RW port");
        assert!(a6.inference_read(1, 0).is_err());
    }

    #[test]
    fn read_row_counted_into_matches_allocating_read() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&checkerboard()).unwrap();
        let mut scratch = BitVec::new(128);
        let mut stats = AccessStats::default();
        for row in [0usize, 1, 64, 127] {
            a.read_row_counted_into(&mut stats, 1, row, &mut scratch)
                .unwrap();
            assert_eq!(scratch, a.inference_read(1, row).unwrap(), "row {row}");
        }
        // Identical counting: 4 reads each, same zero-bit totals.
        assert_eq!(stats, *a.stats());
        // Same bounds checks as the allocating read.
        assert!(matches!(
            a.read_row_counted_into(&mut stats, 4, 0, &mut scratch),
            Err(SramError::PortOutOfRange { .. })
        ));
        assert!(matches!(
            a.read_row_counted_into(&mut stats, 0, 128, &mut scratch),
            Err(SramError::RowOutOfRange { .. })
        ));
        let mut short = BitVec::new(64);
        assert!(matches!(
            a.read_row_counted_into(&mut stats, 0, 0, &mut short),
            Err(SramError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transposed_roundtrip_counts_mux_cycles() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        let column = BitVec::from_indices(128, &[0, 3, 127]);
        a.transposed_write(9, &column).unwrap();
        let read = a.transposed_read(9).unwrap();
        assert_eq!(read, column);
        // 4 write cycles + 4 read cycles (4:1 mux), §4.4.1.
        assert_eq!(a.stats().rw_write_cycles, 4);
        assert_eq!(a.stats().rw_read_cycles, 4);
    }

    #[test]
    fn transposed_access_rejected_on_6t() {
        let mut a = array(BitcellKind::Std6T);
        assert!(matches!(
            a.transposed_read(0),
            Err(SramError::NotTransposable)
        ));
        assert!(matches!(
            a.transposed_write(0, &BitVec::new(128)),
            Err(SramError::NotTransposable)
        ));
    }

    #[test]
    fn rowwise_roundtrip_on_6t() {
        let mut a = array(BitcellKind::Std6T);
        let row = BitVec::from_indices(128, &[1, 2, 3]);
        a.rowwise_write(42, &row).unwrap();
        assert_eq!(a.rowwise_read(42).unwrap(), row);
        assert_eq!(a.stats().rw_read_cycles, 1);
        assert_eq!(a.stats().rw_write_cycles, 1);
    }

    #[test]
    fn rowwise_rejected_on_multiport() {
        let mut a = array(BitcellKind::multiport(1).unwrap());
        assert!(a.rowwise_read(0).is_err());
        assert!(a.rowwise_write(0, &BitVec::new(128)).is_err());
    }

    #[test]
    fn checked_read_corrects_single_flips_and_detects_doubles() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&checkerboard()).unwrap();
        a.enable_ecc();
        assert!(a.ecc_enabled());
        let mut stats = AccessStats::default();
        let mut tally = IntegrityTally::default();
        let mut dst = BitVec::new(128);

        // Clean row: clean verdict, counted check, bits untouched.
        let v = a
            .read_row_checked_into(
                &mut stats,
                &mut tally,
                IntegrityMode::Correct,
                0,
                7,
                &mut dst,
            )
            .unwrap();
        assert_eq!(v, RowVerdict::Clean);
        assert_eq!(dst, checkerboard().row(7));
        assert_eq!(tally.checked_reads, 1);

        // Single-bit strike: Detect counts but delivers raw; Correct repairs.
        a.flip_bit(7, 33).unwrap();
        let v = a
            .read_row_checked_into(
                &mut stats,
                &mut tally,
                IntegrityMode::Detect,
                0,
                7,
                &mut dst,
            )
            .unwrap();
        assert_eq!(v, RowVerdict::CorrectedData(33));
        assert_ne!(dst, checkerboard().row(7), "Detect delivers raw bits");
        let v = a
            .read_row_checked_into(
                &mut stats,
                &mut tally,
                IntegrityMode::Correct,
                0,
                7,
                &mut dst,
            )
            .unwrap();
        assert_eq!(v, RowVerdict::CorrectedData(33));
        assert_eq!(dst, checkerboard().row(7), "Correct repairs the read");
        assert_eq!(tally.corrected, 2);

        // Second strike in the same row: detected, not miscorrected.
        a.flip_bit(7, 90).unwrap();
        let v = a
            .read_row_checked_into(
                &mut stats,
                &mut tally,
                IntegrityMode::Correct,
                0,
                7,
                &mut dst,
            )
            .unwrap();
        assert_eq!(v, RowVerdict::DetectedUncorrectable);
        assert_eq!(tally.detected, 1);

        // Off mode: no check, no counting, raw delivery.
        let before = tally;
        let v = a
            .read_row_checked_into(&mut stats, &mut tally, IntegrityMode::Off, 0, 7, &mut dst)
            .unwrap();
        assert_eq!(v, RowVerdict::Clean);
        assert_eq!(tally, before);
    }

    #[test]
    fn scrub_heals_the_store_and_audits_against_golden() {
        let golden = checkerboard();
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&golden).unwrap();
        a.enable_ecc();
        a.flip_bit(3, 10).unwrap(); // single-bit: healable in place
        a.flip_bit(5, 20).unwrap(); // double-bit: needs golden reload
        a.flip_bit(5, 21).unwrap();
        let mut tally = IntegrityTally::default();
        a.scrub_audited(&golden, IntegrityMode::Correct, &mut tally)
            .unwrap();
        assert_eq!(*a.bits(), golden, "scrub restores the pristine image");
        assert_eq!(tally.scrub_corrected, 1);
        assert_eq!(tally.scrub_reloaded, 1);
        assert_eq!(tally.silent, 0, "SECDED sees every <=2-bit upset");
        // Store healed: subsequent checked reads are clean again.
        let mut stats = AccessStats::default();
        let mut dst = BitVec::new(128);
        for row in [3usize, 5] {
            let v = a
                .read_row_checked_into(
                    &mut stats,
                    &mut tally,
                    IntegrityMode::Correct,
                    0,
                    row,
                    &mut dst,
                )
                .unwrap();
            assert_eq!(v, RowVerdict::Clean, "row {row}");
        }
    }

    #[test]
    fn detect_scrub_restores_without_counting() {
        let golden = checkerboard();
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&golden).unwrap();
        a.enable_ecc();
        a.flip_bit(0, 0).unwrap();
        a.flip_bit(1, 1).unwrap();
        a.flip_bit(1, 2).unwrap();
        let mut tally = IntegrityTally::default();
        a.scrub_audited(&golden, IntegrityMode::Detect, &mut tally)
            .unwrap();
        assert_eq!(*a.bits(), golden);
        assert_eq!(tally, IntegrityTally::default(), "restore, not audit");
        // Off mode never touches the store.
        a.flip_bit(2, 2).unwrap();
        a.scrub_audited(&golden, IntegrityMode::Off, &mut tally)
            .unwrap();
        assert_ne!(*a.bits(), golden);
    }

    #[test]
    fn legitimate_writes_refresh_codewords() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&checkerboard()).unwrap();
        a.enable_ecc();
        // Transposed (learning) write changes one bit of every row; the
        // sidecars must follow so the new content reads clean.
        let column = BitVec::from_indices(128, &[0, 5, 77]);
        a.transposed_write(64, &column).unwrap();
        let mut stats = AccessStats::default();
        let mut tally = IntegrityTally::default();
        let mut dst = BitVec::new(128);
        for row in 0..128 {
            let v = a
                .read_row_checked_into(
                    &mut stats,
                    &mut tally,
                    IntegrityMode::Correct,
                    0,
                    row,
                    &mut dst,
                )
                .unwrap();
            assert_eq!(v, RowVerdict::Clean, "row {row}");
        }
        // Bulk reload also re-encodes.
        a.flip_bit(9, 9).unwrap();
        a.load_weights(&checkerboard()).unwrap();
        let v = a
            .read_row_checked_into(
                &mut stats,
                &mut tally,
                IntegrityMode::Correct,
                0,
                9,
                &mut dst,
            )
            .unwrap();
        assert_eq!(v, RowVerdict::Clean);
        // And the 6T row-wise learning write on its own array kind.
        let mut a6 = array(BitcellKind::Std6T);
        a6.enable_ecc();
        a6.rowwise_write(4, &BitVec::from_indices(128, &[1, 2]))
            .unwrap();
        let v = a6
            .read_row_checked_into(
                &mut stats,
                &mut tally,
                IntegrityMode::Correct,
                0,
                4,
                &mut dst,
            )
            .unwrap();
        assert_eq!(v, RowVerdict::Clean);
    }

    #[test]
    fn consumed_energy_tracks_stats() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        a.load_weights(&checkerboard()).unwrap();
        assert!(a.consumed_energy().unwrap().is_zero());
        a.inference_read(0, 0).unwrap();
        let e1 = a.consumed_energy().unwrap();
        assert!(e1.fj() > 0.0);
        a.transposed_write(0, &BitVec::new(128)).unwrap();
        let e2 = a.consumed_energy().unwrap();
        assert!(e2 > e1);
        a.reset_stats();
        assert!(a.consumed_energy().unwrap().is_zero());
    }

    #[test]
    fn write_margin_fails_only_a_costed_write() {
        // 256 cells on a write bitline violate the −400 mV yield rule.
        let config =
            ArrayConfig::builder(256, 256, BitcellKind::multiport(4).unwrap()).build_unchecked();
        assert!(matches!(
            config.write_assist(),
            Err(SramError::WriteMargin(_))
        ));
        let a = SramArray::new(config);
        let reads = AccessStats {
            inference_reads: 3,
            inference_zero_bits: 40,
            rw_read_cycles: 8,
            rw_write_cycles: 0,
        };
        assert!(a.energy_for_stats(&reads).unwrap().fj() > 0.0);
        let writes = AccessStats {
            rw_write_cycles: 4,
            ..reads
        };
        assert!(matches!(
            a.energy_for_stats(&writes),
            Err(SramError::WriteMargin(_))
        ));
    }

    /// Chunk `c` of the column view is `column_words(c)`, for every `c`.
    fn assert_view_is_the_column_words(a: &SramArray, label: &str) {
        let per_column = a.config().rows().div_ceil(BitVec::WORD_BITS);
        let view = a.column_view();
        assert_eq!(view.len(), a.config().cols() * per_column, "{label}");
        for (c, chunk) in view.chunks_exact(per_column).enumerate() {
            assert_eq!(chunk, a.column_words(c), "{label}: column {c}");
            assert_eq!(chunk, a.bits().column(c).words(), "{label}: column {c}");
        }
    }

    #[test]
    fn column_view_chunks_are_the_column_words_after_every_mutator() {
        // 40 and 64 rows give one-word columns, 68 and 128 two-word ones
        // (row counts are multiples of the 4:1 row mux).
        for rows in [40usize, 64, 68, 128] {
            let golden = BitMatrix::from_fn(rows, 100, |r, c| (r * 7 + c * 3) % 5 < 2);
            for cell in [BitcellKind::Std6T, BitcellKind::multiport(4).unwrap()] {
                let label = format!("{rows} rows {cell}");
                let config = ArrayConfig::builder(rows, 100, cell).build().unwrap();
                let mut a = SramArray::new(config);
                assert_view_is_the_column_words(&a, &format!("{label}: fresh"));
                a.load_weights(&golden).unwrap();
                assert_view_is_the_column_words(&a, &format!("{label}: load"));
                a.flip_bit(rows - 1, 99).unwrap();
                assert_view_is_the_column_words(&a, &format!("{label}: flip"));
                if cell.is_transposable() {
                    let column = BitVec::from_indices(rows, &[0, 1, rows - 1]);
                    a.transposed_write(64, &column).unwrap();
                } else {
                    let row = BitVec::from_indices(100, &[0, 63, 64, 99]);
                    a.rowwise_write(rows / 2, &row).unwrap();
                }
                assert_view_is_the_column_words(&a, &format!("{label}: learning write"));
                a.enable_ecc();
                let mut tally = IntegrityTally::default();
                for mode in [IntegrityMode::Correct, IntegrityMode::Detect] {
                    // One single-bit row (healed in place under Correct)
                    // and one double-bit row (reloaded from golden).
                    for (row, col) in [(3, 10), (5, 20), (5, 21)] {
                        a.flip_bit(row, col).unwrap();
                    }
                    a.scrub_audited(&golden, mode, &mut tally).unwrap();
                    assert_eq!(*a.bits(), golden, "{label}: {mode:?} scrub");
                    assert_view_is_the_column_words(&a, &format!("{label}: {mode:?} scrub"));
                }
            }
        }
    }

    #[test]
    fn into_reads_match_the_allocating_reads() {
        // Ragged 124×100 blocks: both reads end in a partial word.
        let weights = BitMatrix::from_fn(124, 100, |r, c| (r * 7 + c * 3) % 5 < 2);
        let ragged = |cell| {
            let mut a = SramArray::new(ArrayConfig::builder(124, 100, cell).build().unwrap());
            a.load_weights(&weights).unwrap();
            a
        };

        let mut into = ragged(BitcellKind::multiport(4).unwrap());
        let mut allocating = into.clone();
        let mut column = BitVec::new(124);
        for col in [0usize, 1, 63, 64, 99] {
            into.transposed_read_into(col, &mut column).unwrap();
            assert_eq!(
                column,
                allocating.transposed_read(col).unwrap(),
                "column {col}"
            );
        }
        assert_eq!(into.stats(), allocating.stats());
        assert!(matches!(
            into.transposed_read_into(0, &mut BitVec::new(100)),
            Err(SramError::DimensionMismatch {
                expected: 124,
                got: 100
            })
        ));
        assert!(matches!(
            into.transposed_read_into(100, &mut column),
            Err(SramError::ColOutOfRange { .. })
        ));
        assert_eq!(
            into.stats(),
            allocating.stats(),
            "rejected reads count nothing"
        );

        let mut into = ragged(BitcellKind::Std6T);
        let mut allocating = into.clone();
        let mut row = BitVec::new(100);
        for r in [0usize, 1, 63, 64, 123] {
            into.rowwise_read_into(r, &mut row).unwrap();
            assert_eq!(row, allocating.rowwise_read(r).unwrap(), "row {r}");
        }
        assert_eq!(into.stats(), allocating.stats());
        assert!(matches!(
            into.rowwise_read_into(0, &mut BitVec::new(124)),
            Err(SramError::DimensionMismatch {
                expected: 100,
                got: 124
            })
        ));
        assert!(matches!(
            into.rowwise_read_into(124, &mut row),
            Err(SramError::RowOutOfRange { .. })
        ));
        assert!(into.transposed_read_into(0, &mut column).is_err());
        assert!(ragged(BitcellKind::multiport(2).unwrap())
            .rowwise_read_into(0, &mut row)
            .is_err());
        assert_eq!(
            into.stats(),
            allocating.stats(),
            "rejected reads count nothing"
        );
    }

    #[test]
    fn dimension_mismatch_reported() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        assert!(matches!(
            a.transposed_write(0, &BitVec::new(64)),
            Err(SramError::DimensionMismatch {
                expected: 128,
                got: 64
            })
        ));
        assert!(a.load_weights(&BitMatrix::new(64, 128)).is_err());
    }

    #[test]
    fn out_of_range_addresses() {
        let mut a = array(BitcellKind::multiport(4).unwrap());
        assert!(matches!(
            a.inference_read(0, 128),
            Err(SramError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            a.transposed_read(128),
            Err(SramError::ColOutOfRange { .. })
        ));
    }
}
