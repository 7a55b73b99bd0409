//! SECDED ECC for weight rows: Hamming single-error correction plus an
//! overall parity bit for double-error detection.
//!
//! Production SRAM macros at scaled nodes ship ECC because bitcell upsets
//! are a fact of life; this module gives the modeled CIM array the same
//! self-checking ability, with **no oracle** — detection and correction
//! use only the stored codeword, never the fault plan.
//!
//! # Codeword layout
//!
//! Each row of `k` data bits (`k ≤ 128` for the paper's arrays) is
//! protected by `r` Hamming check bits with `2^r ≥ k + r + 1` plus one
//! overall parity bit, stored *beside* the row (spare columns in a real
//! macro; a `u16` sidecar word per row here — `r + 1 ≤ 9` bits for
//! `k ≤ 128`). Data bits occupy the non-power-of-two codeword positions
//! `1..=n` in order; check bit `j` lives at position `2^j` and covers every
//! position with bit `j` set.
//!
//! # Syndrome path
//!
//! The hot read path is word-parallel: check bit `j`'s data coverage is
//! precomputed as a mask over the row's packed `u64` words, so one
//! syndrome bit is an AND + XOR-fold + popcount-parity over
//! `cols.div_ceil(64)` words — the check piggybacks on the packed-row read
//! instead of walking bits. A scalar bit-by-bit reference
//! ([`SecdedCode::encode_reference`], [`SecdedCode::syndrome_reference`])
//! is retained and pinned equivalent by proptests.
//!
//! # Classification
//!
//! With syndrome `s` (over data + stored check bits) and overall parity
//! mismatch `p`:
//!
//! | `s`     | `p`   | verdict |
//! |---------|-------|---------|
//! | 0       | clean | [`RowVerdict::Clean`] |
//! | ≠0      | odd   | single-bit error at position `s` (data or check bit) — correctable |
//! | 0       | odd   | the overall parity bit itself flipped — data intact |
//! | ≠0      | clean | double-bit error — detected, **not** miscorrected |

use esam_bits::{BitMatrix, BitVec};

/// How the read path treats the per-row SECDED codewords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No codewords, no syndrome checks: bit-identical to the unprotected
    /// baseline (outputs, counters, allocations).
    #[default]
    Off,
    /// Syndrome-check every row read and count what is found, but deliver
    /// the raw (possibly corrupted) bits — the "monitoring only" rung of
    /// the quarantine ladder.
    Detect,
    /// Syndrome-check every row read and repair single-bit errors in the
    /// delivered bits (the stored row is healed later by the scrub pass).
    Correct,
}

impl IntegrityMode {
    /// Whether this mode performs syndrome checks at all.
    pub fn checks(self) -> bool {
        !matches!(self, IntegrityMode::Off)
    }
}

esam_obs::counters! {
    /// Integrity event counters, merged under the workspace's exact u64 law
    /// (plain sums — bit-identical at any thread or core count).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct IntegrityTally {
        /// Row reads that went through the syndrome check.
        pub checked_reads: u64,
        /// Single-bit (correctable) errors observed on reads. Under
        /// [`IntegrityMode::Correct`] the delivered bits were repaired; under
        /// [`IntegrityMode::Detect`] the error was only counted.
        pub corrected: u64,
        /// Double-bit (detected-uncorrectable) errors observed on reads.
        pub detected: u64,
        /// Corruption the codeword could *not* see (verdict `Clean`, content
        /// wrong), found by the scrub pass's golden audit. SECDED guarantees
        /// this stays zero for ≤ 2 flipped bits per row.
        pub silent: u64,
        /// Rows healed in place by the scrub pass (single-bit errors).
        pub scrub_corrected: u64,
        /// Rows the scrub pass had to reload from the golden store
        /// (uncorrectable or silent corruption).
        pub scrub_reloaded: u64,
    }
}

impl IntegrityTally {
    /// Uncorrectable events: detected-uncorrectable reads plus golden
    /// reloads — the signal the serving layer's health monitor folds into
    /// quarantine decisions.
    pub fn uncorrectable(&self) -> u64 {
        self.detected.saturating_add(self.scrub_reloaded)
    }
}

/// What the syndrome check concluded about one row read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowVerdict {
    /// Syndrome zero, parity clean: the codeword is consistent.
    Clean,
    /// Single-bit error in a *data* bit at this column — corrected in the
    /// delivered bits under [`IntegrityMode::Correct`].
    CorrectedData(usize),
    /// Single-bit error in a stored check bit (or the overall parity bit):
    /// the data bits are intact.
    CorrectedCheck,
    /// Double-bit error: detected, deliberately not miscorrected.
    DetectedUncorrectable,
}

/// A SECDED code for rows of a fixed width, with precomputed word-parallel
/// syndrome masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecdedCode {
    /// Data bits per row.
    k: usize,
    /// Hamming check bits (`2^r ≥ k + r + 1`).
    r: usize,
    /// Codeword length without the overall parity bit (`k + r`).
    n: usize,
    /// `masks[j]` covers the data bits check bit `j` protects, as packed
    /// words aligned with [`BitMatrix::row_words`].
    masks: Vec<Vec<u64>>,
    /// Codeword position (1-based) of each data bit.
    data_pos: Vec<u32>,
    /// Data index of each codeword position (`usize::MAX` marks check-bit
    /// positions); index 0 unused.
    pos_data: Vec<usize>,
}

/// Parity (as 0/1 in the LSB) of the popcount of `words`.
#[inline]
fn words_parity(words: &[u64]) -> u64 {
    words.iter().fold(0u64, |acc, w| acc ^ w).count_ones() as u64 & 1
}

impl SecdedCode {
    /// Builds the code for rows of `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero (an empty row has nothing to protect) or
    /// needs more than 15 sidecar bits (`k` beyond ~16 Kbit per row — far
    /// past any modeled array).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "SECDED over an empty row");
        let mut r = 1usize;
        while (1usize << r) < k + r + 1 {
            r += 1;
        }
        assert!(r < 15, "row width {k} needs too many check bits");
        let n = k + r;
        let words_per_row = k.div_ceil(64);
        let mut masks = vec![vec![0u64; words_per_row]; r];
        let mut data_pos = Vec::with_capacity(k);
        let mut pos_data = vec![usize::MAX; n + 1];
        let mut pos = 1u32;
        for i in 0..k {
            while (pos & (pos - 1)) == 0 {
                pos += 1; // skip power-of-two (check bit) positions
            }
            data_pos.push(pos);
            pos_data[pos as usize] = i;
            for (j, mask) in masks.iter_mut().enumerate() {
                if pos >> j & 1 == 1 {
                    mask[i / 64] |= 1u64 << (i % 64);
                }
            }
            pos += 1;
        }
        Self {
            k,
            r,
            n,
            masks,
            data_pos,
            pos_data,
        }
    }

    /// Data bits per row.
    pub fn data_bits(&self) -> usize {
        self.k
    }

    /// Hamming check bits per row (the sidecar word carries `r + 1` bits
    /// including the overall parity).
    pub fn check_bits(&self) -> usize {
        self.r
    }

    /// Encodes one packed row into its sidecar word: Hamming check bits in
    /// bits `0..r`, the overall parity bit at bit `r` (chosen so the full
    /// codeword — data + check + parity — has even parity).
    pub fn encode(&self, row_words: &[u64]) -> u16 {
        debug_assert_eq!(row_words.len(), self.k.div_ceil(64));
        let mut sidecar = 0u16;
        let mut total = words_parity(row_words);
        for (j, mask) in self.masks.iter().enumerate() {
            let covered: u64 = row_words
                .iter()
                .zip(mask)
                .fold(0u64, |acc, (w, m)| acc ^ (w & m))
                .count_ones() as u64
                & 1;
            sidecar |= (covered as u16) << j;
            total ^= covered;
        }
        sidecar | ((total as u16) << self.r)
    }

    /// Scalar bit-by-bit reference of [`encode`](Self::encode), used by
    /// the property suite to pin the word-parallel masks.
    pub fn encode_reference(&self, row: &BitVec) -> u16 {
        assert_eq!(row.len(), self.k);
        let mut sidecar = 0u16;
        let mut total = 0u16;
        for j in 0..self.r {
            let mut parity = 0u16;
            for (i, &pos) in self.data_pos.iter().enumerate() {
                if pos >> j & 1 == 1 && row.get(i) {
                    parity ^= 1;
                }
            }
            sidecar |= parity << j;
            total ^= parity;
        }
        for i in 0..self.k {
            if row.get(i) {
                total ^= 1;
            }
        }
        sidecar | (total << self.r)
    }

    /// Word-parallel syndrome of a read row against its stored sidecar:
    /// returns `(syndrome, parity_mismatch)`.
    pub fn syndrome(&self, row_words: &[u64], sidecar: u16) -> (u32, bool) {
        debug_assert_eq!(row_words.len(), self.k.div_ceil(64));
        let mut s = 0u32;
        let mut total = words_parity(row_words) as u16;
        for (j, mask) in self.masks.iter().enumerate() {
            let covered: u64 = row_words
                .iter()
                .zip(mask)
                .fold(0u64, |acc, (w, m)| acc ^ (w & m))
                .count_ones() as u64
                & 1;
            let stored = u64::from(sidecar) >> j & 1;
            s |= ((covered ^ stored) as u32) << j;
            total ^= stored as u16;
        }
        total ^= sidecar >> self.r & 1;
        (s, total & 1 == 1)
    }

    /// Scalar reference of [`syndrome`](Self::syndrome).
    pub fn syndrome_reference(&self, row: &BitVec, sidecar: u16) -> (u32, bool) {
        let recomputed = self.encode_reference(row);
        let mut s = 0u32;
        for j in 0..self.r {
            s |= u32::from((recomputed ^ sidecar) >> j & 1) << j;
        }
        // Parity mismatch: the total parity over data + stored check bits +
        // stored parity bit is odd.
        let mut total = 0u16;
        for i in 0..self.k {
            total ^= u16::from(row.get(i));
        }
        for j in 0..=self.r {
            total ^= sidecar >> j & 1;
        }
        (s, total & 1 == 1)
    }

    /// Classifies one read from its syndrome/parity pair.
    pub fn classify(&self, syndrome: u32, parity_mismatch: bool) -> RowVerdict {
        match (syndrome, parity_mismatch) {
            (0, false) => RowVerdict::Clean,
            (0, true) => RowVerdict::CorrectedCheck, // the parity bit itself
            (s, true) => {
                let s = s as usize;
                if s <= self.n && self.pos_data[s] != usize::MAX {
                    RowVerdict::CorrectedData(self.pos_data[s])
                } else {
                    // A power-of-two position (a stored check bit flipped)
                    // or an out-of-range syndrome that cannot name a data
                    // bit: the data itself is intact either way.
                    RowVerdict::CorrectedCheck
                }
            }
            (_, false) => RowVerdict::DetectedUncorrectable,
        }
    }
}

/// Per-array SECDED state: the code plus one sidecar word per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccState {
    code: SecdedCode,
    sidecars: Vec<u16>,
}

impl EccState {
    /// Encodes every row of `bits` (row width = `bits.cols()`).
    pub fn encode_matrix(bits: &BitMatrix) -> Self {
        let code = SecdedCode::new(bits.cols());
        let sidecars = (0..bits.rows())
            .map(|row| code.encode(bits.row_words(row)))
            .collect();
        Self { code, sidecars }
    }

    /// The code in effect.
    pub fn code(&self) -> &SecdedCode {
        &self.code
    }

    /// The stored sidecar word of `row`.
    pub fn sidecar(&self, row: usize) -> u16 {
        self.sidecars[row]
    }

    /// Re-encodes `row` from its current content (a legitimate write path
    /// refreshing the codeword; fault strikes deliberately bypass this).
    pub fn refresh_row(&mut self, row: usize, row_words: &[u64]) {
        self.sidecars[row] = self.code.encode(row_words);
    }

    /// Re-encodes every row (bulk load path).
    pub fn refresh_all(&mut self, bits: &BitMatrix) {
        debug_assert_eq!(self.sidecars.len(), bits.rows());
        for row in 0..bits.rows() {
            self.sidecars[row] = self.code.encode(bits.row_words(row));
        }
    }

    /// Syndrome-checks one read row (its packed words) against the stored
    /// sidecar and classifies the result. Pure — the repair decisions
    /// belong to the caller, which owns the delivered bits and the store.
    pub fn check_row(&self, row: usize, row_words: &[u64]) -> RowVerdict {
        let (s, p) = self.code.syndrome(row_words, self.sidecars[row]);
        self.code.classify(s, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_row(width: usize, seed: u64) -> BitVec {
        // Deterministic pseudo-random content (splitmix-style walk).
        let mut v = BitVec::new(width);
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for i in 0..width {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            if x & 1 == 1 {
                v.set(i, true);
            }
        }
        v
    }

    #[test]
    fn code_dimensions_match_hamming_bound() {
        for (k, r) in [
            (1, 2),
            (4, 3),
            (11, 4),
            (26, 5),
            (57, 6),
            (120, 7),
            (128, 8),
        ] {
            let code = SecdedCode::new(k);
            assert_eq!(code.check_bits(), r, "k = {k}");
            assert!((1 << r) > k + r);
        }
    }

    #[test]
    fn encode_matches_scalar_reference() {
        for width in [1usize, 7, 63, 64, 65, 128] {
            let code = SecdedCode::new(width);
            for seed in 0..8u64 {
                let row = random_row(width, seed);
                assert_eq!(
                    code.encode(row.words()),
                    code.encode_reference(&row),
                    "width {width} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn clean_rows_have_zero_syndrome() {
        let code = SecdedCode::new(128);
        for seed in 0..8u64 {
            let row = random_row(128, seed);
            let sidecar = code.encode(row.words());
            let (s, p) = code.syndrome(row.words(), sidecar);
            assert_eq!((s, p), (0, false));
            assert_eq!(code.classify(s, p), RowVerdict::Clean);
            assert_eq!(code.syndrome_reference(&row, sidecar), (0, false));
        }
    }

    #[test]
    fn every_single_data_flip_is_located() {
        let code = SecdedCode::new(128);
        let row = random_row(128, 3);
        let sidecar = code.encode(row.words());
        for col in 0..128 {
            let mut struck = row.clone();
            struck.set(col, !struck.get(col));
            let (s, p) = code.syndrome(struck.words(), sidecar);
            assert_eq!(
                code.classify(s, p),
                RowVerdict::CorrectedData(col),
                "flip at {col}"
            );
            assert_eq!(code.syndrome_reference(&struck, sidecar), (s, p));
        }
    }

    #[test]
    fn every_sidecar_bit_flip_is_a_check_correction() {
        let code = SecdedCode::new(128);
        let row = random_row(128, 5);
        let sidecar = code.encode(row.words());
        for bit in 0..=code.check_bits() {
            let struck = sidecar ^ (1 << bit);
            let (s, p) = code.syndrome(row.words(), struck);
            assert_eq!(
                code.classify(s, p),
                RowVerdict::CorrectedCheck,
                "sidecar bit {bit}"
            );
        }
    }

    #[test]
    fn double_flips_detect_without_miscorrection() {
        let code = SecdedCode::new(64);
        let row = random_row(64, 9);
        let sidecar = code.encode(row.words());
        for a in 0..64 {
            for b in (a + 1)..64 {
                let mut struck = row.clone();
                struck.set(a, !struck.get(a));
                struck.set(b, !struck.get(b));
                let (s, p) = code.syndrome(struck.words(), sidecar);
                assert_eq!(
                    code.classify(s, p),
                    RowVerdict::DetectedUncorrectable,
                    "flips at {a},{b}"
                );
            }
        }
    }

    #[test]
    fn ecc_state_tracks_a_matrix() {
        let bits = BitMatrix::from_fn(16, 70, |r, c| (r * 31 + c * 7) % 3 == 0);
        let mut state = EccState::encode_matrix(&bits);
        for row in 0..16 {
            assert_eq!(state.check_row(row, bits.row_words(row)), RowVerdict::Clean);
        }
        let mut struck = bits.clone();
        struck.flip(4, 69);
        assert_eq!(
            state.check_row(4, struck.row_words(4)),
            RowVerdict::CorrectedData(69)
        );
        // A legitimate rewrite refreshes the codeword: clean again.
        state.refresh_row(4, struck.row_words(4));
        assert_eq!(state.check_row(4, struck.row_words(4)), RowVerdict::Clean);
        state.refresh_all(&bits);
        assert_eq!(state.check_row(4, bits.row_words(4)), RowVerdict::Clean);
        assert_eq!(state.code().data_bits(), 70);
        assert!(state.sidecar(0) == EccState::encode_matrix(&bits).sidecar(0));
    }

    #[test]
    fn uncorrectable_sums_detected_reads_and_reloads() {
        let tally = IntegrityTally {
            detected: 3,
            scrub_reloaded: 5,
            ..IntegrityTally::default()
        };
        assert_eq!(tally.uncorrectable(), 3 + 5);
    }

    #[test]
    fn off_mode_never_checks() {
        assert!(!IntegrityMode::Off.checks());
        assert!(IntegrityMode::Detect.checks());
        assert!(IntegrityMode::Correct.checks());
        assert_eq!(IntegrityMode::default(), IntegrityMode::Off);
    }
}
