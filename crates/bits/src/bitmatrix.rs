//! Packed two-dimensional bit matrix (synaptic weight storage).

use std::fmt;

use crate::BitVec;

const WORD_BITS: usize = 64;

/// A `rows × cols` bit matrix packed row-major into `u64` words.
///
/// This is the functional view of the SRAM array content: rows are
/// pre-synaptic neurons (wordlines for Inference reads), columns are
/// post-synaptic neurons (the transposed access dimension used by on-chip
/// learning, Fig. 1(b)/(c)).
///
/// # Examples
///
/// ```
/// use esam_bits::BitMatrix;
///
/// let mut m = BitMatrix::new(128, 128);
/// m.set(3, 40, true);
/// assert!(m.get(3, 40));
/// assert_eq!(m.column(40).count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    cols: usize,
    words_per_row: usize,
}

impl BitMatrix {
    /// Creates an all-zero matrix with the given dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(WORD_BITS);
        Self {
            words: vec![0; rows * words_per_row],
            rows,
            cols,
            words_per_row,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every position.
    ///
    /// # Examples
    ///
    /// ```
    /// use esam_bits::BitMatrix;
    /// let identity = BitMatrix::from_fn(4, 4, |r, c| r == c);
    /// assert_eq!(identity.count_ones(), 4);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Number of rows (pre-synaptic dimension).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (post-synaptic dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the bit at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.check(row, col);
        let w = self.words[row * self.words_per_row + col / WORD_BITS];
        (w >> (col % WORD_BITS)) & 1 == 1
    }

    /// Writes the bit at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.check(row, col);
        let w = &mut self.words[row * self.words_per_row + col / WORD_BITS];
        let mask = 1u64 << (col % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Inverts the bit at (`row`, `col`) — the physical primitive behind
    /// fault-injected bit flips. XOR is involutive, so flipping the same
    /// position twice restores the original content exactly.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn flip(&mut self, row: usize, col: usize) {
        self.check(row, col);
        self.words[row * self.words_per_row + col / WORD_BITS] ^= 1u64 << (col % WORD_BITS);
    }

    /// The packed storage words of row `row` (an Inference wordline, ready
    /// for word-parallel consumption).
    ///
    /// Rows are stored contiguously: `cols.div_ceil(64)` words per row,
    /// column 0 — the leftmost bit — at the LSB of the first word, and the
    /// last word's bits at positions `>= cols % 64` always zero (the same
    /// canonical-tail invariant as [`BitVec::words`]).
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Every packed storage word, rows back to back: row `r` is
    /// `words()[r * w..(r + 1) * w]` with `w = cols().div_ceil(64)`, each
    /// laid out as [`row_words`](Self::row_words) describes (tail bits
    /// zero). One slice for a walk over all rows, with no per-row call.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Copies row `row` into `dst` without allocating — the hot-path form
    /// of [`row`](Self::row), a straight word-slice copy.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `dst.len() != cols()`.
    pub fn copy_row_into(&self, row: usize, dst: &mut BitVec) {
        assert_eq!(dst.len(), self.cols, "row width mismatch");
        dst.words_mut().copy_from_slice(self.row_words(row));
    }

    /// Returns row `row` as a [`BitVec`] (an Inference wordline read).
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    pub fn row(&self, row: usize) -> BitVec {
        let mut v = BitVec::new(self.cols);
        self.copy_row_into(row, &mut v);
        v
    }

    /// Returns column `col` as a [`BitVec`] (a transposed-port read).
    ///
    /// The column is gathered by direct word indexing — one shift/mask per
    /// row instead of a bounds-checked `get` per bit.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols()`.
    pub fn column(&self, col: usize) -> BitVec {
        assert!(col < self.cols, "column {col} out of range {}", self.cols);
        let mut v = BitVec::new(self.rows);
        let (cw, cb) = (col / WORD_BITS, col % WORD_BITS);
        let words = v.words_mut();
        for r in 0..self.rows {
            let bit = (self.words[r * self.words_per_row + cw] >> cb) & 1;
            words[r / WORD_BITS] |= bit << (r % WORD_BITS);
        }
        v
    }

    /// Overwrites row `row` with `bits` — a straight word-slice copy (rows
    /// are contiguous; see [`row_words`](Self::row_words)).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `bits.len() != cols()`.
    pub fn set_row(&mut self, row: usize, bits: &BitVec) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert_eq!(bits.len(), self.cols, "row width mismatch");
        self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
            .copy_from_slice(bits.words());
    }

    /// The transpose: a `cols × rows` matrix whose row `c` is column `c`
    /// of this one, so [`row_words`](Self::row_words) of the transpose are
    /// the packed words of a column. Built by walking the set bits of each
    /// row word (`trailing_zeros`), not by a per-bit `get`.
    pub fn transposed(&self) -> BitMatrix {
        let mut t = BitMatrix::new(self.cols, self.rows);
        for r in 0..self.rows {
            let (rw, rb) = (r / WORD_BITS, r % WORD_BITS);
            for (w, &word) in self.row_words(r).iter().enumerate() {
                let mut remaining = word;
                while remaining != 0 {
                    let c = w * WORD_BITS + remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    t.words[c * t.words_per_row + rw] |= 1u64 << rb;
                }
            }
        }
        t
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of stored bits (`rows × cols`).
    pub fn bit_count(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitMatrix[{}x{}, {} ones]",
            self.rows,
            self.cols,
            self.count_ones()
        )
    }
}

impl BitMatrix {
    #[inline]
    fn check(&self, row: usize, col: usize) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert!(col < self.cols, "column {col} out of range {}", self.cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_dimensions() {
        let m = BitMatrix::new(128, 130);
        assert_eq!(m.rows(), 128);
        assert_eq!(m.cols(), 130);
        assert_eq!(m.bit_count(), 128 * 130);
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn flip_toggles_and_is_involutive() {
        let mut m = BitMatrix::new(5, 70);
        m.flip(4, 69);
        assert!(m.get(4, 69));
        m.flip(4, 69);
        assert!(!m.get(4, 69));
        assert_eq!(m.count_ones(), 0, "double flip restores the matrix");
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::new(5, 70);
        m.set(4, 69, true);
        m.set(0, 0, true);
        assert!(m.get(4, 69));
        assert!(m.get(0, 0));
        assert!(!m.get(1, 1));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn row_column_extraction() {
        let m = BitMatrix::from_fn(8, 8, |r, c| r == c || c == 3);
        let row2 = m.row(2);
        assert_eq!(row2.iter_ones().collect::<Vec<_>>(), vec![2, 3]);
        let col3 = m.column(3);
        assert_eq!(col3.count_ones(), 8);
    }

    #[test]
    fn set_row_and_column() {
        let mut m = BitMatrix::new(4, 4);
        m.set_row(1, &BitVec::from_indices(4, &[0, 3]));
        assert!(m.get(1, 0) && m.get(1, 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitMatrix::new(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn set_row_wrong_width_panics() {
        BitMatrix::new(2, 4).set_row(0, &BitVec::new(3));
    }

    #[test]
    fn row_words_match_bitwise_reads() {
        let m = BitMatrix::from_fn(5, 130, |r, c| (r * 31 + c * 7) % 5 == 0);
        for r in 0..5 {
            let words = m.row_words(r);
            assert_eq!(words.len(), 3);
            for c in 0..130 {
                assert_eq!(
                    (words[c / 64] >> (c % 64)) & 1 == 1,
                    m.get(r, c),
                    "({r},{c})"
                );
            }
            // Canonical tail: bits ≥ 130 % 64 of the last word are zero.
            assert_eq!(words[2] >> 2, 0);
            let mut dst = BitVec::new(130);
            m.copy_row_into(r, &mut dst);
            assert_eq!(dst, m.row(r));
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn copy_row_into_rejects_wrong_width() {
        BitMatrix::new(2, 10).copy_row_into(0, &mut BitVec::new(9));
    }

    #[test]
    fn words_lay_the_rows_back_to_back() {
        for (rows, cols) in [(1, 1), (3, 64), (5, 65), (4, 130), (128, 128)] {
            let m = BitMatrix::from_fn(rows, cols, |r, c| (r * 13 + c * 5) % 3 == 0);
            let per_row = cols.div_ceil(64);
            assert_eq!(m.words().len(), rows * per_row, "{rows}x{cols}");
            for (r, row) in m.words().chunks_exact(per_row).enumerate() {
                assert_eq!(row, m.row_words(r), "{rows}x{cols} row {r}");
                // Canonical tail: bits ≥ cols % 64 of the last word are zero.
                if cols % 64 != 0 {
                    assert_eq!(row[per_row - 1] >> (cols % 64), 0, "{rows}x{cols} row {r}");
                }
            }
        }
    }

    #[test]
    fn transpose_identity() {
        // row(i) of M equals column(i) of M when M is symmetric.
        let m = BitMatrix::from_fn(16, 16, |r, c| (r + c) % 3 == 0);
        for i in 0..16 {
            assert_eq!(m.row(i).to_bools(), m.column(i).to_bools());
        }
    }

    #[test]
    fn transposed_ragged_shape_swaps_rows_and_columns() {
        let m = BitMatrix::from_fn(130, 5, |r, c| (r * 7 + c * 3) % 4 == 0);
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (5, 130));
        for c in 0..5 {
            assert_eq!(t.row(c), m.column(c), "column {c}");
            let words = t.row_words(c);
            assert_eq!(words.len(), 3);
            // Canonical tail: bits ≥ 130 % 64 of the last word are zero.
            assert_eq!(words[2] >> 2, 0, "column {c}");
        }
        assert_eq!(t.count_ones(), m.count_ones());
    }

    #[test]
    fn transposing_twice_is_the_identity() {
        for (rows, cols) in [(1, 1), (64, 65), (130, 5), (128, 128)] {
            let m = BitMatrix::from_fn(rows, cols, |r, c| (r * 31 + c * 17) % 3 == 0);
            assert_eq!(m.transposed().transposed(), m, "{rows}x{cols}");
        }
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", BitMatrix::new(1, 1)).is_empty());
    }
}
