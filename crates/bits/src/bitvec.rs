//! Fixed-length packed bit vector.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length bit vector packed into `u64` words.
///
/// Bit index `0` is the *leftmost* bit — the highest-priority position for
/// the paper's fixed-priority encoder (§3.3). The length is fixed at
/// construction; all accessors panic on out-of-range indices, mirroring how
/// a hardware request bus has a fixed width.
///
/// # Examples
///
/// ```
/// use esam_bits::BitVec;
///
/// let mut v = BitVec::new(10);
/// v.set(9, true);
/// assert!(v.get(9));
/// assert_eq!(v.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Number of bits packed into one storage word.
    ///
    /// Bit `i` of the vector lives in word `i / WORD_BITS` at bit position
    /// `i % WORD_BITS` (the word's LSB side), so bit index 0 — the
    /// *leftmost*, highest-priority request line — is the least-significant
    /// bit of the first word. Word-level scans therefore walk priority
    /// order with `trailing_zeros`, never `leading_zeros`.
    pub const WORD_BITS: usize = WORD_BITS;

    /// Creates an all-zero bit vector of `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bit vector from a slice of booleans, preserving order.
    ///
    /// # Examples
    ///
    /// ```
    /// use esam_bits::BitVec;
    /// let v = BitVec::from_bools(&[true, false, true]);
    /// assert_eq!(v.count_ones(), 2);
    /// ```
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a bit vector of `len` bits where exactly the listed indices
    /// are set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut v = Self::new(len);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Sets every bit to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Makes this an all-zero vector of `len` bits, keeping the word
    /// storage: a scratch vector re-sized this way allocates only when it
    /// grows past every length it held before.
    ///
    /// # Examples
    ///
    /// ```
    /// use esam_bits::BitVec;
    /// let mut v = BitVec::from_indices(128, &[3, 100]);
    /// v.reset(4);
    /// assert_eq!(v, BitVec::new(4));
    /// ```
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
    }

    /// Sets every bit to one.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if at least one bit is set. This is the inverse of the
    /// paper's `noR` flag (Fig. 4(b)).
    #[inline]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Index of the first (leftmost, highest-priority) set bit, if any.
    ///
    /// This is exactly the selection the paper's fixed-priority encoder
    /// performs on the request vector `R`: because bit 0 is the leftmost
    /// (highest-priority) position and lives at the LSB of word 0, the scan
    /// is a `trailing_zeros` over the first non-zero word.
    #[inline]
    pub fn first_set(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterator over the indices of set bits, in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// use esam_bits::BitVec;
    /// let v = BitVec::from_indices(8, &[1, 5]);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 5]);
    /// ```
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The packed storage words, least-significant-bit first.
    ///
    /// Bit `i` of the vector is bit `i % WORD_BITS` (LSB side) of word
    /// `i / WORD_BITS`, so bit 0 — the leftmost, highest-priority position —
    /// is the LSB of `words()[0]`. Bits of the last word at positions
    /// `>= len() % WORD_BITS` are always zero (the canonical-tail
    /// invariant `Eq`/`Hash` rely on).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed storage words.
    ///
    /// Same layout as [`words`](Self::words): bit 0 of the vector is the
    /// LSB of word 0. Callers must preserve the canonical-tail invariant —
    /// bits of the last word at positions `>= len() % WORD_BITS` must stay
    /// zero — or `Eq`, `Hash`, `count_ones` and `any` become meaningless.
    /// Clearing bits is always safe; setting bits is safe only below
    /// `len()`.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Copies all of `src` into `self` starting at bit `dst_start`,
    /// overwriting exactly the bits `dst_start..dst_start + src.len()` and
    /// leaving every other bit untouched.
    ///
    /// `dst_start` must be word-aligned (`dst_start % WORD_BITS == 0`), so
    /// the copy is a handful of whole-word moves plus one masked merge for
    /// a partial tail — assembling a 128-bit sub-row is two word copies.
    /// Bit ordering follows the packed layout: bit 0 = leftmost = LSB of
    /// word 0, so `src` bit `k` lands at vector bit `dst_start + k`.
    ///
    /// # Panics
    ///
    /// Panics when `dst_start` is not word-aligned or the copy would run
    /// past `len()`.
    pub fn copy_bits_from(&mut self, src: &BitVec, dst_start: usize) {
        assert!(
            dst_start.is_multiple_of(WORD_BITS),
            "destination offset {dst_start} is not word-aligned"
        );
        assert!(
            dst_start + src.len <= self.len,
            "copy of {} bits at {dst_start} overruns length {}",
            src.len,
            self.len
        );
        let w0 = dst_start / WORD_BITS;
        let full = src.len / WORD_BITS;
        self.words[w0..w0 + full].copy_from_slice(&src.words[..full]);
        let tail = src.len % WORD_BITS;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            let dst = &mut self.words[w0 + full];
            *dst = (*dst & !mask) | (src.words[full] & mask);
        }
    }

    /// ORs a *window of the source* into `self`: `self |=
    /// src[src_start..src_start + len()]`.
    ///
    /// Note the asymmetry with [`copy_bits_from`](Self::copy_bits_from):
    /// there the offset positions the write inside the *destination*; here
    /// it selects the sub-range of the *source* (hence the name). Both
    /// offsets must be word-aligned; the whole operation is then a
    /// word-wise OR loop. Bit ordering follows the packed layout (bit 0 =
    /// leftmost = LSB of word 0): `src` bit `src_start + k` ORs into
    /// vector bit `k`.
    ///
    /// # Panics
    ///
    /// Panics when `src_start` is not word-aligned or the range runs past
    /// `src.len()`.
    pub fn or_window_of(&mut self, src: &BitVec, src_start: usize) {
        assert!(
            src_start.is_multiple_of(WORD_BITS),
            "source offset {src_start} is not word-aligned"
        );
        assert!(
            src_start + self.len <= src.len,
            "range of {} bits at {src_start} overruns source length {}",
            self.len,
            src.len
        );
        let w0 = src_start / WORD_BITS;
        let full = self.len / WORD_BITS;
        for (dst, s) in self.words[..full].iter_mut().zip(&src.words[w0..]) {
            *dst |= *s;
        }
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            self.words[full] |= src.words[w0 + full] & ((1u64 << tail) - 1);
        }
    }

    /// ORs `self` into `dst` (`dst |= self`) — the "push" direction of
    /// [`or_assign`](Self::or_assign), useful when the accumulator is the
    /// callee-owned buffer. Word-wise; bit `k` of `self` ORs into bit `k`
    /// of `dst` (bit 0 = leftmost = LSB of word 0).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn union_into(&self, dst: &mut BitVec) {
        assert_eq!(self.len, dst.len, "length mismatch in union_into");
        for (d, s) in dst.words.iter_mut().zip(&self.words) {
            *d |= *s;
        }
    }

    /// In-place bitwise AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in and_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place bitwise OR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in or_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place bitwise AND-NOT (`self &= !other`): masks out the bits set
    /// in `other`. This is the `R' = R \ G` operation of the cascaded
    /// arbiter (Fig. 4(a)).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_not_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in and_not_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Returns the bits as a vector of booleans.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// `true` when exactly one bit is set (a valid one-hot grant vector).
    pub fn is_one_hot(&self) -> bool {
        self.count_ones() == 1
    }

    /// `true` when every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch in is_subset_of");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Zeroes the bits in the last word beyond `len`, keeping the packed
    /// representation canonical so that `Eq`/`Hash` remain meaningful.
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }
}

/// Iterator over set-bit indices of a [`BitVec`], produced by
/// [`BitVec::iter_ones`].
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_index: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let v = BitVec::new(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.any());
        assert_eq!(v.first_set(), None);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::new(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            v.set(i, true);
            assert!(v.get(i), "bit {i} should be set");
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::new(8).get(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitVec::new(8).set(8, true);
    }

    #[test]
    fn first_set_is_leftmost() {
        let v = BitVec::from_indices(128, &[100, 17, 55]);
        assert_eq!(v.first_set(), Some(17));
    }

    #[test]
    fn iter_ones_ascending() {
        let v = BitVec::from_indices(300, &[299, 0, 64, 128, 63]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 128, 299]);
    }

    #[test]
    fn set_all_respects_length() {
        let mut v = BitVec::new(70);
        v.set_all();
        assert_eq!(v.count_ones(), 70);
        let w = BitVec::from_bools(&[true; 70]);
        assert_eq!(v, w);
    }

    #[test]
    fn and_not_masks_grant() {
        let mut r = BitVec::from_indices(16, &[2, 5, 9]);
        let g = BitVec::from_indices(16, &[2]);
        r.and_not_assign(&g);
        assert_eq!(r.iter_ones().collect::<Vec<_>>(), vec![5, 9]);
    }

    #[test]
    fn subset_and_one_hot() {
        let g = BitVec::from_indices(16, &[5]);
        let r = BitVec::from_indices(16, &[2, 5, 9]);
        assert!(g.is_one_hot());
        assert!(g.is_subset_of(&r));
        assert!(!r.is_one_hot());
        assert!(!r.is_subset_of(&g));
    }

    #[test]
    fn bool_roundtrip() {
        let bits = [true, false, false, true, true];
        let v = BitVec::from_bools(&bits);
        assert_eq!(v.to_bools(), bits);
    }

    #[test]
    fn display_formats_bits() {
        let v = BitVec::from_indices(5, &[0, 4]);
        assert_eq!(v.to_string(), "10001");
        assert!(!format!("{v:?}").is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn words_expose_packed_layout() {
        let mut v = BitVec::new(70);
        v.set(0, true);
        v.set(64, true);
        assert_eq!(v.words(), &[1, 1]);
        v.words_mut()[0] |= 1 << 5;
        assert!(v.get(5));
    }

    #[test]
    fn copy_bits_from_word_aligned() {
        let mut dst = BitVec::new(200);
        dst.set(199, true); // outside the copy range: must survive
        dst.set(130, true); // inside the copy range: must be overwritten
        let src = BitVec::from_indices(70, &[0, 63, 64, 69]);
        dst.copy_bits_from(&src, 128);
        assert_eq!(
            dst.iter_ones().collect::<Vec<_>>(),
            vec![128, 191, 192, 197, 199]
        );
        // Bit-by-bit reference.
        for k in 0..70 {
            assert_eq!(dst.get(128 + k), src.get(k), "bit {k}");
        }
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn copy_bits_from_rejects_misalignment() {
        BitVec::new(128).copy_bits_from(&BitVec::new(8), 4);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn copy_bits_from_rejects_overrun() {
        BitVec::new(128).copy_bits_from(&BitVec::new(80), 64);
    }

    #[test]
    fn or_window_of_extracts_subrange() {
        let src = BitVec::from_indices(300, &[64, 70, 130, 191, 200]);
        let mut dst = BitVec::from_indices(128, &[1]);
        dst.or_window_of(&src, 64);
        // src bits 64..192 land at dst bits 0..128, ORed over the existing 1.
        assert_eq!(dst.iter_ones().collect::<Vec<_>>(), vec![0, 1, 6, 66, 127]);
        // Short (non-word-multiple) destination masks the tail.
        let mut short = BitVec::new(10);
        short.or_window_of(&src, 64);
        assert_eq!(short.iter_ones().collect::<Vec<_>>(), vec![0, 6]);
        assert_eq!(short.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn or_window_of_rejects_misalignment() {
        BitVec::new(8).or_window_of(&BitVec::new(128), 8);
    }

    #[test]
    fn union_into_is_or_assign_reversed() {
        let src = BitVec::from_indices(70, &[0, 69]);
        let mut dst = BitVec::from_indices(70, &[5]);
        src.union_into(&mut dst);
        assert_eq!(dst.iter_ones().collect::<Vec<_>>(), vec![0, 5, 69]);
    }

    #[test]
    fn clear_resets() {
        let mut v = BitVec::from_indices(90, &[0, 89]);
        v.clear();
        assert!(!v.any());
    }

    #[test]
    fn or_and_assign() {
        let mut a = BitVec::from_indices(8, &[1]);
        let b = BitVec::from_indices(8, &[2]);
        a.or_assign(&b);
        assert_eq!(a.count_ones(), 2);
        a.and_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![2]);
    }
}
