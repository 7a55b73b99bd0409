//! Stochastic STDP for 1-bit synapses (on-chip learning rule).
//!
//! The paper's online-learning evaluation (§4.4.1) measures the *memory
//! access cost* of updating one post-synaptic neuron's weight column; the
//! rule it references is the authors' stochastic STDP for 1-bit synapses
//! \[16\]: when a learning condition arises at a post-synaptic neuron, each
//! synapse is probabilistically potentiated (bit → 1) if its pre-synaptic
//! neuron was active, or depressed (bit → 0) otherwise. Stochasticity keeps
//! 1-bit weights from thrashing: only a random fraction of eligible synapses
//! flips per event.
//!
//! A supervised teacher wrapper is included for the digit-adaptation
//! experiments: potentiate toward a neuron that should have fired, depress
//! one that fired spuriously.
//!
//! The update runs a word at a time
//! ([`StdpRule::update_column_in_place`]): it XORs the column with its
//! target to get the mismatch mask, then walks the set bits of that mask in
//! ascending order, drawing once per mismatched synapse. The draws come in
//! bit order, so the update spends the RNG stream exactly as a per-bit walk
//! does; that walk stays in the tests as the reference pinning it.

use esam_bits::BitVec;
use rand::{Rng, RngExt};

use crate::error::NnError;

/// Direction of a column update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TeacherSignal {
    /// The neuron should have fired but did not: strengthen active inputs.
    ShouldFire,
    /// The neuron fired but should not have: weaken active inputs.
    ShouldNotFire,
}

/// Stochastic 1-bit STDP rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdpRule {
    p_potentiation: f64,
    p_depression: f64,
}

impl StdpRule {
    /// Creates a rule with the given flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are in `[0, 1]`.
    pub fn new(p_potentiation: f64, p_depression: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_potentiation) && (0.0..=1.0).contains(&p_depression),
            "probabilities must be in [0, 1]"
        );
        Self {
            p_potentiation,
            p_depression,
        }
    }

    /// Defaults from the stochastic-STDP literature: potentiate eagerly,
    /// depress conservatively.
    pub fn paper_default() -> Self {
        Self::new(0.25, 0.10)
    }

    /// Potentiation probability.
    pub fn p_potentiation(&self) -> f64 {
        self.p_potentiation
    }

    /// Depression probability.
    pub fn p_depression(&self) -> f64 {
        self.p_depression
    }

    /// Computes the updated weight column for one post-synaptic neuron.
    ///
    /// `column` is the current 1-bit weight column (one bit per pre-synaptic
    /// neuron), `pre_spikes` the input frame that triggered learning.
    /// Returns the new column and the number of flipped bits. The caller is
    /// responsible for the transposed read/write that realizes the update in
    /// SRAM (`esam-core`'s learning engine counts those accesses). This is
    /// [`update_column_in_place`](Self::update_column_in_place) on a copy.
    ///
    /// # Panics
    ///
    /// Panics if the column and spike-frame widths differ.
    pub fn update_column<R: Rng + ?Sized>(
        &self,
        column: &BitVec,
        pre_spikes: &BitVec,
        signal: TeacherSignal,
        rng: &mut R,
    ) -> (BitVec, usize) {
        let mut updated = column.clone();
        let flips = self
            .update_column_in_place(&mut updated, pre_spikes, signal, rng)
            .expect("weight column and spike frame must have the same width");
        (updated, flips)
    }

    /// Applies the update to `column` in place and returns the number of
    /// flipped bits — the word-level walk behind
    /// [`update_column`](Self::update_column).
    ///
    /// Each synapse moves toward a target: under
    /// [`TeacherSignal::ShouldFire`] the target is the input frame itself
    /// (active inputs toward 1, inactive toward 0, since they pull −1);
    /// under [`TeacherSignal::ShouldNotFire`] it is the frame's complement
    /// (active inputs toward 0, inactive toward 1 for more −1 drive). Per
    /// 64-bit word the mismatch mask is the column XOR the target. Its set
    /// bits are walked in ascending order (`trailing_zeros`), each drawing
    /// one `random_bool`: `p_potentiation` where the input spiked and
    /// `p_depression` elsewhere. The accepted flips are XORed into the word.
    ///
    /// Bits already at their target draw nothing, and every mismatched bit
    /// draws once, in ascending bit order: the RNG stream — and with it every
    /// learned weight — is a function of the column, the frame, the signal
    /// and the seed alone.
    ///
    /// # Errors
    ///
    /// [`NnError::DimensionMismatch`] when the column and spike-frame widths
    /// differ; the column and the RNG are then untouched.
    pub fn update_column_in_place<R: Rng + ?Sized>(
        &self,
        column: &mut BitVec,
        pre_spikes: &BitVec,
        signal: TeacherSignal,
        rng: &mut R,
    ) -> Result<usize, NnError> {
        if column.len() != pre_spikes.len() {
            return Err(NnError::DimensionMismatch {
                expected: pre_spikes.len(),
                got: column.len(),
            });
        }
        let len = column.len();
        let mut flips = 0;
        for (index, (word, &pre)) in column
            .words_mut()
            .iter_mut()
            .zip(pre_spikes.words())
            .enumerate()
        {
            // The complement must not reach past the width: tail bits stay 0.
            let width = (len - index * BitVec::WORD_BITS).min(BitVec::WORD_BITS);
            let valid = u64::MAX >> (BitVec::WORD_BITS - width);
            let target = match signal {
                TeacherSignal::ShouldFire => pre,
                TeacherSignal::ShouldNotFire => !pre & valid,
            };
            let mut mismatch = *word ^ target;
            let mut accepted = 0u64;
            while mismatch != 0 {
                let bit = mismatch & mismatch.wrapping_neg();
                let probability = if pre & bit != 0 {
                    self.p_potentiation
                } else {
                    self.p_depression
                };
                if rng.random_bool(probability) {
                    accepted |= bit;
                }
                mismatch ^= bit;
            }
            *word ^= accepted;
            flips += accepted.count_ones() as usize;
        }
        Ok(flips)
    }
}

impl Default for StdpRule {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Derives the per-output-neuron teacher signals implied by a `label` and
/// the observed output spike frame.
///
/// The supervision rule is the one the digit-adaptation experiments use:
/// the labelled neuron should have fired — if it stayed silent it gets a
/// [`TeacherSignal::ShouldFire`] — and every *other* neuron that fired did
/// so spuriously and gets a [`TeacherSignal::ShouldNotFire`]. A correct,
/// unambiguous frame (only the labelled neuron fired) yields no signals at
/// all, which is what makes teacher-driven learning self-terminating.
///
/// The order is deterministic: the labelled neuron first (when silent),
/// then spurious neurons in ascending index order — callers that spend RNG
/// per update rely on this for reproducibility.
///
/// # Panics
///
/// Panics when `label` is not a valid index into `observed`.
pub fn derive_teacher_signals(observed: &BitVec, label: usize) -> Vec<(usize, TeacherSignal)> {
    assert!(
        label < observed.len(),
        "label {label} out of range for a {}-neuron output frame",
        observed.len()
    );
    let mut signals = Vec::new();
    if !observed.get(label) {
        signals.push((label, TeacherSignal::ShouldFire));
    }
    for neuron in observed.iter_ones() {
        if neuron != label {
            signals.push((neuron, TeacherSignal::ShouldNotFire));
        }
    }
    signals
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The per-bit walk the word-level update replaced — a `get`, a `match`
    /// and a `set` per synapse — kept as the reference it is pinned to.
    fn reference_update(
        rule: &StdpRule,
        column: &BitVec,
        pre_spikes: &BitVec,
        signal: TeacherSignal,
        rng: &mut ChaCha8Rng,
    ) -> (BitVec, usize) {
        let mut updated = column.clone();
        let mut flips = 0;
        for i in 0..column.len() {
            let pre_active = pre_spikes.get(i);
            let bit = column.get(i);
            let (target, probability) = match signal {
                TeacherSignal::ShouldFire => {
                    if pre_active {
                        (true, rule.p_potentiation)
                    } else {
                        (false, rule.p_depression)
                    }
                }
                TeacherSignal::ShouldNotFire => {
                    if pre_active {
                        (false, rule.p_potentiation)
                    } else {
                        (true, rule.p_depression)
                    }
                }
            };
            if bit != target && rng.random_bool(probability) {
                updated.set(i, target);
                flips += 1;
            }
        }
        (updated, flips)
    }

    /// Widths at and around the word boundaries.
    const EDGE_WIDTHS: [usize; 7] = [1, 63, 64, 65, 127, 128, 129];

    /// A probability drawn as 0, 1 or the random `p`.
    fn probability(pick: u8, p: f64) -> f64 {
        match pick {
            0 => 0.0,
            1 => 1.0,
            _ => p,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn word_update_matches_the_per_bit_reference(
            width_pick in 0usize..14,
            random_width in 1usize..=300,
            column_bits in proptest::collection::vec(any::<bool>(), 300),
            pre_bits in proptest::collection::vec(any::<bool>(), 300),
            should_fire in any::<bool>(),
            picks in (0u8..3, 0u8..3),
            p in (0.0f64..1.0, 0.0f64..1.0),
            seed in any::<u64>(),
        ) {
            let width = EDGE_WIDTHS.get(width_pick).copied().unwrap_or(random_width);
            let column = BitVec::from_bools(&column_bits[..width]);
            let pre = BitVec::from_bools(&pre_bits[..width]);
            let signal = if should_fire {
                TeacherSignal::ShouldFire
            } else {
                TeacherSignal::ShouldNotFire
            };
            let rule = StdpRule::new(probability(picks.0, p.0), probability(picks.1, p.1));

            let mut reference_rng = rng(seed);
            let (expected, expected_flips) =
                reference_update(&rule, &column, &pre, signal, &mut reference_rng);
            let mut word_rng = rng(seed);
            let mut updated = column.clone();
            let flips = rule
                .update_column_in_place(&mut updated, &pre, signal, &mut word_rng)
                .unwrap();

            prop_assert_eq!(&updated, &expected, "width {}", width);
            prop_assert_eq!(flips, expected_flips);
            prop_assert_eq!(
                word_rng.next_u64(),
                reference_rng.next_u64(),
                "both walks leave the stream at the same position"
            );
        }
    }

    #[test]
    fn in_place_update_rejects_a_width_mismatch_untouched() {
        let rule = StdpRule::new(1.0, 1.0);
        let mut column = BitVec::from_indices(4, &[1]);
        let mut stream = rng(1);
        let result = rule.update_column_in_place(
            &mut column,
            &BitVec::new(5),
            TeacherSignal::ShouldFire,
            &mut stream,
        );
        assert_eq!(
            result,
            Err(NnError::DimensionMismatch {
                expected: 5,
                got: 4
            })
        );
        assert_eq!(column, BitVec::from_indices(4, &[1]));
        assert_eq!(stream.next_u64(), rng(1).next_u64(), "no draw was spent");
    }

    #[test]
    fn potentiation_moves_active_bits_toward_one() {
        let rule = StdpRule::new(1.0, 0.0); // deterministic potentiation
        let column = BitVec::new(8);
        let pre = BitVec::from_indices(8, &[1, 3, 5]);
        let (updated, flips) =
            rule.update_column(&column, &pre, TeacherSignal::ShouldFire, &mut rng(1));
        assert_eq!(updated.iter_ones().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(flips, 3);
    }

    #[test]
    fn depression_moves_active_bits_toward_zero() {
        let rule = StdpRule::new(1.0, 0.0);
        let mut column = BitVec::new(8);
        column.set_all();
        let pre = BitVec::from_indices(8, &[0, 7]);
        let (updated, flips) =
            rule.update_column(&column, &pre, TeacherSignal::ShouldNotFire, &mut rng(2));
        assert!(!updated.get(0) && !updated.get(7));
        assert_eq!(updated.count_ones(), 6);
        assert_eq!(flips, 2);
    }

    #[test]
    fn zero_probability_changes_nothing() {
        let rule = StdpRule::new(0.0, 0.0);
        let column = BitVec::from_indices(16, &[2, 4]);
        let pre = BitVec::from_indices(16, &[2, 3]);
        let (updated, flips) =
            rule.update_column(&column, &pre, TeacherSignal::ShouldFire, &mut rng(3));
        assert_eq!(updated, column);
        assert_eq!(flips, 0);
    }

    #[test]
    fn stochasticity_flips_a_fraction() {
        let rule = StdpRule::new(0.5, 0.0);
        let column = BitVec::new(1000);
        let mut pre = BitVec::new(1000);
        pre.set_all();
        let (updated, flips) =
            rule.update_column(&column, &pre, TeacherSignal::ShouldFire, &mut rng(4));
        assert_eq!(updated.count_ones(), flips);
        assert!(
            (300..700).contains(&flips),
            "~half of 1000 eligible bits should flip, got {flips}"
        );
    }

    #[test]
    fn update_is_deterministic_per_seed() {
        let rule = StdpRule::paper_default();
        let column = BitVec::from_indices(64, &[1, 2, 3]);
        let pre = BitVec::from_indices(64, &[3, 4, 5]);
        let a = rule.update_column(&column, &pre, TeacherSignal::ShouldFire, &mut rng(9));
        let b = rule.update_column(&column, &pre, TeacherSignal::ShouldFire, &mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn already_correct_bits_do_not_count_as_flips() {
        let rule = StdpRule::new(1.0, 1.0);
        // Bit 0 is already 1 with an active input (target 1); bits 1–3 are
        // already 0 with inactive inputs (target 0): nothing changes.
        let column = BitVec::from_indices(4, &[0]);
        let pre = BitVec::from_indices(4, &[0]);
        let (updated, flips) =
            rule.update_column(&column, &pre, TeacherSignal::ShouldFire, &mut rng(5));
        assert_eq!(updated, column);
        assert_eq!(flips, 0);
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn width_mismatch_panics() {
        StdpRule::paper_default().update_column(
            &BitVec::new(4),
            &BitVec::new(5),
            TeacherSignal::ShouldFire,
            &mut rng(1),
        );
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn bad_probability_panics() {
        StdpRule::new(1.5, 0.0);
    }

    #[test]
    fn teacher_signals_for_a_correct_frame_are_empty() {
        let observed = BitVec::from_indices(10, &[3]);
        assert!(derive_teacher_signals(&observed, 3).is_empty());
    }

    #[test]
    fn teacher_signals_potentiate_the_silent_label() {
        let observed = BitVec::new(10);
        assert_eq!(
            derive_teacher_signals(&observed, 4),
            vec![(4, TeacherSignal::ShouldFire)]
        );
    }

    #[test]
    fn teacher_signals_depress_spurious_spikes_in_order() {
        let observed = BitVec::from_indices(10, &[1, 4, 8]);
        assert_eq!(
            derive_teacher_signals(&observed, 4),
            vec![
                (1, TeacherSignal::ShouldNotFire),
                (8, TeacherSignal::ShouldNotFire),
            ]
        );
    }

    #[test]
    fn teacher_signals_combine_both_directions_label_first() {
        let observed = BitVec::from_indices(10, &[0, 9]);
        assert_eq!(
            derive_teacher_signals(&observed, 5),
            vec![
                (5, TeacherSignal::ShouldFire),
                (0, TeacherSignal::ShouldNotFire),
                (9, TeacherSignal::ShouldNotFire),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn teacher_signals_reject_bad_label() {
        derive_teacher_signals(&BitVec::new(10), 10);
    }
}
