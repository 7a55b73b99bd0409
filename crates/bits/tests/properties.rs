//! Property tests for the packed bit containers.

use esam_bits::{BitMatrix, BitVec};
use proptest::prelude::*;

fn bools(max_len: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..max_len)
}

proptest! {
    #[test]
    fn roundtrip_preserves_bools(bits in bools(300)) {
        let v = BitVec::from_bools(&bits);
        prop_assert_eq!(v.to_bools(), bits);
    }

    #[test]
    fn count_ones_matches_naive(bits in bools(300)) {
        let v = BitVec::from_bools(&bits);
        prop_assert_eq!(v.count_ones(), bits.iter().filter(|&&b| b).count());
        prop_assert_eq!(v.any(), bits.iter().any(|&b| b));
    }

    #[test]
    fn first_set_is_min_of_iter_ones(bits in bools(300)) {
        let v = BitVec::from_bools(&bits);
        prop_assert_eq!(v.first_set(), v.iter_ones().next());
        prop_assert_eq!(v.first_set(), bits.iter().position(|&b| b));
    }

    #[test]
    fn iter_ones_is_sorted_and_complete(bits in bools(300)) {
        let v = BitVec::from_bools(&bits);
        let ones: Vec<usize> = v.iter_ones().collect();
        prop_assert!(ones.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(ones.len(), v.count_ones());
        for i in ones {
            prop_assert!(v.get(i));
        }
    }

    #[test]
    fn and_not_removes_exactly_the_mask(bits in bools(200), mask_bits in bools(200)) {
        let len = bits.len().min(mask_bits.len());
        let mut a = BitVec::from_bools(&bits[..len]);
        let mask = BitVec::from_bools(&mask_bits[..len]);
        let before = a.clone();
        a.and_not_assign(&mask);
        for i in 0..len {
            prop_assert_eq!(a.get(i), before.get(i) && !mask.get(i));
        }
        prop_assert!(a.is_subset_of(&before));
    }

    #[test]
    fn or_then_and_are_consistent(bits in bools(200), other_bits in bools(200)) {
        let len = bits.len().min(other_bits.len());
        let a = BitVec::from_bools(&bits[..len]);
        let b = BitVec::from_bools(&other_bits[..len]);
        let mut union = a.clone();
        union.or_assign(&b);
        let mut intersection = a.clone();
        intersection.and_assign(&b);
        prop_assert!(a.is_subset_of(&union));
        prop_assert!(b.is_subset_of(&union));
        prop_assert!(intersection.is_subset_of(&a));
        prop_assert!(intersection.is_subset_of(&b));
        // |A| + |B| = |A∪B| + |A∩B|.
        prop_assert_eq!(
            a.count_ones() + b.count_ones(),
            union.count_ones() + intersection.count_ones()
        );
    }

    #[test]
    fn matrix_row_column_duality(
        rows in 1usize..20,
        cols in 1usize..20,
        seed in any::<u64>(),
    ) {
        let m = BitMatrix::from_fn(rows, cols, |r, c| {
            (seed >> ((r * 7 + c * 3) % 64)) & 1 == 1
        });
        for r in 0..rows {
            let row = m.row(r);
            for c in 0..cols {
                prop_assert_eq!(row.get(c), m.get(r, c));
                prop_assert_eq!(m.column(c).get(r), m.get(r, c));
            }
        }
        let total: usize = (0..rows).map(|r| m.row(r).count_ones()).sum();
        prop_assert_eq!(total, m.count_ones());
    }
}
