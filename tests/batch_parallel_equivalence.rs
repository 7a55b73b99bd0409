//! The batch engine's merge law, end to end: sharding a batch over any
//! number of worker pipelines and merging their counters must reproduce the
//! sequential `measure_batch` *bit-for-bit* — same `SystemMetrics` struct,
//! field by field, no tolerance — because workers only accumulate `u64`
//! counters (associative, commutative sums) and the float finalization runs
//! once over the merged integers (§4.1's spike-by-spike methodology makes
//! every figure of merit a pure function of those counters).

use esam::prelude::*;
use esam_core::{BatchConfig, BatchEngine};
use proptest::prelude::*;

/// Random spike frames of the given width and approximate density.
fn batch_strategy(width: usize, max_frames: usize) -> impl Strategy<Value = Vec<BitVec>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), width).prop_map(|bits| BitVec::from_bools(&bits)),
        1..max_frames,
    )
}

fn system(seed: u64, cell: BitcellKind) -> EsamSystem {
    let net = BnnNetwork::new(&[96, 40, 8], seed).expect("valid topology");
    let model = SnnModel::from_bnn(&net).expect("conversion");
    let config = SystemConfig::builder(cell, &[96, 40, 8])
        .build()
        .expect("valid configuration");
    EsamSystem::from_model(&model, &config).expect("topologies match")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_measurement_is_bit_identical_for_1_2_4_7_threads(
        seed in 0u64..500,
        batch in batch_strategy(96, 24),
    ) {
        let mut reference = system(seed, BitcellKind::multiport(4).unwrap());
        let sequential = reference.measure_batch(&batch).expect("sequential measure");
        for threads in [1usize, 2, 4, 7] {
            let mut engine = BatchEngine::new(
                &system(seed, BitcellKind::multiport(4).unwrap()),
                &BatchConfig::with_threads(threads),
            );
            let metrics = engine.measure(&batch).expect("parallel measure");
            prop_assert_eq!(metrics, sequential, "{} threads diverged", threads);
        }
    }

    #[test]
    fn merge_law_holds_for_every_cell_kind(
        seed in 0u64..500,
        batch in batch_strategy(96, 12),
    ) {
        for cell in BitcellKind::ALL {
            let mut reference = system(seed, cell);
            let sequential = reference.measure_batch(&batch).expect("sequential measure");
            let mut engine = BatchEngine::new(&system(seed, cell), &BatchConfig::with_threads(4));
            prop_assert_eq!(engine.measure(&batch).expect("engine measure"), sequential, "{}", cell);
        }
    }

    #[test]
    fn chunk_size_never_affects_results(
        seed in 0u64..500,
        batch in batch_strategy(96, 20),
        chunk in 1usize..32,
    ) {
        let mut reference = system(seed, BitcellKind::multiport(2).unwrap());
        let sequential = reference.measure_batch(&batch).expect("sequential measure");
        let config = BatchConfig::with_threads(3).chunk_size(chunk);
        let mut engine = BatchEngine::new(&system(seed, BitcellKind::multiport(2).unwrap()), &config);
        prop_assert_eq!(engine.measure(&batch).expect("engine measure"), sequential);
    }

    #[test]
    fn parallel_infer_batch_matches_sequential_order(
        seed in 0u64..500,
        batch in batch_strategy(96, 16),
    ) {
        let mut reference = system(seed, BitcellKind::multiport(4).unwrap());
        let expected: Vec<InferenceResult> = batch
            .iter()
            .map(|f| reference.infer(f).expect("sequential inference"))
            .collect();
        let mut engine = BatchEngine::new(
            &system(seed, BitcellKind::multiport(4).unwrap()),
            &BatchConfig::with_threads(4).chunk_size(2),
        );
        let got = engine.infer_batch(&batch).expect("parallel inference");
        prop_assert_eq!(got, expected);
    }
}
