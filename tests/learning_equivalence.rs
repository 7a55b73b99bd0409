//! The functional/cost split the paper's §4.4 relies on, as a property:
//! teaching with the same rule and seed produces **bit-identical weight
//! matrices** on multiport and 6T tiles — the bitcell decides only what the
//! update *costs* (cycles/latency/energy), never what it *computes*. This
//! is what lets the repo quote one learning curve for both cells while
//! comparing their training budgets.
//!
//! Both cells run the same word-level STDP update, so the last test pins
//! whole digit-stream trajectories to recorded constants as well.

use esam::prelude::*;
use esam_core::OnlineSession;
use proptest::prelude::*;

fn system(seed: u64, cell: BitcellKind) -> EsamSystem {
    let net = BnnNetwork::new(&[96, 40, 8], seed).expect("valid topology");
    let model = SnnModel::from_bnn(&net).expect("conversion");
    let config = SystemConfig::builder(cell, &[96, 40, 8])
        .build()
        .expect("valid configuration");
    EsamSystem::from_model(&model, &config).expect("topologies match")
}

fn all_weight_matrices(system: &EsamSystem) -> Vec<Vec<BitVec>> {
    system
        .tiles()
        .iter()
        .map(|tile| (0..tile.outputs()).map(|n| tile.weight_column(n)).collect())
        .collect()
}

/// Random labelled frames of the given width.
fn samples_strategy(width: usize, max: usize) -> impl Strategy<Value = Vec<(BitVec, u8)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<bool>(), width)
                .prop_map(|bits| BitVec::from_bools(&bits)),
            0u8..8,
        ),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn teach_is_bit_identical_across_cells(
        net_seed in 0u64..500,
        rng_seed in 0u64..500,
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 96)
                .prop_map(|bits| BitVec::from_bools(&bits)),
            1..6,
        ),
        neuron in 0usize..8,
    ) {
        let mut multi = system(net_seed, BitcellKind::multiport(4).unwrap());
        let mut single = system(net_seed, BitcellKind::Std6T);
        let mut multi_engine = OnlineLearningEngine::new(StdpRule::paper_default(), rng_seed);
        let mut single_engine = OnlineLearningEngine::new(StdpRule::paper_default(), rng_seed);
        let mut multi_cost = LearningCost::default();
        let mut single_cost = LearningCost::default();
        for (i, frame) in frames.iter().enumerate() {
            let signal = if i % 2 == 0 {
                TeacherSignal::ShouldFire
            } else {
                TeacherSignal::ShouldNotFire
            };
            // Teach the output layer through each cell's own access path.
            multi.infer(frame).expect("inference");
            let pre = multi.tiles()[0].fired().clone();
            multi_cost += multi_engine
                .teach_system(&mut multi, 1, &pre, neuron, signal)
                .expect("multiport teach");
            single_cost += single_engine
                .teach_system(&mut single, 1, &pre, neuron, signal)
                .expect("6T teach");
        }
        // Same functional result, bit for bit, on every layer.
        prop_assert_eq!(all_weight_matrices(&multi), all_weight_matrices(&single));
        prop_assert_eq!(multi_cost.bits_flipped, single_cost.bits_flipped);
        // Only the access cost differs — and strictly, whenever anything
        // was accessed at all (updates always read, even flipping nothing).
        prop_assert!(multi_cost.cycles < single_cost.cycles);
        prop_assert!(multi_cost.latency < single_cost.latency);
        prop_assert!(multi_cost.energy < single_cost.energy);
    }

    #[test]
    fn learning_sessions_are_bit_identical_across_cells(
        net_seed in 0u64..500,
        rng_seed in 0u64..500,
        samples in samples_strategy(96, 10),
    ) {
        let mut multi = system(net_seed, BitcellKind::multiport(2).unwrap());
        let mut single = system(net_seed, BitcellKind::Std6T);
        let rule = StdpRule::new(0.5, 0.2);

        let mut multi_session = OnlineSession::new(&mut multi, rule, rng_seed);
        for (frame, label) in &samples {
            multi_session.learn_sample(frame, *label as usize).expect("multiport sample");
        }
        let multi_tally = *multi_session.tally();
        let multi_curve = multi_session.curve().clone();

        let mut single_session = OnlineSession::new(&mut single, rule, rng_seed);
        for (frame, label) in &samples {
            single_session.learn_sample(frame, *label as usize).expect("6T sample");
        }
        let single_tally = *single_session.tally();
        let single_curve = single_session.curve().clone();

        // Identical functional trajectory: same weights, same predictions,
        // same flip counts, same curve.
        prop_assert_eq!(all_weight_matrices(&multi), all_weight_matrices(&single));
        prop_assert_eq!(multi_tally.samples, single_tally.samples);
        prop_assert_eq!(multi_tally.correct, single_tally.correct);
        prop_assert_eq!(multi_tally.updates, single_tally.updates);
        prop_assert_eq!(multi_tally.cost.bits_flipped, single_tally.cost.bits_flipped);
        prop_assert_eq!(&multi_curve, &single_curve);
        // Different cost whenever any column was actually updated.
        if multi_tally.updates > 0 {
            prop_assert!(multi_tally.cost.cycles < single_tally.cost.cycles);
            prop_assert!(multi_tally.cost.energy < single_tally.cost.energy);
        } else {
            prop_assert_eq!(multi_tally.cost.cycles, 0);
            prop_assert_eq!(single_tally.cost.cycles, 0);
        }
    }
}

/// What a pinned learning run reduces to: the session totals, the exact
/// energy bits, and the weight popcount of every output column.
#[derive(Debug, PartialEq)]
struct Trajectory {
    correct: u64,
    updates: u64,
    bits_flipped: usize,
    cycles: u64,
    energy_bits: u64,
    column_ones: Vec<usize>,
}

/// Streams 300 synthetic digits through an `OnlineSession` on a seeded
/// readout of `topology` and reduces the run to a [`Trajectory`].
fn digit_trajectory(
    cell: BitcellKind,
    topology: &[usize],
    neuron: Option<NeuronConfig>,
) -> Trajectory {
    let data = Dataset::generate(&DigitsConfig {
        train_count: 300,
        test_count: 1,
        seed: 11,
        ..DigitsConfig::default()
    })
    .expect("digit set");
    let net = BnnNetwork::new(topology, 3).expect("valid topology");
    let model = SnnModel::from_bnn(&net).expect("conversion");
    let mut builder = SystemConfig::builder(cell, topology);
    if let Some(neuron) = neuron {
        builder = builder.neuron(neuron);
    }
    let config = builder.build().expect("valid configuration");
    let mut system = EsamSystem::from_model(&model, &config).expect("topologies match");
    let mut session = OnlineSession::new(&mut system, StdpRule::new(0.4, 0.02), 7);
    session
        .run_stream(data.train.stream(11))
        .expect("stream learns");
    let tally = *session.tally();
    let output = system.tiles().last().expect("output tile");
    Trajectory {
        correct: tally.correct,
        updates: tally.updates,
        bits_flipped: tally.cost.bits_flipped,
        cycles: tally.cost.cycles,
        energy_bits: tally.cost.energy.value().to_bits(),
        column_ones: (0..output.outputs())
            .map(|n| output.weight_column(n).count_ones())
            .collect(),
    }
}

/// Learning trajectories pinned to constants recorded on the per-bit STDP
/// walk. The suites above compare the cells with each other, and both cells
/// run the same word-level update, so a fault in that update would pass
/// them; these constants catch it. A change that moves any of them changes
/// what the system learns.
#[test]
fn digit_stream_trajectories_are_pinned() {
    let multiport = BitcellKind::multiport(4).unwrap();
    let readout_columns = vec![350, 331, 339, 291, 316, 347, 346, 328, 360, 305];
    assert_eq!(
        digit_trajectory(multiport, &[768, 10], None),
        Trajectory {
            correct: 109,
            updates: 440,
            bits_flipped: 16839,
            cycles: 21120,
            energy_bits: 4483734197248731125,
            column_ones: readout_columns.clone(),
        },
        "768:10 on 1RW+4R"
    );
    assert_eq!(
        digit_trajectory(BitcellKind::Std6T, &[768, 10], None),
        Trajectory {
            correct: 109,
            updates: 440,
            bits_flipped: 16839,
            cycles: 675840,
            energy_bits: 4496940067820923216,
            column_ones: readout_columns,
        },
        "768:10 on 6T"
    );
    let on_fire = NeuronConfig::new(12, 12, esam::neuron::ResetPolicy::OnFire);
    assert_eq!(
        digit_trajectory(multiport, &[768, 200, 10], Some(on_fire)),
        Trajectory {
            correct: 33,
            updates: 537,
            bits_flipped: 6982,
            cycles: 8592,
            energy_bits: 4476659627154104525,
            column_ones: vec![109, 100, 90, 96, 93, 94, 105, 75, 102, 82],
        },
        "768:200:10 with OnFire registers on 1RW+4R"
    );
}
