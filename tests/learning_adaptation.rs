//! Online-learning integration: the STDP engine must functionally adapt a
//! deployed system and its access costs must follow §4.4.1.

use esam::core::IntegrityMode;
use esam::prelude::*;

/// Builds a 128→128→10 system whose first-layer weights we adapt.
fn system_with(cell: BitcellKind) -> EsamSystem {
    let net = BnnNetwork::new(&[128, 128, 10], 21).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(cell, &[128, 128, 10])
        .build()
        .unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

#[test]
fn teaching_should_fire_eventually_fires_the_neuron() {
    let mut system = system_with(BitcellKind::multiport(4).unwrap());
    let mut engine = OnlineLearningEngine::new(StdpRule::new(0.6, 0.3), 5);
    let pattern = BitVec::from_indices(128, &(0..128).step_by(4).collect::<Vec<_>>());
    let neuron = 7usize;

    // Drive the first tile directly: teach until neuron 7 fires on the
    // pattern (threshold is fixed; the weights move toward the pattern).
    let mut fired_at = None;
    for round in 0..40 {
        system.infer(&pattern).unwrap();
        // Tile 0's firing pattern, which entered tile 1.
        let hidden = system.tiles()[0].fired();
        if hidden.get(neuron) {
            fired_at = Some(round);
            break;
        }
        engine
            .teach_system(&mut system, 0, &pattern, neuron, TeacherSignal::ShouldFire)
            .unwrap();
    }
    assert!(
        fired_at.is_some(),
        "repeated potentiation must eventually make neuron {neuron} fire"
    );
}

#[test]
fn teaching_should_not_fire_eventually_silences_the_neuron() {
    let mut system = system_with(BitcellKind::multiport(4).unwrap());
    let mut engine = OnlineLearningEngine::new(StdpRule::new(0.6, 0.3), 6);
    let pattern = BitVec::from_indices(128, &(0..128).step_by(2).collect::<Vec<_>>());

    // Find a neuron that currently fires on the pattern.
    system.infer(&pattern).unwrap();
    let Some(neuron) = system.tiles()[0].fired().first_set() else {
        // Nothing fires: vacuously silenced.
        return;
    };
    let mut silenced = false;
    for _ in 0..40 {
        engine
            .teach_system(
                &mut system,
                0,
                &pattern,
                neuron,
                TeacherSignal::ShouldNotFire,
            )
            .unwrap();
        system.infer(&pattern).unwrap();
        if !system.tiles()[0].fired().get(neuron) {
            silenced = true;
            break;
        }
    }
    assert!(silenced, "repeated depression must silence neuron {neuron}");
}

#[test]
fn transposed_update_cost_scales_with_row_groups() {
    // A 128-input tile needs 1 block update (8 cycles); the 768-input tile
    // needs 6 (48 cycles) — one per row group.
    let net = BnnNetwork::new(&[768, 128, 10], 2).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[768, 128, 10])
        .build()
        .unwrap();
    let mut system = EsamSystem::from_model(&model, &config).unwrap();
    let mut engine = OnlineLearningEngine::new(StdpRule::paper_default(), 8);
    let pre = BitVec::from_indices(768, &[0, 100, 700]);
    let cost = engine
        .teach_system(&mut system, 0, &pre, 0, TeacherSignal::ShouldFire)
        .unwrap();
    assert_eq!(
        cost.cycles,
        6 * 8,
        "6 row groups x (4 read + 4 write) cycles"
    );
}

#[test]
fn transposed_beats_rowwise_by_the_paper_margins() {
    let mut multi = system_with(BitcellKind::multiport(4).unwrap());
    let mut single = system_with(BitcellKind::Std6T);
    let mut engine = OnlineLearningEngine::new(StdpRule::paper_default(), 9);
    let pre = BitVec::from_indices(128, &[1, 2, 3]);

    let transposed = engine
        .teach_system(&mut multi, 0, &pre, 0, TeacherSignal::ShouldFire)
        .unwrap();
    let rowwise = engine
        .teach_system(&mut single, 0, &pre, 0, TeacherSignal::ShouldFire)
        .unwrap();

    assert_eq!(transposed.cycles, 8);
    assert_eq!(rowwise.cycles, 256);
    let time_gain = rowwise.latency / transposed.latency;
    assert!(
        time_gain > 19.0 && time_gain < 33.0,
        "time gain {time_gain:.1} should be in the paper's 26x class"
    );
    let energy_gain = rowwise.energy / transposed.energy;
    assert!(
        energy_gain > 10.0 && energy_gain < 40.0,
        "energy gain {energy_gain:.1} should be in the paper's 19.5x class"
    );
}

#[test]
fn online_learning_beats_the_untrained_baseline_on_digits() {
    // The acceptance property of the streaming-session workload: an
    // *untrained* 768:10 readout taught online (infer → teacher derivation
    // → transposed-port STDP) must end up measurably better than it
    // started on the synthetic digit split.
    let data = Dataset::generate(&DigitsConfig {
        train_count: 150,
        test_count: 100,
        ..DigitsConfig::default()
    })
    .unwrap();
    let net = BnnNetwork::new(&[768, 10], 7).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[768, 10])
        .build()
        .unwrap();
    let mut system = EsamSystem::from_model(&model, &config).unwrap();

    let accuracy = |system: &mut EsamSystem| {
        let correct = (0..data.test.len())
            .filter(|&i| {
                system.infer(&data.test.spikes(i)).unwrap().prediction
                    == data.test.label(i) as usize
            })
            .count();
        correct as f64 / data.test.len() as f64
    };
    let before = accuracy(&mut system);

    let mut session = OnlineSession::new(&mut system, StdpRule::new(0.4, 0.02), 7);
    session.run_stream(data.train.stream(7)).unwrap();
    let metrics = session.finalize_metrics().unwrap();
    let learning = metrics.learning.expect("the session learned");
    assert!(learning.updates > 0);
    assert!(learning.cost.cycles > 0);
    assert_eq!(learning.samples, 150);

    let after = accuracy(&mut system);
    assert!(
        after > before,
        "online learning must beat the untrained baseline ({before:.3} -> {after:.3})"
    );
}

#[test]
fn learning_preserves_unrelated_columns() {
    let mut system = system_with(BitcellKind::multiport(2).unwrap());
    let before: Vec<BitVec> = (0..10)
        .map(|c| system.tiles()[0].arrays()[0].bits().column(c))
        .collect();
    let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 1.0), 10);
    let pre = BitVec::from_indices(128, &[5, 50]);
    engine
        .teach_system(&mut system, 0, &pre, 3, TeacherSignal::ShouldFire)
        .unwrap();
    for (c, old) in before.iter().enumerate() {
        let now = system.tiles()[0].arrays()[0].bits().column(c);
        if c == 3 {
            assert_ne!(&now, old, "taught column must change");
        } else {
            assert_eq!(&now, old, "column {c} must be untouched");
        }
    }
}

/// Every SRAM block's stored weights, tile by tile.
fn stored_weights(system: &EsamSystem) -> Vec<BitMatrix> {
    system
        .tiles()
        .iter()
        .flat_map(|tile| tile.arrays().iter().map(|array| array.bits().clone()))
        .collect()
}

#[test]
fn learned_weights_survive_the_checked_scrub() {
    // A learning write is a legitimate write, so it must reach the golden
    // image the post-frame scrub reloads from. Otherwise the next checked
    // frame reverts every learned bit, and `Correct` counts each learned
    // row as silent corruption. The membrane-flip plan runs the scrub
    // without striking a weight; the weight-flip plan strikes some, and
    // the scrub must restore the learned weights, not the loaded ones.
    let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let frame = BitVec::from_indices(128, &(0..128).step_by(3).collect::<Vec<_>>());
    let plans = [
        (
            "membrane flips",
            FaultConfig::none().with_membrane_flip_rate(1e-9),
        ),
        (
            "weight flips",
            FaultConfig::none().with_weight_flip_rate(1e-3),
        ),
    ];
    for cell in [BitcellKind::multiport(4).unwrap(), BitcellKind::Std6T] {
        for mode in [IntegrityMode::Detect, IntegrityMode::Correct] {
            for (plan, faults) in plans {
                let label = format!("{cell} {mode:?} {plan}");
                let config = SystemConfig::builder(cell, &[128, 64, 10]).build().unwrap();
                let mut system = EsamSystem::from_model(&model, &config).unwrap();
                system.set_fault_plan(FaultPlan::seeded(3, faults)).unwrap();
                system.set_integrity_mode(mode);
                let loaded = stored_weights(&system);
                let class = (system.infer(&frame).unwrap().prediction + 1) % 10;
                let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 1.0), 5);
                let outcome = system.learn_sample(&mut engine, &frame, class).unwrap();
                assert!(outcome.cost.bits_flipped > 0, "{label}: the sample learns");
                let learned = stored_weights(&system);
                assert_ne!(learned, loaded, "{label}");

                system.reset_stats();
                system.infer_checked(&frame, 0).unwrap();
                assert_eq!(
                    stored_weights(&system),
                    learned,
                    "{label}: the scrub keeps the learned weights"
                );
                if faults.weight_flip_rate() > 0.0 {
                    assert!(system.fault_tally().weight_flips > 0, "{label}: struck");
                } else {
                    assert_eq!(system.integrity_tally().silent, 0, "{label}");
                }
            }
        }
    }
}
