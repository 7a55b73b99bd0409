//! SRAM-domain fault-injection battery: determinism, exact revert,
//! zero-cost-when-disabled, thread-count independence of fault sites, and
//! stuck-at cells that neither online learning nor the checked scrub can
//! overwrite.

use esam_bits::BitVec;
use esam_core::{
    BatchConfig, BatchEngine, EsamSystem, IntegrityMode, OnlineLearningEngine, SystemConfig,
};
use esam_fault::{FaultConfig, FaultPlan};
use esam_nn::{BnnNetwork, SnnModel, StdpRule};
use esam_sram::BitcellKind;
use proptest::prelude::*;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn system(cell: BitcellKind) -> EsamSystem {
    let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(cell, &[128, 64, 10]).build().unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

fn frames(count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..128).map(|_| rng.random_bool(0.25)).collect())
        .collect()
}

fn output_weights(system: &EsamSystem) -> Vec<BitVec> {
    let tile = system.tiles().last().unwrap();
    (0..tile.outputs()).map(|n| tile.weight_column(n)).collect()
}

fn transient_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        FaultConfig::none()
            .with_weight_flip_rate(2e-3)
            .with_membrane_flip_rate(5e-2),
    )
}

#[test]
fn none_plan_is_bit_identical_to_baseline() {
    for cell in [BitcellKind::Std6T, BitcellKind::multiport(4).unwrap()] {
        let mut baseline = system(cell);
        let mut faulted = system(cell);
        faulted.set_fault_plan(FaultPlan::none()).unwrap();
        for (id, frame) in frames(20, 1).iter().enumerate() {
            let expected = baseline.infer(frame).unwrap();
            let got = faulted.infer_checked(frame, id as u64).unwrap();
            assert_eq!(got, expected, "{cell} frame {id}");
        }
        assert_eq!(faulted.fault_tally().weight_flips, 0);
        assert_eq!(faulted.fault_tally().membrane_flips, 0);
        assert_eq!(faulted.stuck_bits(), 0);
    }
}

#[test]
fn transient_faults_revert_exactly_between_frames() {
    let mut reference = system(BitcellKind::multiport(4).unwrap());
    let mut faulted = system(BitcellKind::multiport(4).unwrap());
    faulted.set_fault_plan(transient_plan(7)).unwrap();
    let batch = frames(12, 2);
    let clean_before: Vec<_> = batch.iter().map(|f| reference.infer(f).unwrap()).collect();
    let mut any_divergence = false;
    for (id, frame) in batch.iter().enumerate() {
        let got = faulted.infer_checked(frame, id as u64).unwrap();
        any_divergence |= got != clean_before[id];
    }
    assert!(
        faulted.fault_tally().weight_flips > 0,
        "the 2e-3 rate must hit some of the ~8k weight bits over 12 frames"
    );
    assert!(any_divergence, "injected flips must perturb some result");
    // The toggles are involutive: after the faulted batch, the weights are
    // back to the originals and a disabled plan reproduces the baseline.
    faulted.set_fault_plan(FaultPlan::none()).unwrap();
    for (id, frame) in batch.iter().enumerate() {
        assert_eq!(
            faulted.infer(frame).unwrap(),
            clean_before[id],
            "frame {id} after revert"
        );
    }
}

#[test]
fn stuck_at_materializes_and_uninstall_restores_weights() {
    let mut faulted = system(BitcellKind::Std6T);
    let pristine = output_weights(&faulted);
    let plan = FaultPlan::seeded(3, FaultConfig::none().with_stuck_rate(5e-3));
    faulted.set_fault_plan(plan).unwrap();
    assert!(faulted.stuck_bits() > 0, "5e-3 over ~8k bits must pin some");
    // Stuck-at faults live in the weights: re-installing the same plan is
    // idempotent on content, and uninstalling restores the originals.
    let stuck = output_weights(&faulted);
    faulted.set_fault_plan(plan).unwrap();
    assert_eq!(output_weights(&faulted), stuck);
    faulted.set_fault_plan(FaultPlan::none()).unwrap();
    assert_eq!(output_weights(&faulted), pristine);
    assert_eq!(faulted.stuck_bits(), 0);
}

#[test]
fn stuck_at_keeps_the_block_path_transients_do_not() {
    let mut stuck = system(BitcellKind::multiport(4).unwrap());
    stuck
        .set_fault_plan(FaultPlan::seeded(
            5,
            FaultConfig::none().with_stuck_rate(1e-2),
        ))
        .unwrap();
    let batch = frames(70, 9);
    // The block path stays exact under stuck-at faults (they are ordinary
    // weights by the time inference runs): block == sequential on the
    // faulted system.
    let expected: Vec<_> = batch.iter().map(|f| stuck.infer(f).unwrap()).collect();
    let got = stuck.infer_block(&batch).unwrap();
    assert_eq!(got, expected);

    // Transient faults rule the block path out; infer_checked still works
    // and the per-frame coordinates make it order-independent.
    let mut transient = system(BitcellKind::multiport(4).unwrap());
    transient.set_fault_plan(transient_plan(5)).unwrap();
    let forward: Vec<_> = (0..8)
        .map(|id| transient.infer_checked(&batch[id], id as u64).unwrap())
        .collect();
    let backward: Vec<_> = (0..8)
        .rev()
        .map(|id| transient.infer_checked(&batch[id], id as u64).unwrap())
        .collect();
    for (id, result) in forward.iter().enumerate() {
        assert_eq!(result, &backward[7 - id], "frame {id} order-dependent");
    }
}

/// Weight bits that differ between two [`output_weights`] snapshots.
fn bits_changed(a: &[BitVec], b: &[BitVec]) -> usize {
    a.iter()
        .zip(b)
        .flat_map(|(a, b)| a.words().iter().zip(b.words()))
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

#[test]
fn stuck_cells_hold_through_learning_and_revert_exactly() {
    let topology = [128, 10];
    let model = SnnModel::from_bnn(&BnnNetwork::new(&topology, 3).unwrap()).unwrap();
    let plan = FaultPlan::seeded(5, FaultConfig::none().with_stuck_rate(0.05));
    let sites: Vec<(usize, usize, bool)> = (0..128)
        .flat_map(|input| {
            (0..10).filter_map(move |output| {
                plan.stuck_site(0, input as u64, output as u64)
                    .map(|value| (input, output, value))
            })
        })
        .collect();
    assert_eq!(sites.len(), 61);
    let holds = |weights: &[BitVec]| sites.iter().all(|&(i, o, v)| weights[o].get(i) == v);
    for cell in [BitcellKind::multiport(4).unwrap(), BitcellKind::Std6T] {
        for mode in [IntegrityMode::Off, IntegrityMode::Correct] {
            let config = SystemConfig::builder(cell, &topology).build().unwrap();
            let mut system = EsamSystem::from_model(&model, &config).unwrap();
            let pristine = output_weights(&system);
            system.set_fault_plan(plan).unwrap();
            system.set_integrity_mode(mode);
            assert!(holds(&output_weights(&system)), "{cell} {mode:?}: install");
            let mut engine = OnlineLearningEngine::new(StdpRule::new(1.0, 1.0), 9);
            let mut taught = 0;
            for (i, frame) in frames(20, 6).iter().enumerate() {
                let before = output_weights(&system);
                let outcome = system.learn_sample(&mut engine, frame, i % 10).unwrap();
                let changed = bits_changed(&before, &output_weights(&system));
                assert_eq!(
                    outcome.cost.bits_flipped, changed,
                    "{cell} {mode:?} sample {i}: only stored changes count"
                );
                taught += changed;
            }
            assert!(taught > 0, "{cell} {mode:?}: the samples taught something");
            let learned = output_weights(&system);
            assert!(
                holds(&learned),
                "{cell} {mode:?}: a stuck cell lost its value"
            );
            // Uninstalling restores each stuck site's pre-install value and
            // leaves every other bit as learned.
            let mut expected = learned;
            for &(input, output, _) in &sites {
                expected[output].set(input, pristine[output].get(input));
            }
            system.set_fault_plan(FaultPlan::none()).unwrap();
            assert_eq!(output_weights(&system), expected, "{cell} {mode:?}");
        }
    }
}

#[test]
fn stuck_cells_hold_under_checked_integrity_in_either_order() {
    let topology = [128, 10];
    let model = SnnModel::from_bnn(&BnnNetwork::new(&topology, 3).unwrap()).unwrap();
    let stuck = FaultConfig::none().with_stuck_rate(0.05);
    let struck = FaultPlan::seeded(5, stuck.with_weight_flip_rate(2e-3));
    let sites: Vec<(usize, usize, bool)> = (0..128)
        .flat_map(|input| {
            (0..10).filter_map(move |output| {
                struck
                    .stuck_site(0, input as u64, output as u64)
                    .map(|value| (input, output, value))
            })
        })
        .collect();
    assert_eq!(sites.len(), 61);
    let holds = |weights: &[BitVec]| sites.iter().all(|&(i, o, v)| weights[o].get(i) == v);
    let batch = frames(4, 8);
    for cell in [BitcellKind::multiport(4).unwrap(), BitcellKind::Std6T] {
        for mode in [IntegrityMode::Detect, IntegrityMode::Correct] {
            for integrity_first in [true, false] {
                let case = format!("{cell} {mode:?} integrity first: {integrity_first}");
                let config = SystemConfig::builder(cell, &topology).build().unwrap();
                let mut system = EsamSystem::from_model(&model, &config).unwrap();
                let pristine = output_weights(&system);
                if integrity_first {
                    system.set_integrity_mode(mode);
                }
                system.set_fault_plan(struck).unwrap();
                if !integrity_first {
                    system.set_integrity_mode(mode);
                }
                // Each checked frame's scrub keeps the stuck values.
                for (id, frame) in batch.iter().enumerate() {
                    system.infer_checked(frame, id as u64).unwrap();
                    assert!(holds(&output_weights(&system)), "{case}: frame {id}");
                }
                // Uninstalling restores the weights, and the scrub keeps
                // them restored.
                system.set_fault_plan(transient_plan(7)).unwrap();
                for (id, frame) in batch.iter().enumerate() {
                    system.infer_checked(frame, id as u64).unwrap();
                    assert_eq!(output_weights(&system), pristine, "{case}: frame {id}");
                }
            }
        }
    }
}

#[test]
fn fault_sites_are_identical_across_thread_counts() {
    let plan = transient_plan(11);
    let batch = frames(40, 4);
    let mut source = system(BitcellKind::multiport(4).unwrap());
    source.set_fault_plan(plan).unwrap();
    let mut reference = None;
    for threads in [1usize, 2, 4, 7] {
        let mut engine = BatchEngine::new(&source, &BatchConfig::with_threads(threads));
        let results = engine.infer_batch(&batch).unwrap();
        // Fold the workers' fault tallies the same way serve does.
        let mut sink = source.clone();
        sink.reset_stats();
        for worker in engine.workers() {
            sink.absorb_stats(worker);
        }
        let tally = *sink.fault_tally();
        assert!(tally.weight_flips > 0);
        match &reference {
            None => reference = Some((results, tally)),
            Some((expected, expected_tally)) => {
                assert_eq!(&results, expected, "{threads} threads");
                assert_eq!(&tally, expected_tally, "{threads} threads");
            }
        }
    }
}

#[test]
fn membrane_upsets_recompute_the_readout_consistently() {
    let mut faulted = system(BitcellKind::multiport(4).unwrap());
    faulted
        .set_fault_plan(FaultPlan::seeded(
            2,
            FaultConfig::none().with_membrane_flip_rate(0.5),
        ))
        .unwrap();
    let frame = &frames(1, 8)[0];
    let result = faulted.infer_checked(frame, 0).unwrap();
    assert!(faulted.fault_tally().membrane_flips > 0, "rate 0.5 over 10");
    // The reported logits/prediction are consistent with the upset
    // membranes (recomputed, not stale).
    for (logit, membrane) in result.logits.iter().zip(&result.membranes) {
        let bias = logit - *membrane as f32;
        assert!(bias.is_finite());
    }
    let best = result
        .logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert_eq!(result.prediction, best);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `FaultPlan::none()` is bit-identical to the unfaulted baseline on
    /// random frames (the zero-cost-when-disabled pin).
    #[test]
    fn none_plan_matches_baseline_on_random_frames(
        seed in 0u64..500,
        count in 1usize..12,
    ) {
        let mut baseline = system(BitcellKind::multiport(2).unwrap());
        let mut disabled = system(BitcellKind::multiport(2).unwrap());
        disabled.set_fault_plan(FaultPlan::none()).unwrap();
        for (id, frame) in frames(count, seed).iter().enumerate() {
            prop_assert_eq!(
                disabled.infer_checked(frame, id as u64).unwrap(),
                baseline.infer(frame).unwrap()
            );
        }
    }

    /// Same seed ⇒ same faulted outputs, fresh systems each time.
    #[test]
    fn same_seed_reproduces_faulted_outputs(seed in 0u64..500) {
        let frame = &frames(1, seed)[0];
        let mut a = system(BitcellKind::Std6T);
        let mut b = system(BitcellKind::Std6T);
        a.set_fault_plan(transient_plan(seed)).unwrap();
        b.set_fault_plan(transient_plan(seed)).unwrap();
        prop_assert_eq!(
            a.infer_checked(frame, 3).unwrap(),
            b.infer_checked(frame, 3).unwrap()
        );
        prop_assert_eq!(a.fault_tally(), b.fault_tally());
    }
}
