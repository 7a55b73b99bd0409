//! Self-checking inference battery: with the oracle restore disabled, the
//! SECDED integrity ladder (checked reads → scrub → golden reload) must
//! carry the system through `FaultPlan` transient weight flips on its own.

use esam_bits::BitVec;
use esam_core::{EsamSystem, IntegrityMode, IntegrityTally, SystemConfig};
use esam_fault::{FaultConfig, FaultPlan};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::BitcellKind;
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

/// Weight-flips-only attacker (membranes clean so output bit-identity is
/// decidable).
fn flip_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::seeded(seed, FaultConfig::none().with_weight_flip_rate(rate))
}

fn weights_snapshot(system: &EsamSystem) -> Vec<esam_bits::BitMatrix> {
    system
        .tiles()
        .iter()
        .flat_map(|t| t.arrays().iter().map(|a| a.bits().clone()))
        .collect()
}

#[test]
fn off_mode_is_bit_identical_to_baseline() {
    // Outputs, membranes and *every* counter must match the untouched
    // baseline: `Off` systems never pay for the integrity layer.
    for cell in [BitcellKind::Std6T, BitcellKind::multiport(4).unwrap()] {
        let mut baseline = system(cell);
        let mut off = system(cell);
        off.set_integrity_mode(IntegrityMode::Off);
        for (id, frame) in frames(20, 1).iter().enumerate() {
            let expected = baseline.infer(frame).unwrap();
            let got = off.infer_checked(frame, id as u64).unwrap();
            assert_eq!(got, expected, "{cell} frame {id}");
        }
        assert_eq!(off.integrity_tally(), IntegrityTally::default());
        for (mine, theirs) in off.tiles().iter().zip(baseline.tiles()) {
            assert_eq!(mine.stats(), theirs.stats(), "{cell} tile stats");
            assert_eq!(
                mine.array_stats(),
                theirs.array_stats(),
                "{cell} array stats"
            );
        }
    }
}

#[test]
fn correct_mode_masks_targeted_single_bit_strikes() {
    // One strike per row (distinct inputs): every read of a struck row is
    // repaired in flight, so outputs are bit-identical to the pristine
    // system — no oracle involved anywhere.
    let cell = BitcellKind::multiport(4).unwrap();
    let mut pristine = system(cell);
    let mut struck = system(cell);
    struck.set_integrity_mode(IntegrityMode::Correct);
    let pristine_weights = weights_snapshot(&struck);
    for (layer, input, output) in [
        (0usize, 3usize, 17usize),
        (0, 90, 60),
        (1, 5, 9),
        (1, 40, 0),
    ] {
        struck
            .tile_mut(layer)
            .toggle_weight_bit(input, output)
            .unwrap();
    }
    for (id, frame) in frames(15, 3).iter().enumerate() {
        let expected = pristine.infer(frame).unwrap();
        let got = struck.infer_checked(frame, id as u64).unwrap();
        assert_eq!(got, expected, "frame {id}");
    }
    let tally = struck.integrity_tally();
    assert!(tally.corrected > 0, "struck rows were read and repaired");
    assert_eq!(tally.detected, 0);
    assert_eq!(tally.silent, 0);
    // The scrub pass heals the store itself back to the golden image.
    for layer in 0..2 {
        struck.tile_mut(layer).scrub_audited().unwrap();
    }
    assert_eq!(weights_snapshot(&struck), pristine_weights);
    let tally = struck.integrity_tally();
    assert_eq!(tally.scrub_corrected, 4, "one in-place heal per struck row");
    assert_eq!(tally.silent, 0);
}

#[test]
fn double_strikes_are_detected_never_silent() {
    let cell = BitcellKind::multiport(4).unwrap();
    let mut struck = system(cell);
    struck.set_integrity_mode(IntegrityMode::Correct);
    let pristine_weights = weights_snapshot(&struck);
    // Two strikes in the same weight row.
    struck.tile_mut(0).toggle_weight_bit(7, 11).unwrap();
    struck.tile_mut(0).toggle_weight_bit(7, 50).unwrap();
    for (id, frame) in frames(10, 4).iter().enumerate() {
        struck.infer_checked(frame, id as u64).unwrap();
    }
    let tally = struck.integrity_tally();
    assert!(tally.detected > 0, "double-bit rows are flagged on read");
    assert_eq!(
        tally.silent, 0,
        "SECDED never passes a double-bit row as clean"
    );
    // Scrub cannot heal a double-bit row in place — it reloads from golden.
    struck.tile_mut(0).scrub_audited().unwrap();
    assert_eq!(weights_snapshot(&struck), pristine_weights);
    assert!(struck.integrity_tally().scrub_reloaded >= 1);
}

#[test]
fn correct_mode_carries_plan_driven_flips_without_the_oracle() {
    // The acceptance scenario: FaultPlan transient weight flips, oracle
    // restore disabled, Correct mode carrying recovery. Whenever a frame
    // saw only single-bit-per-row upsets (detected == silent == 0 for the
    // frame), its outputs must be bit-identical to the fault-free run.
    let cell = BitcellKind::multiport(4).unwrap();
    // Rate chosen so no row collects three flips in one frame (SECDED's
    // guarantee covers <= 2 per row; beyond that the scrub's golden audit
    // still catches the corruption, but as a counted `silent` event).
    let mut fault_free = system(cell);
    let mut protected = system(cell);
    protected.set_fault_plan(flip_plan(0xECC, 1e-3)).unwrap();
    protected.set_integrity_mode(IntegrityMode::Correct);
    let batch = frames(40, 5);
    let mut exact = 0usize;
    let mut last = IntegrityTally::default();
    for (id, frame) in batch.iter().enumerate() {
        let expected = fault_free.infer(frame).unwrap();
        let got = protected.infer_checked(frame, id as u64).unwrap();
        let tally = protected.integrity_tally();
        if tally.detected == last.detected && tally.silent == last.silent {
            assert_eq!(got, expected, "single-bit-per-row frame {id}");
            exact += 1;
        }
        last = tally;
    }
    assert!(exact >= 30, "flips hit most frames singly, got {exact}");
    let tally = protected.integrity_tally();
    assert!(tally.corrected > 0, "the attacker actually struck");
    assert_eq!(tally.silent, 0, "no silent corruption at the tested rate");
    assert!(protected.fault_tally().weight_flips > 0);
}

#[test]
fn detect_mode_counts_but_delivers_raw_bits() {
    // Detect-mode outputs equal the *faulted* oracle baseline — an
    // integrity-Off system under the same plan: same struck weights,
    // delivered unrepaired — while the tally records what ECC saw.
    let plan = flip_plan(0xDE7, 5e-3);
    let mut oracle = system(BitcellKind::multiport(4).unwrap());
    oracle.set_fault_plan(plan).unwrap();
    let mut detect = system(BitcellKind::multiport(4).unwrap());
    detect.set_fault_plan(plan).unwrap();
    detect.set_integrity_mode(IntegrityMode::Detect);
    for (id, frame) in frames(25, 6).iter().enumerate() {
        let expected = oracle.infer_checked(frame, id as u64).unwrap();
        let got = detect.infer_checked(frame, id as u64).unwrap();
        assert_eq!(got, expected, "frame {id}");
    }
    let tally = detect.integrity_tally();
    assert!(tally.checked_reads > 0);
    assert!(
        tally.corrected + tally.detected > 0,
        "strikes were observed"
    );
    assert_eq!(tally.scrub_corrected, 0, "Detect never heals");
    assert_eq!(tally.silent, 0, "Detect restore is not an audit");
}

#[test]
fn integrity_tally_is_deterministic_across_sharding() {
    // Same seed, same frame ids → identical IntegrityTally whether the
    // batch ran on one system or sharded over K clones and merged — the
    // property the serving layer's health decisions depend on.
    let cell = BitcellKind::multiport(4).unwrap();
    let mut template = system(cell);
    template.set_fault_plan(flip_plan(0x5EED, 5e-3)).unwrap();
    template.set_integrity_mode(IntegrityMode::Correct);
    let batch = frames(24, 7);

    let mut sequential = template.clone();
    for (id, frame) in batch.iter().enumerate() {
        sequential.infer_checked(frame, id as u64).unwrap();
    }
    let expected = sequential.integrity_tally();
    assert!(expected.corrected > 0);

    for shards in [2usize, 4] {
        let mut workers: Vec<EsamSystem> = (0..shards).map(|_| template.clone()).collect();
        for (id, frame) in batch.iter().enumerate() {
            workers[id % shards]
                .infer_checked(frame, id as u64)
                .unwrap();
        }
        let mut merged = template.clone();
        merged.reset_stats();
        for worker in &workers {
            merged.absorb_stats(worker);
        }
        assert_eq!(merged.integrity_tally(), expected, "{shards} shards");
    }
}

#[test]
fn repeated_runs_reset_to_identical_tallies() {
    // Frame independence: the scrub restores the pristine store after
    // every frame, so re-running the same batch reproduces the tally.
    let mut protected = system(BitcellKind::multiport(4).unwrap());
    protected.set_fault_plan(flip_plan(0x4E9, 5e-3)).unwrap();
    protected.set_integrity_mode(IntegrityMode::Correct);
    let batch = frames(12, 8);
    let run = |sys: &mut EsamSystem| {
        sys.reset_stats();
        for (id, frame) in batch.iter().enumerate() {
            sys.infer_checked(frame, id as u64).unwrap();
        }
        sys.integrity_tally()
    };
    let first = run(&mut protected);
    let second = run(&mut protected);
    assert_eq!(first, second);
    assert!(first.checked_reads > 0);
}
