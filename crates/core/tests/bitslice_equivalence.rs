//! The batch-major bit-sliced path must be bit-identical to the sequential
//! walk: `EsamSystem::infer_block` over any batch has to reproduce looping
//! `infer` exactly — predictions, logits, membranes, output spikes,
//! per-tile cycle counts, `TileStats` and `AccessStats`, for full blocks,
//! ragged tails and every bitcell. This battery pins that contract the same
//! way `hot_path_equivalence.rs` pins the word-parallel single-frame path.

use esam_bits::BitVec;
use esam_core::{EsamSystem, SystemConfig};
use esam_neuron::{NeuronConfig, ResetPolicy};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::BitcellKind;
use proptest::prelude::*;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn system_with_config(topology: &[usize], seed: u64, config: SystemConfig) -> EsamSystem {
    let net = BnnNetwork::new(topology, seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

fn system(topology: &[usize], seed: u64, cell: BitcellKind) -> EsamSystem {
    let config = SystemConfig::builder(cell, topology).build().unwrap();
    system_with_config(topology, seed, config)
}

fn frames(width: usize, count: usize, seed: u64, density: f64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..width).map(|_| rng.random_bool(density)).collect())
        .collect()
}

/// Runs the batch both ways from clones of the same starting system and
/// asserts results, post-state and every counter are identical.
fn assert_block_matches_sequential(template: &EsamSystem, batch: &[BitVec], label: &str) {
    let mut sequential = template.clone();
    let expected: Vec<_> = batch
        .iter()
        .map(|frame| sequential.infer(frame).unwrap())
        .collect();
    let mut bitsliced = template.clone();
    let got = bitsliced.infer_block(batch).unwrap();
    assert_eq!(got.len(), expected.len(), "{label}: result count");
    for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "{label}: frame {i}");
    }
    for (t, (seq, bs)) in sequential.tiles().iter().zip(bitsliced.tiles()).enumerate() {
        assert_eq!(seq.stats(), bs.stats(), "{label}: tile {t} TileStats");
        assert_eq!(
            seq.array_stats(),
            bs.array_stats(),
            "{label}: tile {t} AccessStats"
        );
        assert_eq!(
            seq.membranes(),
            bs.membranes(),
            "{label}: tile {t} post-state membranes"
        );
    }
}

#[test]
fn block_path_matches_sequential_for_pinned_batch_sizes() {
    // The sizes the issue pins: below, at, above and twice the lane width,
    // plus the trivial single frame.
    for cell in [
        BitcellKind::Std6T,
        BitcellKind::multiport(2).unwrap(),
        BitcellKind::multiport(4).unwrap(),
    ] {
        let template = system(&[128, 64, 10], 11, cell);
        for count in [1usize, 63, 64, 65, 128] {
            let batch = frames(128, count, 7 + count as u64, 0.25);
            assert_block_matches_sequential(&template, &batch, &format!("{cell} n={count}"));
        }
    }
}

#[test]
fn ragged_tails_and_extreme_frames_match() {
    let template = system(&[132, 96, 17], 5, BitcellKind::multiport(4).unwrap());
    // 97 = full block + 33-lane ragged tail.
    let mut batch = frames(132, 95, 3, 0.4);
    batch.push(BitVec::new(132)); // an all-zero frame in the tail
    batch.push((0..132).map(|_| true).collect()); // an all-one frame
    assert_block_matches_sequential(&template, &batch, "ragged 97");
}

#[test]
fn multi_row_group_tiles_match() {
    // 260 inputs = 3 row groups on the first tile; exercises the per-group
    // serve-cycle maximum and the per-array counter split.
    let template = system(&[260, 132, 10], 23, BitcellKind::multiport(2).unwrap());
    let batch = frames(260, 80, 41, 0.2);
    assert_block_matches_sequential(&template, &batch, "multi-rg");
}

#[test]
fn empty_batch_yields_no_results() {
    let mut system = system(&[128, 64, 10], 11, BitcellKind::multiport(4).unwrap());
    assert!(system.infer_block(&[]).unwrap().is_empty());
}

#[test]
fn on_fire_reset_falls_back_to_the_sequential_walk() {
    // A state-carrying reset policy makes frames order-dependent; the block
    // path must detect it and fall back — staying exact by construction.
    let topology = [128, 64, 10];
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &topology)
        .neuron(NeuronConfig::new(12, 12, ResetPolicy::OnFire))
        .build()
        .unwrap();
    let template = system_with_config(&topology, 11, config);
    let batch = frames(128, 70, 13, 0.25);
    assert_block_matches_sequential(&template, &batch, "OnFire fallback");
}

#[test]
fn narrow_membrane_registers_fall_back_to_the_sequential_walk() {
    // 6-bit membranes clamp at ±(2^5) < 128 inputs: the closed form would
    // be wrong, so eligibility must rule the block kernel out and the
    // sequential walk (which clamps cycle by cycle) must run instead.
    let topology = [128, 32, 10];
    let config = SystemConfig::builder(BitcellKind::multiport(2).unwrap(), &topology)
        .neuron(NeuronConfig::new(6, 12, ResetPolicy::EveryTimestep))
        .build()
        .unwrap();
    let template = system_with_config(&topology, 3, config);
    let batch = frames(128, 66, 17, 0.6);
    assert_block_matches_sequential(&template, &batch, "narrow membranes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random networks, shapes, densities and ragged batch sizes: the block
    /// path must track the sequential walk everywhere.
    #[test]
    fn block_path_matches_sequential_on_random_networks(
        seed in 0u64..10_000,
        shape in 0usize..3,
        count in 1usize..96,
        density_pct in 5u32..60,
    ) {
        let topology: &[usize] = [
            &[96, 40, 10][..],
            &[256, 132, 10][..],
            &[132, 96, 17][..],
        ][shape];
        let template = system(topology, seed, BitcellKind::multiport(4).unwrap());
        let batch = frames(topology[0], count, seed ^ 0xABCD, f64::from(density_pct) / 100.0);
        assert_block_matches_sequential(
            &template,
            &batch,
            &format!("random seed={seed} shape={shape} n={count}"),
        );
    }
}
