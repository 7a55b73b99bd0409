//! The mesh must be bit-identical to the retained single-core walk.
//!
//! Two levels of contract, both pinned here:
//!
//! 1. **Mesh-parallel ≡ mesh-sequential, always**: `Execution::Pipelined`
//!    and `Execution::Sequential` run the same per-core handlers, so
//!    results, the mesh tally and *every* tile/array counter must match at
//!    any core count and batch shape, across hand-off boundaries.
//! 2. **Mesh ≡ plain `EsamSystem`**: outputs (predictions, logits,
//!    membranes, output spikes, per-tile cycles) match frame for frame at
//!    every core count. When the plan is layer-granular (no column
//!    splits), tile and array counters additionally match tile for tile —
//!    the mesh walks the very same tiles in the same order. Column-split
//!    shards own private arbiters, so their arbiter-side counters
//!    physically duplicate; outputs still match exactly.

use esam_bits::BitVec;
use esam_core::{EsamSystem, SystemConfig, TileStats};
use esam_mesh::{Execution, MeshConfig, MeshSystem};
use esam_neuron::{NeuronConfig, ResetPolicy};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::{AccessStats, BitcellKind};
use proptest::prelude::*;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn model_and_config(topology: &[usize], seed: u64) -> (SnnModel, SystemConfig) {
    let net = BnnNetwork::new(topology, seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(BitcellKind::multiport(2).unwrap(), topology)
        .build()
        .unwrap();
    (model, config)
}

fn random_frames(width: usize, count: usize, seed: u64, density: f64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..width).map(|_| rng.random_bool(density)).collect())
        .collect()
}

/// Flattened per-tile counters of a mesh, in core order.
fn mesh_tile_stats(mesh: &MeshSystem) -> Vec<TileStats> {
    mesh.cores()
        .flat_map(|core| core.tiles().iter().map(|t| *t.stats()))
        .collect()
}

/// Per-array access counters of a mesh, tile by tile in core order.
fn mesh_array_stats(mesh: &MeshSystem) -> Vec<Vec<AccessStats>> {
    mesh.cores()
        .flat_map(|core| core.tiles().iter().map(|t| t.array_stats().to_vec()))
        .collect()
}

/// Runs the batch on a pipelined and a sequential mesh built from the same
/// model and asserts results and all counters are identical; returns the
/// sequential mesh's results for further comparison.
fn assert_pipelined_matches_sequential(
    model: &SnnModel,
    config: &SystemConfig,
    mesh_config: &MeshConfig,
    batch: &[BitVec],
    label: &str,
) -> (MeshSystem, Vec<esam_core::InferenceResult>) {
    let sequential_config = mesh_config.execution(Execution::Sequential);
    let mut sequential = MeshSystem::from_model(model, config, &sequential_config).unwrap();
    let expected = sequential.run(batch).unwrap();

    let pipelined_config = mesh_config.execution(Execution::Pipelined);
    let mut pipelined = MeshSystem::from_model(model, config, &pipelined_config).unwrap();
    let got = pipelined.run(batch).unwrap();

    assert_eq!(got, expected, "{label}: pipelined results");
    assert_eq!(
        pipelined.tally(),
        sequential.tally(),
        "{label}: mesh tallies"
    );
    assert_eq!(
        mesh_tile_stats(&pipelined),
        mesh_tile_stats(&sequential),
        "{label}: per-tile TileStats"
    );
    assert_eq!(
        mesh_array_stats(&pipelined),
        mesh_array_stats(&sequential),
        "{label}: per-array AccessStats"
    );
    (sequential, expected)
}

/// Asserts mesh outputs match looping the plain system's `infer`, and —
/// for layer-granular plans — that every counter matches tile for tile.
fn assert_mesh_matches_plain(
    mesh: &MeshSystem,
    mesh_results: &[esam_core::InferenceResult],
    model: &SnnModel,
    config: &SystemConfig,
    batch: &[BitVec],
    label: &str,
) {
    let mut plain = EsamSystem::from_model(model, config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    assert_eq!(mesh_results, expected, "{label}: outputs vs plain system");
    assert_eq!(
        mesh.tally().tiles,
        {
            let mut tally = esam_core::BatchTally::default();
            for result in &expected {
                tally.record(result);
            }
            tally
        },
        "{label}: tile tally vs plain system"
    );
    if mesh.plan().is_layer_granular() {
        let mesh_tiles: Vec<_> = mesh.cores().flat_map(|c| c.tiles().iter()).collect();
        assert_eq!(mesh_tiles.len(), plain.tiles().len(), "{label}: tile count");
        for (t, (mesh_tile, plain_tile)) in mesh_tiles.iter().zip(plain.tiles()).enumerate() {
            assert_eq!(
                mesh_tile.stats(),
                plain_tile.stats(),
                "{label}: tile {t} TileStats vs plain"
            );
            assert_eq!(
                mesh_tile.array_stats(),
                plain_tile.array_stats(),
                "{label}: tile {t} AccessStats vs plain"
            );
        }
    }
}

fn exercise(topology: &[usize], seed: u64, cores: usize, batch: &[BitVec]) {
    let (model, config) = model_and_config(topology, seed);
    let mesh_config = MeshConfig::with_cores(cores);
    let label = format!("{topology:?} cores={cores} n={}", batch.len());
    let (mesh, results) =
        assert_pipelined_matches_sequential(&model, &config, &mesh_config, batch, &label);
    assert_mesh_matches_plain(&mesh, &results, &model, &config, batch, &label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random deep networks at the pinned core counts, batches inside one
    /// hand-off.
    #[test]
    fn random_networks_match_with_frame_payloads(
        seed in 0u64..10_000,
        // Multiples of 8 keep every array row count divisible by the SRAM
        // column-mux ratio.
        hidden_octets in 4usize..12,
        count in 1usize..20,
        density in 0.05f64..0.6,
    ) {
        let hidden = hidden_octets * 8;
        let topology = [128, hidden, hidden / 2 + 8, 10];
        let batch = random_frames(128, count, seed.wrapping_add(17), density);
        for cores in [1usize, 2, 4, 7] {
            exercise(&topology, seed, cores, &batch);
        }
    }

    /// Batches straddling the 64-frame hand-off boundaries: one or two
    /// hand-offs with a ragged tail, and two or three around 128.
    #[test]
    fn random_networks_match_across_hand_off_boundaries(
        seed in 0u64..10_000,
        // 0..=10 → 60..=70 frames, 11..=13 → 127..=129.
        pick in 0usize..14,
        density in 0.05f64..0.5,
    ) {
        let count = if pick <= 10 { 60 + pick } else { 116 + pick };
        let topology = [128, 64, 48, 10];
        let batch = random_frames(128, count, seed.wrapping_add(3), density);
        for cores in [1usize, 2, 4] {
            exercise(&topology, seed, cores, &batch);
        }
    }

    /// Column-split plans (cores > layers) on multi-group widths: outputs
    /// must still match the plain system exactly.
    #[test]
    fn column_split_plans_match_plain_outputs(
        seed in 0u64..10_000,
        count in 1usize..8,
        density in 0.1f64..0.5,
    ) {
        // 300-wide hidden layer = three column groups (128+128+44): splits
        // exercise ragged group tails and word-aligned reassembly.
        let topology = [128, 300, 10];
        let batch = random_frames(128, count, seed.wrapping_add(29), density);
        exercise(&topology, seed, 4, &batch);
        // A 256-wide readout (two column groups) splits the *output* stage,
        // exercising sink-side membrane/spike reassembly across shards.
        let wide_readout = [64, 128, 256];
        let readout_batch = random_frames(64, count, seed.wrapping_add(31), density);
        exercise(&wide_readout, seed, 4, &readout_batch);
    }
}

#[test]
fn one_run_matches_one_frame_hand_offs() {
    // A one-frame `run` sends its frame as a hand-off of its own; a batch
    // `run` packs the frames into multi-frame hand-offs. Results, tallies
    // and every counter must not see the difference.
    let topology = [128, 96, 64, 10];
    let (model, config) = model_and_config(&topology, 23);
    let batch = random_frames(128, 100, 7, 0.3);
    let mesh_config = MeshConfig::with_cores(3);
    let mut batched = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
    let batched_results = batched.run(&batch).unwrap();
    let mut single = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
    let single_results: Vec<_> = batch
        .iter()
        .flat_map(|f| single.run(std::slice::from_ref(f)).unwrap())
        .collect();
    assert_eq!(batched_results, single_results);
    // The modeled NoC charges per frame either way, so the interconnect
    // tallies agree too.
    assert_eq!(batched.tally(), single.tally());
    assert_eq!(mesh_tile_stats(&batched), mesh_tile_stats(&single));
    assert_eq!(mesh_array_stats(&batched), mesh_array_stats(&single));
}

#[test]
fn state_carrying_meshes_walk_each_hand_off_in_frame_order() {
    // `OnFire` membranes carry from frame to frame, so a frame's result
    // depends on the frames a tile saw before it; 6-bit registers clamp
    // mid-frame. Both keep every tile on the cycle walk. A hand-off must
    // walk its frames in order on every core.
    let topology = [128, 64, 32, 10];
    let neurons = [
        NeuronConfig::new(12, 12, ResetPolicy::OnFire),
        NeuronConfig::new(6, 12, ResetPolicy::EveryTimestep),
    ];
    let batch = random_frames(128, 100, 41, 0.3);
    for neuron in neurons {
        let net = BnnNetwork::new(&topology, 19).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(2).unwrap(), &topology)
            .neuron(neuron)
            .build()
            .unwrap();
        let mut plain = EsamSystem::from_model(&model, &config).unwrap();
        let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
        for cores in [1usize, 2, 3] {
            let label = format!("{neuron:?} cores={cores}");
            let mut tallies = Vec::new();
            for execution in [Execution::Sequential, Execution::Pipelined] {
                let mesh_config = MeshConfig::with_cores(cores).execution(execution);
                let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
                let results = mesh.run(&batch).unwrap();
                assert_eq!(results, expected, "{label} {execution:?}: results vs plain");
                tallies.push(*mesh.tally());
            }
            assert_eq!(
                tallies[0], tallies[1],
                "{label}: pipelined vs sequential tally"
            );
        }
    }
}

#[test]
fn repeated_runs_accumulate_like_one_long_batch() {
    let topology = [128, 64, 10];
    let (model, config) = model_and_config(&topology, 4);
    let batch = random_frames(128, 24, 11, 0.25);
    let mut split = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(2)).unwrap();
    split.run(&batch[..7]).unwrap();
    split.run(&batch[7..]).unwrap();
    let mut whole = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(2)).unwrap();
    whole.run(&batch).unwrap();
    assert_eq!(split.tally(), whole.tally(), "tallies merge exactly");
    assert_eq!(mesh_tile_stats(&split), mesh_tile_stats(&whole));
}

#[test]
fn measure_is_deterministic_across_executions() {
    let topology = [128, 96, 48, 10];
    let (model, config) = model_and_config(&topology, 31);
    let batch = random_frames(128, 80, 13, 0.3);
    let mut pipelined =
        MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(3)).unwrap();
    let a = pipelined.measure(&batch).unwrap();
    let mut sequential = MeshSystem::from_model(
        &model,
        &config,
        &MeshConfig::with_cores(3).execution(Execution::Sequential),
    )
    .unwrap();
    let b = sequential.measure(&batch).unwrap();
    assert_eq!(a, b, "metrics are a pure function of merged integers");
}
