//! The closed-form frame kernel must be bit-identical to the cycle walk:
//! `Tile::step_frame` on one clone of a tile has to reproduce `inject`,
//! `step` until drained and `finish_timestep` on another — fired frame,
//! pre-fire membranes, cycles, `TileStats`, every `AccessStats` entry and
//! the post-state. The battery draws every bitcell, ragged multi-group and
//! column-split shapes, empty and all-ones frames, and weights rewritten by
//! stuck-at toggles, learning writes and scrub heals.
//!
//! At system level `infer` takes the kernel on each tile where it is exact
//! and the cycle walk elsewhere; it must match a manual per-tile cycle walk
//! on cascades that mix both paths and on systems (`OnFire`, Detect,
//! Correct) that must not take the kernel at all, down to the frame each
//! hidden tile keeps as `Tile::fired`. `bitslice_equivalence.rs`
//! compares the block kernel with `infer`, so this battery is what ties
//! both closed forms to the cycle walk.

use esam_bits::BitVec;
use esam_core::cascade::walk_frame;
use esam_core::{CoreError, EsamSystem, IntegrityMode, OnlineLearningEngine, SystemConfig, Tile};
use esam_fault::{FaultConfig, FaultPlan};
use esam_neuron::{NeuronConfig, ResetPolicy};
use esam_nn::{BnnNetwork, SnnModel, StdpRule, TeacherSignal};
use esam_sram::BitcellKind;
use esam_tech::units::Seconds;
use proptest::prelude::*;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One frame's outcome: fired frame, pre-fire membranes, pipeline cycles.
type Outcome = (BitVec, Vec<i32>, u64);

/// Tile shapes as (layer inputs, layer outputs, slice start, slice width):
/// three ragged multi-group layers, one single-group layer, and the three
/// `load_layer_slice` shards of a 132→300 layer.
const SHAPES: [(usize, usize, usize, usize); 7] = [
    (260, 130, 0, 130),
    (132, 257, 0, 257),
    (768, 256, 0, 256),
    (128, 10, 0, 10),
    (132, 300, 0, 128),
    (132, 300, 128, 128),
    (132, 300, 256, 44),
];

fn cells() -> [BitcellKind; 5] {
    [
        BitcellKind::Std6T,
        BitcellKind::multiport(1).unwrap(),
        BitcellKind::multiport(2).unwrap(),
        BitcellKind::multiport(3).unwrap(),
        BitcellKind::multiport(4).unwrap(),
    ]
}

/// A tile loaded from a seeded random layer: the whole layer when the
/// slice spans it, a column shard otherwise.
fn loaded_tile(shape: (usize, usize, usize, usize), cell: BitcellKind, seed: u64) -> Tile {
    let (inputs, outputs, start, width) = shape;
    let net = BnnNetwork::new(&[inputs, outputs], seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(cell, &[inputs, width])
        .build()
        .unwrap();
    let mut tile = Tile::new(inputs, width, &config).unwrap();
    if width == outputs {
        tile.load_layer(&model.layers()[0]).unwrap();
    } else {
        tile.load_layer_slice(&model.layers()[0], start).unwrap();
    }
    tile
}

/// The empty frame, the all-ones frame, then `count` random frames.
fn frames(width: usize, count: usize, seed: u64, density: f64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut frames = vec![BitVec::new(width), (0..width).map(|_| true).collect()];
    frames.extend((0..count).map(|_| (0..width).map(|_| rng.random_bool(density)).collect()));
    frames
}

fn cycle_walk(tile: &mut Tile, frame: &BitVec) -> Outcome {
    tile.inject(frame).unwrap();
    let mut served = 0u64;
    while !tile.is_drained() {
        tile.step().unwrap();
        served += 1;
    }
    let membranes = tile.membranes().to_vec();
    (tile.finish_timestep(), membranes, served + 1)
}

fn kernel(tile: &mut Tile, frame: &BitVec) -> Outcome {
    let mut fired = BitVec::new(tile.outputs());
    let mut membranes = vec![0; tile.outputs()];
    let cycles = tile
        .step_frame(frame, &mut fired, Some(&mut membranes))
        .unwrap();
    (fired, membranes, cycles)
}

/// Counters and post-state of two tiles that ran the same frames.
fn assert_same_state(got: &Tile, want: &Tile, label: &str) {
    assert_eq!(got.stats(), want.stats(), "{label}: TileStats");
    assert_eq!(
        got.array_stats(),
        want.array_stats(),
        "{label}: AccessStats"
    );
    assert_eq!(
        got.integrity_tally(),
        want.integrity_tally(),
        "{label}: IntegrityTally"
    );
    assert_eq!(got.membranes(), want.membranes(), "{label}: membranes");
    assert_eq!(
        got.neurons().spike_requests(),
        want.neurons().spike_requests(),
        "{label}: pending neuron requests"
    );
    assert_eq!(got.is_drained(), want.is_drained(), "{label}: drained");
}

/// Runs `frames` through the kernel on one clone of `template` and the
/// cycle walk on another, comparing after every frame.
fn assert_kernel_matches_walk(template: &Tile, frames: &[BitVec], label: &str) {
    assert!(template.block_ready(), "{label}: kernel precondition");
    let (mut fast, mut walked) = (template.clone(), template.clone());
    for (i, frame) in frames.iter().enumerate() {
        let label = format!("{label}: frame {i}");
        assert_eq!(
            kernel(&mut fast, frame),
            cycle_walk(&mut walked, frame),
            "{label}"
        );
        assert_same_state(&fast, &walked, &label);
        assert!(fast.block_ready(), "{label}: kernel left the tile unready");
    }
}

#[test]
fn kernel_matches_the_cycle_walk_on_every_shape_and_cell() {
    for (s, &shape) in SHAPES.iter().enumerate() {
        for (c, cell) in cells().into_iter().enumerate() {
            let tile = loaded_tile(shape, cell, 7 + s as u64);
            let seed = (s * 5 + c) as u64;
            let batch = frames(shape.0, 4, seed, 0.1 + 0.2 * c as f64);
            assert_kernel_matches_walk(&tile, &batch, &format!("{shape:?} {cell}"));
        }
    }
}

#[test]
fn rejected_shapes_leave_the_tile_untouched() {
    let template = loaded_tile(SHAPES[0], BitcellKind::multiport(2).unwrap(), 3);
    let frame = frames(260, 1, 9, 0.3).pop().unwrap();
    let mut tile = template.clone();
    let mut fired = BitVec::new(130);
    assert!(tile
        .step_frame(&BitVec::new(259), &mut fired, None)
        .is_err());
    assert!(tile
        .step_frame(&frame, &mut BitVec::new(129), None)
        .is_err());
    assert!(tile
        .step_frame(&frame, &mut fired, Some(&mut [0; 129]))
        .is_err());
    assert_same_state(&tile, &template, "after three rejected calls");
    assert_kernel_matches_walk(&tile, &[frame], "after three rejected calls");
}

#[test]
fn scrub_heals_and_reloads_keep_the_kernel_exact() {
    for mode in [IntegrityMode::Detect, IntegrityMode::Correct] {
        for cell in cells() {
            let mut tile = loaded_tile(SHAPES[1], cell, 11);
            let pristine: Vec<_> = tile.arrays().iter().map(|a| a.bits().clone()).collect();
            tile.set_integrity_mode(mode);
            // One single-bit row (healed in place under Correct) and one
            // double-bit row (reloaded from the golden image), in two
            // different blocks.
            for (input, output) in [(3, 200), (129, 7), (129, 100)] {
                tile.toggle_weight_bit(input, output).unwrap();
            }
            tile.scrub_audited().unwrap();
            tile.set_integrity_mode(IntegrityMode::Off);
            let healed: Vec<_> = tile.arrays().iter().map(|a| a.bits().clone()).collect();
            assert_eq!(
                healed, pristine,
                "{mode:?} {cell}: scrub restores the store"
            );
            let batch = frames(132, 3, 5, 0.4);
            assert_kernel_matches_walk(&tile, &batch, &format!("{mode:?} scrub {cell}"));
        }
    }
}

/// A system over a seeded random network with the given neuron datapath.
fn system_with(
    topology: &[usize],
    cell: BitcellKind,
    neuron: NeuronConfig,
    seed: u64,
) -> EsamSystem {
    let net = BnnNetwork::new(topology, seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(cell, topology)
        .neuron(neuron)
        .build()
        .unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

/// The cycle walk over every tile of `system`, in order: each tile's fired
/// frame (the last one is the output), the last tile's membranes, and each
/// tile's cycles.
fn manual_walk(system: &mut EsamSystem, input: &BitVec) -> (Vec<BitVec>, Vec<i32>, Vec<u64>) {
    let (mut fired, mut membranes, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    for index in 0..system.tiles().len() {
        let entering = fired.last().unwrap_or(input);
        let (frame, tile_membranes, tile_cycles) = cycle_walk(system.tile_mut(index), entering);
        fired.push(frame);
        membranes = tile_membranes;
        cycles.push(tile_cycles);
    }
    (fired, membranes, cycles)
}

/// Every hidden tile of `system` keeps the frame the manual walk fired
/// there; the last tile fires into the caller's buffer instead.
fn assert_hidden_frames(system: &EsamSystem, fired: &[BitVec], label: &str) {
    let hidden = &system.tiles()[..system.tiles().len() - 1];
    for (t, (tile, want)) in hidden.iter().zip(fired).enumerate() {
        assert_eq!(tile.fired(), want, "{label}: tile {t} fired frame");
    }
}

/// `infer` on one clone of `template` against the manual cycle walk on
/// another: result, every hidden tile's fired frame, every tile's counters
/// and post-state.
fn assert_infer_matches_manual_walk(template: &EsamSystem, frames: &[BitVec], label: &str) {
    let (mut fast, mut walked) = (template.clone(), template.clone());
    for (i, frame) in frames.iter().enumerate() {
        let label = format!("{label}: frame {i}");
        let result = fast.infer(frame).unwrap();
        let (fired, membranes, cycles) = manual_walk(&mut walked, frame);
        assert_eq!(
            Some(&result.output_spikes),
            fired.last(),
            "{label}: output spikes"
        );
        assert_eq!(result.membranes, membranes, "{label}: readout membranes");
        assert_eq!(result.per_tile_cycles, cycles, "{label}: per-tile cycles");
        assert_hidden_frames(&fast, &fired, &label);
        for (t, (got, want)) in fast.tiles().iter().zip(walked.tiles()).enumerate() {
            assert_same_state(got, want, &format!("{label}: tile {t}"));
        }
    }
}

fn neuron_config(mem_bits: u8, reset: ResetPolicy) -> NeuronConfig {
    NeuronConfig::new(mem_bits, 12, reset)
}

#[test]
fn mixed_cascades_match_the_manual_walk() {
    // 6-bit registers guard fan-ins up to 31: the 128-input tile walks and
    // the 28-input tile takes the kernel. 8-bit registers guard 127: the
    // 124-input tile (the largest fan-in the 4:1 row mux allows under it)
    // takes the kernel and the 128-input tile walks.
    let cases: [(&[usize], u8, [bool; 2]); 2] = [
        (&[128, 28, 10], 6, [false, true]),
        (&[124, 128, 8], 8, [true, false]),
    ];
    for (topology, bits, kernel_tiles) in cases {
        for cell in cells() {
            let neuron = neuron_config(bits, ResetPolicy::EveryTimestep);
            let template = system_with(topology, cell, neuron, 17);
            let ready: Vec<bool> = template.tiles().iter().map(Tile::block_ready).collect();
            assert_eq!(ready[..2], kernel_tiles, "{topology:?}: path split");
            let batch = frames(topology[0], 6, 23, 0.3);
            assert_infer_matches_manual_walk(&template, &batch, &format!("{topology:?} {cell}"));
        }
    }
    // With the paper's 12-bit registers every tile takes the kernel.
    let template = system_with(
        &[260, 132, 10],
        BitcellKind::multiport(4).unwrap(),
        NeuronConfig::paper_default(),
        29,
    );
    assert!(template.tiles().iter().all(Tile::block_ready));
    assert_infer_matches_manual_walk(&template, &frames(260, 6, 31, 0.2), "all-kernel");
}

#[test]
fn a_misshaped_output_frame_leaves_the_cascade_untouched() {
    let neuron = neuron_config(12, ResetPolicy::EveryTimestep);
    let template = system_with(
        &[260, 132, 10],
        BitcellKind::multiport(2).unwrap(),
        neuron,
        5,
    );
    let frame = frames(260, 1, 4, 0.3).pop().unwrap();
    let mut tiles = template.tiles().to_vec();
    let mut cycles = Vec::new();
    let mut wide = BitVec::new(132);
    let rejected = walk_frame(&mut tiles, &frame, &mut wide, &mut cycles, None);
    assert!(
        matches!(
            rejected,
            Err(CoreError::BufferMismatch {
                buffer: "output frame width",
                expected: 10,
                got: 132,
            })
        ),
        "{rejected:?}"
    );
    assert!(cycles.is_empty(), "no tile ran");
    for (t, (got, want)) in tiles.iter().zip(template.tiles()).enumerate() {
        assert_same_state(got, want, &format!("tile {t} after the rejected walk"));
    }
    let mut out = BitVec::new(10);
    walk_frame(&mut tiles, &frame, &mut out, &mut cycles, None).unwrap();
    let result = template.clone().infer(&frame).unwrap();
    assert_eq!(
        (out, cycles),
        (result.output_spikes, result.per_tile_cycles)
    );
}

#[test]
fn on_fire_narrow_and_checked_systems_take_the_cycle_walk() {
    // OnFire carries membranes across frames, a 6-bit register clamps a
    // 128-input readout at ±32, and Detect/Correct count a syndrome check
    // per read: each would diverge from the manual walk if `infer` took
    // the kernel.
    let cell = BitcellKind::multiport(2).unwrap();
    let batch = frames(132, 6, 37, 0.3);
    let on_fire = system_with(
        &[132, 64, 10],
        cell,
        neuron_config(12, ResetPolicy::OnFire),
        41,
    );
    assert_infer_matches_manual_walk(&on_fire, &batch, "OnFire");
    let narrow = system_with(
        &[128, 10],
        cell,
        neuron_config(6, ResetPolicy::EveryTimestep),
        41,
    );
    assert!(!narrow.tiles()[0].block_ready());
    assert_infer_matches_manual_walk(&narrow, &frames(128, 6, 37, 0.9), "6-bit readout");
    for mode in [IntegrityMode::Detect, IntegrityMode::Correct] {
        let mut checked = system_with(&[132, 64, 10], cell, NeuronConfig::paper_default(), 41);
        checked.set_integrity_mode(mode);
        assert_infer_matches_manual_walk(&checked, &batch, &format!("{mode:?}"));
        checked.infer(&batch[1]).unwrap();
        assert!(
            checked.integrity_tally().checked_reads > 0,
            "{mode:?}: reads checked"
        );
    }
}

#[test]
fn stuck_at_install_and_revert_keep_infer_exact() {
    let topology = [260, 132, 10];
    let batch = frames(260, 4, 43, 0.25);
    for cell in cells() {
        let mut system = system_with(&topology, cell, NeuronConfig::paper_default(), 47);
        let pristine = system.clone();
        let plan = FaultPlan::seeded(5, FaultConfig::none().with_stuck_rate(0.02));
        system.set_fault_plan(plan).unwrap();
        assert!(system.stuck_bits() > 0, "{cell}: stuck bits installed");
        assert_infer_matches_manual_walk(&system, &batch, &format!("stuck {cell}"));
        system.set_fault_plan(FaultPlan::none()).unwrap();
        for (got, want) in system.tiles().iter().zip(pristine.tiles()) {
            for (a, b) in got.arrays().iter().zip(want.arrays()) {
                assert_eq!(a.bits(), b.bits(), "{cell}: revert restores the weights");
            }
        }
        assert_infer_matches_manual_walk(&system, &batch, &format!("reverted {cell}"));
    }
}

#[test]
fn transient_weight_flips_need_no_guard() {
    // `infer_checked` toggles a frame's flips in, infers, and toggles them
    // out; the kernel sees the flipped bits through the column view. The
    // reference toggles the same sites by hand around a manual walk.
    let topology = [132, 64, 10];
    let plan = FaultPlan::seeded(9, FaultConfig::none().with_weight_flip_rate(0.01));
    let mut fast = system_with(
        &topology,
        BitcellKind::multiport(4).unwrap(),
        NeuronConfig::paper_default(),
        53,
    );
    fast.set_fault_plan(plan).unwrap();
    let mut walked = fast.clone();
    for (frame_id, frame) in frames(132, 4, 59, 0.3).iter().enumerate() {
        let frame_id = frame_id as u64;
        let result = fast.infer_checked(frame, frame_id).unwrap();
        let sites = flip_sites(&walked, &plan, frame_id);
        assert!(!sites.is_empty(), "frame {frame_id}: some bits flip");
        toggle(&mut walked, &sites);
        let (mut fired, membranes, cycles) = manual_walk(&mut walked, frame);
        toggle(&mut walked, &sites);
        assert_hidden_frames(&fast, &fired, &format!("frame {frame_id}"));
        assert_eq!(
            (
                result.output_spikes,
                result.membranes,
                result.per_tile_cycles
            ),
            (fired.pop().unwrap(), membranes, cycles),
            "frame {frame_id}"
        );
        for (t, (got, want)) in fast.tiles().iter().zip(walked.tiles()).enumerate() {
            assert_same_state(got, want, &format!("frame {frame_id}: tile {t}"));
        }
    }
}

fn flip_sites(system: &EsamSystem, plan: &FaultPlan, frame_id: u64) -> Vec<(usize, usize, usize)> {
    let mut sites = Vec::new();
    for (layer, tile) in system.tiles().iter().enumerate() {
        for input in 0..tile.inputs() {
            for output in 0..tile.outputs() {
                if plan.weight_flip(frame_id, layer as u64, input as u64, output as u64) {
                    sites.push((layer, input, output));
                }
            }
        }
    }
    sites
}

fn toggle(system: &mut EsamSystem, sites: &[(usize, usize, usize)]) {
    for &(layer, input, output) in sites {
        system
            .tile_mut(layer)
            .toggle_weight_bit(input, output)
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernel_matches_the_cycle_walk_on_random_tiles(
        shape in 0..SHAPES.len(),
        cell in 0..5usize,
        seed in 0u64..10_000,
        frame_seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        let shape = SHAPES[shape];
        let cell = cells()[cell];
        let tile = loaded_tile(shape, cell, seed);
        let batch = frames(shape.0, 3, frame_seed, density);
        assert_kernel_matches_walk(&tile, &batch, &format!("{shape:?} {cell} seed {seed}"));
    }

    #[test]
    fn toggled_bits_install_and_revert_exactly(
        shape in 0..SHAPES.len(),
        cell in 0..5usize,
        sites in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        frame_seed in any::<u64>(),
    ) {
        let shape = SHAPES[shape];
        let cell = cells()[cell];
        let (inputs, width) = (shape.0, shape.3);
        let mut tile = loaded_tile(shape, cell, 61);
        let pristine = tile.clone();
        let sites: Vec<(usize, usize)> = sites
            .iter()
            .map(|&(i, o)| ((i * inputs as f64) as usize, (o * width as f64) as usize))
            .collect();
        let batch = frames(inputs, 2, frame_seed, 0.3);
        for &(input, output) in &sites {
            tile.toggle_weight_bit(input, output).unwrap();
        }
        assert_kernel_matches_walk(&tile, &batch, &format!("installed {shape:?} {cell}"));
        for &(input, output) in sites.iter().rev() {
            tile.toggle_weight_bit(input, output).unwrap();
        }
        for (a, b) in tile.arrays().iter().zip(pristine.arrays()) {
            prop_assert_eq!(a.bits(), b.bits());
        }
        assert_kernel_matches_walk(&tile, &batch, &format!("reverted {shape:?} {cell}"));
    }

    #[test]
    fn learning_writes_keep_the_kernel_exact(
        shape in 0..SHAPES.len(),
        cell in 0..5usize,
        teaches in proptest::collection::vec((0.0f64..1.0, any::<bool>(), any::<u64>()), 1..6),
        rng_seed in any::<u64>(),
    ) {
        // Multiport cells write columns through the transposed port; the
        // 6T baseline rewrites rows through its RW port.
        let shape = SHAPES[shape];
        let cell = cells()[cell];
        let (inputs, width) = (shape.0, shape.3);
        let mut tile = loaded_tile(shape, cell, 67);
        let mut engine = OnlineLearningEngine::new(StdpRule::paper_default(), rng_seed);
        for &(neuron, potentiate, pre_seed) in &teaches {
            let neuron = (neuron * width as f64) as usize;
            let signal = if potentiate {
                TeacherSignal::ShouldFire
            } else {
                TeacherSignal::ShouldNotFire
            };
            let pre = frames(inputs, 1, pre_seed, 0.5).pop().unwrap();
            engine
                .teach(&mut tile, Seconds::new(1e-9), &pre, neuron, signal)
                .unwrap();
        }
        let batch = frames(inputs, 3, rng_seed ^ 1, 0.35);
        assert_kernel_matches_walk(&tile, &batch, &format!("taught {shape:?} {cell}"));
    }
}
