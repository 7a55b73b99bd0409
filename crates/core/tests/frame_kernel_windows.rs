//! `Tile::step_frame` walks each SRAM array's column view in chunks of
//! its row group's frame window: one word for up to 64 rows, two for 65 to
//! 128. This battery pins the kernel to the cycle walk on each side of
//! those boundaries — fired frame, pre-fire membranes, cycles, `TileStats`,
//! every `AccessStats` entry and the post-state, after every frame.
//!
//! A row group's row count must be a multiple of the transposed port's
//! 4:1 row mux (`Tile::new` rejects 1, 63, 65, 127 or 129 rows), so the
//! fan-ins nearest the boundaries are 60, 64 and 68 rows (one-word windows
//! up to 64) and 124, 128 and 132 (a second row group from 129 rows on).
//! 4 is the smallest tile, and 192 and 196 end in a full one-word and a
//! two-word group. Output widths 1, 64 and 129 give a one-column array, a
//! one-word column group and a second, one-column group.

use esam_bits::BitVec;
use esam_core::{SystemConfig, Tile};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::BitcellKind;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const FAN_INS: [usize; 9] = [4, 60, 64, 68, 124, 128, 132, 192, 196];
const OUTPUTS: [usize; 3] = [1, 64, 129];

/// The single-port 6T baseline and the 4-read-port cell.
fn cells() -> [BitcellKind; 2] {
    [BitcellKind::Std6T, BitcellKind::multiport(4).unwrap()]
}

fn loaded_tile(inputs: usize, outputs: usize, cell: BitcellKind, seed: u64) -> Tile {
    let net = BnnNetwork::new(&[inputs, outputs], seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(cell, &[inputs, outputs])
        .build()
        .unwrap();
    let mut tile = Tile::new(inputs, outputs, &config).unwrap();
    tile.load_layer(&model.layers()[0]).unwrap();
    tile
}

/// The empty frame, the full frame, then random frames at three densities.
fn frames(width: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut frames = vec![BitVec::new(width), (0..width).map(|_| true).collect()];
    for density in [0.05, 0.3, 0.8] {
        frames.push((0..width).map(|_| rng.random_bool(density)).collect());
    }
    frames
}

/// Fired frame, pre-fire membranes and cycles of one timestep.
type Outcome = (BitVec, Vec<i32>, u64);

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

#[test]
fn kernel_matches_the_cycle_walk_at_every_window_boundary() {
    for (i, &inputs) in FAN_INS.iter().enumerate() {
        for (o, &outputs) in OUTPUTS.iter().enumerate() {
            for cell in cells() {
                let template = loaded_tile(inputs, outputs, cell, (i * 3 + o) as u64);
                assert!(template.block_ready(), "{inputs}:{outputs} {cell}");
                let (mut fast, mut walked) = (template.clone(), template.clone());
                for (f, frame) in frames(inputs, (i * 7 + o) as u64).iter().enumerate() {
                    let label = format!("{inputs}:{outputs} {cell} frame {f}");
                    assert_eq!(
                        kernel(&mut fast, frame),
                        cycle_walk(&mut walked, frame),
                        "{label}"
                    );
                    assert_eq!(fast.stats(), walked.stats(), "{label}: TileStats");
                    assert_eq!(
                        fast.array_stats(),
                        walked.array_stats(),
                        "{label}: AccessStats"
                    );
                    assert_eq!(fast.membranes(), walked.membranes(), "{label}");
                    assert!(fast.block_ready(), "{label}: kernel left the tile unready");
                }
            }
        }
    }
}
