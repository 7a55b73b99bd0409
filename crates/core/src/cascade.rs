//! The cascade walk (§3.1): spike frames through a run of cascaded tiles.
//!
//! Every execution mode walks tiles through these two functions — the
//! single-core [`EsamSystem`](crate::EsamSystem) over its whole cascade,
//! a mesh core over its shard of it, [`Tile::process_frame`] over one
//! tile — so the frame walk and the block walk each exist once. Both write
//! into caller-owned buffers and return the last tile's fired output; the
//! caller decides what to read out of it.
//!
//! [`walk_frame`] picks a path per tile from that tile's own state. A tile
//! that is [`block_ready`](Tile::block_ready) with its integrity mode
//! [`Off`](IntegrityMode::Off) runs the closed-form frame kernel
//! ([`Tile::step_frame`]); any other tile — `OnFire` reset, a membrane
//! register narrower than the fan-in, Detect/Correct checked reads — runs
//! the cycle walk (inject, step until drained, compare and fire). Both give
//! the same outputs, membranes, cycles and counters, so one cascade may mix
//! them. Transient weight flips need no guard: they go through
//! [`SramArray::flip_bit`](esam_sram::SramArray::flip_bit), which keeps
//! the kernel's column view coherent.

use esam_bits::{BitVec, FrameBlock};
use esam_sram::IntegrityMode;

use crate::error::CoreError;
use crate::tile::Tile;

/// Walks one spike frame through `tiles` in order and returns the last
/// tile's fired frame. Each tile runs [`Tile::step_frame`] when that is
/// exact (see the module docs) and the cycle walk — inject, step until
/// drained, compare and fire — otherwise.
///
/// Appends each tile's pipeline cycles (serve cycles plus the fire cycle)
/// to `cycles`. `membranes`, when given, receives the last tile's
/// pre-fire membrane potentials (the readout registers); `layer_inputs`,
/// when given, receives a clone of the frame that entered each tile.
///
/// # Errors
///
/// Returns [`CoreError::InputWidthMismatch`] when `input` does not match
/// the first tile's fan-in, [`CoreError::InvalidConfig`] for an empty run,
/// and propagates step errors.
pub fn walk_frame(
    tiles: &mut [Tile],
    input: &BitVec,
    cycles: &mut Vec<u64>,
    mut membranes: Option<&mut Vec<i32>>,
    mut layer_inputs: Option<&mut Vec<BitVec>>,
) -> Result<BitVec, CoreError> {
    let count = tiles.len();
    // The working frame: `None` until the first tile fires (the input is
    // borrowed, never cloned, unless `layer_inputs` asks for it).
    let mut frame: Option<BitVec> = None;
    for (index, tile) in tiles.iter_mut().enumerate() {
        let entering = frame.as_ref().unwrap_or(input);
        if let Some(inputs) = layer_inputs.as_deref_mut() {
            inputs.push(entering.clone());
        }
        let readout = membranes.as_deref_mut().filter(|_| index + 1 == count);
        if tile.block_ready() && tile.integrity_mode() == IntegrityMode::Off {
            let mut fired = BitVec::new(tile.outputs());
            let out = readout.map(|out| {
                out.clear();
                out.resize(tile.outputs(), 0);
                out.as_mut_slice()
            });
            cycles.push(tile.step_frame(entering, &mut fired, out)?);
            frame = Some(fired);
            continue;
        }
        tile.inject(entering)?;
        let mut served = 0u64;
        while !tile.is_drained() {
            tile.step()?;
            served += 1;
        }
        if let Some(out) = readout {
            out.clear();
            out.extend_from_slice(tile.membranes());
        }
        frame = Some(tile.finish_timestep());
        cycles.push(served + 1);
    }
    frame.ok_or_else(empty_run)
}

/// Walks one [`FrameBlock`] through `tiles` in order with
/// [`Tile::step_block`] and returns the last tile's fired block. Each
/// tile's fired lane words *are* the next tile's block words, so the
/// cascade costs no re-transpose.
///
/// Appends each tile's per-lane pipeline cycles to `cycles`, tile-major
/// (`lanes` entries per tile). `membranes`, when given, receives the last
/// tile's per-lane membranes (`[lane * outputs + neuron]`). The result is
/// exact only when every tile is [`block_ready`](Tile::block_ready);
/// callers check that first and take [`walk_frame`] otherwise.
///
/// # Errors
///
/// Returns [`CoreError::InputWidthMismatch`] when the block does not match
/// the first tile's fan-in, [`CoreError::InvalidConfig`] for an empty run,
/// and propagates block-step errors.
pub fn walk_block(
    tiles: &mut [Tile],
    input: &FrameBlock,
    cycles: &mut Vec<u64>,
    mut membranes: Option<&mut Vec<i32>>,
) -> Result<FrameBlock, CoreError> {
    let lanes = input.lanes();
    let count = tiles.len();
    let mut block: Option<FrameBlock> = None;
    for (index, tile) in tiles.iter_mut().enumerate() {
        let mut fired = FrameBlock::new(tile.outputs(), lanes);
        let start = cycles.len();
        cycles.resize(start + lanes, 0);
        let readout = match membranes.as_deref_mut() {
            Some(out) if index + 1 == count => {
                out.clear();
                out.resize(lanes * tile.outputs(), 0);
                Some(out.as_mut_slice())
            }
            _ => None,
        };
        tile.step_block(
            block.as_ref().unwrap_or(input),
            &mut fired,
            &mut cycles[start..],
            readout,
        )?;
        block = Some(fired);
    }
    block.ok_or_else(empty_run)
}

fn empty_run() -> CoreError {
    CoreError::InvalidConfig("a cascade walk needs at least one tile".into())
}
