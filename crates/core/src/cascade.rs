//! The cascade walk (§3.1): spike frames through a run of cascaded tiles.
//!
//! Every execution mode walks tiles through these two functions — the
//! single-core [`EsamSystem`](crate::EsamSystem) over its whole cascade,
//! a mesh core over its shard of it, [`Tile::process_frame`] over one
//! tile — so the frame walk and the block walk each exist once. Both fill
//! caller-owned cycle and membrane buffers; the frame walk also fires into
//! a caller-owned frame, the block walk returns its last tile's block.
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

/// Walks one spike frame through `tiles` in order and writes the last
/// tile's fired frame into `out`. Each tile runs [`Tile::step_frame`] when
/// that is exact (see the module docs) and the cycle walk — inject, step
/// until drained, compare and fire — otherwise.
///
/// Every tile but the last fires into its own last-fired buffer, sized when
/// the tile was built, and the next tile reads it there: between tiles the
/// walk allocates nothing (the cycle walk's compare-and-fire still returns
/// a fresh frame).
///
/// Appends each tile's pipeline cycles (serve cycles plus the fire cycle)
/// to `cycles`. `membranes`, when given, receives the last tile's
/// pre-fire membrane potentials (the readout registers). The frame that
/// entered tile `t > 0` stays readable after the walk as tile `t − 1`'s
/// [`fired`](Tile::fired).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty run and
/// [`CoreError::BufferMismatch`] when `out` is not the last tile's
/// `outputs()` wide, both before any state changes;
/// [`CoreError::InputWidthMismatch`] when `input` does not match the first
/// tile's fan-in; and propagates step errors.
pub fn walk_frame(
    tiles: &mut [Tile],
    input: &BitVec,
    out: &mut BitVec,
    cycles: &mut Vec<u64>,
    membranes: Option<&mut Vec<i32>>,
) -> Result<(), CoreError> {
    let (last, hidden) = tiles.split_last_mut().ok_or_else(empty_run)?;
    if out.len() != last.outputs() {
        return Err(CoreError::BufferMismatch {
            buffer: "output frame width",
            expected: last.outputs(),
            got: out.len(),
        });
    }
    for index in 0..hidden.len() {
        let (upstream, rest) = hidden.split_at_mut(index);
        let entering = upstream.last().map_or(input, Tile::fired);
        let tile = &mut rest[0];
        // The buffer leaves the tile for the step and goes back even when
        // the step fails.
        let mut fired = std::mem::take(tile.fired_mut());
        let served = step_tile(tile, entering, &mut fired, None);
        *tile.fired_mut() = fired;
        cycles.push(served?);
    }
    let entering = hidden.last().map_or(input, Tile::fired);
    cycles.push(step_tile(last, entering, out, membranes)?);
    Ok(())
}

/// One tile's timestep of [`walk_frame`]: fires `input` into `fired`
/// through the frame kernel where it is exact and the cycle walk
/// otherwise, and returns the tile's pipeline cycles.
fn step_tile(
    tile: &mut Tile,
    input: &BitVec,
    fired: &mut BitVec,
    membranes: Option<&mut Vec<i32>>,
) -> Result<u64, CoreError> {
    if tile.block_ready() && tile.integrity_mode() == IntegrityMode::Off {
        let readout = membranes.map(|out| {
            out.clear();
            out.resize(tile.outputs(), 0);
            out.as_mut_slice()
        });
        return tile.step_frame(input, fired, readout);
    }
    tile.inject(input)?;
    let mut served = 0u64;
    while !tile.is_drained() {
        tile.step()?;
        served += 1;
    }
    if let Some(out) = membranes {
        out.clear();
        out.extend_from_slice(tile.membranes());
    }
    *fired = tile.finish_timestep();
    Ok(served + 1)
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
