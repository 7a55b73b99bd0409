//! Proof that the steady-state inference hot path performs **zero heap
//! allocations**: a counting global allocator wraps the system allocator,
//! and neither the drain loop of [`Tile::step`], the closed-form
//! [`Tile::step_frame`] nor a [`walk_frame`] over an eligible cascade may
//! advance the counter; [`EsamSystem::infer`] allocates its result alone.
//! Online learning keeps the same contract: a steady-state
//! [`OnlineLearningEngine::teach`] allocates nothing, and
//! [`EsamSystem::learn_sample`] only `infer`'s result plus its
//! teacher-signal list.
//!
//! The counter is thread-local so the measurement cannot be polluted by
//! allocator traffic from other test threads; this file holds only
//! hot-path tests for the same reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use esam_bits::{BitVec, FrameBlock};
use esam_core::cascade::walk_frame;
use esam_core::{EsamSystem, OnlineLearningEngine, SystemConfig, Tile};
use esam_nn::{BnnNetwork, SnnModel, StdpRule, TeacherSignal};
use esam_sram::BitcellKind;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator with a thread-local allocation counter.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator; the
// only addition is a thread-local counter bump, which cannot allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn dense_frame(width: usize) -> BitVec {
    // ~ every other bit set: the worst realistic arbitration load.
    (0..width).map(|i| i % 2 == 0).collect()
}

#[test]
fn steady_state_step_is_allocation_free() {
    for cell in [
        BitcellKind::Std6T,
        BitcellKind::multiport(2).unwrap(),
        BitcellKind::multiport(4).unwrap(),
    ] {
        // A multi-group tile with a ragged edge block (260 → 3 row groups,
        // 130 → 2 column groups) so every scratch-buffer shape is
        // exercised.
        let config = SystemConfig::builder(cell, &[260, 130]).build().unwrap();
        let mut tile = Tile::new(260, 130, &config).unwrap();

        // Warm-up frame: nothing in `step` allocates lazily, but keep the
        // measurement strictly steady-state as the contract states.
        tile.process_frame(&dense_frame(260)).unwrap();

        tile.inject(&dense_frame(260)).unwrap();
        let before = allocations();
        let mut served = 0usize;
        while !tile.is_drained() {
            served += tile.step().unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{cell}: the drain loop must not touch the heap"
        );
        assert_eq!(served, 130, "every injected spike is served exactly once");
        tile.finish_timestep();
    }
}

#[test]
fn integrity_modes_keep_the_drain_loop_allocation_free() {
    // `IntegrityMode::Off` must be bit-identical to the baseline including
    // its zero-allocation contract, and the SECDED syndrome check of the
    // protected modes piggybacks on the packed-row read without touching
    // the heap either.
    use esam_sram::IntegrityMode;
    let cell = BitcellKind::multiport(4).unwrap();
    let config = SystemConfig::builder(cell, &[260, 130]).build().unwrap();
    for mode in [
        IntegrityMode::Off,
        IntegrityMode::Detect,
        IntegrityMode::Correct,
    ] {
        let mut tile = Tile::new(260, 130, &config).unwrap();
        tile.set_integrity_mode(mode);
        tile.process_frame(&dense_frame(260)).unwrap();

        tile.inject(&dense_frame(260)).unwrap();
        let before = allocations();
        while !tile.is_drained() {
            tile.step().unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{mode:?}: the checked drain loop must not touch the heap"
        );
        tile.finish_timestep();
    }
}

#[test]
fn cloned_worker_tiles_inherit_the_allocation_free_contract() {
    // Batch-engine workers are `Tile::clone`s, so the scratch buffers'
    // capacity must survive cloning (a derived Vec clone would drop the
    // empty grant buffer's reservation).
    let cell = BitcellKind::multiport(4).unwrap();
    let config = SystemConfig::builder(cell, &[260, 130]).build().unwrap();
    let template = Tile::new(260, 130, &config).unwrap();
    let mut worker = template.clone();

    // No warm-up on the clone: its very first drain must already be
    // allocation-free.
    let frame = dense_frame(260);
    worker.inject(&frame).unwrap();
    let before = allocations();
    while !worker.is_drained() {
        worker.step().unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a cloned tile's first drain loop must not touch the heap"
    );
}

#[test]
fn steady_state_block_step_is_allocation_free() {
    // The batch-major bit-sliced kernel must match the scalar hot path's
    // contract: with caller-provided output buffers, a steady-state
    // `step_block` touches only the tile's preallocated vertical-counter
    // scratch — zero heap allocations, full and ragged blocks alike.
    for cell in [
        BitcellKind::Std6T,
        BitcellKind::multiport(2).unwrap(),
        BitcellKind::multiport(4).unwrap(),
    ] {
        let config = SystemConfig::builder(cell, &[260, 130]).build().unwrap();
        let mut tile = Tile::new(260, 130, &config).unwrap();

        let full: Vec<BitVec> = (0..FrameBlock::LANES)
            .map(|lane| (0..260).map(|i| (i + lane) % 3 == 0).collect())
            .collect();
        let block = FrameBlock::from_frames(&full);
        let ragged = FrameBlock::from_frames(&full[..21]);
        let mut fired = FrameBlock::new(130, FrameBlock::LANES);
        let mut fired_ragged = FrameBlock::new(130, 21);
        let mut cycles = vec![0u64; FrameBlock::LANES];
        let mut membranes = vec![0i32; FrameBlock::LANES * 130];

        // Warm-up: nothing in `step_block` allocates lazily, but keep the
        // measurement strictly steady-state as the contract states.
        tile.step_block(&block, &mut fired, &mut cycles, Some(&mut membranes))
            .unwrap();

        let before = allocations();
        tile.step_block(&block, &mut fired, &mut cycles, Some(&mut membranes))
            .unwrap();
        tile.step_block(&block, &mut fired, &mut cycles, None)
            .unwrap();
        tile.step_block(&ragged, &mut fired_ragged, &mut cycles[..21], None)
            .unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{cell}: the block step must not touch the heap"
        );
    }
}

#[test]
fn cloned_worker_tiles_block_step_is_allocation_free_too() {
    // Serve/batch workers are clones; the vertical-counter scratch must
    // survive cloning so a worker's first block step already honors the
    // contract.
    let cell = BitcellKind::multiport(4).unwrap();
    let config = SystemConfig::builder(cell, &[260, 130]).build().unwrap();
    let template = Tile::new(260, 130, &config).unwrap();
    let mut worker = template.clone();

    let frames: Vec<BitVec> = (0..FrameBlock::LANES)
        .map(|lane| (0..260).map(|i| (i * 5 + lane) % 4 == 0).collect())
        .collect();
    let block = FrameBlock::from_frames(&frames);
    let mut fired = FrameBlock::new(130, FrameBlock::LANES);
    let mut cycles = vec![0u64; FrameBlock::LANES];

    let before = allocations();
    worker
        .step_block(&block, &mut fired, &mut cycles, None)
        .unwrap();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a cloned tile's first block step must not touch the heap"
    );
}

#[test]
fn steady_state_step_frame_is_allocation_free() {
    // The closed-form frame kernel writes into caller-owned buffers and
    // reads the column view in place: zero heap allocations, with and
    // without the membrane readout.
    for cell in [
        BitcellKind::Std6T,
        BitcellKind::multiport(2).unwrap(),
        BitcellKind::multiport(4).unwrap(),
    ] {
        let config = SystemConfig::builder(cell, &[260, 130]).build().unwrap();
        let mut tile = Tile::new(260, 130, &config).unwrap();
        let frame = dense_frame(260);
        let mut fired = BitVec::new(130);
        let mut membranes = vec![0i32; 130];

        // Warm-up: nothing in `step_frame` allocates lazily, but keep the
        // measurement strictly steady-state as the contract states.
        tile.step_frame(&frame, &mut fired, Some(&mut membranes))
            .unwrap();

        let before = allocations();
        let cycles = tile
            .step_frame(&frame, &mut fired, Some(&mut membranes))
            .unwrap();
        tile.step_frame(&frame, &mut fired, None).unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{cell}: the frame kernel must not touch the heap"
        );
        let ports = cell.inference_parallelism() as u64;
        assert_eq!(cycles, 64u64.div_ceil(ports) + 1, "{cell}: serve + fire");
    }
}

/// The cells the walk tests run on: the 6T baseline, 2R and 4R.
fn walk_cells() -> [BitcellKind; 3] {
    [
        BitcellKind::Std6T,
        BitcellKind::multiport(2).unwrap(),
        BitcellKind::multiport(4).unwrap(),
    ]
}

/// A seeded `[260, 132, 10]` system: ragged row and column groups, every
/// tile eligible for the frame kernel.
fn kernel_system(cell: BitcellKind) -> EsamSystem {
    let topology = [260, 132, 10];
    let model = SnnModel::from_bnn(&BnnNetwork::new(&topology, 5).unwrap()).unwrap();
    let config = SystemConfig::builder(cell, &topology).build().unwrap();
    let system = EsamSystem::from_model(&model, &config).unwrap();
    assert!(system.tiles().iter().all(Tile::block_ready));
    system
}

#[test]
fn steady_state_walk_frame_is_allocation_free() {
    // Every tile but the last fires into its own buffer and the next tile
    // reads it there; the caller owns the output frame, cycles and
    // membranes. A steady-state walk over an eligible cascade then touches
    // the heap nowhere.
    for cell in walk_cells() {
        let mut system = kernel_system(cell);
        let mut tiles = system.tiles().to_vec();
        let frame = dense_frame(260);
        let mut out = BitVec::new(10);
        let mut cycles = Vec::with_capacity(tiles.len());
        let mut membranes = Vec::with_capacity(10);

        // Warm-up: nothing in the walk allocates lazily, but keep the
        // measurement strictly steady-state as the contract states.
        walk_frame(
            &mut tiles,
            &frame,
            &mut out,
            &mut cycles,
            Some(&mut membranes),
        )
        .unwrap();

        let before = allocations();
        cycles.clear();
        walk_frame(
            &mut tiles,
            &frame,
            &mut out,
            &mut cycles,
            Some(&mut membranes),
        )
        .unwrap();
        cycles.clear();
        walk_frame(&mut tiles, &frame, &mut out, &mut cycles, None).unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{cell}: the walk must not touch the heap"
        );
        let result = system.infer(&frame).unwrap();
        assert_eq!(
            (out, cycles, membranes),
            (
                result.output_spikes,
                result.per_tile_cycles,
                result.membranes
            ),
            "{cell}: the walk is infer's"
        );
    }
}

#[test]
fn steady_state_infer_allocates_only_its_result() {
    // `infer` hands back an owned result — output spikes, per-tile cycles,
    // membranes and logits — and allocates nothing else.
    for cell in walk_cells() {
        let mut system = kernel_system(cell);
        let frame = dense_frame(260);
        system.infer(&frame).unwrap();

        let before = allocations();
        let result = system.infer(&frame).unwrap();
        let after = allocations();
        assert_eq!(after - before, 4, "{cell}: four result buffers");
        drop(result);
    }
}

#[test]
fn inject_and_idle_step_are_allocation_free() {
    let cell = BitcellKind::multiport(4).unwrap();
    let config = SystemConfig::builder(cell, &[128, 64]).build().unwrap();
    let mut tile = Tile::new(128, 64, &config).unwrap();
    tile.process_frame(&dense_frame(128)).unwrap();

    let frame = dense_frame(128);
    let before = allocations();
    tile.inject(&frame).unwrap();
    while !tile.is_drained() {
        tile.step().unwrap();
    }
    tile.step().unwrap(); // idle step (clock-gated)
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "inject + drain + idle step must not allocate"
    );
}

/// The learning cells: the 6T baseline (row-wise RMW) and 4R (transposed).
fn learning_cells() -> [BitcellKind; 2] {
    [BitcellKind::Std6T, BitcellKind::multiport(4).unwrap()]
}

#[test]
fn steady_state_teach_is_allocation_free() {
    // Ragged in both directions: 260 inputs leave a 4-row last row group,
    // and neuron 129 sits in a 2-column last column group. Once the first
    // update has sized the engine's buffers, an update of any row group
    // reuses them.
    for cell in learning_cells() {
        let config = SystemConfig::builder(cell, &[260, 130]).build().unwrap();
        let mut tile = Tile::new(260, 130, &config).unwrap();
        let clock = esam_core::PipelineTiming::analyze(&config)
            .unwrap()
            .clock_period();
        let mut engine = OnlineLearningEngine::new(StdpRule::new(0.4, 0.3), 9);
        let frame = dense_frame(260);
        engine
            .teach(&mut tile, clock, &frame, 129, TeacherSignal::ShouldFire)
            .unwrap();

        let before = allocations();
        let mut flipped = 0;
        for (neuron, signal) in [
            (129, TeacherSignal::ShouldNotFire),
            (3, TeacherSignal::ShouldFire),
            (64, TeacherSignal::ShouldNotFire),
        ] {
            flipped += engine
                .teach(&mut tile, clock, &frame, neuron, signal)
                .unwrap()
                .bits_flipped;
        }
        let after = allocations();
        assert_eq!(after - before, 0, "{cell}: teach must not touch the heap");
        assert!(flipped > 0, "{cell}: the updates changed weights");
    }
}

#[test]
fn steady_state_learn_sample_allocates_infer_and_the_signals() {
    // The 768:10 readout the benchmark learns on: `infer`'s four result
    // buffers plus the teacher-signal list are all a sample allocates.
    for cell in learning_cells() {
        let topology = [768, 10];
        let model = SnnModel::from_bnn(&BnnNetwork::new(&topology, 3).unwrap()).unwrap();
        let config = SystemConfig::builder(cell, &topology).build().unwrap();
        let mut system = EsamSystem::from_model(&model, &config).unwrap();
        let mut engine = OnlineLearningEngine::new(StdpRule::new(0.4, 0.02), 7);
        let frame = dense_frame(768);
        // A wrong label teaches, which sizes the engine's buffers.
        let wrong = |system: &mut EsamSystem| (system.infer(&frame).unwrap().prediction + 1) % 10;
        let label = wrong(&mut system);
        let warm = system.learn_sample(&mut engine, &frame, label).unwrap();
        assert!(warm.updates > 0, "{cell}: the warm-up sample taught");

        let label = wrong(&mut system);
        let before = allocations();
        let outcome = system.learn_sample(&mut engine, &frame, label).unwrap();
        let after = allocations();
        assert!(outcome.updates > 0, "{cell}: the measured sample taught");
        assert!(
            after - before <= 5,
            "{cell}: {} allocations, want at most infer's 4 plus the signal list",
            after - before
        );
    }
}
