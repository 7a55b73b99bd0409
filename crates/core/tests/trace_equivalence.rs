//! The observability contract of the inference hot path: a frame's
//! per-layer spans come from its result
//! ([`InferenceResult::trace_layers`](esam_core::InferenceResult::trace_layers)),
//! outside the inference itself.
//!
//! 1. Drawing the spans is allocation-free: events are `Copy` into the
//!    track's preallocated ring.
//! 2. The per-layer spans tile the frame's cycle interval exactly
//!    (`sum(layer spans) == total_cycles`), and the cycle-domain Chrome
//!    export is byte-identical across repeated runs.
//!
//! Like `step_no_alloc.rs`, the allocation counter is thread-local and
//! this file holds only tests that depend on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use esam_bits::BitVec;
use esam_core::{EsamSystem, SystemConfig, TrackTrace};
use esam_nn::{BnnNetwork, SnnModel};
use esam_obs::{EventKind, TimeDomain, Trace};
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

fn system(seed: u64) -> EsamSystem {
    let net = BnnNetwork::new(&[128, 64, 10], seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
        .build()
        .unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

fn frames(count: usize) -> Vec<BitVec> {
    (0..count)
        .map(|i| (0..128).map(|b| (b * 7 + i * 13) % 5 == 0).collect())
        .collect()
}

#[test]
fn drawing_layer_spans_allocates_nothing() {
    let mut sys = system(23);
    let mut track = TrackTrace::new(0, 0, "core".to_string(), 4096);
    for frame in frames(8) {
        let result = sys.infer(&frame).unwrap();
        let start = track.cursor();
        let before = allocations();
        result.trace_layers(&mut track, start);
        assert_eq!(
            allocations(),
            before,
            "recording into the preallocated ring must allocate nothing"
        );
    }
    assert_eq!(track.len(), 8 * 2, "one span per frame and layer");
    assert_eq!(track.dropped(), 0, "the ring never filled");
}

#[test]
fn layer_spans_tile_the_frame_interval_exactly() {
    let mut sys = system(7);
    let mut track = TrackTrace::new(0, 0, "core".to_string(), 1024);
    let frame = &frames(1)[0];
    let result = sys.infer(frame).unwrap();
    result.trace_layers(&mut track, 0);

    let spans: Vec<_> = track
        .events()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    assert_eq!(spans.len(), result.per_tile_cycles.len());
    let mut cursor = 0u64;
    for (layer, span) in spans.iter().enumerate() {
        assert_eq!(
            span.cycles,
            cursor,
            "layer {layer} starts where {0} ended",
            layer.max(1) - 1
        );
        assert_eq!(span.cycle_dur, result.per_tile_cycles[layer]);
        assert_eq!(span.args[0], Some(("layer", layer as u64)));
        cursor += span.cycle_dur;
    }
    assert_eq!(
        cursor,
        result.total_cycles(),
        "the layer spans must tile the frame's full latency"
    );
    assert_eq!(track.cursor(), result.total_cycles());
}

#[test]
fn cycle_domain_export_is_byte_identical_across_runs() {
    let export = |seed: u64| {
        let mut sys = system(seed);
        let mut track = TrackTrace::new(0, 0, "core".to_string(), 1024);
        for frame in frames(5) {
            let start = track.cursor();
            sys.infer(&frame).unwrap().trace_layers(&mut track, start);
        }
        let mut trace = Trace::new();
        trace.name_process(0, "esam-core");
        trace.push(track);
        trace.chrome_json(TimeDomain::Cycles)
    };
    assert_eq!(export(3), export(3), "same seed → byte-identical trace");
    assert_ne!(export(3), export(4), "different weights → different cycles");
}
