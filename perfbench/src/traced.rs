//! The traced run: the same ops as one repeat of the untraced phase, with
//! the layer calls the benchmark can make from outside recorded as nested
//! wall-time spans on `esam-obs` tracks, then split into per-layer self
//! times.
//!
//! Each op records one `op` span (argument: the op index). Under it sit the
//! program call itself (`system.infer`, `system.learn_sample`, `mesh.run`)
//! and a replay of that call through the layers' public functions on a
//! second copy of the system (`tile.inject`, `tile.step`,
//! `tile.finish_timestep`, `nn.derive_teacher_signals`, `learning.teach`,
//! `bits.transpose`, `tile.step_block`), followed by a `check` span that
//! compares the replay with the program call bit for bit. Serving ops
//! overlap, so their spans are recorded with explicit timestamps on one
//! track per outstanding request and split by the `Response` timings.
//! Kernels below `Tile::step` (arbiter, SRAM read, neuron array) are timed
//! by calling their public functions directly on inputs of the shapes the
//! replay observed.
//!
//! A span's self time is its duration minus the durations of the spans
//! directly inside it, so the self times under an `op` sum to the op's time
//! exactly; the `op` row's own self time is the remainder (benchmark glue)
//! and is reported, not dropped.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use esam_arbiter::{EncoderStructure, MultiPortArbiter};
use esam_bits::{BitVec, FrameBlock};
use esam_core::{EsamSystem, InferenceResult, OnlineLearningEngine, ARRAY_DIM};
use esam_mesh::{MeshConfig, MeshSystem};
use esam_nn::bnn::argmax;
use esam_nn::derive_teacher_signals;
use esam_obs::{EventKind, TimeDomain, Trace, TrackSection, TrackTrace, NO_ARGS};
use esam_serve::{EsamService, ServeConfig};
use esam_sram::AccessStats;

use crate::stats::median;
use crate::workloads::{
    build_system, drive_closed_loop, same_weights, setup_times, stdp_rule, Failures, HostRun,
    Prepared, Workload, MESH_BATCH, MESH_CORES, SERVE_OUTSTANDING,
};
use crate::Metric;

/// Perfetto process id of the benchmark's tracks.
const PID: u32 = 7;
/// Track of the serve baseline pass (bare `infer` plus replay).
const BASELINE_TID: u32 = 10;
/// Track of the kernel probes.
const KERNEL_TID: u32 = 20;
/// Ring capacity per op: an upper bound on the spans one op records.
const EVENTS_PER_OP: usize = 24;
/// Ops whose per-tile input frames feed the kernel probes.
const PROBE_OPS: usize = 64;
/// Layers the per-layer metric list names (the paper network's four).
const MAX_LAYERS: usize = 4;
/// Mesh stages the per-layer metric list names.
const MESH_STAGES: usize = MESH_CORES;

/// The per-layer metrics every traced run reports, with units. Layers a
/// workload does not exercise report 0: the metric is flat there by
/// construction.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for t in 0..MAX_LAYERS {
        names.push((format!("tile.L{t}.cycles_per_frame"), "count"));
        names.push((format!("tile.L{t}.grants_per_cycle"), "count"));
        names.push((format!("tile.L{t}.ns_per_cycle"), "ns"));
        names.push((format!("tile.L{t}.share"), "ratio"));
        names.push((format!("tile.L{t}.block_ns_per_frame"), "ns"));
        names.push((format!("tile.L{t}.pj_per_sop"), "pJ"));
    }
    for (name, unit) in [
        ("arbiter.calls_per_frame", "count"),
        ("arbiter.ns_per_call", "ns"),
        ("sram.reads_per_frame", "count"),
        ("sram.read_ns_per_row", "ns"),
        ("sram.writes_per_frame", "count"),
        ("neuron.rows_per_call", "count"),
        ("neuron.integrate_ns_per_call", "ns"),
        ("neuron.fire_ns_per_frame", "ns"),
        ("system.self_share", "ratio"),
        ("learning.updates_per_frame", "count"),
        ("learning.teach_ns_per_update", "ns"),
        ("learning.share", "ratio"),
        ("serve.queue_wait_p50_us", "us"),
        ("serve.service_p50_us", "us"),
        ("serve.handoff_p50_us", "us"),
        ("serve.mean_batch_size", "count"),
        ("serve.overhead_share", "ratio"),
        ("bits.transpose_ns_per_block", "ns"),
    ] {
        names.push((name.to_string(), unit));
    }
    for k in 0..MESH_STAGES {
        names.push((format!("mesh.stage{k}.kernel_ns_per_frame"), "ns"));
    }
    for (name, unit) in [
        ("mesh.kernel_share", "ratio"),
        ("mesh.pipeline_efficiency", "ratio"),
        ("mesh.hand_offs_per_frame", "count"),
        ("mesh.bottleneck_cycles", "cycles"),
        ("mesh.noc_latency_cycles", "cycles"),
        ("setup.network_s", "s"),
        ("setup.convert_s", "s"),
        ("setup.build_s", "s"),
        ("host.op_p99_us", "us"),
        ("host.ref_kernel_ns", "ns"),
        ("trace.overhead_share", "ratio"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

/// What the traced run reports.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Every per-layer metric, in [`per_layer_names`] order.
    pub metrics: Vec<Metric>,
    /// The printed per-layer table.
    pub table: String,
    /// Ops traced.
    pub attempted: usize,
    /// Ops whose replay or program output failed a check.
    pub failures: Failures,
}

fn layer(t: usize) -> [Option<(&'static str, u64)>; 2] {
    [Some(("layer", t as u64)), None]
}

/// Per-tile input frames of the first [`PROBE_OPS`] ops, for the probes.
type ProbeSamples = Vec<Vec<BitVec>>;

/// Walks `system`'s cascade on `frame` through each tile's public calls —
/// `inject`, `step` until drained, `finish_timestep` — recording each as a
/// span, and assembles the result the way `EsamSystem::infer` does. Returns
/// the result and the output tile's input frame (the pre-synaptic frame of
/// online learning); appends each tile's input to `sample` when given, and
/// adds the arbiter calls the walk made to `arbiter_calls`.
fn replay_cascade(
    system: &mut EsamSystem,
    bias: &[f32],
    frame: &BitVec,
    track: &mut TrackTrace,
    mut sample: Option<&mut Vec<BitVec>>,
    arbiter_calls: &mut u64,
) -> Result<(InferenceResult, BitVec), String> {
    let tiles = system.tiles().len();
    let ports = system.config().grants_per_arbiter() as u64;
    let mut per_tile_cycles = Vec::with_capacity(tiles);
    let mut membranes = Vec::new();
    let mut current = frame.clone();
    let mut last_input = BitVec::new(0);
    let mut output_spikes = BitVec::new(0);
    for t in 0..tiles {
        // Glue: one arbitration per row group per cycle that group has
        // requests pending, i.e. ceil(spikes / ports) per row group.
        for window in current.words().chunks(ARRAY_DIM / 64) {
            let spikes: u64 = window.iter().map(|w| u64::from(w.count_ones())).sum();
            *arbiter_calls += spikes.div_ceil(ports);
        }
        if let Some(sample) = sample.as_deref_mut() {
            sample.push(current.clone());
        }
        let is_output = t + 1 == tiles;
        let tile = system.tile_mut(t);
        track.begin("tile.inject");
        tile.inject(&current).map_err(|e| e.to_string())?;
        track.end(layer(t));
        track.begin("tile.step");
        let mut steps = 0u64;
        while !tile.is_drained() {
            tile.step().map_err(|e| e.to_string())?;
            steps += 1;
        }
        track.end([Some(("layer", t as u64)), Some(("calls", steps))]);
        if is_output {
            membranes = tile.membranes().to_vec();
        }
        track.begin("tile.finish_timestep");
        let fired = tile.finish_timestep();
        track.end(layer(t));
        per_tile_cycles.push(steps + 1);
        if is_output {
            output_spikes = fired;
            last_input = current;
            break;
        }
        current = fired;
    }
    let logits: Vec<f32> = membranes
        .iter()
        .zip(bias)
        .map(|(&m, &b)| m as f32 + b)
        .collect();
    Ok((
        InferenceResult {
            prediction: argmax(&logits),
            logits,
            membranes,
            output_spikes,
            per_tile_cycles,
        },
        last_input,
    ))
}

/// Self and inclusive times of the spans under the root spans of one or
/// more tracks, keyed by span name with the layer spliced in
/// (`tile.step` with layer 1 → `tile.L1.step`).
#[derive(Debug, Default)]
struct SpanTimes {
    by_key: BTreeMap<String, KeyTimes>,
    /// Root spans seen.
    roots: u64,
    /// Summed root durations, ns.
    root_ns: f64,
    /// Inclusive durations of each key's spans, in recording order.
    durations: BTreeMap<String, Vec<f64>>,
}

/// Totals of the spans sharing one key.
#[derive(Debug, Default)]
struct KeyTimes {
    self_ns: f64,
    total_ns: f64,
    spans: u64,
    /// Summed `calls` arguments.
    calls: u64,
}

impl SpanTimes {
    fn get(&self, key: &str) -> Option<&KeyTimes> {
        self.by_key.get(key)
    }

    fn self_ns(&self, key: &str) -> f64 {
        self.get(key).map_or(0.0, |k| k.self_ns)
    }

    fn total_ns(&self, key: &str) -> f64 {
        self.get(key).map_or(0.0, |k| k.total_ns)
    }

    fn count(&self, key: &str) -> u64 {
        self.get(key).map_or(0, |k| k.spans)
    }

    fn calls(&self, key: &str) -> u64 {
        self.get(key).map_or(0, |k| k.calls)
    }

    /// Folds one track's spans in: spans nest by interval containment, and
    /// only spans inside a span named `root` count.
    fn add_track(&mut self, section: &TrackSection, root: &str) {
        struct Span {
            key: String,
            start: u64,
            end: u64,
            calls: u64,
            children_ns: u64,
        }
        let mut spans: Vec<Span> = section
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| {
                let arg = |name: &str| e.args.iter().flatten().find(|a| a.0 == name).map(|a| a.1);
                let key = match arg("layer") {
                    Some(l) => e.name.replacen("tile.", &format!("tile.L{l}."), 1),
                    None => e.name.to_string(),
                };
                Span {
                    key,
                    start: e.wall_ns,
                    end: e.wall_ns + e.wall_dur_ns,
                    calls: arg("calls").unwrap_or(0),
                    children_ns: 0,
                }
            })
            .collect();
        // Parents sort before their children: earlier start first, and on
        // equal starts the longer span first.
        spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            while let Some(&top) = stack.last() {
                if spans[i].start >= spans[top].start && spans[i].end <= spans[top].end {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
        let mut under_root = vec![false; spans.len()];
        for i in 0..spans.len() {
            under_root[i] = spans[i].key == root || parent[i].is_some_and(|p| under_root[p]);
            if let Some(p) = parent[i] {
                spans[p].children_ns += spans[i].end - spans[i].start;
            }
        }
        for (i, span) in spans.iter().enumerate() {
            if !under_root[i] {
                continue;
            }
            let dur = (span.end - span.start) as f64;
            let entry = self.by_key.entry(span.key.clone()).or_default();
            entry.self_ns += dur - span.children_ns as f64;
            entry.total_ns += dur;
            entry.spans += 1;
            entry.calls += span.calls;
            self.durations
                .entry(span.key.clone())
                .or_default()
                .push(dur);
            if span.key == root {
                self.roots += 1;
                self.root_ns += dur;
            }
        }
    }

    /// The per-layer table: self time per op, share of op time, spans per
    /// op; the rows sum to the op time.
    fn table(&self, title: &str, root: &str) -> String {
        let roots = self.roots.max(1) as f64;
        let mut rows: Vec<(&String, &KeyTimes)> = self.by_key.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.total_cmp(&a.1.self_ns));
        let mut out = format!(
            "{title}: self time per {root} ({} {root}s, {:.2} us per {root})\n  {:<34} {:>12} {:>8} {:>10}\n",
            self.roots,
            self.root_ns / roots / 1e3,
            "span",
            "self us/op",
            "share",
            "spans/op"
        );
        let mut sum = 0.0;
        for (key, times) in rows {
            let self_ns = times.self_ns;
            sum += self_ns;
            let label = if key == root {
                format!("{key} (rest: benchmark glue)")
            } else {
                key.clone()
            };
            out.push_str(&format!(
                "  {label:<34} {:>12.3} {:>7.2}% {:>10.2}\n",
                self_ns / roots / 1e3,
                100.0 * self_ns / self.root_ns.max(1.0),
                times.spans as f64 / roots
            ));
        }
        out.push_str(&format!(
            "  sum of self times {:.3} us per {root} = {root} time {:.3} us\n",
            sum / roots / 1e3,
            self.root_ns / roots / 1e3
        ));
        out
    }
}

/// Kernel costs measured by direct calls on observed input shapes.
#[derive(Debug, Clone, Copy, Default)]
struct KernelCosts {
    arbiter_ns_per_call: f64,
    sram_ns_per_row: f64,
    integrate_ns_per_call: f64,
    fire_ns_per_frame: f64,
}

fn arbiter_for(width: usize, ports: usize, structure: EncoderStructure) -> MultiPortArbiter {
    // The tile's own fallback: a tree only where its base divides the width.
    let structure = match structure {
        EncoderStructure::Tree { base_width }
            if base_width < width && width.is_multiple_of(base_width) =>
        {
            structure
        }
        _ => EncoderStructure::Flat,
    };
    MultiPortArbiter::new(width, ports, structure).expect("tile arbiter shapes are valid")
}

/// Times `MultiPortArbiter::arbitrate_into`,
/// `SramArray::read_row_counted_into`, `NeuronArray::integrate` and
/// `NeuronArray::end_timestep` on the row groups, rows and per-cycle row
/// sets the sampled tile inputs produce, with the workload's port count.
fn probe_kernels(
    system: &EsamSystem,
    samples: &ProbeSamples,
    track: &mut TrackTrace,
) -> KernelCosts {
    const ARBITER_REPS: usize = 24;
    const SRAM_REPS: usize = 12;
    const FIRE_CALLS: usize = 4096;
    let config = system.config();
    let ports = config.grants_per_arbiter();
    let tiles = system.tiles();
    // Request windows per (tile, row group), and the per-cycle port rows the
    // arbitration of each window yields.
    let mut windows: Vec<BitVec> = Vec::new();
    let mut reads: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut cycles: Vec<(usize, Vec<BitVec>)> = Vec::new();
    for sample in samples {
        for (t, input) in sample.iter().enumerate() {
            let tile = &tiles[t];
            let mut pending: Vec<BitVec> = (0..tile.row_groups())
                .map(|rg| {
                    let rows = (tile.inputs() - rg * ARRAY_DIM).min(ARRAY_DIM);
                    let mut window = BitVec::new(rows);
                    window.or_window_of(input, rg * ARRAY_DIM);
                    window
                })
                .collect();
            windows.extend(pending.iter().cloned());
            let mut granted = Vec::with_capacity(ports);
            loop {
                let mut rows = Vec::new();
                for (rg, window) in pending.iter_mut().enumerate() {
                    if !window.any() {
                        continue;
                    }
                    let arbiter = arbiter_for(window.len(), ports, config.arbiter_structure());
                    arbiter.arbitrate_into(window, &mut granted);
                    for &row in &granted {
                        let mut full = BitVec::new(tile.outputs());
                        for cg in 0..tile.col_groups() {
                            let index = rg * tile.col_groups() + cg;
                            reads.push((t, index, row, cg));
                            full.copy_bits_from(
                                &tile.arrays()[index].bits().row(row),
                                cg * ARRAY_DIM,
                            );
                        }
                        rows.push(full);
                    }
                }
                if rows.is_empty() {
                    break;
                }
                cycles.push((t, rows));
            }
        }
    }
    if windows.is_empty() {
        return KernelCosts::default();
    }
    let mut costs = KernelCosts::default();
    let timed = |track: &mut TrackTrace, name: &'static str, work: &mut dyn FnMut() -> u64| {
        track.begin(name);
        let start = Instant::now();
        let calls = work();
        let ns = start.elapsed().as_nanos() as f64;
        track.end([Some(("calls", calls)), None]);
        ns / calls.max(1) as f64
    };

    let mut copies: Vec<BitVec> = (0..ARBITER_REPS)
        .flat_map(|_| windows.iter().cloned())
        .collect();
    let arbiters: Vec<MultiPortArbiter> = copies
        .iter()
        .map(|w| arbiter_for(w.len(), ports, config.arbiter_structure()))
        .collect();
    let mut granted = Vec::with_capacity(ports);
    costs.arbiter_ns_per_call = timed(track, "kernel.arbitrate_into", &mut || {
        let mut calls = 0;
        for (window, arbiter) in copies.iter_mut().zip(&arbiters) {
            while window.any() {
                arbiter.arbitrate_into(window, &mut granted);
                calls += 1;
            }
        }
        calls
    });

    let mut stats = AccessStats::default();
    let mut dst: Vec<Vec<BitVec>> = tiles
        .iter()
        .map(|tile| {
            (0..tile.col_groups())
                .map(|cg| BitVec::new(tile.arrays()[cg].config().cols()))
                .collect()
        })
        .collect();
    costs.sram_ns_per_row = timed(track, "kernel.read_row_counted_into", &mut || {
        let mut calls = 0;
        for _ in 0..SRAM_REPS {
            for &(t, index, row, cg) in &reads {
                tiles[t].arrays()[index]
                    .read_row_counted_into(&mut stats, 0, row, &mut dst[t][cg])
                    .expect("sampled rows are in range");
                calls += 1;
            }
        }
        calls
    });

    let mut neurons: Vec<_> = tiles.iter().map(|tile| tile.neurons().clone()).collect();
    let valid = vec![
        true;
        tiles
            .iter()
            .map(|t| t.max_spikes_per_cycle())
            .max()
            .unwrap_or(0)
    ];
    costs.integrate_ns_per_call = timed(track, "kernel.integrate", &mut || {
        for (t, rows) in &cycles {
            neurons[*t].integrate(rows, &valid[..rows.len()]);
        }
        cycles.len() as u64
    });
    for neurons in &mut neurons {
        costs.fire_ns_per_frame += timed(track, "kernel.end_timestep", &mut || {
            for _ in 0..FIRE_CALLS {
                std::hint::black_box(neurons.end_timestep());
            }
            FIRE_CALLS as u64
        });
    }
    std::hint::black_box((&stats, &dst));
    costs
}

/// Per-layer metrics shared by the cascade-replay workloads.
fn cascade_metrics(
    values: &mut BTreeMap<String, f64>,
    replay: &EsamSystem,
    times: &SpanTimes,
    program_key: &str,
    frames: f64,
    arbiter_calls: u64,
    kernels: KernelCosts,
) {
    let program_ns = times.total_ns(program_key).max(1.0);
    let mut layers_ns = 0.0;
    let (mut grants, mut serve_cycles, mut reads, mut writes) = (0u64, 0u64, 0u64, 0u64);
    for (t, tile) in replay.tiles().iter().enumerate() {
        let stats = tile.stats();
        let served = stats.active_cycles - stats.timesteps;
        let step = format!("tile.L{t}.step");
        let tile_ns = times.self_ns(&format!("tile.L{t}.inject"))
            + times.self_ns(&step)
            + times.self_ns(&format!("tile.L{t}.finish_timestep"));
        layers_ns += tile_ns;
        values.insert(
            format!("tile.L{t}.cycles_per_frame"),
            stats.active_cycles as f64 / frames,
        );
        values.insert(
            format!("tile.L{t}.grants_per_cycle"),
            stats.grants as f64 / served.max(1) as f64,
        );
        values.insert(
            format!("tile.L{t}.ns_per_cycle"),
            times.self_ns(&step) / times.calls(&step).max(1) as f64,
        );
        values.insert(format!("tile.L{t}.share"), tile_ns / program_ns);
        let energy = tile.dynamic_energy().map_or(0.0, |e| e.value());
        values.insert(
            format!("tile.L{t}.pj_per_sop"),
            energy * 1e12 / stats.neuron_bits.max(1) as f64,
        );
        grants += stats.grants;
        serve_cycles += served;
        reads += tile
            .array_stats()
            .iter()
            .map(|s| s.inference_reads)
            .sum::<u64>();
        writes += tile
            .arrays()
            .iter()
            .map(|a| a.stats().rw_write_cycles)
            .sum::<u64>();
    }
    let learning_ns = times.self_ns("learning.teach") + times.self_ns("nn.derive_teacher_signals");
    values.insert(
        "arbiter.calls_per_frame".into(),
        arbiter_calls as f64 / frames,
    );
    values.insert("arbiter.ns_per_call".into(), kernels.arbiter_ns_per_call);
    values.insert("sram.reads_per_frame".into(), reads as f64 / frames);
    values.insert("sram.read_ns_per_row".into(), kernels.sram_ns_per_row);
    values.insert("sram.writes_per_frame".into(), writes as f64 / frames);
    values.insert(
        "neuron.rows_per_call".into(),
        grants as f64 / serve_cycles.max(1) as f64,
    );
    values.insert(
        "neuron.integrate_ns_per_call".into(),
        kernels.integrate_ns_per_call,
    );
    values.insert("neuron.fire_ns_per_frame".into(), kernels.fire_ns_per_frame);
    values.insert(
        "system.self_share".into(),
        1.0 - (layers_ns + learning_ns) / program_ns,
    );
    values.insert("learning.share".into(), learning_ns / program_ns);
}

/// Runs the traced phase and derives the per-layer metrics; the host
/// reference-kernel time and the untraced phase's p99 are passed through
/// as per-layer metrics.
///
/// # Errors
///
/// Returns an error when the program cannot be driven at all or the trace
/// cannot be written.
pub fn run_traced(
    prepared: &Prepared,
    ops: usize,
    host: &HostRun,
    ref_kernel_ns: f64,
    host_p99_ns: f64,
    out_dir: &Path,
) -> Result<TracedRun, String> {
    let workload = prepared.workload;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut checks = Failures::default();
    let mut trace = Trace::new();
    trace.name_process(PID, format!("perfbench {}", workload.name()));
    let capacity = ops * EVENTS_PER_OP + 1024;
    // Tracing overhead: the program call's median op time in the traced
    // phase against the untraced phase's.
    let untraced_p50_ns = median(&host.op_ns);
    let overhead = |times: &SpanTimes, key: &str| {
        times.durations.get(key).map_or(0.0, |d| median(d)) / untraced_p50_ns - 1.0
    };
    let table = match workload {
        Workload::InferSeq | Workload::LearnOnline => {
            let mut track = TrackTrace::new(PID, 0, "ops", capacity);
            let mut kernel_track = TrackTrace::new(PID, KERNEL_TID, "kernel probes", 4096);
            let (replay, arbiter_calls, samples) =
                cascade_ops(prepared, ops, &mut track, &mut checks)?;
            let kernels = probe_kernels(&replay, &samples, &mut kernel_track);
            trace.push(track);
            trace.push(kernel_track);
            let mut times = SpanTimes::default();
            times.add_track(&trace.tracks()[0], "op");
            let program = if workload == Workload::InferSeq {
                "system.infer"
            } else {
                "system.learn_sample"
            };
            cascade_metrics(
                &mut values,
                &replay,
                &times,
                program,
                workload.episode_ops(ops) as f64,
                arbiter_calls,
                kernels,
            );
            values.insert("trace.overhead_share".into(), overhead(&times, program));
            if workload == Workload::LearnOnline {
                let teach = times.count("learning.teach");
                values.insert(
                    "learning.updates_per_frame".into(),
                    teach as f64 / ops as f64,
                );
                values.insert(
                    "learning.teach_ns_per_update".into(),
                    times.self_ns("learning.teach") / teach.max(1) as f64,
                );
            }
            times.table("per-layer", "op")
        }
        Workload::ServeClosed => serve_ops(
            prepared,
            ops,
            untraced_p50_ns,
            &mut trace,
            &mut checks,
            &mut values,
        )?,
        Workload::MeshPipe => mesh_ops(
            prepared,
            ops,
            untraced_p50_ns,
            &mut trace,
            &mut checks,
            &mut values,
        )?,
    };
    if trace.total_dropped() > 0 || trace.total_unmatched() > 0 {
        checks.add(format!(
            "trace lost events: {} dropped, {} unmatched",
            trace.total_dropped(),
            trace.total_unmatched()
        ));
    }
    fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    fs::write(&path, trace.chrome_json(TimeDomain::Wall))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let setup = setup_times(prepared, host);
    values.insert("setup.network_s".into(), setup.network_s);
    values.insert("setup.convert_s".into(), setup.convert_s);
    values.insert("setup.build_s".into(), setup.build_s);
    values.insert("host.ref_kernel_ns".into(), ref_kernel_ns);
    values.insert("host.op_p99_us".into(), host_p99_ns / 1e3);
    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect();
    Ok(TracedRun {
        metrics,
        table: format!("{table}  trace written to {}\n", path.display()),
        attempted: ops,
        failures: checks,
    })
}

/// The traced ops of `infer_seq` and `learn_online`: the program call, the
/// cascade replay and the check, under one `op` span each. Each
/// `learn_online` episode starts program and replay afresh from the seeded
/// weights, as the untraced phase does. Returns the replay system (its
/// counters cover exactly the last episode's replayed ops: all ops outside
/// `learn_online`), the arbiter calls the replay made in that episode and
/// the probe samples.
fn cascade_ops(
    prepared: &Prepared,
    ops: usize,
    track: &mut TrackTrace,
    checks: &mut Failures,
) -> Result<(EsamSystem, u64, ProbeSamples), String> {
    let inputs = &prepared.inputs;
    let learning = prepared.workload == Workload::LearnOnline;
    let episode = prepared.workload.episode_ops(ops);
    let bias = prepared.model.output_bias();
    let mut program = build_system(prepared)?;
    let mut replay = build_system(prepared)?;
    for op in 0..prepared.workload.warmup_ops() {
        program.infer(inputs.frame(op)).map_err(|e| e.to_string())?;
    }
    program.reset_stats();
    replay.reset_stats();
    let mut engine = OnlineLearningEngine::new(stdp_rule(), inputs.stdp_seed);
    let mut replay_engine = OnlineLearningEngine::new(stdp_rule(), inputs.stdp_seed);
    let clock = replay.pipeline().clock_period();
    let last = replay.tiles().len() - 1;
    let mut arbiter_calls = 0u64;
    let mut samples: ProbeSamples = Vec::with_capacity(PROBE_OPS);
    for step in 0..ops {
        let op = step % episode;
        if learning && step > 0 && op == 0 {
            if !same_weights(&program, &replay) {
                checks.add(format!(
                    "op {step}: replayed teaching left different readout weights"
                ));
            }
            program = build_system(prepared)?;
            replay = build_system(prepared)?;
            engine = OnlineLearningEngine::new(stdp_rule(), inputs.stdp_seed);
            replay_engine = OnlineLearningEngine::new(stdp_rule(), inputs.stdp_seed);
            arbiter_calls = 0;
        }
        let frame = inputs.frame(op);
        track.begin("op");
        let mut sample = (step < PROBE_OPS).then(Vec::new);
        if learning {
            let label = inputs.label(op);
            track.begin("system.learn_sample");
            let outcome = program.learn_sample(&mut engine, frame, label);
            track.end(NO_ARGS);
            let (result, pre) = replay_cascade(
                &mut replay,
                bias,
                frame,
                track,
                sample.as_mut(),
                &mut arbiter_calls,
            )?;
            track.begin("nn.derive_teacher_signals");
            let mut observed = result.output_spikes.clone();
            observed.set(result.prediction, true);
            let signals = derive_teacher_signals(&observed, label);
            track.end(NO_ARGS);
            let mut cost = esam_core::LearningCost::default();
            for &(neuron, signal) in &signals {
                track.begin("learning.teach");
                let taught =
                    replay_engine.teach(replay.tile_mut(last), clock, &pre, neuron, signal);
                track.end([Some(("neuron", neuron as u64)), None]);
                cost += taught.map_err(|e| e.to_string())?;
            }
            track.begin("check");
            match outcome {
                Ok(outcome)
                    if outcome.prediction == result.prediction
                        && outcome.updates == signals.len()
                        && outcome.cost == cost
                        && outcome.total_cycles == result.total_cycles() => {}
                Ok(_) => checks.add(format!("op {step}: replay disagrees with learn_sample")),
                Err(error) => checks.add(format!("op {step}: {error}")),
            }
            track.end(NO_ARGS);
        } else {
            track.begin("system.infer");
            let outcome = program.infer(frame);
            track.end(NO_ARGS);
            let (result, _) = replay_cascade(
                &mut replay,
                bias,
                frame,
                track,
                sample.as_mut(),
                &mut arbiter_calls,
            )?;
            track.begin("check");
            match outcome {
                Ok(want) if result == want => {}
                Ok(_) => checks.add(format!("op {step}: replay disagrees with infer")),
                Err(error) => checks.add(format!("op {step}: {error}")),
            }
            track.end(NO_ARGS);
        }
        track.end([Some(("op", step as u64)), None]);
        if let Some(sample) = sample {
            samples.push(sample);
        }
    }
    if learning && !same_weights(&program, &replay) {
        checks.add("replayed teaching left different readout weights".into());
    }
    Ok((replay, arbiter_calls, samples))
}

/// The traced ops of `serve_closed`: closed-loop round trips split by the
/// `Response` timings, then a baseline pass of bare `infer` plus cascade
/// replay over the same frames.
fn serve_ops(
    prepared: &Prepared,
    ops: usize,
    untraced_p50_ns: f64,
    trace: &mut Trace,
    checks: &mut Failures,
    values: &mut BTreeMap<String, f64>,
) -> Result<String, String> {
    let inputs = &prepared.inputs;
    let warmup = prepared.workload.warmup_ops();
    let epoch = Instant::now();
    let at = |instant: Instant| instant.saturating_duration_since(epoch).as_nanos() as u64;
    let mut slots: Vec<TrackTrace> = (0..SERVE_OUTSTANDING)
        .map(|slot| {
            TrackTrace::with_epoch(
                PID,
                slot as u32,
                format!("client slot {slot}"),
                ops * 8 / SERVE_OUTSTANDING + 1024,
                epoch,
            )
        })
        .collect();
    let service = EsamService::start(&prepared.system, ServeConfig::with_workers(1));
    drive_closed_loop(&service, inputs, 0, warmup, |_, _, _, _, _| {});
    let (mut round_trip, mut queue_wait, mut service_ns, mut handoff) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference = prepared.system.clone();
    let mut responses = Vec::with_capacity(ops);
    drive_closed_loop(
        &service,
        inputs,
        warmup,
        ops,
        |op, submitted, accepted, done, outcome| {
            let index = op - warmup;
            let track = &mut slots[index % SERVE_OUTSTANDING];
            let (start, accepted_ns, end) = (at(submitted), at(accepted), at(done));
            track.span_walled("serve.submit", 0, 0, start, accepted_ns - start, NO_ARGS);
            match outcome {
                Ok(response) => {
                    let wait = response.queue_wait.as_nanos() as u64;
                    let wall = response.wall_latency.as_nanos() as u64;
                    let served = (accepted_ns + wall).min(end);
                    let waited = (accepted_ns + wait).min(served);
                    track.span_walled(
                        "serve.queue_wait",
                        0,
                        0,
                        accepted_ns,
                        waited - accepted_ns,
                        NO_ARGS,
                    );
                    track.span_walled("serve.service", 0, 0, waited, served - waited, NO_ARGS);
                    track.span_walled("serve.handoff", 0, 0, served, end - served, NO_ARGS);
                    round_trip.push((end - start) as f64);
                    queue_wait.push(wait as f64);
                    service_ns.push(wall.saturating_sub(wait) as f64);
                    handoff.push((end - start).saturating_sub(wall) as f64);
                    responses.push((op, Some(response)));
                }
                Err(error) => {
                    checks.add(format!("op {index}: {error}"));
                    responses.push((op, None));
                }
            }
            track.span_walled(
                "op",
                0,
                0,
                start,
                end - start,
                [Some(("op", index as u64)), None],
            );
        },
    );
    let report = service.shutdown();
    for (op, response) in responses {
        let Some(response) = response else { continue };
        let want = reference
            .infer(inputs.frame(op))
            .map_err(|e| e.to_string())?;
        if response.prediction != want.prediction || response.membranes != want.membranes {
            checks.add(format!("op {}: response disagrees with infer", op - warmup));
        }
    }
    for slot in slots {
        trace.push(slot);
    }
    // Baseline: bare `infer` and the cascade replay on the same frames.
    let mut track = TrackTrace::new(PID, BASELINE_TID, "baseline", ops * EVENTS_PER_OP + 1024);
    let mut kernel_track = TrackTrace::new(PID, KERNEL_TID, "kernel probes", 4096);
    let shifted = Prepared {
        workload: Workload::InferSeq,
        inputs: crate::workloads::Inputs {
            frames: (warmup..warmup + ops)
                .map(|op| inputs.frame(op).clone())
                .collect(),
            ..inputs.clone()
        },
        model: prepared.model.clone(),
        config: prepared.config.clone(),
        system: prepared.system.clone(),
        setup: prepared.setup.clone(),
    };
    let (replay, arbiter_calls, samples) = cascade_ops(&shifted, ops, &mut track, checks)?;
    let kernels = probe_kernels(&replay, &samples, &mut kernel_track);
    trace.push(track);
    trace.push(kernel_track);
    let mut serve_times = SpanTimes::default();
    let mut base_times = SpanTimes::default();
    for section in trace.tracks() {
        match section.tid {
            tid if (tid as usize) < SERVE_OUTSTANDING => serve_times.add_track(section, "op"),
            BASELINE_TID => base_times.add_track(section, "op"),
            _ => {}
        }
    }
    cascade_metrics(
        values,
        &replay,
        &base_times,
        "system.infer",
        ops as f64,
        arbiter_calls,
        kernels,
    );
    let bare_infer = base_times
        .durations
        .get("system.infer")
        .map_or(0.0, |d| median(d));
    values.insert("serve.queue_wait_p50_us".into(), median(&queue_wait) / 1e3);
    values.insert("serve.service_p50_us".into(), median(&service_ns) / 1e3);
    values.insert("serve.handoff_p50_us".into(), median(&handoff) / 1e3);
    values.insert("serve.mean_batch_size".into(), report.mean_batch_size);
    values.insert(
        "serve.overhead_share".into(),
        1.0 - bare_infer / median(&service_ns).max(1.0),
    );
    values.insert(
        "trace.overhead_share".into(),
        median(&round_trip) / untraced_p50_ns - 1.0,
    );
    Ok(format!(
        "{}{}",
        serve_times.table("serve round trips", "op"),
        base_times.table("serve baseline (bare infer + replay)", "op")
    ))
}

/// The traced ops of `mesh_pipe`: the `run` call, then each 64-lane block
/// transposed and stepped through every tile's `step_block` on a plain
/// system, then the check.
fn mesh_ops(
    prepared: &Prepared,
    ops: usize,
    untraced_p50_ns: f64,
    trace: &mut Trace,
    checks: &mut Failures,
    values: &mut BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut ops_track = TrackTrace::new(PID, 0, "ops", ops * EVENTS_PER_OP + 1024);
    let track = &mut ops_track;
    let inputs = &prepared.inputs;
    let bias = prepared.model.output_bias();
    let mut mesh = MeshSystem::from_model(
        &prepared.model,
        &prepared.config,
        &MeshConfig::with_cores(MESH_CORES),
    )
    .map_err(|e| e.to_string())?;
    for op in 0..prepared.workload.warmup_ops() {
        mesh.run(inputs.batch(op)).map_err(|e| e.to_string())?;
    }
    mesh.reset_stats();
    let mut plain = prepared.system.clone();
    plain.reset_stats();
    let tiles = plain.tiles().len();
    let classes = bias.len();
    let mut tile_cycles = vec![0u64; tiles];
    for op in 0..ops {
        let batch = inputs.batch(op);
        track.begin("op");
        track.begin("mesh.run");
        let outcome = mesh.run(batch);
        track.end(NO_ARGS);
        let mut replayed: Vec<InferenceResult> = Vec::with_capacity(batch.len());
        for chunk in batch.chunks(FrameBlock::LANES) {
            let lanes = chunk.len();
            track.begin("bits.transpose");
            let mut block = FrameBlock::from_frames(chunk);
            track.end(NO_ARGS);
            let mut cycles = vec![0u64; lanes];
            let mut per_lane: Vec<Vec<u64>> = vec![Vec::with_capacity(tiles); lanes];
            let mut membranes = vec![0i32; lanes * classes];
            for (t, tile_total) in tile_cycles.iter_mut().enumerate() {
                let is_output = t + 1 == tiles;
                let mut fired = FrameBlock::new(plain.tiles()[t].outputs(), lanes);
                let tile = plain.tile_mut(t);
                track.begin("tile.step_block");
                let stepped = tile.step_block(
                    &block,
                    &mut fired,
                    &mut cycles,
                    is_output.then_some(membranes.as_mut_slice()),
                );
                track.end(layer(t));
                stepped.map_err(|e| e.to_string())?;
                for (lane_cycles, &c) in per_lane.iter_mut().zip(&cycles) {
                    lane_cycles.push(c);
                    *tile_total += c;
                }
                block = fired;
            }
            for (lane, per_tile_cycles) in per_lane.into_iter().enumerate() {
                let membranes = membranes[lane * classes..(lane + 1) * classes].to_vec();
                let logits: Vec<f32> = membranes
                    .iter()
                    .zip(bias)
                    .map(|(&m, &b)| m as f32 + b)
                    .collect();
                replayed.push(InferenceResult {
                    prediction: argmax(&logits),
                    logits,
                    membranes,
                    output_spikes: block.lane_frame(lane),
                    per_tile_cycles,
                });
            }
        }
        track.begin("check");
        match outcome {
            Ok(results) if results == replayed => {}
            Ok(_) => checks.add(format!("op {op}: step_block replay disagrees with run")),
            Err(error) => checks.add(format!("op {op}: {error}")),
        }
        track.end(NO_ARGS);
        track.end([Some(("op", op as u64)), None]);
    }
    let frames = (ops * MESH_BATCH) as f64;
    for (t, tile) in plain.tiles().iter().enumerate() {
        let stats = tile.stats();
        values.insert(
            format!("tile.L{t}.cycles_per_frame"),
            tile_cycles[t] as f64 / frames,
        );
        values.insert(
            format!("tile.L{t}.grants_per_cycle"),
            stats.grants as f64 / (stats.active_cycles - stats.timesteps).max(1) as f64,
        );
        let energy = tile.dynamic_energy().map_or(0.0, |e| e.value());
        values.insert(
            format!("tile.L{t}.pj_per_sop"),
            energy * 1e12 / stats.neuron_bits.max(1) as f64,
        );
    }
    let metrics = mesh.finalize_metrics().map_err(|e| e.to_string())?;
    values.insert(
        "mesh.bottleneck_cycles".into(),
        metrics.mesh_bottleneck_cycles,
    );
    values.insert("mesh.noc_latency_cycles".into(), metrics.noc_latency_cycles);
    let blocks = MESH_BATCH.div_ceil(FrameBlock::LANES);
    values.insert(
        "mesh.hand_offs_per_frame".into(),
        (mesh.core_count() * blocks) as f64 / MESH_BATCH as f64,
    );
    trace.push(ops_track);
    let mut times = SpanTimes::default();
    times.add_track(&trace.tracks()[0], "op");
    let run_ns = times.total_ns("mesh.run");
    let mut kernel_ns = 0.0;
    let mut stage_ns: Vec<f64> = Vec::new();
    for (k, stage) in mesh.plan().stages().iter().enumerate() {
        let ns: f64 = stage
            .layers
            .clone()
            .map(|t| times.self_ns(&format!("tile.L{t}.step_block")))
            .sum();
        kernel_ns += ns;
        stage_ns.push(ns);
        values.insert(format!("mesh.stage{k}.kernel_ns_per_frame"), ns / frames);
    }
    for t in 0..tiles {
        values.insert(
            format!("tile.L{t}.block_ns_per_frame"),
            times.self_ns(&format!("tile.L{t}.step_block")) / frames,
        );
    }
    // Kernel time over the core threads' capacity during `run`.
    values.insert(
        "mesh.kernel_share".into(),
        kernel_ns / (MESH_CORES as f64 * run_ns).max(1.0),
    );
    values.insert(
        "mesh.pipeline_efficiency".into(),
        stage_ns.iter().copied().fold(0.0, f64::max) / run_ns.max(1.0),
    );
    values.insert(
        "bits.transpose_ns_per_block".into(),
        times.self_ns("bits.transpose") / times.count("bits.transpose").max(1) as f64,
    );
    values.insert(
        "trace.overhead_share".into(),
        times.durations.get("mesh.run").map_or(0.0, |d| median(d)) / untraced_p50_ns - 1.0,
    );
    Ok(times.table("per-layer", "op"))
}
