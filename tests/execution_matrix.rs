//! The execution matrix: every way the workspace runs a batch of frames
//! must reproduce one sequential walk bit for bit.
//!
//! The paper's system figures (Fig. 8, Table 3) are pure functions of
//! spike-by-spike `u64` counters (§4.1), so every execution mode has to
//! reproduce them exactly, not approximately. Each row of [`DRAWS`] names
//! a network, a cell, a neuron datapath, an integrity mode, a fault plan,
//! a frame batch and a serve policy, and runs one reference: a fresh clone
//! calling [`EsamSystem::infer_checked`]`(frame, i)` in batch order. Every
//! mode is then held to it by one equality over the mode's results and
//! every counter [`Tally::visit`] flattens (tile, array, batch, integrity
//! and fault tallies):
//!
//! * plan-free rows: a per-tile cycle walk (inject, step until drained,
//!   fire), and with the paper datapath the converted SNN model, the BNN
//!   it came from and a repeated frame;
//! * rows without transient faults: [`EsamSystem::infer_block`], whose
//!   bit-sliced kernel runs on the paper datapath with integrity `Off`,
//!   membranes included;
//! * one [`BatchEngine`] resized through 1, 2, 4 and 7 threads, and
//!   [`EsamSystem::measure_batch`];
//! * rows with neither a fault plan nor integrity checking (the mesh has
//!   no SRAM-domain faults or checked reads): [`MeshSystem`] at 1, 2, 4
//!   and 7 cores, six ways;
//! * [`EsamService`] at 1, 2, 4 and 7 workers under the row's batch and
//!   admission policy.

use std::fmt::Debug;
use std::time::Duration;

use esam::core::{BatchTally, IntegrityMode, IntegrityTally};
use esam::mesh::Execution;
use esam::neuron::ResetPolicy;
use esam::obs::Tally;
use esam::prelude::*;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use AdmissionPolicy::{Block, DropOldest, Reject};
use Faults::{Clean, Stuck, Transient};
use IntegrityMode::{Correct, Detect, Off};
use Neuron::{Narrow, OnFire, Paper};
use Serve::{Greedy, Unbatched, Within};

/// One row group.
const ONE_GROUP: &[usize] = &[96, 40, 8];
/// Two row groups, the second ragged.
const TWO_GROUPS: &[usize] = &[200, 64, 10];
/// Four stages.
const FOUR_STAGES: &[usize] = &[128, 64, 48, 10];
/// Three column groups.
const THREE_COLUMNS: &[usize] = &[128, 300, 10];
/// A 256-wide readout the mesh splits by column.
const WIDE_READOUT: &[usize] = &[64, 128, 256];

// The 6T baseline and the 1RW + nR multiport cells.
const SIX_T: BitcellKind = BitcellKind::Std6T;
const R1: BitcellKind = BitcellKind::MultiPort { read_ports: 1 };
const R2: BitcellKind = BitcellKind::MultiPort { read_ports: 2 };
const R3: BitcellKind = BitcellKind::MultiPort { read_ports: 3 };
const R4: BitcellKind = BitcellKind::MultiPort { read_ports: 4 };

/// Thread, core and worker counts every parallel mode runs at.
const PARALLELISM: [usize; 4] = [1, 2, 4, 7];

/// The neuron datapaths.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Neuron {
    /// The paper's: 12-bit registers, reset every timestep.
    Paper,
    /// 12-bit membranes that carry from frame to frame.
    OnFire,
    /// 6-bit registers that clamp mid-frame.
    Narrow,
}

impl Neuron {
    fn config(self) -> NeuronConfig {
        match self {
            Paper => NeuronConfig::paper_default(),
            OnFire => NeuronConfig::new(12, 12, ResetPolicy::OnFire),
            Narrow => NeuronConfig::new(6, 12, ResetPolicy::EveryTimestep),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Faults {
    Clean,
    /// Weight bits pinned when the plan is installed.
    Stuck,
    /// Weight and membrane flips drawn afresh for every frame.
    Transient,
}

impl Faults {
    fn plan(self, seed: u64) -> FaultPlan {
        let config = match self {
            Clean => return FaultPlan::none(),
            Stuck => FaultConfig::none().with_stuck_rate(2e-3),
            Transient => FaultConfig::none()
                .with_weight_flip_rate(2e-3)
                .with_membrane_flip_rate(1e-2),
        };
        FaultPlan::seeded(seed, config)
    }
}

/// How serve batches requests.
#[derive(Debug, Clone, Copy)]
enum Serve {
    Unbatched,
    /// Up to `n` requests already waiting.
    Greedy(usize),
    /// Up to `n` requests arriving within 200 µs.
    Within(usize),
}

impl Serve {
    fn policy(self) -> BatchPolicy {
        match self {
            Unbatched => BatchPolicy::unbatched(),
            Greedy(n) => BatchPolicy::greedy(n),
            Within(n) => BatchPolicy::new(n, Duration::from_micros(200)),
        }
    }
}

/// One cell of the matrix: network, cell, neuron datapath, integrity
/// mode, fault plan, batch length, input density, serve batching and
/// admission. The row's index seeds its weights, faults and frames.
type Draw = (
    &'static [usize],
    BitcellKind,
    Neuron,
    IntegrityMode,
    Faults,
    usize,
    f64,
    Serve,
    AdmissionPolicy,
);

/// Batch lengths sit at one frame, the empty batch, and one below, at or
/// above one and two 64-lane blocks (the bit-sliced block and the mesh
/// hand-off).
#[rustfmt::skip]
const DRAWS: [Draw; 25] = [
    // topology     cell   neuron  integrity  faults     frames  density  serve        admission
    // The bit-sliced kernel on two row groups at the pinned batch
    // lengths, one cell each.
    (TWO_GROUPS,    SIX_T, Paper,  Off,       Clean,     1,      0.25,    Unbatched,   Block),
    (TWO_GROUPS,    R1,    Paper,  Off,       Clean,     63,     0.25,    Greedy(4),   Reject),
    (TWO_GROUPS,    R2,    Paper,  Off,       Clean,     64,     0.4,     Greedy(256), DropOldest),
    (TWO_GROUPS,    R3,    Paper,  Off,       Clean,     65,     0.1,     Within(8),   Block),
    (TWO_GROUPS,    R4,    Paper,  Off,       Clean,     128,    0.25,    Within(128), DropOldest),
    // The kernel on the other shapes, the mesh's column splits among them,
    // and under stuck-at bits.
    (ONE_GROUP,     R4,    Paper,  Off,       Clean,     127,    0.3,     Greedy(32),  Reject),
    (FOUR_STAGES,   R2,    Paper,  Off,       Stuck,     129,    0.25,    Unbatched,   Block),
    (THREE_COLUMNS, R4,    Paper,  Off,       Clean,     64,     0.2,     Greedy(4),   DropOldest),
    (WIDE_READOUT,  R1,    Paper,  Off,       Clean,     63,     0.3,     Within(128), Reject),
    // Membranes that carry from frame to frame: one worker, one order.
    (ONE_GROUP,     R2,    OnFire, Off,       Clean,     127,    0.3,     Greedy(4),   Block),
    (TWO_GROUPS,    R1,    OnFire, Detect,    Clean,     65,     0.25,    Unbatched,   DropOldest),
    (ONE_GROUP,     R4,    OnFire, Detect,    Transient, 64,     0.25,    Greedy(4),   Block),
    (FOUR_STAGES,   SIX_T, OnFire, Off,       Stuck,     63,     0.4,     Greedy(32),  Reject),
    (THREE_COLUMNS, R3,    OnFire, Correct,   Clean,     1,      0.5,     Within(128), Block),
    (WIDE_READOUT,  R3,    OnFire, Off,       Clean,     0,      0.25,    Unbatched,   DropOldest),
    // Registers that clamp mid-frame.
    (FOUR_STAGES,   R1,    Narrow, Off,       Clean,     64,     0.6,     Greedy(256), Reject),
    (WIDE_READOUT,  R2,    Narrow, Correct,   Clean,     65,     0.6,     Greedy(32),  DropOldest),
    (THREE_COLUMNS, R3,    Narrow, Correct,   Stuck,     63,     0.6,     Greedy(4),   Reject),
    (ONE_GROUP,     R1,    Narrow, Off,       Transient, 1,      0.6,     Within(128), DropOldest),
    // Transient flips, on the smallest network: each frame re-decides
    // every weight bit, tens of times the cost of the frame itself.
    (ONE_GROUP,     SIX_T, Paper,  Off,       Transient, 129,    0.25,    Within(8),   Block),
    (ONE_GROUP,     R3,    Paper,  Correct,   Transient, 65,     0.25,    Greedy(256), Reject),
    // Checked reads over stuck-at bits.
    (TWO_GROUPS,    R2,    Paper,  Detect,    Stuck,     128,    0.25,    Within(8),   DropOldest),
    // Empty batches.
    (ONE_GROUP,     R2,    Narrow, Detect,    Stuck,     0,      0.25,    Greedy(256), Block),
    (THREE_COLUMNS, R4,    Paper,  Off,       Clean,     0,      0.25,    Within(8),   Reject),
    (TWO_GROUPS,    R3,    Narrow, Correct,   Clean,     0,      0.25,    Greedy(32),  Block),
];

/// Random frames of `width` bits at `density`. Every batch beyond three
/// frames also holds an empty frame, a full one, and its first frame
/// again at the end.
fn batch(width: usize, len: usize, density: f64, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF4A3);
    let mut frames: Vec<BitVec> = (0..len)
        .map(|_| (0..width).map(|_| rng.random_bool(density)).collect())
        .collect();
    if len > 3 {
        frames[len / 3] = BitVec::new(width);
        frames[2 * len / 3] = (0..width).map(|_| true).collect();
        frames[len - 1] = frames[0].clone();
    }
    frames
}

/// Counters by name, in visiting order.
type Counters = Vec<(String, u64)>;

/// Appends every counter of `tally` to `out`, named `{prefix}_{counter}`.
fn flatten(out: &mut Counters, prefix: &str, tally: &impl Tally) {
    tally.visit(|name, value| out.push((format!("{prefix}_{name}"), value)));
}

/// Tile, array and integrity counters of `tiles`, tile by tile.
fn tile_counters<'a>(tiles: impl IntoIterator<Item = &'a Tile>) -> Counters {
    let mut out = Counters::new();
    for (t, tile) in tiles.into_iter().enumerate() {
        flatten(&mut out, &format!("tile{t}"), tile.stats());
        for (a, stats) in tile.array_stats().iter().enumerate() {
            flatten(&mut out, &format!("tile{t}_array{a}"), stats);
        }
        flatten(
            &mut out,
            &format!("tile{t}_integrity"),
            tile.integrity_tally(),
        );
    }
    out
}

/// Every counter a system holds: its tiles' and its fault tally.
fn system_counters(system: &EsamSystem) -> Counters {
    let mut out = tile_counters(system.tiles());
    flatten(&mut out, "faults", system.fault_tally());
    out
}

/// The membranes each tile holds after a batch.
fn membranes(system: &EsamSystem) -> Vec<Vec<i32>> {
    system
        .tiles()
        .iter()
        .map(|t| t.membranes().to_vec())
        .collect()
}

/// Counters summed over systems of one topology, counter by counter.
fn summed_counters(systems: &[EsamSystem]) -> Counters {
    let mut total = system_counters(&systems[0]);
    for system in &systems[1..] {
        for ((_, sum), (_, value)) in total.iter_mut().zip(system_counters(system)) {
            *sum += value;
        }
    }
    total
}

/// Every counter a mesh holds: its tiles', its tally, and the link and
/// NoC figures it finalizes them into.
fn mesh_counters(mesh: &MeshSystem) -> (Counters, Option<MeshMetrics>) {
    let mut out = tile_counters(mesh.cores().flat_map(|core| core.tiles()));
    flatten(&mut out, "mesh", mesh.tally());
    (out, mesh.finalize_metrics().ok())
}

/// Panics unless `got == want`, naming the first line where their pretty
/// `Debug` forms part rather than printing whole batches.
fn same<T: PartialEq + Debug>(mode: &str, got: &T, want: &T) {
    if got == want {
        return;
    }
    let (got, want) = (format!("{got:#?}"), format!("{want:#?}"));
    let (got, want): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let line = (0..).find(|&i| got.get(i) != want.get(i)).unwrap_or(0);
    let (got, want) = (got.get(line), want.get(line));
    panic!("{mode} diverged: Debug line {line} reads {got:?}, want {want:?}");
}

/// The sequential walk every mode is held to.
struct Reference {
    results: Vec<InferenceResult>,
    counters: Counters,
    membranes: Vec<Vec<i32>>,
    tile_counters: Counters,
    tally: BatchTally,
    metrics: Option<SystemMetrics>,
    integrity: IntegrityTally,
    faults: FaultTally,
}

impl Reference {
    fn walk(template: &EsamSystem, frames: &[BitVec]) -> Self {
        let mut system = template.clone();
        let results: Vec<InferenceResult> = (0u64..)
            .zip(frames)
            .map(|(i, frame)| system.infer_checked(frame, i).expect("reference walk"))
            .collect();
        let mut tally = BatchTally::default();
        for result in &results {
            tally.record(result);
        }
        Self {
            counters: system_counters(&system),
            membranes: membranes(&system),
            tile_counters: tile_counters(system.tiles()),
            metrics: system.finalize_metrics(&tally).ok(),
            integrity: system.integrity_tally(),
            faults: *system.fault_tally(),
            tally,
            results,
        }
    }

    /// What a single system that walked the batch holds.
    fn state(&self) -> (Vec<InferenceResult>, Counters, Vec<Vec<i32>>) {
        let (results, counters) = (self.results.clone(), self.counters.clone());
        (results, counters, self.membranes.clone())
    }
}

/// What a mesh run shares with the reference: its results (absent for
/// `measure`), the tile half of its tally and, for a layer-granular plan,
/// whose tiles are the reference's tiles, every tile counter.
#[derive(Debug, PartialEq)]
struct MeshRun {
    results: Option<Vec<InferenceResult>>,
    tiles: BatchTally,
    tile_counters: Option<Counters>,
}

fn check(index: usize, draw: &Draw) {
    let &(topology, cell, neuron, integrity, faults, len, density, serve, admission) = draw;
    let label = format!("row {index} {draw:?}");
    let seed = index as u64 + 1;
    let net = BnnNetwork::new(topology, seed).expect("valid topology");
    let model = SnnModel::from_bnn(&net).expect("conversion");
    let config = SystemConfig::builder(cell, topology)
        .neuron(neuron.config())
        .build()
        .expect("valid configuration");
    let base = EsamSystem::from_model(&model, &config).expect("system");
    let mut template = base.clone();
    template
        .set_fault_plan(faults.plan(seed))
        .expect("plan installs");
    template.set_integrity_mode(integrity);
    let frames = batch(topology[0], len, density, seed);
    let reference = Reference::walk(&template, &frames);
    let mode = |name: &str| format!("{name} on {label}");

    if faults == Clean {
        let mut walk = template.clone();
        let results: Vec<InferenceResult> = frames
            .iter()
            .map(|frame| {
                let (mut spikes, mut membranes, mut cycles) = (frame.clone(), vec![], vec![]);
                for t in 0..walk.tiles().len() {
                    let tile = walk.tile_mut(t);
                    tile.inject(&spikes).expect("inject");
                    let mut served = 1; // the compare-and-fire cycle
                    while !tile.is_drained() {
                        tile.step().expect("step");
                        served += 1;
                    }
                    membranes = tile.membranes().to_vec();
                    spikes = tile.finish_timestep();
                    cycles.push(served);
                }
                InferenceResult::from_readout(membranes, model.output_bias(), spikes, cycles)
            })
            .collect();
        same(
            &mode("per-tile cycle walk"),
            &(results, system_counters(&walk), membranes(&walk)),
            &reference.state(),
        );

        if neuron == Paper {
            let models: Vec<_> = frames
                .iter()
                .map(|frame| {
                    let golden = model.forward(frame).expect("golden forward");
                    let x: Vec<f32> = frame.to_bools().iter().map(|&b| f32::from(b)).collect();
                    let bnn = net.forward_trace(&x).expect("bnn forward").prediction();
                    (golden.prediction(), bnn, golden.membranes)
                })
                .collect();
            let hardware: Vec<_> = reference
                .results
                .iter()
                .map(|r| (r.prediction, r.prediction, r.membranes.clone()))
                .collect();
            same(&mode("the SNN and BNN models"), &models, &hardware);
            if let (Some(first), Some(last)) = (reference.results.first(), reference.results.last())
            {
                same(&mode("the repeated frame"), last, first);
            }
        }
    }

    if faults != Transient {
        let mut block = template.clone();
        let results = block.infer_block(&frames).expect("infer_block");
        same(
            &mode("infer_block"),
            &(results, system_counters(&block), membranes(&block)),
            &reference.state(),
        );
    }

    same(
        &mode("measure_batch"),
        &template.clone().measure_batch(&frames).ok(),
        &reference.metrics,
    );

    let mut engine = BatchEngine::new(&template, &BatchConfig::sequential());
    for threads in PARALLELISM {
        engine.set_threads(threads);
        let results = engine.infer_batch(&frames).expect("infer_batch");
        same(
            &mode(&format!("BatchEngine::infer_batch at {threads} threads")),
            &(results, summed_counters(engine.workers())),
            &(reference.results.clone(), reference.counters.clone()),
        );
        same(
            &mode(&format!("BatchEngine::measure at {threads} threads")),
            &engine.measure(&frames).ok(),
            &reference.metrics,
        );
    }

    if faults == Clean && integrity == Off {
        check_mesh(&model, &config, &frames, &reference, &label);
    }

    // A state-carrying system is served by one worker.
    let independent = neuron != OnFire;
    // Every deterministic field of a response, request id `i` answering
    // frame `i`.
    let answers: Vec<_> = (0u64..)
        .zip(&reference.results)
        .map(|(id, r)| {
            let (logits, membranes) = (r.logits.clone(), r.membranes.clone());
            let cycles = (r.total_cycles(), r.bottleneck_cycles());
            (id, r.prediction, logits, membranes, cycles)
        })
        .collect();
    for workers in PARALLELISM {
        let service = EsamService::start(
            &base,
            ServeConfig::with_workers(workers)
                .faults(faults.plan(seed))
                .integrity(integrity)
                .batch(serve.policy())
                .admission(admission)
                .queue_capacity(frames.len() + 1),
        );
        let tickets: Vec<_> = frames
            .iter()
            .map(|frame| service.submit(frame.clone()).expect("admitted"))
            .collect();
        let served: Vec<_> = tickets
            .into_iter()
            .map(|ticket| {
                let r = ticket.wait().expect("served");
                let cycles = (r.pipeline_cycles, r.bottleneck_cycles);
                (r.id, r.prediction, r.logits, r.membranes, cycles)
            })
            .collect();
        let report = service.shutdown();
        same(
            &mode(&format!("EsamService at {workers} workers")),
            &(
                served,
                report.workers,
                report.modeled,
                report.integrity,
                report.fault_tally,
            ),
            &(
                answers.clone(),
                if independent { workers } else { 1 },
                reference.metrics,
                reference.integrity,
                reference.faults,
            ),
        );
    }
}

/// One way to push a batch through a mesh; `None` when the way returns
/// no results.
type MeshWay = fn(&mut MeshSystem, &[BitVec]) -> Option<Vec<InferenceResult>>;

/// Runs the mesh six ways at every core count. Each way must match the
/// reference where the plan lets it (see [`MeshRun`]), and the first,
/// sequential way on every counter.
fn check_mesh(
    model: &SnnModel,
    config: &SystemConfig,
    frames: &[BitVec],
    reference: &Reference,
    label: &str,
) {
    let run: MeshWay = |mesh, frames| Some(mesh.run(frames).expect("run"));
    let ways: [(&str, Execution, MeshWay); 6] = [
        ("sequential", Execution::Sequential, run),
        ("pipelined", Execution::Pipelined, run),
        ("run_traced", Execution::Sequential, |mesh, frames| {
            Some(mesh.run_traced(frames, 256).expect("run_traced").0)
        }),
        ("two run calls", Execution::Pipelined, |mesh, frames| {
            let (first, second) = frames.split_at(frames.len() / 2);
            let mut results = mesh.run(first).expect("first run");
            results.extend(mesh.run(second).expect("second run"));
            Some(results)
        }),
        ("a run per frame", Execution::Pipelined, |mesh, frames| {
            let run = |frame| mesh.run(std::slice::from_ref(frame)).expect("run");
            Some(frames.iter().flat_map(run).collect())
        }),
        ("measure", Execution::Pipelined, |mesh, frames| {
            // An empty batch has no metrics; its counters still agree.
            let _ = mesh.measure(frames);
            None
        }),
    ];
    for cores in PARALLELISM {
        let mut sequential_counters = None;
        for (way, execution, run) in ways {
            let mesh_config = MeshConfig::with_cores(cores).execution(execution);
            let mut mesh = MeshSystem::from_model(model, config, &mesh_config).expect("mesh");
            let results = run(&mut mesh, frames);
            let granular = mesh.plan().is_layer_granular();
            let got = MeshRun {
                tiles: mesh.tally().tiles,
                tile_counters: granular
                    .then(|| tile_counters(mesh.cores().flat_map(|core| core.tiles()))),
                results,
            };
            let want = MeshRun {
                results: got.results.as_ref().map(|_| reference.results.clone()),
                tiles: reference.tally,
                tile_counters: granular.then(|| reference.tile_counters.clone()),
            };
            let counters = mesh_counters(&mesh);
            let sequential = sequential_counters.get_or_insert_with(|| counters.clone());
            same(
                &format!("MeshSystem at {cores} cores, {way} on {label}"),
                &(got, counters),
                &(want, sequential.clone()),
            );
        }
    }
}

#[test]
fn every_execution_mode_matches_the_sequential_walk() {
    for (index, draw) in DRAWS.iter().enumerate() {
        check(index, draw);
    }
}
