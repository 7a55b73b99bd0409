//! The four workloads: inputs from the seed, timed set-up, the untraced
//! timed phase, and the output checks against each workload's reference
//! path.
//!
//! Every run executes a fixed number of ops derived from `--seconds` (never
//! a wall-clock budget), so a faster program does the same work in less
//! time. Every op is one real, individually timed call into the program.

use std::collections::VecDeque;
use std::time::Instant;

use esam_bits::BitVec;
use esam_core::{
    BatchTally, EsamSystem, InferenceResult, OnlineLearningEngine, OnlineSession, SampleOutcome,
    SystemConfig, SystemMetrics,
};
use esam_mesh::{MeshConfig, MeshSystem};
use esam_nn::{BnnNetwork, Dataset, DigitsConfig, SnnModel, StdpRule};
use esam_serve::{EsamService, Response, ServeConfig, Ticket};
use esam_sram::BitcellKind;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::alloc::{allocations, peak_rss_mib};
use crate::stats::{median, ROUNDS};

/// The paper's network: 768 inputs, three 256-wide hidden layers, 10
/// classes.
pub const PAPER_TOPOLOGY: [usize; 5] = [768, 256, 256, 256, 10];

/// The online-learning readout: cropped digit pixels straight to classes.
pub const READOUT_TOPOLOGY: [usize; 2] = [esam_nn::CROPPED_PIXELS, esam_nn::CLASSES];

/// Frames per `MeshSystem::run` call: the smallest batch (two 64-lane
/// blocks) in which both pipeline stages overlap.
pub const MESH_BATCH: usize = 128;

/// Cores the mesh workload shards the network over (one per host core of
/// the reference machine, so the workload keeps at most two busy).
pub const MESH_CORES: usize = 2;

/// Requests the serve client thread keeps outstanding (the client count
/// `repro serve` and the serving criterion bench use).
pub const SERVE_OUTSTANDING: usize = 4;

/// Distinct input frames generated per run; ops cycle through them.
const FRAME_POOL: usize = 4096;

/// Distinct labelled digits generated for the learning stream.
const DIGIT_POOL: usize = 2000;

/// Set-ups per batch. One batch precedes the timed phase and one each of
/// its repeats (`learn_online`: the set-ups of a repeat's episodes form its
/// batch), so the batches are spread over the run; `setup_s` is the lowest
/// batch median.
pub const SETUP_BATCH: usize = 5;

/// The teacher-driven STDP rule of `repro learning_curve`.
pub fn stdp_rule() -> StdpRule {
    StdpRule::new(0.4, 0.02)
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `EsamSystem::infer` frame by frame on the single-port paper system.
    InferSeq,
    /// `EsamSystem::learn_sample` over a labelled digit stream.
    LearnOnline,
    /// Closed-loop request round trips through a one-worker `EsamService`.
    ServeClosed,
    /// 128-frame `MeshSystem::run` calls on a two-core pipelined mesh.
    MeshPipe,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::InferSeq,
        Workload::LearnOnline,
        Workload::ServeClosed,
        Workload::MeshPipe,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InferSeq => "infer_seq",
            Workload::LearnOnline => "learn_online",
            Workload::ServeClosed => "serve_closed",
            Workload::MeshPipe => "mesh_pipe",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The bitcell the workload simulates.
    pub fn cell(self) -> BitcellKind {
        match self {
            Workload::InferSeq => BitcellKind::Std6T,
            _ => BitcellKind::multiport(4).expect("four read ports are valid"),
        }
    }

    /// The simulated network's layer widths.
    pub fn topology(self) -> &'static [usize] {
        match self {
            Workload::LearnOnline => &READOUT_TOPOLOGY,
            _ => &PAPER_TOPOLOGY,
        }
    }

    /// Frames one op completes.
    pub fn frames_per_op(self) -> usize {
        match self {
            Workload::MeshPipe => MESH_BATCH,
            _ => 1,
        }
    }

    /// Ops per nominal second of `--seconds`: fixed constants. They hold
    /// every run of the configured length above 1000 ops and keep the
    /// traced run's span ring and exported trace to tens of MiB; the
    /// one-frame workloads then measure for a fraction of `--seconds`.
    /// `learn_online`'s constant is a multiple of [`ROUNDS`], so its
    /// repeats split into whole episodes.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::InferSeq => 2000,
            Workload::LearnOnline => 4800,
            Workload::ServeClosed => 2500,
            Workload::MeshPipe => 125,
        }
    }

    /// Timed ops for a run of `seconds` nominal seconds.
    pub fn ops(self, seconds: u64) -> usize {
        (self.ops_per_second() * seconds as usize).max(1)
    }

    /// Times the untraced phase runs the op sequence, back to back. A host
    /// whose speed changes over seconds is then sampled over a longer
    /// window by real ops rather than by idle time (idle gaps raise
    /// hypervisor steal on the two-thread workloads). Every repeat does
    /// identical work, so its outputs, modeled figures and allocation
    /// counts must repeat exactly. The cheap learning ops get more repeats,
    /// so that phase spans over ten seconds like the others. The mesh,
    /// whose pipeline needs both vCPUs at once and so reads slow whenever
    /// the host holds one back, gets a longer window to find a fast stretch
    /// in; its reference path covers one repeat, so the extra repeats cost
    /// only their own time.
    pub fn repeats(self) -> usize {
        match self {
            Workload::LearnOnline => 16,
            Workload::MeshPipe => 5,
            _ => 3,
        }
    }

    /// Ops of one episode in a repeat of `ops` ops. A `learn_online` round
    /// is one episode: it learns the stream's first `ops / ROUNDS` samples
    /// from the seeded weights, so every round does identical work and the
    /// fastest round measures the host's fastest stretch, not the cheapest
    /// part of the stream. The other workloads never reset their state: one
    /// episode spans the repeat.
    pub fn episode_ops(self, ops: usize) -> usize {
        match self {
            Workload::LearnOnline => (ops / ROUNDS).max(1),
            _ => ops,
        }
    }

    /// Untimed ops run first so caches, branch predictors and lazily
    /// grown buffers settle (`learn_online`'s untraced phase warms up with
    /// one whole episode instead).
    pub fn warmup_ops(self) -> usize {
        self.ops_per_second() / 4
    }
}

/// splitmix64: derives independent stream seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Frames with exactly `width / 5` spikes at seeded positions: the ~20 %
/// density of `repro hot_path`, held fixed so every frame costs alike.
fn random_frames(width: usize, count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..width).collect();
    (0..count)
        .map(|_| {
            let mut frame = BitVec::new(width);
            for k in 0..width / 5 {
                let j = rng.random_range(k..width);
                order.swap(k, j);
                frame.set(order[k], true);
            }
            frame
        })
        .collect()
}

/// The generated inputs of one run: what the program is given.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Seed of the network's weights (`BnnNetwork::new`).
    pub net_seed: u64,
    /// Input frames, in op order (ops cycle through them).
    pub frames: Vec<BitVec>,
    /// Labels parallel to `frames` (learning only; empty otherwise).
    pub labels: Vec<usize>,
    /// Seed of the STDP engine's random stream (learning only).
    pub stdp_seed: u64,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation errors.
    pub fn generate(workload: Workload, seed: u64) -> Result<Self, String> {
        let net_seed = mix(seed, 1);
        let stdp_seed = mix(seed, 3);
        let width = workload.topology()[0];
        if workload != Workload::LearnOnline {
            return Ok(Self {
                net_seed,
                frames: random_frames(width, FRAME_POOL, mix(seed, 2)),
                labels: Vec::new(),
                stdp_seed,
            });
        }
        let data_seed = mix(seed, 2);
        let data = Dataset::generate(&DigitsConfig {
            train_count: DIGIT_POOL,
            test_count: 1,
            seed: data_seed,
            ..DigitsConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let (frames, labels) = data
            .train
            .stream(data_seed)
            .map(|(frame, label)| (frame, usize::from(label)))
            .unzip();
        Ok(Self {
            net_seed,
            frames,
            labels,
            stdp_seed,
        })
    }

    /// The frame of op `op` (single-frame workloads).
    pub fn frame(&self, op: usize) -> &BitVec {
        &self.frames[op % self.frames.len()]
    }

    /// The label of op `op` (learning).
    pub fn label(&self, op: usize) -> usize {
        self.labels[op % self.labels.len()]
    }

    /// The frames of op `op` on the mesh: a `MESH_BATCH`-frame window of
    /// the pool (the pool length is a multiple of the batch).
    pub fn batch(&self, op: usize) -> &[BitVec] {
        let batches = self.frames.len() / MESH_BATCH;
        let start = (op % batches) * MESH_BATCH;
        &self.frames[start..start + MESH_BATCH]
    }

    /// Every frame ops `0..ops` consume, in order (the reference paths'
    /// input).
    pub fn sequence(&self, workload: Workload, ops: usize) -> Vec<BitVec> {
        (0..ops)
            .flat_map(|op| match workload {
                Workload::MeshPipe => self.batch(op).to_vec(),
                _ => vec![self.frame(op).clone()],
            })
            .collect()
    }
}

/// Phase times of one timed set-up in seconds: network, conversion,
/// construction and their total.
pub type SetupSample = [f64; 4];

/// Medians of the set-up phases, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `BnnNetwork::new` (seeded weight initialisation).
    pub network_s: f64,
    /// `SnnModel::from_bnn`.
    pub convert_s: f64,
    /// System, service or mesh construction.
    pub build_s: f64,
    /// Median of the per-repetition totals.
    pub total_s: f64,
}

/// The phase medians of the set-up batch whose median total is lowest,
/// among the batch of [`prepare`] and those of the timed phase
/// ([`HostRun::setup`]). As with the op rounds, one batch in a fast stretch
/// of the host suffices, and a set-up that got slower reads slower in every
/// batch.
pub fn setup_times(prepared: &Prepared, run: &HostRun) -> SetupTimes {
    std::iter::once(&prepared.setup)
        .chain(&run.setup)
        .map(|batch| {
            let phase = |k: usize| median(&batch.iter().map(|s| s[k]).collect::<Vec<_>>());
            SetupTimes {
                network_s: phase(0),
                convert_s: phase(1),
                build_s: phase(2),
                total_s: phase(3),
            }
        })
        .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
        .unwrap_or_default()
}

/// What a workload runs on, built by the timed set-up.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its inputs.
    pub inputs: Inputs,
    /// The converted model (kept for the readout bias and the mesh plan).
    pub model: SnnModel,
    /// The system configuration.
    pub config: SystemConfig,
    /// The plain single-core system built from the model.
    pub system: EsamSystem,
    /// Phase times of the set-up batch that preceded the timed phase.
    pub setup: Vec<SetupSample>,
}

/// One timed set-up of `workload`: the seeded network, its conversion and
/// the program objects. Serve set-up includes `EsamService::start` and mesh
/// set-up `MeshSystem::from_model`; the objects those return are shut down
/// again untimed, since each run builds its own.
///
/// # Errors
///
/// Propagates construction errors.
fn set_up(
    workload: Workload,
    inputs: &Inputs,
    config: &SystemConfig,
) -> Result<(SnnModel, EsamSystem, SetupSample), String> {
    let start = Instant::now();
    let net = BnnNetwork::new(workload.topology(), inputs.net_seed).map_err(|e| e.to_string())?;
    let networked = Instant::now();
    let model = SnnModel::from_bnn(&net).map_err(|e| e.to_string())?;
    let converted = Instant::now();
    let system = EsamSystem::from_model(&model, config).map_err(|e| e.to_string())?;
    let service = (workload == Workload::ServeClosed)
        .then(|| EsamService::start(&system, ServeConfig::with_workers(1)));
    let mesh = match workload {
        Workload::MeshPipe => Some(
            MeshSystem::from_model(&model, config, &MeshConfig::with_cores(MESH_CORES))
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    let done = Instant::now();
    if let Some(service) = service {
        service.shutdown();
    }
    drop(mesh);
    let sample = [
        (networked - start).as_secs_f64(),
        (converted - networked).as_secs_f64(),
        (done - converted).as_secs_f64(),
        (done - start).as_secs_f64(),
    ];
    Ok((model, system, sample))
}

/// Sets the workload up [`SETUP_BATCH`] times, timing the phases, and keeps
/// the last build.
///
/// # Errors
///
/// Propagates construction errors.
pub fn prepare(workload: Workload, inputs: Inputs) -> Result<Prepared, String> {
    let config = SystemConfig::builder(workload.cell(), workload.topology())
        .build()
        .map_err(|e| e.to_string())?;
    let mut setup = Vec::with_capacity(SETUP_BATCH);
    let mut built = None;
    for _ in 0..SETUP_BATCH {
        let (model, system, sample) = set_up(workload, &inputs, &config)?;
        setup.push(sample);
        built = Some((model, system));
    }
    let (model, system) = built.expect("at least one set-up per batch");
    Ok(Prepared {
        workload,
        inputs,
        model,
        config,
        system,
        setup,
    })
}

/// One batch of [`SETUP_BATCH`] timed set-ups whose objects are dropped.
///
/// # Errors
///
/// Propagates construction errors.
fn set_up_batch(prepared: &Prepared) -> Result<Vec<SetupSample>, String> {
    (0..SETUP_BATCH)
        .map(|_| {
            set_up(prepared.workload, &prepared.inputs, &prepared.config)
                .map(|(_, _, sample)| sample)
        })
        .collect()
}

/// The modeled-silicon figures of a run: exact at a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Pipelined throughput in MInf/s.
    pub minf_per_s: f64,
    /// Dynamic energy per inference in pJ (learning writes included).
    pub pj_per_inf: f64,
    /// Dynamic energy per synaptic operation in pJ.
    pub pj_per_sop: f64,
    /// Dynamic plus leakage power in mW.
    pub power_mw: f64,
    /// Per-inference latency in ns.
    pub latency_ns: f64,
}

impl Modeled {
    fn from_system(metrics: &SystemMetrics, frames: u64, sops: u64) -> Self {
        let energy = metrics.energy_per_inf.value() * frames as f64;
        Self {
            minf_per_s: metrics.throughput_minf_s(),
            pj_per_inf: metrics.energy_per_inf.value() * 1e12,
            pj_per_sop: energy / sops.max(1) as f64 * 1e12,
            power_mw: metrics.total_power().value() * 1e3,
            latency_ns: metrics.latency.value() * 1e9,
        }
    }
}

/// Synaptic operations (port bits integrated) counted by `system`'s tiles.
pub fn sops(system: &EsamSystem) -> u64 {
    system.tiles().iter().map(|t| t.stats().neuron_bits).sum()
}

/// Failed output checks: how many, and the first few descriptions.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    /// Ops (or whole-run checks) that failed.
    pub count: u64,
    /// Descriptions of the first failures.
    pub first: Vec<String>,
}

impl Failures {
    /// Counts a failed check, keeping the first few descriptions.
    pub fn add(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }
}

/// The result of one untraced timed phase.
#[derive(Debug, Clone)]
pub struct HostRun {
    /// Ops timed, over all repeats.
    pub ops: usize,
    /// Frames those ops completed.
    pub frames: u64,
    /// Per-op wall latency in ns, in op order.
    pub op_ns: Vec<f64>,
    /// Per-op share of the host time throughput is taken over, in ns: the
    /// op's own time for one-op-at-a-time workloads, the time since the
    /// previous completion (or, for a repeat's first op, since the repeat
    /// began) for serving, where ops overlap.
    pub busy_ns: Vec<f64>,
    /// Heap allocations during the timed ops, all threads.
    pub allocs: u64,
    /// Ops that errored or disagreed with the reference path.
    pub failures: Failures,
    /// Modeled figures over one repeat's ops (`learn_online`: one
    /// episode's; every repeat's and episode's are checked equal).
    pub modeled: Modeled,
    /// Peak resident set (`VmHWM`) right after the timed phase, before the
    /// checks run their reference paths; 0 where unavailable.
    pub peak_rss_mib: f64,
    /// Set-up batches the timed phase made: one before each repeat
    /// (`learn_online`: the set-ups of each repeat's episodes).
    pub setup: Vec<Vec<SetupSample>>,
}

impl HostRun {
    fn new(ops: usize, workload: Workload) -> Self {
        let frames_per_op = workload.frames_per_op();
        let ops = ops * workload.repeats();
        Self {
            ops,
            frames: (ops * frames_per_op) as u64,
            op_ns: Vec::with_capacity(ops),
            busy_ns: Vec::with_capacity(ops),
            allocs: 0,
            failures: Failures::default(),
            modeled: Modeled {
                minf_per_s: 0.0,
                pj_per_inf: 0.0,
                pj_per_sop: 0.0,
                power_mw: 0.0,
                latency_ns: 0.0,
            },
            peak_rss_mib: 0.0,
            setup: Vec::new(),
        }
    }

    /// Records one op timed from `start` on a one-op-at-a-time workload.
    fn time_op(&mut self, start: Instant) {
        let ns = start.elapsed().as_nanos() as f64;
        self.op_ns.push(ns);
        self.busy_ns.push(ns);
    }
}

/// Runs the workload's untraced timed phase and its output checks.
///
/// # Errors
///
/// Returns an error only when the program cannot be driven at all; op-level
/// errors and mismatches are counted into [`HostRun::failures`].
pub fn run_untraced(prepared: &Prepared, ops: usize) -> Result<HostRun, String> {
    match prepared.workload {
        Workload::InferSeq => infer_seq(prepared, ops),
        Workload::LearnOnline => learn_online(prepared, ops),
        Workload::ServeClosed => serve_closed(prepared, ops),
        Workload::MeshPipe => mesh_pipe(prepared, ops),
    }
}

fn infer_seq(prepared: &Prepared, ops: usize) -> Result<HostRun, String> {
    let inputs = &prepared.inputs;
    let mut run = HostRun::new(ops, prepared.workload);
    // Reference results: the bit-sliced block path on a clone, an
    // independent implementation of the same inference.
    let expected = prepared
        .system
        .clone()
        .infer_block(&inputs.frames)
        .map_err(|e| e.to_string())?;
    let mut repeats = Vec::with_capacity(prepared.workload.repeats());
    let mut system = prepared.system.clone();
    for op in 0..prepared.workload.warmup_ops() {
        system.infer(inputs.frame(op)).map_err(|e| e.to_string())?;
    }
    for _ in 0..prepared.workload.repeats() {
        run.setup.push(set_up_batch(prepared)?);
        system.reset_stats();
        let mut tally = BatchTally::default();
        let allocs = allocations();
        for op in 0..ops {
            let start = Instant::now();
            let outcome = system.infer(inputs.frame(op));
            run.time_op(start);
            match outcome {
                Ok(result) => {
                    tally.record(&result);
                    if result != expected[op % expected.len()] {
                        run.failures
                            .add(format!("op {op}: infer disagrees with infer_block"));
                    }
                }
                Err(error) => run.failures.add(format!("op {op}: {error}")),
            }
        }
        run.allocs += allocations() - allocs;
        let metrics = system.finalize_metrics(&tally).map_err(|e| e.to_string())?;
        repeats.push((metrics, sops(&system)));
    }
    run.peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
    // Every repeat's modeled metrics against the program's own measurement
    // path over the same frames.
    let mut measured = prepared.system.clone();
    let reference_metrics = measured
        .measure_batch(&inputs.sequence(Workload::InferSeq, ops))
        .map_err(|e| e.to_string())?;
    let reference = (reference_metrics, sops(&measured));
    for (repeat, got) in repeats.iter().enumerate() {
        if *got != reference {
            run.failures.add(format!(
                "repeat {repeat}: modeled metrics differ from EsamSystem::measure_batch"
            ));
        }
    }
    run.modeled = Modeled::from_system(&reference.0, ops as u64, reference.1);
    Ok(run)
}

fn learn_online(prepared: &Prepared, ops: usize) -> Result<HostRun, String> {
    let inputs = &prepared.inputs;
    let episode = prepared.workload.episode_ops(ops);
    let mut run = HostRun::new(ops, prepared.workload);
    // Reference: the program's own session path over one episode, from the
    // same starting weights and STDP seed.
    let mut reference = prepared.system.clone();
    let mut session = OnlineSession::new(&mut reference, stdp_rule(), inputs.stdp_seed);
    let replayed: Vec<SampleOutcome> = (0..episode)
        .map(|op| session.learn_sample(inputs.frame(op), inputs.label(op)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let reference_metrics = session.finalize_metrics().map_err(|e| e.to_string())?;
    // Warm-up: one untimed episode. Every episode learns on a system set up
    // afresh, whose weights it owns, so no copy-on-write of shared weights
    // lands in a timed op. Those set-ups are timed too: a repeat's episodes
    // make its set-up batch.
    let mut warm = build_system(prepared)?;
    let mut engine = OnlineLearningEngine::new(stdp_rule(), inputs.stdp_seed);
    for op in 0..episode {
        warm.learn_sample(&mut engine, inputs.frame(op), inputs.label(op))
            .map_err(|e| e.to_string())?;
    }
    for index in 0..prepared.workload.repeats() * ROUNDS {
        let (_, mut system, sample) = set_up(prepared.workload, inputs, &prepared.config)?;
        if index % ROUNDS == 0 {
            run.setup.push(Vec::with_capacity(ROUNDS));
        }
        run.setup
            .last_mut()
            .expect("a batch per repeat")
            .push(sample);
        let mut engine = OnlineLearningEngine::new(stdp_rule(), inputs.stdp_seed);
        let mut tally = BatchTally::default();
        let allocs = allocations();
        for (op, want) in replayed.iter().enumerate() {
            let start = Instant::now();
            let outcome = system.learn_sample(&mut engine, inputs.frame(op), inputs.label(op));
            run.time_op(start);
            match outcome {
                Ok(outcome) => {
                    tally.record_outcome(&outcome);
                    if outcome != *want {
                        run.failures.add(format!(
                            "episode {index} op {op}: learn_sample disagrees with OnlineSession"
                        ));
                    }
                }
                Err(error) => run
                    .failures
                    .add(format!("episode {index} op {op}: {error}")),
            }
        }
        run.allocs += allocations() - allocs;
        let metrics = system.finalize_metrics(&tally).map_err(|e| e.to_string())?;
        if metrics != reference_metrics || !same_weights(&reference, &system) {
            run.failures.add(format!(
                "episode {index}: modeled metrics or final weights differ from OnlineSession"
            ));
        }
    }
    debug_assert_eq!(
        run.op_ns.len(),
        run.ops,
        "a repeat splits into whole episodes"
    );
    run.peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
    run.modeled = Modeled::from_system(&reference_metrics, episode as u64, sops(&reference));
    Ok(run)
}

/// A system built afresh from the workload's model: the same weights as
/// [`Prepared::system`], owned rather than shared with it.
pub fn build_system(prepared: &Prepared) -> Result<EsamSystem, String> {
    EsamSystem::from_model(&prepared.model, &prepared.config).map_err(|e| e.to_string())
}

/// Whether two systems hold identical weights in every SRAM array.
pub fn same_weights(a: &EsamSystem, b: &EsamSystem) -> bool {
    a.tiles().iter().zip(b.tiles()).all(|(x, y)| {
        x.arrays()
            .iter()
            .zip(y.arrays())
            .all(|(p, q)| p.bits() == q.bits())
    })
}

/// One closed-loop serve phase: `ops` requests with `SERVE_OUTSTANDING`
/// in flight from one client thread. `on_done` sees each op's index, its
/// submit instant, the instant its submit returned, the instant its wait
/// returned and the outcome; the client does nothing else between calls.
pub fn drive_closed_loop(
    service: &EsamService,
    inputs: &Inputs,
    first_op: usize,
    ops: usize,
    mut on_done: impl FnMut(usize, Instant, Instant, Instant, Result<Response, String>),
) {
    let mut inflight: VecDeque<(usize, Instant, Instant, Result<Ticket, String>)> =
        VecDeque::with_capacity(SERVE_OUTSTANDING);
    let mut settle = |entry: (usize, Instant, Instant, Result<Ticket, String>)| {
        let (op, submitted, accepted, ticket) = entry;
        let outcome = ticket.and_then(|t| t.wait().map_err(|e| e.to_string()));
        on_done(op, submitted, accepted, Instant::now(), outcome);
    };
    for op in first_op..first_op + ops {
        if inflight.len() == SERVE_OUTSTANDING {
            settle(inflight.pop_front().expect("a full window is non-empty"));
        }
        let frame = inputs.frame(op).clone();
        let submitted = Instant::now();
        let ticket = service.submit(frame).map_err(|e| e.to_string());
        inflight.push_back((op, submitted, Instant::now(), ticket));
    }
    while let Some(entry) = inflight.pop_front() {
        settle(entry);
    }
}

fn serve_closed(prepared: &Prepared, ops: usize) -> Result<HostRun, String> {
    let inputs = &prepared.inputs;
    let warmup = prepared.workload.warmup_ops();
    let mut run = HostRun::new(ops, prepared.workload);
    let service = EsamService::start(&prepared.system, ServeConfig::with_workers(1));
    drive_closed_loop(&service, inputs, 0, warmup, |_, _, _, _, _| {});
    let mut responses: Vec<(usize, Option<Response>)> = Vec::with_capacity(run.ops);
    for _ in 0..prepared.workload.repeats() {
        run.setup.push(set_up_batch(prepared)?);
        let allocs = allocations();
        let mut previous = Instant::now();
        drive_closed_loop(
            &service,
            inputs,
            warmup,
            ops,
            |op, submitted, _, done, outcome| {
                run.op_ns.push((done - submitted).as_nanos() as f64);
                run.busy_ns.push((done - previous).as_nanos() as f64);
                previous = done;
                match outcome {
                    Ok(response) => responses.push((op, Some(response))),
                    Err(error) => {
                        responses.push((op, None));
                        run.failures.add(format!("op {op}: {error}"));
                    }
                }
            },
        );
        run.allocs += allocations() - allocs;
    }
    run.peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
    let report = service.shutdown();
    let failed_requests = report.failed + report.rejected + report.dropped;
    if failed_requests > 0 {
        run.failures.add(format!(
            "{failed_requests} requests failed, rejected or dropped"
        ));
    }
    // Every response against EsamSystem::infer of the same frame on a
    // clone; the report's modeled figures against measure_batch over every
    // frame the service ran (warm-up included).
    let mut reference = prepared.system.clone();
    let expected: Vec<InferenceResult> = (warmup..warmup + ops)
        .map(|op| reference.infer(inputs.frame(op)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    for (op, response) in &responses {
        let Some(response) = response else { continue };
        let want = &expected[op - warmup];
        let agrees = response.prediction == want.prediction
            && response.membranes == want.membranes
            && response.logits == want.logits
            && response.pipeline_cycles == want.total_cycles()
            && response.bottleneck_cycles == want.bottleneck_cycles();
        if !agrees {
            run.failures.add(format!(
                "op {op}: response disagrees with EsamSystem::infer"
            ));
        }
    }
    let served: Vec<BitVec> = (0..warmup)
        .chain((0..prepared.workload.repeats()).flat_map(|_| warmup..warmup + ops))
        .map(|op| inputs.frame(op).clone())
        .collect();
    let mut measured = prepared.system.clone();
    let reference_metrics = measured.measure_batch(&served).map_err(|e| e.to_string())?;
    match report.modeled {
        Some(metrics) if metrics == reference_metrics => {
            run.modeled = Modeled::from_system(&metrics, served.len() as u64, sops(&measured));
        }
        _ => run
            .failures
            .add("ServiceReport.modeled differs from EsamSystem::measure_batch".into()),
    }
    Ok(run)
}

fn mesh_pipe(prepared: &Prepared, ops: usize) -> Result<HostRun, String> {
    let inputs = &prepared.inputs;
    let mut run = HostRun::new(ops, prepared.workload);
    let mesh_config = MeshConfig::with_cores(MESH_CORES);
    let build = || {
        MeshSystem::from_model(&prepared.model, &prepared.config, &mesh_config)
            .map_err(|e| e.to_string())
    };
    // Reference results: the plain system's block path, once per distinct
    // batch.
    let mut plain = prepared.system.clone();
    let batches = inputs.frames.len() / MESH_BATCH;
    let expected: Vec<Vec<InferenceResult>> = (0..batches)
        .map(|b| plain.infer_block(inputs.batch(b)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut mesh = build()?;
    for op in 0..prepared.workload.warmup_ops() {
        mesh.run(inputs.batch(op)).map_err(|e| e.to_string())?;
    }
    let mut repeats = Vec::with_capacity(prepared.workload.repeats());
    let mut sops = 0;
    for _ in 0..prepared.workload.repeats() {
        run.setup.push(set_up_batch(prepared)?);
        mesh.reset_stats();
        let allocs = allocations();
        for op in 0..ops {
            let start = Instant::now();
            let outcome = mesh.run(inputs.batch(op));
            run.time_op(start);
            match outcome {
                Ok(results) if results == expected[op % batches] => {}
                Ok(_) => run
                    .failures
                    .add(format!("op {op}: mesh run disagrees with infer_block")),
                Err(error) => run.failures.add(format!("op {op}: {error}")),
            }
        }
        run.allocs += allocations() - allocs;
        repeats.push(mesh.finalize_metrics().map_err(|e| e.to_string())?);
        sops = mesh
            .cores()
            .flat_map(|core| core.tiles())
            .map(|tile| tile.stats().neuron_bits)
            .sum();
    }
    run.peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
    // Every repeat's modeled metrics against MeshSystem::measure over the
    // same frames.
    let reference_metrics = build()?
        .measure(&inputs.sequence(Workload::MeshPipe, ops))
        .map_err(|e| e.to_string())?;
    for (repeat, got) in repeats.iter().enumerate() {
        if *got != reference_metrics {
            run.failures.add(format!(
                "repeat {repeat}: modeled metrics differ from MeshSystem::measure"
            ));
        }
    }
    let frames = (ops * MESH_BATCH) as u64;
    let mut modeled = Modeled::from_system(&reference_metrics.system, frames, sops);
    modeled.minf_per_s = reference_metrics.mesh_throughput_minf_s();
    modeled.latency_ns = reference_metrics.mesh_latency.value() * 1e9;
    run.modeled = modeled;
    Ok(run)
}
