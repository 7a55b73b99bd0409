//! Fault-injection experiment: accuracy and latency under deterministic
//! faults across all three fault domains.
//!
//! Everything here runs against seeded, untrained networks — no
//! dataset, no training, reproducible to the bit (every fault site is a
//! pure function of the plan seed). Three sweeps:
//!
//! 1. **SRAM bit flips** — transient weight-bit and membrane-word upsets
//!    at ≥ 4 rates on both the 6T and 4-port cells, via
//!    [`EsamSystem::infer_checked`] in [`IntegrityMode::Detect`]: reads
//!    are delivered raw (the accuracy curve is identical to the
//!    integrity-`Off` oracle-restore sweep) while the SECDED syndrome
//!    path *counts* what struck — the corrected / uncorrectable / silent
//!    columns.
//!    "Accuracy" is agreement with the unfaulted baseline's predictions
//!    on the same frames; fault sites are nested across rates by
//!    construction (same seed, higher threshold), so the degradation
//!    curve is monotone.
//! 2. **Serving under worker deaths** — a closed-loop run against
//!    `esam-serve` with a nonzero worker-panic rate: the supervisor must
//!    restart workers and retry the doomed requests so that *zero*
//!    tickets are lost, at a measurable p99-latency cost.
//! 3. **Mesh under packet loss** — a drop-rate sweep on the multi-core
//!    mesh: lost frames are recovered (results stay exact) while the
//!    modeled cycle cost inflates with the re-transmissions.
//!
//! `repro faults --json` emits the whole thing as one machine-readable
//! object for snapshot diffing, like `serve`/`mesh`.

use std::sync::Once;
use std::time::Duration;

use esam_core::{EsamSystem, IntegrityMode, SystemConfig};
use esam_fault::{FaultConfig, FaultPlan};
use esam_mesh::{MeshConfig, MeshSystem};
use esam_nn::{BnnNetwork, SnnModel};
use esam_serve::{AdmissionPolicy, BatchPolicy, EsamService, LoadGenerator, LoadMode, ServeConfig};
use esam_sram::BitcellKind;

use crate::{BenchError, Table};

/// Swept transient bit-flip rates (per weight bit / membrane word, per
/// frame). Nested fault sites make the agreement curve monotone in this.
pub const FLIP_RATES: [f64; 5] = [0.0, 2e-3, 1e-2, 5e-2, 2e-1];

/// Swept mesh packet-drop rates (per link hand-off).
pub const DROP_RATES: [f64; 4] = [0.0, 0.02, 0.08, 0.2];

/// Plan seed shared by every sweep (reproducibility is the point).
const SEED: u64 = 0xFA17;

/// One bit-flip-rate point on one cell.
#[derive(Debug, Clone)]
pub struct FlipPoint {
    /// Transient flip rate (weight bits and membrane words alike).
    pub rate: f64,
    /// Fraction of frames whose faulted prediction matched the unfaulted
    /// baseline.
    pub agreement: f64,
    /// Weight bits actually flipped across the run.
    pub weight_flips: u64,
    /// Membrane words actually upset across the run.
    pub membrane_flips: u64,
    /// Single-bit rows the SECDED syndrome check observed (delivered raw
    /// in `Detect` mode — correction is the `integrity` experiment).
    pub corrected: u64,
    /// Detected-uncorrectable reads plus scrub reloads.
    pub uncorrectable: u64,
    /// Corruption the golden audit caught slipping past the syndrome
    /// path (≥ 3-bit rows aliasing to a benign verdict).
    pub silent: u64,
}

/// One cell's accuracy-degradation curve.
#[derive(Debug, Clone)]
pub struct FlipCurve {
    /// Cell label: `"6T"` or `"multiport-4"`.
    pub cell: &'static str,
    /// Frames evaluated per rate point.
    pub frames: usize,
    /// One point per entry of [`FLIP_RATES`], ascending.
    pub points: Vec<FlipPoint>,
}

/// The supervised-serving measurement under injected worker panics.
#[derive(Debug, Clone)]
pub struct ServeFaultSummary {
    /// Worker pipelines.
    pub workers: usize,
    /// Injected per-(request, attempt) panic probability.
    pub panic_rate: f64,
    /// Requests offered by the closed-loop generator.
    pub offered: u64,
    /// Requests that received a response.
    pub completed: u64,
    /// Tickets lost (offered − completed − rejected − dropped); the
    /// supervisor's contract is that this is zero.
    pub lost: u64,
    /// Worker threads restarted after an injected panic.
    pub worker_restarts: u64,
    /// Requests re-enqueued after their worker died.
    pub retries: u64,
    /// Median wall latency.
    pub p50: Duration,
    /// 99th-percentile wall latency (the cost of the restarts).
    pub p99: Duration,
}

/// One mesh drop-rate point.
#[derive(Debug, Clone)]
pub struct MeshFaultPoint {
    /// Injected per-link-hand-off drop probability.
    pub drop_rate: f64,
    /// Link hand-offs vetoed by the plan.
    pub packets_dropped: u64,
    /// Frames re-run on the fault-exempt recovery pass.
    pub frames_recovered: u64,
    /// Modeled pipeline bottleneck, cycles per frame. Recovery replays
    /// lost frames at their clean cost, so this is *invariant* across the
    /// sweep — drops degrade traffic, not steady-state throughput.
    pub cycles_per_frame: f64,
    /// Total link busy cycles (hop + serialization, summed over every
    /// inter-core link) — this is what re-transmissions inflate.
    pub link_busy_cycles: u64,
    /// `link_busy_cycles` relative to the zero-rate point.
    pub link_inflation: f64,
    /// Whether the recovered batch matched the plain single-core system
    /// bit for bit.
    pub exact: bool,
}

/// Results of the fault-injection experiment.
#[derive(Debug, Clone)]
pub struct FaultsResults {
    /// Bit-flip curves: 6T, then multiport-4.
    pub curves: Vec<FlipCurve>,
    /// The supervised-serving point.
    pub serve: ServeFaultSummary,
    /// Mesh drop sweep, one point per entry of [`DROP_RATES`].
    pub mesh: Vec<MeshFaultPoint>,
    /// Frames per mesh point.
    pub mesh_frames: usize,
}

/// Injected panics are this experiment's happy path — silence their
/// default-hook backtraces (once per process) while leaving every other
/// panic's report intact.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info.payload().downcast_ref::<String>().is_some_and(|m| {
                m.starts_with("injected worker fault") || m.starts_with("injected core fault")
            });
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Deterministic ~20 %-density input frames (same stride idiom as the
/// `mesh` experiment).
fn synthetic_frames(width: usize, count: usize) -> Vec<esam_bits::BitVec> {
    (0..count)
        .map(|f| {
            let mut frame = esam_bits::BitVec::new(width);
            for k in 0..width / 5 {
                frame.set((f * 131 + k * 17 + (f * k) % 13) % width, true);
            }
            frame
        })
        .collect()
}

/// Sweeps [`FLIP_RATES`] on one cell: agreement of the faulted prediction
/// with the unfaulted baseline, frame by frame.
fn flip_curve(
    cell: BitcellKind,
    label: &'static str,
    topology: &[usize],
    samples: usize,
) -> Result<FlipCurve, BenchError> {
    let net = BnnNetwork::new(topology, 0x3E54)?;
    let model = SnnModel::from_bnn(&net)?;
    let config = SystemConfig::builder(cell, topology).build()?;
    let frames = synthetic_frames(topology[0], (samples.max(1) * 4).max(20));
    let mut system = EsamSystem::from_model(&model, &config)?;
    let baseline: Vec<usize> = frames
        .iter()
        .map(|f| system.infer(f).map(|r| r.prediction))
        .collect::<Result<_, _>>()?;
    // Detect mode rides the sweep for free: reads are delivered raw (the
    // agreement curve is unchanged) while the syndrome path counts the
    // corrected / uncorrectable / silent verdicts per rate.
    system.set_integrity_mode(IntegrityMode::Detect);

    let mut points = Vec::new();
    for rate in FLIP_RATES {
        let plan = FaultPlan::seeded(
            SEED,
            FaultConfig::none()
                .with_weight_flip_rate(rate)
                .with_membrane_flip_rate(rate),
        );
        system.set_fault_plan(plan)?;
        system.reset_stats();
        let mut agree = 0usize;
        for (id, frame) in frames.iter().enumerate() {
            let result = system.infer_checked(frame, id as u64)?;
            if result.prediction == baseline[id] {
                agree += 1;
            }
        }
        let tally = *system.fault_tally();
        let integrity = system.integrity_tally();
        points.push(FlipPoint {
            rate,
            agreement: agree as f64 / frames.len() as f64,
            weight_flips: tally.weight_flips,
            membrane_flips: tally.membrane_flips,
            corrected: integrity.corrected,
            uncorrectable: integrity.uncorrectable(),
            silent: integrity.silent,
        });
    }
    Ok(FlipCurve {
        cell: label,
        frames: frames.len(),
        points,
    })
}

/// Closed-loop serving run with supervised workers dying at `panic_rate`.
fn serve_under_panics(samples: usize, max_threads: usize) -> Result<ServeFaultSummary, BenchError> {
    quiet_injected_panics();
    let workers = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(4)
    } else {
        max_threads
    };
    let topology = [128usize, 64, 10];
    let net = BnnNetwork::new(&topology, 0xE5A)?;
    let model = SnnModel::from_bnn(&net)?;
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &topology).build()?;
    let system = EsamSystem::from_model(&model, &config)?;

    let panic_rate = 0.05;
    let requests = (samples.max(1) * 8).max(64);
    let generator = LoadGenerator::synthetic(topology[0], 16, 0xE5A);
    let service = EsamService::start(
        &system,
        ServeConfig::with_workers(workers)
            .queue_capacity(4 * workers.max(8))
            .admission(AdmissionPolicy::Block)
            .batch(BatchPolicy::greedy(8))
            .faults(FaultPlan::seeded(
                SEED,
                FaultConfig::none().with_worker_panic_rate(panic_rate),
            ))
            .max_retries(4),
    );
    let load = generator.run(
        &service,
        LoadMode::ClosedLoop {
            clients: workers * 2,
        },
        requests,
    );
    let report = service.shutdown();
    Ok(ServeFaultSummary {
        workers,
        panic_rate,
        offered: load.offered,
        completed: load.completed,
        lost: load
            .offered
            .saturating_sub(load.completed + load.rejected + load.dropped),
        worker_restarts: report.worker_restarts,
        retries: report.retries,
        p50: report.wall.p50,
        p99: report.wall.p99,
    })
}

/// Sweeps [`DROP_RATES`] on a 3-core mesh: drops recover to exact results
/// while the modeled cycle cost inflates.
fn mesh_under_drops(samples: usize) -> Result<(Vec<MeshFaultPoint>, usize), BenchError> {
    let topology = [128usize, 64, 32, 10];
    let net = BnnNetwork::new(&topology, 0x3E54)?;
    let model = SnnModel::from_bnn(&net)?;
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &topology).build()?;
    let frames = synthetic_frames(topology[0], (samples.max(1) * 4).max(20));
    let mut plain = EsamSystem::from_model(&model, &config)?;
    let expected: Vec<_> = frames
        .iter()
        .map(|f| plain.infer(f))
        .collect::<Result<_, _>>()?;

    let mut points: Vec<MeshFaultPoint> = Vec::new();
    let mut clean_busy = None;
    for rate in DROP_RATES {
        let plan = FaultPlan::seeded(SEED, FaultConfig::none().with_drop_rate(rate));
        let mesh_config = MeshConfig::with_cores(3).faults(plan);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config)?;
        let results = mesh.run(&frames)?;
        let tally = *mesh.tally();
        let metrics = mesh.finalize_metrics()?;
        let busy: u64 = metrics.links.iter().map(|l| l.busy_cycles).sum();
        let baseline = *clean_busy.get_or_insert(busy);
        points.push(MeshFaultPoint {
            drop_rate: rate,
            packets_dropped: tally.packets_dropped,
            frames_recovered: tally.frames_recovered,
            cycles_per_frame: metrics.mesh_bottleneck_cycles,
            link_busy_cycles: busy,
            link_inflation: busy as f64 / baseline as f64,
            exact: results == expected,
        });
    }
    Ok((points, frames.len()))
}

/// Runs all three fault sweeps. `samples` scales frame/request counts;
/// `max_threads` caps the serving worker pool (0 = available parallelism,
/// clamped to 4).
///
/// # Errors
///
/// Propagates model-construction and inference errors.
pub fn faults_results(samples: usize, max_threads: usize) -> Result<FaultsResults, BenchError> {
    let topology = [128usize, 64, 32, 10];
    let curves = vec![
        flip_curve(BitcellKind::Std6T, "6T", &topology, samples)?,
        flip_curve(
            BitcellKind::multiport(4).unwrap(),
            "multiport-4",
            &topology,
            samples,
        )?,
    ];
    let serve = serve_under_panics(samples, max_threads)?;
    let (mesh, mesh_frames) = mesh_under_drops(samples)?;
    Ok(FaultsResults {
        curves,
        serve,
        mesh,
        mesh_frames,
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Renders the SRAM bit-flip degradation curves.
pub fn faults_flip_table(results: &FaultsResults) -> Table {
    let mut table = Table::new(
        "Faults — accuracy under transient SRAM bit flips (agreement with unfaulted baseline)",
        &[
            "cell",
            "flip rate",
            "agreement",
            "weight flips",
            "membrane upsets",
            "corrected",
            "uncorrectable",
            "silent",
        ],
    );
    for curve in &results.curves {
        for point in &curve.points {
            table.row_owned(vec![
                curve.cell.into(),
                format!("{:.0e}", point.rate),
                format!("{:.1}%", 100.0 * point.agreement),
                point.weight_flips.to_string(),
                point.membrane_flips.to_string(),
                point.corrected.to_string(),
                point.uncorrectable.to_string(),
                point.silent.to_string(),
            ]);
        }
    }
    table.note("fault sites are nested across rates (same seed, higher threshold), so each curve degrades monotonically by construction; rate 0 is bit-identical to the baseline");
    table.note("the last three columns are SECDED Detect-mode verdicts (counted, not repaired — see `repro integrity` for the correction curves): single-bit rows, detected-uncorrectable reads + scrub reloads, and audit-caught aliasing");
    table
}

/// Renders the supervised-serving point.
pub fn faults_serve_table(results: &FaultsResults) -> Table {
    let s = &results.serve;
    let mut table = Table::new(
        "Faults — closed-loop serving with supervised worker deaths",
        &[
            "workers",
            "panic rate",
            "offered",
            "completed",
            "lost",
            "restarts",
            "retries",
            "p50 [µs]",
            "p99 [µs]",
        ],
    );
    table.row_owned(vec![
        s.workers.to_string(),
        format!("{:.0e}", s.panic_rate),
        s.offered.to_string(),
        s.completed.to_string(),
        s.lost.to_string(),
        s.worker_restarts.to_string(),
        s.retries.to_string(),
        format!("{:.1}", us(s.p50)),
        format!("{:.1}", us(s.p99)),
    ]);
    table.note("every injected panic kills a worker thread mid-batch; the supervisor restarts it and re-enqueues the doomed requests — the contract is zero lost tickets, paid for in tail latency");
    table
}

/// Renders the mesh drop sweep.
pub fn faults_mesh_table(results: &FaultsResults) -> Table {
    let mut table = Table::new(
        "Faults — 3-core mesh under packet loss (lost frames recovered, results exact)",
        &[
            "drop rate",
            "dropped",
            "recovered",
            "cycles/frame",
            "link busy",
            "traffic",
            "outputs",
        ],
    );
    for point in &results.mesh {
        table.row_owned(vec![
            format!("{:.0e}", point.drop_rate),
            point.packets_dropped.to_string(),
            point.frames_recovered.to_string(),
            format!("{:.1}", point.cycles_per_frame),
            point.link_busy_cycles.to_string(),
            format!("{:.2}x", point.link_inflation),
            if point.exact {
                "bit-identical"
            } else {
                "MISMATCH"
            }
            .into(),
        ]);
    }
    table.note("a dropped hand-off dooms that frame at that core; it rides the pipeline as a lockstep marker and is re-run on a fault-exempt recovery pass that re-charges links and tiles — accuracy and the per-frame bottleneck are preserved, link traffic inflates with the re-transmissions");
    table
}

/// Renders the results as one machine-readable JSON object (hand-rolled:
/// the workspace is offline and serde is not vendored).
pub fn faults_json(results: &FaultsResults) -> String {
    let curves: Vec<String> = results
        .curves
        .iter()
        .map(|c| {
            let points: Vec<String> = c
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"rate\":{:e},\"agreement\":{:.4},\"weight_flips\":{},\"membrane_flips\":{},\"corrected\":{},\"uncorrectable\":{},\"silent\":{}}}",
                        p.rate, p.agreement, p.weight_flips, p.membrane_flips, p.corrected, p.uncorrectable, p.silent
                    )
                })
                .collect();
            format!(
                "{{\"cell\":\"{}\",\"frames\":{},\"points\":[{}]}}",
                c.cell,
                c.frames,
                points.join(",")
            )
        })
        .collect();
    let s = &results.serve;
    let mesh: Vec<String> = results
        .mesh
        .iter()
        .map(|p| {
            format!(
                "{{\"drop_rate\":{:e},\"packets_dropped\":{},\"frames_recovered\":{},\"cycles_per_frame\":{:.3},\"link_busy_cycles\":{},\"link_inflation\":{:.4},\"exact\":{}}}",
                p.drop_rate,
                p.packets_dropped,
                p.frames_recovered,
                p.cycles_per_frame,
                p.link_busy_cycles,
                p.link_inflation,
                p.exact
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"faults\",\"bit_flip_curves\":[{}],\"serve\":{{\"workers\":{},\"panic_rate\":{:e},\"offered\":{},\"completed\":{},\"lost\":{},\"worker_restarts\":{},\"retries\":{},\"p50_us\":{:.2},\"p99_us\":{:.2}}},\"mesh_frames\":{},\"mesh\":[{}]}}",
        curves.join(","),
        s.workers,
        s.panic_rate,
        s.offered,
        s.completed,
        s.lost,
        s.worker_restarts,
        s.retries,
        us(s.p50),
        us(s.p99),
        results.mesh_frames,
        mesh.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_curves_are_monotone_and_anchored_at_the_baseline() {
        let results = faults_results(8, 2).unwrap();
        assert_eq!(results.curves.len(), 2);
        for curve in &results.curves {
            assert_eq!(curve.points.len(), FLIP_RATES.len());
            let first = &curve.points[0];
            assert_eq!(
                first.agreement, 1.0,
                "{}: rate 0 is the baseline",
                curve.cell
            );
            assert_eq!(first.weight_flips + first.membrane_flips, 0);
            assert_eq!(
                first.corrected + first.uncorrectable + first.silent,
                0,
                "{}: no integrity events without upsets",
                curve.cell
            );
            for pair in curve.points.windows(2) {
                assert!(
                    pair[1].agreement <= pair[0].agreement,
                    "{}: agreement rose from {:.3} to {:.3} as the rate grew",
                    curve.cell,
                    pair[0].agreement,
                    pair[1].agreement
                );
                assert!(
                    pair[1].weight_flips >= pair[0].weight_flips,
                    "{}: nested sites can only add flips",
                    curve.cell
                );
            }
            let last = curve.points.last().unwrap();
            assert!(
                last.agreement < 1.0,
                "{}: the top rate must actually degrade",
                curve.cell
            );
            assert!(last.weight_flips > 0);
            assert!(
                last.corrected + last.uncorrectable > 0,
                "{}: the Detect-mode syndrome path saw the upsets",
                curve.cell
            );
        }
    }

    #[test]
    fn supervised_serving_loses_nothing_under_worker_deaths() {
        let results = serve_under_panics(8, 2).unwrap();
        assert_eq!(results.lost, 0, "zero lost tickets");
        assert_eq!(results.completed, results.offered);
        assert!(results.worker_restarts > 0, "panics actually fired");
        assert!(results.p99 >= results.p50);
    }

    #[test]
    fn mesh_drops_recover_exactly_and_inflate_cycles() {
        let (points, frames) = mesh_under_drops(8).unwrap();
        assert_eq!(points.len(), DROP_RATES.len());
        assert!(frames >= 20);
        assert_eq!(points[0].packets_dropped, 0);
        assert_eq!(points[0].link_inflation, 1.0);
        for point in &points {
            assert!(point.exact, "drop rate {:.0e}", point.drop_rate);
            assert_eq!(
                point.cycles_per_frame, points[0].cycles_per_frame,
                "recovery replays lost frames at clean cost: the modeled bottleneck is invariant"
            );
        }
        let last = points.last().unwrap();
        assert!(last.packets_dropped > 0, "drops fired at the top rate");
        assert!(last.frames_recovered > 0);
        assert!(
            last.link_inflation > 1.0,
            "re-transmissions cost link cycles"
        );
        for pair in points.windows(2) {
            assert!(
                pair[1].packets_dropped >= pair[0].packets_dropped,
                "nested sites can only add drops"
            );
        }
    }

    #[test]
    fn json_is_structurally_sound() {
        let results = faults_results(2, 2).unwrap();
        let json = faults_json(&results);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"experiment\":\"faults\""));
        assert!(json.contains("\"cell\":\"6T\"") && json.contains("\"cell\":\"multiport-4\""));
        assert_eq!(json.matches("\"rate\"").count(), 2 * FLIP_RATES.len());
        assert!(json.contains("\"lost\":0"));
        assert_eq!(json.matches("\"drop_rate\"").count(), DROP_RATES.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let tables = [
            faults_flip_table(&results),
            faults_serve_table(&results),
            faults_mesh_table(&results),
        ];
        assert_eq!(tables[0].row_count(), 2 * FLIP_RATES.len());
        assert_eq!(tables[1].row_count(), 1);
        assert_eq!(tables[2].row_count(), DROP_RATES.len());
    }
}
