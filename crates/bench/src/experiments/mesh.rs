//! Mesh-scaling experiment: pipeline-parallel throughput vs core count.
//!
//! Measures the `esam-mesh` multi-core model on two synthetic workloads —
//! a *deep* cascade (many similar layers, the layer-pipelining sweet
//! spot) and a *wide* one (few layers, so extra cores force column
//! splits) — at 1/2/4/8 cores. Two domains are reported side by side:
//!
//! * **modeled** — the cycle-domain figures the mesh exists for:
//!   steady-state throughput is one frame per `mesh_bottleneck_cycles`
//!   (the slowest core occupancy or link, per frame), so the modeled
//!   speedup over one core is machine-independent and reproducible to
//!   the cycle. This is where pipeline-parallel scaling must show up —
//!   on the deep workload, ≥ 2x at 4 cores (pinned by a test below).
//! * **simulator wall-clock** — frames/s of the threaded simulation
//!   itself. Scaling here additionally needs physical cores, so on a
//!   starved machine the modeled column is the trustworthy one.
//!
//! Every point also re-checks the crate's core contract: mesh outputs
//! must be bit-identical to looping the plain single-core
//! [`EsamSystem::infer`] over the same frames, at every core count.
//!
//! The workload is synthetic and deterministic (seed-initialized BNNs,
//! fixed stride-pattern frames): no dataset, no training, reproducible
//! to the spike — `repro mesh --json` emits the figures machine-readable
//! for snapshot diffing.

use std::time::{Duration, Instant};

use esam_bits::BitVec;
use esam_core::{EsamSystem, SystemConfig};
use esam_mesh::{MeshConfig, MeshSystem};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::BitcellKind;

use crate::{BenchError, Table};

/// Core counts swept per workload.
const CORE_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One measured (workload, core count) point.
#[derive(Debug, Clone)]
pub struct MeshPoint {
    /// Cores the plan actually used (the partitioner may clamp).
    pub cores: usize,
    /// Average per-frame mesh bottleneck in cycles: the slowest pipeline
    /// station (core occupancy or link serialization) — steady-state
    /// modeled throughput is one frame per this many cycles.
    pub modeled_cycles_per_frame: f64,
    /// Modeled pipeline-parallel throughput, inferences per second.
    pub modeled_frames_per_s: f64,
    /// Modeled throughput relative to this workload's one-core point.
    pub modeled_speedup: f64,
    /// Average per-frame critical-path interconnect cycles.
    pub noc_cycles_per_frame: f64,
    /// Wall-clock time of the threaded simulation for the whole batch.
    pub wall: Duration,
    /// Simulated frames per wall-clock second (needs physical cores to
    /// scale; the modeled columns do not).
    pub sim_frames_per_s: f64,
    /// Whether mesh outputs matched the plain single-core system exactly.
    pub identical: bool,
}

/// One synthetic workload's sweep.
#[derive(Debug, Clone)]
pub struct MeshWorkload {
    /// Short name: `"deep"` or `"wide"`.
    pub name: &'static str,
    /// Layer topology of the synthetic network.
    pub topology: Vec<usize>,
    /// Frames measured per point.
    pub frames: usize,
    /// One point per swept core count, ascending.
    pub points: Vec<MeshPoint>,
}

/// Results of the mesh-scaling sweep.
#[derive(Debug, Clone)]
pub struct MeshResults {
    /// The swept workloads: deep, then wide.
    pub workloads: Vec<MeshWorkload>,
}

impl MeshResults {
    /// The named workload's sweep, if present.
    pub fn workload(&self, name: &str) -> Option<&MeshWorkload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// Deterministic ~20 %-density input frames (fixed stride pattern, no
/// RNG dependency).
fn synthetic_frames(width: usize, count: usize) -> Vec<BitVec> {
    (0..count)
        .map(|f| {
            let mut frame = BitVec::new(width);
            for k in 0..width / 5 {
                frame.set((f * 131 + k * 17 + (f * k) % 13) % width, true);
            }
            frame
        })
        .collect()
}

/// Runs one workload's core sweep: `samples` frames per point, outputs
/// cross-checked against the plain single-core system.
fn sweep_workload(
    name: &'static str,
    topology: &[usize],
    samples: usize,
) -> Result<MeshWorkload, BenchError> {
    let net = BnnNetwork::new(topology, 0x3E54)?;
    let model = SnnModel::from_bnn(&net)?;
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), topology).build()?;
    let frames = synthetic_frames(topology[0], samples);

    let mut plain = EsamSystem::from_model(&model, &config)?;
    let expected: Vec<_> = frames
        .iter()
        .map(|f| plain.infer(f))
        .collect::<Result<_, _>>()?;

    let mut points = Vec::new();
    let mut one_core_throughput = None;
    for cores in CORE_SWEEP {
        let mut mesh = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(cores))?;
        let start = Instant::now();
        let results = mesh.run(&frames)?;
        let wall = start.elapsed();
        let metrics = mesh.finalize_metrics()?;
        let baseline = *one_core_throughput.get_or_insert(metrics.mesh_throughput_inf_s);
        points.push(MeshPoint {
            cores: metrics.cores,
            modeled_cycles_per_frame: metrics.mesh_bottleneck_cycles,
            modeled_frames_per_s: metrics.mesh_throughput_inf_s,
            modeled_speedup: metrics.mesh_throughput_inf_s / baseline,
            noc_cycles_per_frame: metrics.noc_latency_cycles,
            wall,
            sim_frames_per_s: frames.len() as f64 / wall.as_secs_f64(),
            identical: results == expected,
        });
    }
    Ok(MeshWorkload {
        name,
        topology: topology.to_vec(),
        frames: frames.len(),
        points,
    })
}

/// Runs the sweep: `samples` frames through both synthetic workloads at
/// every swept core count.
///
/// # Errors
///
/// Propagates model-construction and inference errors.
pub fn mesh_results(samples: usize) -> Result<MeshResults, BenchError> {
    let samples = samples.max(1);
    Ok(MeshResults {
        workloads: vec![
            // Deep: five similar 256-wide layers — one per pipeline stage
            // at 4 cores, the layer-pipelining sweet spot.
            sweep_workload("deep", &[256, 256, 256, 256, 256, 10], samples)?,
            // Wide: one 1024-wide hidden layer dominates, so extra cores
            // must column-split it to help at all.
            sweep_workload("wide", &[768, 1024, 10], samples)?,
        ],
    })
}

/// Renders the scaling table.
pub fn mesh_table(results: &MeshResults) -> Table {
    let mut table = Table::new(
        "Mesh scaling — pipeline-parallel inference vs core count (4-port system)",
        &[
            "workload",
            "cores",
            "modeled cycles/inf",
            "modeled frames/s",
            "speedup",
            "noc cycles/inf",
            "wall [ms]",
            "sim frames/s",
            "outputs",
        ],
    );
    for workload in &results.workloads {
        for point in &workload.points {
            table.row_owned(vec![
                format!("{} {:?}", workload.name, workload.topology),
                point.cores.to_string(),
                format!("{:.1}", point.modeled_cycles_per_frame),
                format!("{:.0}", point.modeled_frames_per_s),
                format!("{:.2}x", point.modeled_speedup),
                format!("{:.1}", point.noc_cycles_per_frame),
                format!("{:.1}", point.wall.as_secs_f64() * 1e3),
                format!("{:.0}", point.sim_frames_per_s),
                if point.identical {
                    "bit-identical"
                } else {
                    "MISMATCH"
                }
                .into(),
            ]);
        }
    }
    table.note("modeled columns are cycle-domain (machine-independent): throughput = clock / max(core occupancy, link cycles), interconnect charged as hops + AER serialization; sim frames/s is simulator wall-clock and needs physical cores to scale");
    table
}

/// Renders the results as one machine-readable JSON object (hand-rolled:
/// the workspace is offline and serde is not vendored).
pub fn mesh_json(results: &MeshResults) -> String {
    let workloads: Vec<String> = results
        .workloads
        .iter()
        .map(|w| {
            let points: Vec<String> = w
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"cores\":{},\"modeled_cycles_per_frame\":{:.3},\"modeled_frames_per_s\":{:.1},\"modeled_speedup\":{:.4},\"noc_cycles_per_frame\":{:.3},\"wall_ms\":{:.3},\"sim_frames_per_s\":{:.1},\"identical\":{}}}",
                        p.cores,
                        p.modeled_cycles_per_frame,
                        p.modeled_frames_per_s,
                        p.modeled_speedup,
                        p.noc_cycles_per_frame,
                        p.wall.as_secs_f64() * 1e3,
                        p.sim_frames_per_s,
                        p.identical
                    )
                })
                .collect();
            let topology: Vec<String> = w.topology.iter().map(|n| n.to_string()).collect();
            format!(
                "{{\"name\":\"{}\",\"topology\":[{}],\"frames\":{},\"points\":[{}]}}",
                w.name,
                topology.join(","),
                w.frames,
                points.join(",")
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"mesh\",\"workloads\":[{}]}}",
        workloads.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_both_workloads_at_every_core_count() {
        let results = mesh_results(6).unwrap();
        assert_eq!(results.workloads.len(), 2);
        for workload in &results.workloads {
            assert_eq!(workload.frames, 6);
            assert_eq!(workload.points.len(), CORE_SWEEP.len());
            for point in &workload.points {
                assert!(point.identical, "{} @ {} cores", workload.name, point.cores);
                assert!(point.modeled_frames_per_s > 0.0);
            }
            assert_eq!(workload.points[0].cores, 1);
            assert_eq!(workload.points[0].modeled_speedup, 1.0);
            assert_eq!(workload.points[0].noc_cycles_per_frame, 0.0);
        }
        assert_eq!(mesh_table(&results).row_count(), 2 * CORE_SWEEP.len());
    }

    #[test]
    fn deep_workload_scales_at_least_2x_at_4_cores() {
        // The PR's acceptance bar, pinned: pipeline-parallel throughput on
        // a ≥4-layer cascade must reach ≥ 2x one core at 4 cores in the
        // modeled cycle domain.
        let results = mesh_results(8).unwrap();
        let deep = results.workload("deep").unwrap();
        let at4 = deep.points.iter().find(|p| p.cores == 4).unwrap();
        assert!(
            at4.modeled_speedup >= 2.0,
            "deep 4-core modeled speedup {:.2}x < 2x",
            at4.modeled_speedup
        );
    }

    #[test]
    fn modeled_speedup_never_degrades_with_more_cores() {
        let results = mesh_results(4).unwrap();
        for workload in &results.workloads {
            for pair in workload.points.windows(2) {
                assert!(
                    pair[1].modeled_speedup >= pair[0].modeled_speedup * 0.999,
                    "{}: speedup fell from {:.2}x to {:.2}x",
                    workload.name,
                    pair[0].modeled_speedup,
                    pair[1].modeled_speedup
                );
            }
        }
    }

    #[test]
    fn json_is_well_formed_enough_to_parse_by_eye_and_machine() {
        let results = mesh_results(2).unwrap();
        let json = mesh_json(&results);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"experiment\":\"mesh\""));
        assert!(json.contains("\"name\":\"deep\"") && json.contains("\"name\":\"wide\""));
        assert_eq!(json.matches("\"cores\"").count(), 2 * CORE_SWEEP.len());
        assert!(!json.contains("\"identical\":false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
