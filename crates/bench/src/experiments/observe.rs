//! Observability experiment: one deterministic end-to-end trace across the
//! core cascade, the serving layer and the mesh, with a time-in-stage
//! bottleneck breakdown and a unified metrics snapshot.
//!
//! Three deterministic workloads run back to back, each recording into the
//! `esam-obs` tracer:
//!
//! 1. **Core** — [`EsamSystem::infer`], the frame kernel production runs,
//!    over the serve workload's frames on an unfaulted clone of its
//!    system. Each frame draws one `layer` span per tile
//!    ([`InferenceResult::trace_layers`](esam_core::InferenceResult::trace_layers)),
//!    and the track's end cycle over the whole pass sets the serve arrival
//!    gap.
//! 2. **Serve** — a single-worker, batch-of-1 [`EsamService`] fed through
//!    [`EsamService::submit_at`] with a modeled-cycle arrival plan (one
//!    request every half mean service time, so a queue builds and the
//!    `queue-wait` percentiles are non-trivial). The worker runs with
//!    SECDED integrity checking on under a light transient-flip plan, so
//!    the snapshot carries live corrected/uncorrectable/quarantine
//!    series. It records queue-wait → infer (tiled by per-layer spans)
//!    → fulfil.
//! 3. **Mesh** — a 3-core sequential pipeline walked through
//!    [`MeshSystem::run_traced`] under a light packet-corruption plan:
//!    per-core `frame` occupancy and `bubble` spans, per-link `hop` +
//!    `serialize` spans, and `packet-corrupt` instants whose CRC-verify
//!    and retransmit counters land in the metrics snapshot.
//!
//! The three traces merge into one Chrome trace-event JSON (processes
//! `esam-core` / `esam-serve` / `esam-mesh`) loadable in
//! [Perfetto](https://ui.perfetto.dev); every stage span feeds a
//! [`Histogram`] whose p50/p95/p99 make the bottleneck table. All of it is
//! in the modeled-cycle domain, so `repro observe --json` is **byte-for-byte
//! reproducible** at a fixed seed.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use esam_bits::BitVec;
use esam_core::{CoreError, EsamSystem, SystemConfig, TrackTrace};
use esam_mesh::{MeshConfig, MeshSystem, MESH_TRACE_PID};
use esam_nn::{BnnNetwork, SnnModel};
use esam_obs::{
    json_escape, EventKind, Histogram, MetricsRegistry, Tally, TimeDomain, Trace, TraceConfig,
};
use esam_serve::{
    BatchPolicy, EsamService, FaultConfig, FaultPlan, IntegrityMode, ServeConfig, ServeError,
    SERVE_TRACE_PID,
};
use esam_sram::BitcellKind;

use crate::{BenchError, Table};

/// Perfetto process id for the core track (serve is 1, mesh is 2).
const CORE_TRACE_PID: u32 = 0;

/// Per-track ring capacity — comfortably above the event counts of the
/// default workloads, so nothing is dropped and the export is complete.
const TRACE_CAPACITY: usize = 8192;

/// The serve workload's network, which the core track also runs.
const SERVE_TOPOLOGY: [usize; 3] = [128, 64, 10];

/// One stage's cycle-duration distribution in the bottleneck table.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage key, `subsystem/stage` (e.g. `serve/queue-wait`).
    pub name: String,
    /// Spans recorded for this stage.
    pub count: u64,
    /// Median span duration in modeled cycles.
    pub p50: u64,
    /// 95th-percentile span duration in modeled cycles.
    pub p95: u64,
    /// 99th-percentile span duration in modeled cycles.
    pub p99: u64,
    /// Longest span in modeled cycles.
    pub max: u64,
    /// Summed cycles across all spans of this stage.
    pub total_cycles: u64,
}

/// Results of the observability experiment.
#[derive(Debug, Clone)]
pub struct ObserveResults {
    /// Requests served through the traced single-worker service.
    pub requests: usize,
    /// Frames walked through the traced 3-core mesh.
    pub mesh_frames: usize,
    /// Events retained across the merged trace.
    pub trace_events: u64,
    /// Events lost to ring overflow (0 at the default capacity).
    pub trace_dropped: u64,
    /// Unmatched span exits across the merged trace (0 ⇔ well-formed).
    pub trace_unmatched: u64,
    /// Per-stage cycle distributions, sorted by stage key.
    pub stages: Vec<StageSummary>,
    /// The stage with the most total cycles (composite `serve/infer`
    /// excluded — its layers already account for it).
    pub bottleneck: String,
    /// The unified metrics snapshot (counters, gauges, stage histograms).
    pub registry: MetricsRegistry,
    /// The merged cycle-domain Chrome trace-event JSON (Perfetto-loadable).
    pub trace_json: String,
}

fn serve_err(e: ServeError) -> BenchError {
    BenchError::Core(CoreError::InvalidConfig(format!("serve: {e}")))
}

/// Deterministic sparse input frames (three strided spikes per frame).
fn synthetic_frames(width: usize, count: usize) -> Vec<BitVec> {
    (0..count)
        .map(|f| {
            BitVec::from_indices(
                width,
                &[(f * 13) % width, (f * 29 + 7) % width, (f * 53 + 1) % width],
            )
        })
        .collect()
}

/// Adds every counter `tally` declares to `registry`, as
/// `{prefix}_{field}_total`.
fn export_tally(registry: &mut MetricsRegistry, prefix: &str, tally: &impl Tally) {
    tally.visit(|field, value| registry.add_counter(&format!("{prefix}_{field}_total"), value));
}

/// Runs the experiment: `samples` scales the serve request count (≥ 4) and
/// the mesh frame count (clamped to 4..=64).
///
/// # Errors
///
/// Propagates model-construction, inference and serving errors.
pub fn observe_results(samples: usize) -> Result<ObserveResults, BenchError> {
    let requests = samples.max(4);
    let mesh_frames = samples.clamp(4, 64);

    // The serve workload's system: a seeded network on the 4-read-port cell.
    let net = BnnNetwork::new(&SERVE_TOPOLOGY, 0x0B5)?;
    let config =
        SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &SERVE_TOPOLOGY).build()?;
    let system = EsamSystem::from_model(&SnnModel::from_bnn(&net)?, &config)?;
    let batch = synthetic_frames(SERVE_TOPOLOGY[0], requests);

    // --- Core: the frame kernel over the serve frames, layer by layer. ---
    let mut core_track = TrackTrace::new(CORE_TRACE_PID, 0, "infer", TRACE_CAPACITY);
    let mut core_system = system.clone();
    for frame in &batch {
        let start = core_track.cursor();
        core_system
            .infer(frame)?
            .trace_layers(&mut core_track, start);
    }

    // --- Serve: single worker, batch of 1, modeled arrival plan. ---
    // Arrival plan: one request every half mean service time (the core
    // pass's cycles per frame), so the modeled queue builds
    // deterministically and queue-wait spreads.
    let gap = (core_track.cursor() / requests as u64) / 2;

    // A light transient-flip plan with integrity checking on: the worker
    // self-corrects (responses stay exact for single-bit rows) and the
    // corrected/uncorrectable/quarantine series in the snapshot are live.
    let service = EsamService::start(
        &system,
        ServeConfig::with_workers(1)
            .queue_capacity(requests)
            .batch(BatchPolicy::new(1, Duration::ZERO))
            .faults(FaultPlan::seeded(
                0x0B5,
                FaultConfig::none().with_weight_flip_rate(5e-4),
            ))
            .integrity(IntegrityMode::Correct)
            .trace(TraceConfig::enabled(TRACE_CAPACITY)),
    );
    let tickets: Vec<_> = batch
        .iter()
        .enumerate()
        .map(|(i, frame)| service.submit_at(frame.clone(), i as u64 * gap))
        .collect::<Result<_, _>>()
        .map_err(serve_err)?;
    for ticket in tickets {
        ticket.wait().map_err(serve_err)?;
    }
    let report = service.shutdown();

    // --- Mesh: 3-core sequential pipeline with the traced timeline. ---
    let mesh_topology = [128usize, 64, 32, 10];
    let mesh_net = BnnNetwork::new(&mesh_topology, 0x0B5E)?;
    let mesh_model = SnnModel::from_bnn(&mesh_net)?;
    let mesh_sys_config =
        SystemConfig::builder(BitcellKind::multiport(2).unwrap(), &mesh_topology).build()?;
    let mesh_config = MeshConfig::with_cores(3)
        // Light in-flight corruption: the CRC verify + NACK/retransmit
        // series are live and the timeline carries `packet-corrupt`
        // instants, while results stay exact.
        .faults(FaultPlan::seeded(
            0x0B5E,
            FaultConfig::none().with_packet_corrupt_rate(0.08),
        ));
    let mut mesh = MeshSystem::from_model(&mesh_model, &mesh_sys_config, &mesh_config)?;
    let mesh_batch = synthetic_frames(mesh_topology[0], mesh_frames);
    let (_, mesh_trace) = mesh.run_traced(&mesh_batch, TRACE_CAPACITY)?;
    let mesh_tally = *mesh.tally();

    // --- Merge the three subsystem traces under the sorted-track law. ---
    let serve_counters = (report.admitted, report.completed, report.batches);
    let serve_integrity = report.integrity;
    let serve_faults = report.fault_tally;
    let serve_quarantines = report.quarantines;
    let mut trace = Trace::new();
    trace.name_process(CORE_TRACE_PID, "esam-core");
    trace.push(core_track);
    trace.merge(report.trace);
    trace.merge(mesh_trace);

    // --- Stage histograms from the merged spans. ---
    let mut stage_hists: BTreeMap<String, Histogram> = BTreeMap::new();
    for track in trace.tracks() {
        for event in &track.events {
            if event.kind != EventKind::Span {
                continue;
            }
            let arg0 = event.args[0].map_or(0, |(_, v)| v);
            let key = match (track.pid, event.name) {
                (SERVE_TRACE_PID, "queue-wait") => "serve/queue-wait".to_string(),
                (SERVE_TRACE_PID, "infer") => "serve/infer".to_string(),
                (SERVE_TRACE_PID, "layer") => format!("serve/layer {arg0}"),
                (CORE_TRACE_PID, "layer") => format!("core/layer {arg0}"),
                (MESH_TRACE_PID, "frame") => "mesh/occupancy".to_string(),
                (MESH_TRACE_PID, "bubble") => "mesh/bubble".to_string(),
                (MESH_TRACE_PID, "hop") => "mesh/hop".to_string(),
                (MESH_TRACE_PID, "serialize") => "mesh/serialize".to_string(),
                _ => continue,
            };
            stage_hists.entry(key).or_default().record(event.cycle_dur);
        }
    }
    let stages: Vec<StageSummary> = stage_hists
        .iter()
        .map(|(name, h)| StageSummary {
            name: name.clone(),
            count: h.count(),
            p50: h.quantile(0.5),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
            total_cycles: u64::try_from(h.sum()).unwrap_or(u64::MAX),
        })
        .collect();
    // `serve/infer` is the sum of its layer spans — excluding it keeps the
    // bottleneck pick among non-overlapping stages.
    let bottleneck = stages
        .iter()
        .filter(|s| s.name != "serve/infer")
        .max_by_key(|s| s.total_cycles)
        .map(|s| s.name.clone())
        .unwrap_or_default();

    // --- The unified metrics snapshot. ---
    let mut registry = MetricsRegistry::new();
    export_tally(&mut registry, "serve_integrity", &serve_integrity);
    export_tally(&mut registry, "serve_fault", &serve_faults);
    export_tally(&mut registry, "mesh", &mesh_tally);
    registry.add_counter("serve_requests_admitted_total", serve_counters.0);
    registry.add_counter("serve_requests_completed_total", serve_counters.1);
    registry.add_counter("serve_batches_total", serve_counters.2);
    registry.add_counter("mesh_frames_total", mesh_batch.len() as u64);
    registry.add_counter(
        "serve_integrity_uncorrectable_total",
        serve_integrity.uncorrectable(),
    );
    registry.add_counter("serve_quarantines_total", serve_quarantines);
    registry.add_counter("trace_events_total", trace.total_events());
    registry.add_counter("trace_dropped_total", trace.total_dropped());
    registry.add_counter("trace_unmatched_total", trace.total_unmatched());
    // No wall-racy series here (e.g. the observed peak queue depth
    // depends on how fast the worker drains vs. the submitter) — every
    // value in the snapshot must be a modeled/counted invariant.
    registry.set_gauge("serve_workers", 1);
    registry.set_gauge("mesh_cores", 3);
    for (stage, metric) in [
        ("serve/queue-wait", "serve_queue_wait_cycles"),
        ("serve/infer", "serve_infer_cycles"),
        ("mesh/occupancy", "mesh_occupancy_cycles"),
        ("mesh/bubble", "mesh_bubble_cycles"),
    ] {
        if let Some(h) = stage_hists.get(stage) {
            registry.merge_histogram(metric, h);
        }
    }

    Ok(ObserveResults {
        requests,
        mesh_frames,
        trace_events: trace.total_events(),
        trace_dropped: trace.total_dropped(),
        trace_unmatched: trace.total_unmatched(),
        stages,
        bottleneck,
        registry,
        trace_json: trace.chrome_json(TimeDomain::Cycles),
    })
}

/// Renders the bottleneck breakdown table.
pub fn observe_table(results: &ObserveResults) -> Table {
    let mut table = Table::new(
        "Observe — time-in-stage breakdown (modeled cycles) across core, serve and mesh",
        &["stage", "count", "p50", "p95", "p99", "max", "total cycles"],
    );
    for stage in &results.stages {
        table.row_owned(vec![
            stage.name.clone(),
            stage.count.to_string(),
            stage.p50.to_string(),
            stage.p95.to_string(),
            stage.p99.to_string(),
            stage.max.to_string(),
            stage.total_cycles.to_string(),
        ]);
    }
    table.note(&format!(
        "bottleneck stage: {} ({} requests served, {} mesh frames, {} trace events, {} dropped)",
        results.bottleneck,
        results.requests,
        results.mesh_frames,
        results.trace_events,
        results.trace_dropped
    ));
    table.note(
        "load the trace in Perfetto: `ESAM_OBSERVE_DIR=out repro observe` writes out/trace.json — open https://ui.perfetto.dev and drag it in (1 µs ≙ 1 modeled cycle)",
    );
    table
}

/// Renders the results as one machine-readable JSON object. Everything in
/// it is modeled-cycle-domain and therefore byte-for-byte reproducible at
/// a fixed seed.
pub fn observe_json(results: &ObserveResults) -> String {
    let stages: Vec<String> = results
        .stages
        .iter()
        .map(|s| {
            format!(
                "{{\"stage\":\"{}\",\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\"total_cycles\":{}}}",
                json_escape(&s.name),
                s.count,
                s.p50,
                s.p95,
                s.p99,
                s.max,
                s.total_cycles
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"observe\",\"requests\":{},\"mesh_frames\":{},\"trace_events\":{},\
         \"trace_dropped\":{},\"trace_unmatched\":{},\"bottleneck\":\"{}\",\"stages\":[{}],\
         \"metrics\":{},\"trace\":{}}}",
        results.requests,
        results.mesh_frames,
        results.trace_events,
        results.trace_dropped,
        results.trace_unmatched,
        json_escape(&results.bottleneck),
        stages.join(","),
        results.registry.json(),
        results.trace_json.trim_end()
    )
}

/// Writes the Perfetto trace and both metrics snapshots into `dir`
/// (created if absent): `trace.json`, `metrics.prom`, `metrics.json`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifacts(results: &ObserveResults, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("trace.json"), &results.trace_json)?;
    std::fs::write(dir.join("metrics.prom"), results.registry.prometheus())?;
    std::fs::write(dir.join("metrics.json"), results.registry.json())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_json_is_byte_for_byte_reproducible() {
        let a = observe_results(10).unwrap();
        let b = observe_results(10).unwrap();
        assert_eq!(
            observe_json(&a),
            observe_json(&b),
            "the snapshot is cycle-domain only and must not wobble"
        );
        assert_eq!(a.trace_json, b.trace_json);
    }

    #[test]
    fn trace_covers_all_three_subsystems() {
        let results = observe_results(8).unwrap();
        for marker in [
            "esam-serve",
            "esam-mesh",
            "esam-core",
            "queue-wait",
            "bubble",
            "serialize",
        ] {
            assert!(results.trace_json.contains(marker), "missing {marker}");
        }
        assert_eq!(results.trace_dropped, 0, "capacity fits the workload");
        assert_eq!(results.trace_unmatched, 0, "every span is well-formed");
        assert!(!results.bottleneck.is_empty());
        let names: Vec<&str> = results.stages.iter().map(|s| s.name.as_str()).collect();
        for stage in [
            "core/layer 0",
            "serve/queue-wait",
            "serve/infer",
            "mesh/occupancy",
            "mesh/bubble",
        ] {
            assert!(names.contains(&stage), "missing stage {stage}");
        }
        assert_eq!(observe_table(&results).row_count(), results.stages.len());
    }

    #[test]
    fn json_embeds_trace_and_metrics_as_real_objects() {
        let results = observe_results(5).unwrap();
        let json = observe_json(&results);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"experiment\":\"observe\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"counters\""));
        assert!(!json.contains("overhead"), "wall figures stay out");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn registry_snapshot_carries_the_core_series() {
        let results = observe_results(6).unwrap();
        assert_eq!(
            results.registry.counter("serve_requests_completed_total"),
            6
        );
        assert_eq!(results.registry.counter("serve_requests_admitted_total"), 6);
        assert_eq!(results.registry.counter("mesh_frames_total"), 6);
        assert!(
            results
                .registry
                .counter("serve_integrity_checked_reads_total")
                > 0,
            "the worker serves with SECDED checking on"
        );
        assert!(
            results.registry.counter("mesh_packets_corrupted_total") > 0,
            "the corruption plan fires at this rate"
        );
        assert_eq!(
            results.registry.counter("mesh_packets_corrupted_total"),
            results.registry.counter("mesh_retransmits_total"),
            "every flagged packet is retransmitted within budget here"
        );
        assert_eq!(results.registry.counter("serve_integrity_silent_total"), 0);
        assert_eq!(
            results.registry.counter("trace_events_total"),
            results.trace_events
        );
        let prom = results.registry.prometheus();
        assert!(prom.contains("# TYPE serve_queue_wait_cycles summary"));
        assert!(prom.contains("serve_infer_cycles_count 6"));
    }

    #[test]
    fn artifacts_round_trip_to_disk() {
        let results = observe_results(4).unwrap();
        let dir = std::env::temp_dir().join("esam-observe-test");
        write_artifacts(&results, &dir).unwrap();
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert_eq!(trace, results.trace_json);
        assert!(std::fs::read_to_string(dir.join("metrics.prom"))
            .unwrap()
            .contains("# TYPE"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
