//! The mesh observability contract: `run_traced` returns exactly what
//! `run` (sequential) returns — results, tallies, every
//! counter — plus a modeled-cycle timeline whose cycle-domain Chrome
//! export is byte-identical across runs, with faults surfacing as
//! deterministic instants.

use std::time::Duration;

use esam_bits::BitVec;
use esam_core::SystemConfig;
use esam_mesh::{
    Execution, FaultConfig, FaultPlan, MeshConfig, MeshSystem, TimeDomain, MESH_TRACE_PID,
};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::BitcellKind;

fn build(topology: &[usize], seed: u64) -> (SnnModel, SystemConfig) {
    let net = BnnNetwork::new(topology, seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(BitcellKind::multiport(2).unwrap(), topology)
        .build()
        .unwrap();
    (model, config)
}

fn frames(width: usize, count: usize) -> Vec<BitVec> {
    (0..count)
        .map(|f| {
            BitVec::from_indices(
                width,
                &[(f * 13) % width, (f * 29 + 7) % width, (f * 53 + 1) % width],
            )
        })
        .collect()
}

fn mesh_config(cores: usize) -> MeshConfig {
    MeshConfig::with_cores(cores).execution(Execution::Sequential)
}

#[test]
fn traced_run_matches_plain_run_exactly() {
    let (model, config) = build(&[128, 64, 32, 10], 9);
    let batch = frames(128, 12);
    let mut plain = MeshSystem::from_model(&model, &config, &mesh_config(3)).unwrap();
    let expected = plain.run(&batch).unwrap();
    let mut traced = MeshSystem::from_model(&model, &config, &mesh_config(3)).unwrap();
    let (results, trace) = traced.run_traced(&batch, 4096).unwrap();
    assert_eq!(results, expected, "traced results must be bit-identical");
    assert_eq!(traced.tally(), plain.tally(), "tallies must match too");
    // 3 cores + 2 links (chain plan: one link per stage boundary).
    assert_eq!(trace.tracks().len(), 5);
    assert!(trace.tracks().iter().all(|t| t.pid == MESH_TRACE_PID));
    assert_eq!(trace.total_dropped(), 0);
}

#[test]
fn cycle_domain_export_is_byte_identical_across_runs() {
    let (model, config) = build(&[128, 64, 32, 10], 5);
    let batch = frames(128, 20);
    let export = || {
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config(3)).unwrap();
        let (_, trace) = mesh.run_traced(&batch, 4096).unwrap();
        trace.chrome_json(TimeDomain::Cycles)
    };
    let first = export();
    assert_eq!(first, export(), "modeled timeline must be reproducible");
    assert!(
        first.contains("\"bubble\""),
        "pipeline fill shows as bubbles"
    );
    assert!(first.contains("\"serialize\""));
    assert!(first.contains("\"hop\""));
}

#[test]
fn downstream_stages_bubble_while_the_pipeline_fills() {
    let (model, config) = build(&[128, 64, 32, 10], 7);
    let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config(3)).unwrap();
    let (_, trace) = mesh.run_traced(&frames(128, 8), 4096).unwrap();
    // Stage 0 is fed back-to-back: its core track never bubbles. Every
    // later stage waits at least once (the first frame's fill latency).
    let sections = trace.tracks();
    let core0 = sections.iter().find(|t| t.tid == 0).unwrap();
    assert!(core0.events.iter().all(|e| e.name != "bubble"));
    let core1 = sections.iter().find(|t| t.tid == 1).unwrap();
    assert!(core1.events.iter().any(|e| e.name == "bubble"));
    // Core occupancy spans carry the frame index.
    assert!(core1
        .events
        .iter()
        .any(|e| e.name == "frame" && e.args[0] == Some(("frame", 0))));
}

#[test]
fn injected_faults_surface_as_deterministic_instants() {
    let (model, config) = build(&[128, 64, 32, 10], 3);
    let plan = FaultPlan::seeded(
        0xDEC0DE,
        FaultConfig::none()
            .with_drop_rate(0.2)
            .with_delay(0.2, 9)
            .with_core_stall(0.2, 11),
    );
    let batch = frames(128, 24);
    let run_once = || {
        let mut mesh =
            MeshSystem::from_model(&model, &config, &mesh_config(3).faults(plan)).unwrap();
        let (results, trace) = mesh.run_traced(&batch, 4096).unwrap();
        (
            results,
            trace.chrome_json(TimeDomain::Cycles),
            *mesh.tally(),
        )
    };
    let (results, json, tally) = run_once();
    assert_eq!(results.len(), batch.len(), "recovery fills every gap");
    assert!(tally.packets_dropped > 0, "the plan fires at these rates");
    assert!(json.contains("packet-drop"));
    assert!(json.contains("frame-lost"));
    assert!(json.contains("core-stall") || tally.core_stalls == 0);
    let (results2, json2, tally2) = run_once();
    assert_eq!(results, results2);
    assert_eq!(json, json2, "fault instants are part of the fixed timeline");
    assert_eq!(tally, tally2);

    // The traced walk must leave the very same tally as the untraced
    // sequential walk under the same plan.
    let mut plain = MeshSystem::from_model(&model, &config, &mesh_config(3).faults(plan)).unwrap();
    let plain_results = plain.run(&batch).unwrap();
    assert_eq!(plain_results, results);
    assert_eq!(*plain.tally(), tally);
    let _ = Duration::ZERO; // keep the import used on all cfgs
}

#[test]
fn corruption_retransmits_surface_in_the_traced_timeline() {
    // The traced walk mirrors the CRC verify + retransmit charges exactly:
    // same results and tally as the untraced run, `packet-corrupt`
    // instants on the struck links, and a byte-identical cycle-domain
    // export across runs. The heavy rate also exhausts some retry budgets,
    // covering the corruption-lost branch of the mirror.
    let (model, config) = build(&[128, 64, 32, 10], 3);
    let plan = FaultPlan::seeded(0xC0DEC, FaultConfig::none().with_packet_corrupt_rate(0.45));
    let batch = frames(128, 24);
    let run_once = || {
        let mut mesh =
            MeshSystem::from_model(&model, &config, &mesh_config(3).faults(plan)).unwrap();
        let (results, trace) = mesh.run_traced(&batch, 4096).unwrap();
        (
            results,
            trace.chrome_json(TimeDomain::Cycles),
            *mesh.tally(),
        )
    };
    let (results, json, tally) = run_once();
    assert!(tally.packets_corrupted > 0);
    assert!(tally.retransmits > 0);
    assert!(json.contains("packet-corrupt"));
    let (results2, json2, tally2) = run_once();
    assert_eq!(results, results2);
    assert_eq!(json, json2, "retransmit charges are part of the timeline");
    assert_eq!(tally, tally2);

    let mut plain = MeshSystem::from_model(&model, &config, &mesh_config(3).faults(plan)).unwrap();
    let plain_results = plain.run(&batch).unwrap();
    assert_eq!(plain_results, results);
    assert_eq!(*plain.tally(), tally);
}

#[test]
fn multi_port_consumer_timeline_matches_the_plain_run() {
    // [128, 300, 10] on 4 cores splits the wide layer into three column
    // shards feeding one readout core, so that consumer has three
    // in-ports: 4 core tracks + 3 link tracks. Clean and faulted, the
    // traced run must equal the plain run and export the same bytes twice.
    let (model, config) = build(&[128, 300, 10], 11);
    let batch = frames(128, 24);
    let faulty = FaultPlan::seeded(
        0x3_0001,
        FaultConfig::none()
            .with_drop_rate(0.1)
            .with_delay(0.3, 5)
            .with_core_stall(0.3, 7)
            .with_packet_corrupt_rate(0.4),
    );
    for plan in [FaultPlan::none(), faulty] {
        let run_once = || {
            let mut mesh =
                MeshSystem::from_model(&model, &config, &mesh_config(4).faults(plan)).unwrap();
            let shards: Vec<usize> = mesh.plan().stages().iter().map(|s| s.shards()).collect();
            assert_eq!(shards, [3, 1], "three producers, one consumer");
            let (results, trace) = mesh.run_traced(&batch, 4096).unwrap();
            (results, trace, *mesh.tally())
        };
        let (results, trace, tally) = run_once();
        assert_eq!(trace.tracks().len(), 7, "4 cores + 3 links");
        assert_eq!(trace.total_dropped(), 0);
        let json = trace.chrome_json(TimeDomain::Cycles);
        let (results2, trace2, tally2) = run_once();
        assert_eq!(results, results2);
        assert_eq!(json, trace2.chrome_json(TimeDomain::Cycles));
        assert_eq!(tally, tally2);

        let mut plain =
            MeshSystem::from_model(&model, &config, &mesh_config(4).faults(plan)).unwrap();
        assert_eq!(plain.run(&batch).unwrap(), results);
        assert_eq!(*plain.tally(), tally);
        if plan.mesh_active() {
            for kind in [
                "packet-drop",
                "packet-delay",
                "core-stall",
                "packet-corrupt",
                "frame-lost",
            ] {
                assert!(json.contains(kind), "{kind} fires under the plan");
            }
        }
    }
}
