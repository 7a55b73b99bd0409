//! Mesh-domain fault battery: dropped/delayed packets, core stalls, and
//! mid-batch core deaths — all recovering to exact full-batch results, in
//! both execution modes, with deterministic fault counters.

use std::sync::Once;
use std::time::Duration;

use esam_bits::BitVec;
use esam_core::{EsamSystem, SystemConfig};
use esam_mesh::{Execution, FaultConfig, FaultPlan, MeshConfig, MeshSystem};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::BitcellKind;

/// Injected core panics are part of these tests' happy path — silence
/// their default-hook backtraces (once per process) while leaving every
/// other panic's report intact.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with("injected core fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

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

#[test]
fn dropped_packets_recover_to_exact_results_in_both_modes() {
    let (model, config) = build(&[128, 64, 32, 10], 9);
    let batch = frames(128, 24);
    let mut plain = EsamSystem::from_model(&model, &config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    let plan = FaultPlan::seeded(31, FaultConfig::none().with_drop_rate(0.05));
    for cores in [2usize, 3, 4] {
        let mut tallies = Vec::new();
        for execution in [Execution::Sequential, Execution::Pipelined] {
            let mesh_config = MeshConfig::with_cores(cores)
                .faults(plan)
                .execution(execution);
            let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
            let results = mesh.run(&batch).unwrap();
            assert_eq!(results, expected, "{cores} cores, {execution:?}");
            tallies.push(*mesh.tally());
        }
        // Fault sites are keyed on (hand-off, src, dst), which both modes
        // walk identically, so every counter — drops, recoveries, link
        // and tile activity — matches exactly.
        assert_eq!(tallies[0], tallies[1], "{cores} cores tallies");
        assert!(tallies[0].packets_dropped > 0, "{cores} cores: drops fired");
        assert_eq!(
            tallies[0].frames_recovered, tallies[1].frames_recovered,
            "{cores} cores recoveries"
        );
        assert!(tallies[0].frames_recovered > 0);
    }
}

#[test]
fn delays_and_stalls_charge_cycles_without_corrupting_results() {
    let (model, config) = build(&[128, 64, 32, 10], 5);
    let batch = frames(128, 20);
    let mut plain = EsamSystem::from_model(&model, &config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    let plan = FaultPlan::seeded(
        7,
        FaultConfig::none()
            .with_delay(0.3, 50)
            .with_core_stall(0.3, 40),
    );
    // Clean reference tally for the cycle-inflation check.
    let mut clean = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(3)).unwrap();
    clean.run(&batch).unwrap();
    let mut tallies = Vec::new();
    for execution in [Execution::Sequential, Execution::Pipelined] {
        let mesh_config = MeshConfig::with_cores(3).faults(plan).execution(execution);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
        let results = mesh.run(&batch).unwrap();
        assert_eq!(results, expected, "{execution:?}: delays never corrupt");
        tallies.push(*mesh.tally());
    }
    assert_eq!(tallies[0], tallies[1], "modes agree on every counter");
    let tally = tallies[0];
    assert!(tally.packets_delayed > 0, "delays fired");
    assert!(tally.core_stalls > 0, "stalls fired");
    assert_eq!(tally.frames_recovered, 0, "nothing was lost");
    assert!(
        tally.noc_latency_cycles > clean.tally().noc_latency_cycles,
        "delayed packets inflate the NoC critical path"
    );
    assert!(
        tally.mesh_bottleneck_cycles > clean.tally().mesh_bottleneck_cycles,
        "stalls inflate the pipeline bottleneck"
    );
    // The real compute is untouched: tile-side tallies match the clean run.
    assert_eq!(tally.tiles, clean.tally().tiles);
}

#[test]
fn a_core_death_mid_batch_degrades_without_deadlock() {
    quiet_injected_panics();
    let (model, config) = build(&[128, 64, 32, 10], 9);
    let batch = frames(128, 40);
    let mut plain = EsamSystem::from_model(&model, &config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    let plan = FaultPlan::seeded(11, FaultConfig::none().with_core_panic_rate(0.05));
    let mesh_config = MeshConfig::with_cores(3).faults(plan);
    let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
    let results = mesh.run(&batch).unwrap();
    assert_eq!(results, expected, "degraded run is still exact");
    assert!(mesh.tally().core_panics >= 1, "a core thread was killed");
    assert!(
        mesh.tally().frames_recovered >= 1,
        "the dead core's frames were re-run sequentially"
    );
    // The mesh survives its own degradation: the same instance serves the
    // next batch (the panic schedule keys on per-core hand-off counts, so
    // later hand-offs see fresh sites).
    let again = mesh.run(&batch).unwrap();
    assert_eq!(again, expected);
}

#[test]
fn every_core_dying_at_once_still_completes_the_batch() {
    quiet_injected_panics();
    let (model, config) = build(&[128, 64, 10], 3);
    let batch = frames(128, 12);
    let mut plain = EsamSystem::from_model(&model, &config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    // Certain death on the first hand-off: the entire batch goes through
    // recovery, and every spawned thread still joins (the run returning at
    // all is the no-deadlock proof).
    let plan = FaultPlan::seeded(2, FaultConfig::none().with_core_panic_rate(1.0));
    let mesh_config = MeshConfig::with_cores(2)
        .faults(plan)
        .link_timeout(Duration::from_secs(5));
    let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
    let results = mesh.run(&batch).unwrap();
    assert_eq!(results, expected);
    assert_eq!(mesh.tally().frames_recovered, batch.len() as u64);
    assert!(mesh.tally().core_panics >= 1);
}

#[test]
fn disabled_plan_is_bit_identical_to_the_unfaulted_baseline() {
    let (model, config) = build(&[128, 64, 32, 10], 13);
    let batch = frames(128, 64);
    let mut baseline = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(3)).unwrap();
    let expected = baseline.run(&batch).unwrap();
    // FaultPlan::none() plus an (unfired) link timeout must not perturb
    // anything — including the block-payload selection this batch takes.
    let guarded = MeshConfig::with_cores(3)
        .faults(FaultPlan::none())
        .link_timeout(Duration::from_secs(30));
    let mut mesh = MeshSystem::from_model(&model, &config, &guarded).unwrap();
    let results = mesh.run(&batch).unwrap();
    assert_eq!(results, expected);
    assert_eq!(mesh.tally(), baseline.tally());
    assert_eq!(mesh.tally().packets_dropped, 0);
    assert_eq!(mesh.tally().link_timeouts, 0);
}

#[test]
fn same_seed_reproduces_fault_sites_and_counters() {
    let (model, config) = build(&[128, 64, 32, 10], 21);
    let batch = frames(128, 32);
    let plan = FaultPlan::seeded(
        99,
        FaultConfig::none()
            .with_drop_rate(0.04)
            .with_delay(0.2, 25)
            .with_core_stall(0.2, 30),
    );
    let run = |execution: Execution| {
        let mesh_config = MeshConfig::with_cores(3).faults(plan).execution(execution);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
        let results = mesh.run(&batch).unwrap();
        (results, *mesh.tally())
    };
    let (results_a, tally_a) = run(Execution::Pipelined);
    let (results_b, tally_b) = run(Execution::Pipelined);
    let (results_c, tally_c) = run(Execution::Sequential);
    assert_eq!(results_a, results_b, "pipelined runs reproduce exactly");
    assert_eq!(tally_a, tally_b);
    assert_eq!(results_a, results_c, "and match the sequential walk");
    assert_eq!(tally_a, tally_c);
    assert!(tally_a.packets_dropped > 0 || tally_a.packets_delayed > 0);
}

#[test]
fn corrupted_packets_retransmit_to_exact_results_in_both_modes() {
    let (model, config) = build(&[128, 64, 32, 10], 9);
    let batch = frames(128, 24);
    let mut plain = EsamSystem::from_model(&model, &config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    let plan = FaultPlan::seeded(77, FaultConfig::none().with_packet_corrupt_rate(0.15));
    for cores in [2usize, 3] {
        let mut tallies = Vec::new();
        for execution in [Execution::Sequential, Execution::Pipelined] {
            let mesh_config = MeshConfig::with_cores(cores)
                .faults(plan)
                .execution(execution);
            let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
            let results = mesh.run(&batch).unwrap();
            assert_eq!(results, expected, "{cores} cores, {execution:?}");
            tallies.push(*mesh.tally());
        }
        // Corruption verdicts are keyed on (hand-off, src, dst, attempt),
        // which both modes walk identically — every counter matches.
        assert_eq!(tallies[0], tallies[1], "{cores} cores tallies");
        assert!(
            tallies[0].packets_corrupted > 0,
            "{cores} cores: upsets fired"
        );
        assert!(
            tallies[0].retransmits > 0,
            "{cores} cores: NACKs triggered re-sends"
        );
    }
}

#[test]
fn every_injected_corruption_is_caught_and_accounted() {
    // At a rate where the retry budget never runs dry (p(4 consecutive
    // upsets on one edge) ≈ 6e-6), the CRC protocol's books must balance
    // exactly: every detected upset NACKed exactly one retransmission and
    // no frame was lost. A *missed* upset cannot hide here — the consumer
    // computes the real CRC comparison and aborts the run on a miss.
    let (model, config) = build(&[128, 64, 32, 10], 15);
    let batch = frames(128, 32);
    let mut plain = EsamSystem::from_model(&model, &config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    let plan = FaultPlan::seeded(123, FaultConfig::none().with_packet_corrupt_rate(0.05));
    let mesh_config = MeshConfig::with_cores(3).faults(plan);
    let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
    let results = mesh.run(&batch).unwrap();
    assert_eq!(results, expected, "all corruptions were masked in flight");
    let tally = *mesh.tally();
    assert!(tally.packets_corrupted > 0, "the attacker actually struck");
    assert_eq!(
        tally.retransmits, tally.packets_corrupted,
        "one re-send per caught upset when the budget holds"
    );
    assert_eq!(tally.frames_recovered, 0);
}

#[test]
fn exhausted_retransmit_budget_loses_the_frame_to_recovery() {
    let (model, config) = build(&[128, 64, 32, 10], 9);
    let batch = frames(128, 24);
    let mut plain = EsamSystem::from_model(&model, &config).unwrap();
    let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
    // Heavy corruption: each edge exhausts its MAX_RETRANSMITS budget on
    // ~24% of hand-offs, so several frames sink as gaps — and the
    // recovery pass still delivers the exact batch.
    let plan = FaultPlan::seeded(5, FaultConfig::none().with_packet_corrupt_rate(0.7));
    let mesh_config = MeshConfig::with_cores(3).faults(plan);
    let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
    let results = mesh.run(&batch).unwrap();
    assert_eq!(results, expected, "recovery fills every corruption gap");
    let tally = *mesh.tally();
    assert!(tally.frames_recovered > 0, "some retry budgets ran dry");
    // Per edge: a delivered packet retransmits once per caught upset; an
    // exhausted edge catches MAX_RETRANSMITS + 1 upsets but re-sends only
    // MAX_RETRANSMITS times. The difference counts exhaustion events, of
    // which every corruption-lost frame has at least one.
    let exhaustions = tally.packets_corrupted - tally.retransmits;
    assert!(
        exhaustions >= tally.frames_recovered,
        "{exhaustions} exhaustions must cover {} lost frames",
        tally.frames_recovered
    );
}

#[test]
fn retransmit_cycles_are_charged_deterministically_on_the_links() {
    let (model, config) = build(&[128, 64, 32, 10], 25);
    let batch = frames(128, 20);
    let plan = FaultPlan::seeded(9, FaultConfig::none().with_packet_corrupt_rate(0.2));
    let measure = |execution: Execution| {
        let mesh_config = MeshConfig::with_cores(3).faults(plan).execution(execution);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
        mesh.measure(&batch).unwrap()
    };
    let sequential = measure(Execution::Sequential);
    let pipelined = measure(Execution::Pipelined);
    assert_eq!(
        sequential.links, pipelined.links,
        "per-link charges are independent of scheduling"
    );
    assert!(sequential.links.iter().any(|l| l.retransmits > 0));
    for link in &sequential.links {
        assert!(link.crc_cycles > 0, "armed links verify every attempt");
        assert_eq!(
            link.retransmit_cycles > 0,
            link.retransmits > 0,
            "retransmit cycles appear exactly with retransmissions"
        );
        assert_eq!(
            link.busy_cycles,
            link.hop_cycles + link.serialize_cycles + link.crc_cycles + link.retransmit_cycles,
            "busy cycles decompose exactly"
        );
    }
    // The protection is not free: the same batch over a clean plan busies
    // the links strictly less (links charge per frame whatever the
    // hand-off size, so the comparison is charge-for-charge).
    let clean_config = MeshConfig::with_cores(3).execution(Execution::Sequential);
    let mut clean = MeshSystem::from_model(&model, &config, &clean_config).unwrap();
    let clean_metrics = clean.measure(&batch).unwrap();
    let busy = |links: &[esam_mesh::LinkStats]| links.iter().map(|l| l.busy_cycles).sum::<u64>();
    assert!(busy(&sequential.links) > busy(&clean_metrics.links));
}

#[test]
fn swapping_the_plan_on_a_live_mesh_returns_to_baseline() {
    let (model, config) = build(&[128, 64, 10], 17);
    let batch = frames(128, 16);
    let mut mesh = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(2)).unwrap();
    let clean = mesh.run(&batch).unwrap();
    mesh.set_fault_plan(FaultPlan::seeded(
        4,
        FaultConfig::none().with_drop_rate(0.2),
    ));
    mesh.reset_stats();
    let faulted = mesh.run(&batch).unwrap();
    assert_eq!(faulted, clean, "drops recover to the exact results");
    assert!(mesh.tally().packets_dropped > 0);
    mesh.set_fault_plan(FaultPlan::none());
    mesh.reset_stats();
    let restored = mesh.run(&batch).unwrap();
    assert_eq!(restored, clean);
    assert_eq!(mesh.tally().packets_dropped, 0);
    assert_eq!(mesh.tally().frames_recovered, 0);
}
