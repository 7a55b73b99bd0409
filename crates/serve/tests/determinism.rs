//! Served responses must be bit-identical to the sequential
//! `EsamSystem::infer` walk on the same frames — for every worker count,
//! batching policy and admission policy. The serving layer may only change
//! *when* a frame runs and *how requests queue*, never what comes out.

use std::time::Duration;

use esam_bits::BitVec;
use esam_core::{EsamSystem, InferenceResult, SystemConfig};
use esam_nn::{BnnNetwork, SnnModel};
use esam_serve::{AdmissionPolicy, BatchPolicy, EsamService, ServeConfig, Ticket};
use esam_sram::BitcellKind;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn system(cell: BitcellKind) -> EsamSystem {
    let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(cell, &[128, 64, 10]).build().unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

fn frames(count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..128).map(|_| rng.random_bool(0.25)).collect())
        .collect()
}

fn sequential_reference(system: &EsamSystem, batch: &[BitVec]) -> Vec<InferenceResult> {
    let mut reference = system.clone();
    batch.iter().map(|f| reference.infer(f).unwrap()).collect()
}

/// Submits every frame, waits for every ticket and checks each response
/// against the sequential reference, field by field.
fn assert_served_matches(
    system: &EsamSystem,
    batch: &[BitVec],
    expected: &[InferenceResult],
    config: ServeConfig,
    label: &str,
) {
    let service = EsamService::start(system, config);
    let tickets: Vec<Ticket> = batch
        .iter()
        .map(|frame| service.submit(frame.clone()).expect("admitted"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket
            .wait()
            .unwrap_or_else(|e| panic!("{label} req {i}: {e}"));
        let want = &expected[i];
        assert_eq!(response.prediction, want.prediction, "{label} req {i}");
        assert_eq!(response.logits, want.logits, "{label} req {i} logits");
        assert_eq!(
            response.membranes, want.membranes,
            "{label} req {i} membranes"
        );
        assert_eq!(
            response.pipeline_cycles,
            want.total_cycles(),
            "{label} req {i} cycles"
        );
        assert_eq!(
            response.bottleneck_cycles,
            want.bottleneck_cycles(),
            "{label} req {i} bottleneck"
        );
    }
    let report = service.shutdown();
    assert_eq!(report.completed, batch.len() as u64, "{label} completed");
    assert_eq!(report.failed, 0, "{label} failed");
}

#[test]
fn responses_are_bit_identical_across_worker_counts() {
    let system = system(BitcellKind::multiport(4).unwrap());
    let batch = frames(48, 7);
    let expected = sequential_reference(&system, &batch);
    for workers in [1, 2, 4, 7] {
        assert_served_matches(
            &system,
            &batch,
            &expected,
            ServeConfig::with_workers(workers),
            &format!("{workers} workers"),
        );
    }
}

#[test]
fn responses_are_bit_identical_across_batch_policies() {
    let system = system(BitcellKind::multiport(4).unwrap());
    let batch = frames(40, 13);
    let expected = sequential_reference(&system, &batch);
    for (name, policy) in [
        ("unbatched", BatchPolicy::unbatched()),
        ("greedy-4", BatchPolicy::greedy(4)),
        ("greedy-32", BatchPolicy::greedy(32)),
        ("deadline", BatchPolicy::new(8, Duration::from_micros(200))),
    ] {
        assert_served_matches(
            &system,
            &batch,
            &expected,
            ServeConfig::with_workers(3).batch(policy),
            name,
        );
    }
}

#[test]
fn responses_are_bit_identical_under_every_admission_policy() {
    // Capacity is large enough that nothing is actually shed — the policy
    // machinery is engaged but every request must still complete, exactly.
    let system = system(BitcellKind::multiport(2).unwrap());
    let batch = frames(32, 19);
    let expected = sequential_reference(&system, &batch);
    for admission in [
        AdmissionPolicy::Block,
        AdmissionPolicy::Reject,
        AdmissionPolicy::DropOldest,
    ] {
        assert_served_matches(
            &system,
            &batch,
            &expected,
            ServeConfig::with_workers(2)
                .queue_capacity(64)
                .admission(admission),
            admission.name(),
        );
    }
}

#[test]
fn six_transistor_baseline_serves_identically_too() {
    let system = system(BitcellKind::Std6T);
    let batch = frames(24, 23);
    let expected = sequential_reference(&system, &batch);
    assert_served_matches(
        &system,
        &batch,
        &expected,
        ServeConfig::with_workers(4),
        "6T",
    );
}

#[test]
fn lane_wide_batches_are_bit_identical_across_worker_counts() {
    // Greedy batches of 64 or more requests, a full bit-sliced lane
    // width, are served one request at a time like any other batch; every
    // response must match the sequential walk exactly, at any worker
    // count.
    let system = system(BitcellKind::multiport(4).unwrap());
    let batch = frames(160, 31);
    let expected = sequential_reference(&system, &batch);
    for workers in [1, 2, 4] {
        assert_served_matches(
            &system,
            &batch,
            &expected,
            ServeConfig::with_workers(workers)
                .queue_capacity(256)
                .batch(BatchPolicy::greedy(256)),
            &format!("block path, {workers} workers"),
        );
    }
}

#[test]
fn deadline_batches_are_bit_identical_under_every_admission_policy() {
    // Batches that wait up to 200 µs to coalesce up to 128 requests must
    // stay exact under every admission policy; capacity is large enough
    // that nothing is shed.
    let system = system(BitcellKind::multiport(4).unwrap());
    let batch = frames(130, 37);
    let expected = sequential_reference(&system, &batch);
    let policy = BatchPolicy::new(128, Duration::from_micros(200));
    for admission in [
        AdmissionPolicy::Block,
        AdmissionPolicy::Reject,
        AdmissionPolicy::DropOldest,
    ] {
        assert_served_matches(
            &system,
            &batch,
            &expected,
            ServeConfig::with_workers(2)
                .queue_capacity(256)
                .admission(admission)
                .batch(policy),
            &format!("deadline batch, {}", admission.name()),
        );
    }
}

#[test]
fn service_report_modeled_metrics_match_offline_batch() {
    // End to end: the report's modeled fold equals measure_batch on the
    // same frames at any worker count (same merge law as the BatchEngine).
    let system = system(BitcellKind::multiport(4).unwrap());
    let batch = frames(36, 29);
    let mut offline = system.clone();
    let expected = offline.measure_batch(&batch).unwrap();
    for workers in [1, 3, 5] {
        let service = EsamService::start(&system, ServeConfig::with_workers(workers));
        let tickets: Vec<Ticket> = batch
            .iter()
            .map(|f| service.submit(f.clone()).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.modeled, Some(expected), "{workers} workers");
    }
}
