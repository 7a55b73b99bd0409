//! The serve side of the integrity ladder: SECDED-checked workers under
//! transient weight upsets with the oracle restore disabled, exact
//! integrity tallies at any worker count, and health-driven quarantine
//! (drain + re-clone from the pristine template) when uncorrectable
//! events pile up.

use std::collections::BTreeMap;
use std::time::Duration;

use esam_bits::BitVec;
use esam_core::{EsamSystem, SystemConfig};
use esam_nn::{BnnNetwork, SnnModel};
use esam_serve::{
    BatchPolicy, EsamService, FaultConfig, FaultPlan, HealthPolicy, IntegrityMode, IntegrityTally,
    Response, ServeConfig, ServeError, Ticket,
};
use esam_sram::BitcellKind;

fn small_system() -> EsamSystem {
    let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
        .build()
        .unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

fn frame(seed: usize) -> BitVec {
    BitVec::from_indices(
        128,
        &[seed % 128, (seed * 7 + 3) % 128, (seed * 31 + 9) % 128],
    )
}

fn serve_all(service: &EsamService, count: usize) -> BTreeMap<u64, Result<Response, ServeError>> {
    let tickets: Vec<Ticket> = (0..count)
        .map(|i| service.submit(frame(i)).expect("admitted"))
        .collect();
    tickets
        .into_iter()
        .map(|ticket| (ticket.id(), ticket.wait()))
        .collect()
}

#[test]
fn correct_mode_recovers_exact_results_without_the_oracle() {
    // Transient flips stay in the arrays (no oracle restore) at a rate
    // where every struck row takes a single-bit upset — SECDED territory.
    // Every served response must be bit-identical to the *fault-free*
    // reference: correction is complete, not approximate.
    let plan = FaultPlan::seeded(41, FaultConfig::none().with_weight_flip_rate(5e-5));
    let service = EsamService::start(
        &small_system(),
        ServeConfig::with_workers(2)
            .faults(plan)
            .integrity(IntegrityMode::Correct),
    );
    let outcomes = serve_all(&service, 64);
    let mut clean = small_system();
    for (id, outcome) in &outcomes {
        let response = outcome.as_ref().expect("served");
        let expected = clean.infer(&frame(*id as usize)).unwrap();
        assert_eq!(response.prediction, expected.prediction, "request {id}");
        assert_eq!(response.logits, expected.logits, "request {id}");
        assert_eq!(response.membranes, expected.membranes, "request {id}");
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 64);
    assert!(report.fault_tally.weight_flips > 0, "upsets were injected");
    assert!(report.integrity.corrected > 0, "and corrected on read");
    assert_eq!(report.integrity.silent, 0, "nothing slipped past SECDED");
    assert_eq!(
        report.integrity.uncorrectable(),
        0,
        "single-bit upsets never escalate past correction"
    );
    assert_eq!(report.quarantines, 0, "healthy workers stay in service");
    assert!(report.to_string().contains("integrity:"));
}

#[test]
fn integrity_off_is_bit_identical_to_the_unprotected_service() {
    // Off must delegate to the oracle-restore path exactly — the same
    // responses and the same fault tally as a service that never heard
    // of integrity, with every integrity counter at zero.
    let plan = FaultPlan::seeded(
        13,
        FaultConfig::none()
            .with_weight_flip_rate(2e-3)
            .with_membrane_flip_rate(5e-2),
    );
    let mut sequential = small_system();
    sequential.set_fault_plan(plan).unwrap();
    let expected: Vec<_> = (0..48)
        .map(|id| sequential.infer_checked(&frame(id), id as u64).unwrap())
        .collect();
    let service = EsamService::start(
        &small_system(),
        ServeConfig::with_workers(3)
            .faults(plan)
            .integrity(IntegrityMode::Off),
    );
    let outcomes = serve_all(&service, 48);
    for (id, outcome) in &outcomes {
        let response = outcome.as_ref().expect("served");
        let reference = &expected[*id as usize];
        assert_eq!(response.prediction, reference.prediction, "request {id}");
        assert_eq!(response.logits, reference.logits);
        assert_eq!(response.membranes, reference.membranes);
    }
    let report = service.shutdown();
    assert_eq!(report.integrity, IntegrityTally::default());
    assert_eq!(report.quarantines, 0);
    assert!(!report.to_string().contains("integrity:"));
}

#[test]
fn a_lane_wide_batch_under_transient_faults_is_served_per_request() {
    // One worker and a 128-request size trigger with a 5 s straggler
    // budget: all 128 requests dispatch as one batch, wide enough for the
    // block kernel. Transient flips strike per frame and integrity checks
    // per read, which the block kernel cannot reproduce, so every request
    // must still run through `infer_checked` under its own id — with the
    // oracle restore (Off) and with the SECDED ladder (Correct) alike.
    let plan = FaultPlan::seeded(23, FaultConfig::none().with_weight_flip_rate(2e-3));
    let mut clean = small_system();
    for mode in [IntegrityMode::Off, IntegrityMode::Correct] {
        // Set up as `EsamService::start` sets up its template: the plan
        // first, then the mode.
        let mut reference = small_system();
        reference.set_fault_plan(plan).unwrap();
        reference.set_integrity_mode(mode);
        reference.reset_stats();
        let service = EsamService::start(
            &small_system(),
            ServeConfig::with_workers(1)
                .batch(BatchPolicy::new(128, Duration::from_secs(5)))
                .faults(plan)
                .integrity(mode),
        );
        let outcomes = serve_all(&service, 128);
        let mut moved_by_faults = 0;
        for (id, outcome) in &outcomes {
            let response = outcome.as_ref().expect("served");
            let expected = reference.infer_checked(&frame(*id as usize), *id).unwrap();
            assert_eq!(response.prediction, expected.prediction, "{mode:?} {id}");
            assert_eq!(response.logits, expected.logits, "{mode:?} {id}");
            assert_eq!(response.membranes, expected.membranes, "{mode:?} {id}");
            assert_eq!(response.pipeline_cycles, expected.total_cycles());
            assert_eq!(response.batch_size, 128, "{mode:?} {id}");
            let unfaulted = clean.infer(&frame(*id as usize)).unwrap();
            moved_by_faults += usize::from(response.membranes != unfaulted.membranes);
        }
        let report = service.shutdown();
        assert_eq!(report.batches, 1, "{mode:?}: one size-triggered batch");
        assert_eq!(report.completed, 128);
        assert_eq!(report.fault_tally, *reference.fault_tally(), "{mode:?}");
        assert_eq!(report.integrity, reference.integrity_tally(), "{mode:?}");
        if mode == IntegrityMode::Off {
            // The flips stay visible without checking, so a batch wrongly
            // sent down the block kernel would fail the asserts above.
            assert!(moved_by_faults > 0, "the plan must move some response");
        }
    }
}

#[test]
fn integrity_tally_is_identical_at_any_worker_count() {
    // The upset coordinate is the request id and the scrub runs after
    // every frame, so the folded IntegrityTally is a pure function of
    // (seed, request ids) — worker count and batch composition must not
    // move a single counter.
    let plan = FaultPlan::seeded(97, FaultConfig::none().with_weight_flip_rate(1e-3));
    let mut reports = Vec::new();
    let mut responses: Option<BTreeMap<u64, (usize, Vec<f32>)>> = None;
    for workers in [1usize, 4] {
        let service = EsamService::start(
            &small_system(),
            ServeConfig::with_workers(workers)
                .faults(plan)
                .integrity(IntegrityMode::Correct)
                .health(HealthPolicy::uncorrectable_limit(u64::MAX)),
        );
        let outcomes = serve_all(&service, 56);
        let digest: BTreeMap<u64, (usize, Vec<f32>)> = outcomes
            .into_iter()
            .map(|(id, outcome)| {
                let response = outcome.expect("served");
                (id, (response.prediction, response.logits))
            })
            .collect();
        match &responses {
            None => responses = Some(digest),
            Some(first) => assert_eq!(first, &digest, "{workers} workers"),
        }
        reports.push(service.shutdown());
    }
    let tallies: Vec<IntegrityTally> = reports.iter().map(|r| r.integrity).collect();
    assert!(tallies[0].checked_reads > 0);
    assert!(tallies[0].corrected > 0);
    assert_eq!(tallies[0], tallies[1], "1 worker vs 4 workers");
    // The limitless policy never fires, at any partition of the traffic.
    assert!(reports.iter().all(|r| r.quarantines == 0));
}

#[test]
fn uncorrectable_strikes_quarantine_the_worker_and_traffic_survives() {
    // A rate hot enough to land double-bit rows: those reads are
    // detected-uncorrectable, the scrub reloads the rows from the golden
    // image, and the health monitor drains the worker. Every ticket
    // still resolves, and the quarantine ledger lines up with the
    // uncorrectable events that drove it.
    let plan = FaultPlan::seeded(7, FaultConfig::none().with_weight_flip_rate(8e-3));
    let service = EsamService::start(
        &small_system(),
        ServeConfig::with_workers(2)
            .faults(plan)
            .integrity(IntegrityMode::Correct)
            .health(HealthPolicy::uncorrectable_limit(2)),
    );
    let outcomes = serve_all(&service, 72);
    for outcome in outcomes.values() {
        assert!(outcome.is_ok(), "quarantine never fails a ticket");
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 72);
    assert!(
        report.integrity.uncorrectable() > 0,
        "the rate lands double-bit rows"
    );
    assert!(report.quarantines > 0, "the monitor drained workers");
    assert!(
        report.quarantines <= report.integrity.uncorrectable() / 2,
        "each quarantine consumed at least the policy limit of strikes"
    );
    let text = report.to_string();
    assert!(text.contains("integrity:"));
    assert!(text.contains("quarantines"));
}

#[test]
fn quarantine_schedule_is_deterministic_per_worker() {
    // With one worker the observation stream is the full request order,
    // so the quarantine count itself is reproducible run to run.
    let plan = FaultPlan::seeded(7, FaultConfig::none().with_weight_flip_rate(8e-3));
    let run_once = || {
        let service = EsamService::start(
            &small_system(),
            ServeConfig::with_workers(1)
                .faults(plan)
                .integrity(IntegrityMode::Correct)
                .health(HealthPolicy::uncorrectable_limit(1)),
        );
        let outcomes = serve_all(&service, 40);
        assert!(outcomes.values().all(Result::is_ok));
        let report = service.shutdown();
        (report.quarantines, report.integrity)
    };
    let (quarantines, tally) = run_once();
    assert!(quarantines > 0);
    // One quarantine per *observation* with a strike — a single request
    // can land several uncorrectable rows, so this is a bound, not an
    // identity.
    assert!(quarantines <= tally.uncorrectable());
    assert_eq!((quarantines, tally), run_once());
}
