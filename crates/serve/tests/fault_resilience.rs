//! Serve-domain fault battery: supervised workers under injected panics
//! and stalls, deadline shed, retry exhaustion, and bit-identity of
//! served responses across worker counts while faults fire.

use std::collections::BTreeMap;
use std::sync::Once;
use std::time::Duration;

use esam_bits::BitVec;
use esam_core::{EsamSystem, SystemConfig};
use esam_nn::{BnnNetwork, SnnModel};
use esam_serve::{
    AdmissionPolicy, EsamService, FaultConfig, FaultPlan, LoadGenerator, LoadMode, Response,
    ServeConfig, ServeError, Ticket,
};
use esam_sram::BitcellKind;

/// Injected worker panics are part of these tests' happy path — silence
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
                .is_some_and(|message| message.starts_with("injected worker fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

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

#[test]
fn worker_panics_recover_with_zero_lost_tickets() {
    quiet_injected_panics();
    let system = small_system();
    let plan = FaultPlan::seeded(21, FaultConfig::none().with_worker_panic_rate(0.2));
    let service = EsamService::start(
        &system,
        ServeConfig::with_workers(3).faults(plan).max_retries(8),
    );
    let tickets: Vec<Ticket> = (0..80)
        .map(|i| service.submit(frame(i)).expect("admitted"))
        .collect();
    // Every ticket resolves — none is lost to a crashed worker — and panic
    // faults do not perturb the inference itself, so successes are
    // bit-identical to the clean sequential reference.
    let mut reference = system.clone();
    let mut completed = 0u64;
    let mut failed = 0u64;
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Ok(response) => {
                completed += 1;
                let expected = reference.infer(&frame(i)).unwrap();
                assert_eq!(response.prediction, expected.prediction, "request {i}");
                assert_eq!(response.logits, expected.logits, "request {i}");
            }
            Err(ServeError::RetriesExhausted { attempts }) => {
                failed += 1;
                assert_eq!(attempts, 9, "the whole retry budget was consumed");
            }
            Err(other) => panic!("unexpected outcome for request {i}: {other}"),
        }
    }
    let report = service.shutdown();
    assert_eq!(report.admitted, 80);
    assert_eq!(report.completed, completed);
    assert_eq!(report.failed, failed);
    assert_eq!(report.completed + report.failed, 80, "zero lost tickets");
    assert!(
        completed > 0,
        "a 20 % panic rate must let most traffic through"
    );
    assert!(report.worker_restarts > 0, "panics must have fired");
    assert_eq!(
        report.retries + failed,
        report.worker_restarts,
        "every restart re-enqueued its request except the budget-exhausting one"
    );
}

#[test]
fn closed_loop_under_panics_conserves_every_request() {
    quiet_injected_panics();
    let plan = FaultPlan::seeded(5, FaultConfig::none().with_worker_panic_rate(0.15));
    let service = EsamService::start(
        &small_system(),
        ServeConfig::with_workers(2).faults(plan).max_retries(10),
    );
    let generator = LoadGenerator::synthetic(128, 16, 42);
    let load = generator.run(&service, LoadMode::ClosedLoop { clients: 4 }, 64);
    assert_eq!(load.offered, 64);
    assert_eq!(load.admitted, 64);
    assert_eq!(
        load.completed + load.failed,
        64,
        "closed-loop conservation under worker panics"
    );
    let report = service.shutdown();
    assert!(report.worker_restarts > 0);
    assert_eq!(report.completed, load.completed);
}

#[test]
fn faulted_responses_are_identical_across_worker_counts() {
    quiet_injected_panics();
    let plan = FaultPlan::seeded(
        13,
        FaultConfig::none()
            .with_weight_flip_rate(2e-3)
            .with_membrane_flip_rate(5e-2)
            .with_worker_panic_rate(0.1),
    );
    let frames: Vec<BitVec> = (0..48).map(frame).collect();
    // Sequential ground truth: the fault coordinate is the request id, so
    // worker count, batching and retries cannot move the injected sites.
    let mut sequential = small_system();
    sequential.set_fault_plan(plan).unwrap();
    let expected: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(id, f)| sequential.infer_checked(f, id as u64).unwrap())
        .collect();
    let mut baseline: Option<BTreeMap<u64, Result<Response, ServeError>>> = None;
    for workers in [1usize, 2, 4] {
        let service = EsamService::start(
            &small_system(),
            ServeConfig::with_workers(workers)
                .faults(plan)
                .max_retries(6),
        );
        let tickets: Vec<Ticket> = frames
            .iter()
            .map(|f| service.submit(f.clone()).expect("admitted"))
            .collect();
        let outcomes: BTreeMap<u64, Result<Response, ServeError>> = tickets
            .into_iter()
            .map(|ticket| (ticket.id(), ticket.wait()))
            .collect();
        for (id, outcome) in &outcomes {
            if let Ok(response) = outcome {
                let reference = &expected[*id as usize];
                assert_eq!(
                    response.prediction, reference.prediction,
                    "{workers} workers, request {id}"
                );
                assert_eq!(response.logits, reference.logits);
                assert_eq!(response.membranes, reference.membranes);
            }
        }
        match &baseline {
            None => baseline = Some(outcomes),
            Some(reference) => {
                for (id, outcome) in &outcomes {
                    let expected = &reference[id];
                    // Outcome kind and payload both reproduce: the panic
                    // schedule is keyed on (id, attempt), not on threads.
                    match (outcome, expected) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.prediction, b.prediction);
                            assert_eq!(a.logits, b.logits);
                            assert_eq!(a.membranes, b.membranes);
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "request {id}"),
                        _ => panic!("request {id} diverged at {workers} workers"),
                    }
                }
            }
        }
        service.shutdown();
    }
}

#[test]
fn certain_panics_exhaust_the_retry_budget() {
    quiet_injected_panics();
    let plan = FaultPlan::seeded(3, FaultConfig::none().with_worker_panic_rate(1.0));
    let service = EsamService::start(
        &small_system(),
        ServeConfig::with_workers(1).faults(plan).max_retries(2),
    );
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| service.submit(frame(i)).expect("admitted"))
        .collect();
    for ticket in tickets {
        assert_eq!(
            ticket.wait(),
            Err(ServeError::RetriesExhausted { attempts: 3 })
        );
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 0);
    assert_eq!(report.failed, 6);
    assert_eq!(report.worker_restarts, 18, "3 attempts x 6 requests");
    assert_eq!(report.retries, 12, "2 re-enqueues per request");
}

#[test]
fn deadline_budget_sheds_stale_requests() {
    let service = EsamService::start(
        &small_system(),
        ServeConfig::with_workers(1)
            .admission(AdmissionPolicy::Block)
            .deadline(Duration::ZERO),
    );
    let tickets: Vec<Ticket> = (0..10)
        .map(|i| service.submit(frame(i)).expect("admitted"))
        .collect();
    for ticket in tickets {
        assert_eq!(ticket.wait(), Err(ServeError::DeadlineExceeded));
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 0);
    assert_eq!(report.deadline_shed, 10);
    assert_eq!(report.failed, 10, "shed requests count as failed");
}

#[test]
fn stalls_inject_latency_not_errors() {
    let plan = FaultPlan::seeded(
        17,
        FaultConfig::none().with_worker_stall(1.0, Duration::from_millis(2)),
    );
    let service = EsamService::start(&small_system(), ServeConfig::with_workers(2).faults(plan));
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| service.submit(frame(i)).expect("admitted"))
        .collect();
    for ticket in tickets {
        let response = ticket.wait().expect("stalls never fail a request");
        assert!(response.wall_latency >= Duration::from_millis(2));
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 8);
    assert_eq!(report.worker_stalls, 8, "one certain stall per attempt");
    assert_eq!(report.worker_restarts, 0);
    assert!(report.wall.p50 >= Duration::from_millis(2));
}

#[test]
fn sram_faults_flow_into_the_service_report() {
    let plan = FaultPlan::seeded(
        29,
        FaultConfig::none()
            .with_weight_flip_rate(5e-3)
            .with_membrane_flip_rate(0.2),
    );
    let service = EsamService::start(&small_system(), ServeConfig::with_workers(2).faults(plan));
    let tickets: Vec<Ticket> = (0..32)
        .map(|i| service.submit(frame(i)).expect("admitted"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("SRAM faults perturb, never crash");
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 32);
    assert!(report.fault_tally.weight_flips > 0, "flips were injected");
    assert!(
        report.fault_tally.membrane_flips > 0,
        "upsets were injected"
    );
    let text = report.to_string();
    assert!(text.contains("weight flips"), "resilience line renders");
}
