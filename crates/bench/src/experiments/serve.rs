//! Serving experiment: latency/throughput of the `esam-serve` micro-batching
//! service under closed-loop and open-loop load.
//!
//! Like `batch`, this measures the *simulator as a system*,
//! not the modeled silicon: the paper-default 768:256:256:256:10 cascade
//! (untrained, seed-initialized — no dataset, no training) is put behind
//! the concurrent service and driven by the deterministic load generator.
//! Three questions, three measurements:
//!
//! 1. **Tax of serving** — closed-loop throughput vs the offline
//!    `BatchEngine` on the same frames and worker count. The acceptance
//!    bar is ≥ 80 %: queue + tickets + micro-batching must not eat the
//!    parallel speedup.
//! 2. **Latency under load** — p50/p95/p99 wall latency plus the modeled
//!    cycle-domain latency (a workload invariant: it must not move when
//!    only the serving layer changes).
//! 3. **Overload behaviour** — open-loop Poisson arrivals at under / at /
//!    over capacity against a bounded queue with `Reject` admission: the
//!    over-capacity point must shed load (nonzero rejects) instead of
//!    growing an unbounded queue.
//!
//! `repro serve --json` emits one machine-readable object per run for
//! cross-PR comparison.

use std::time::{Duration, Instant};

use esam_core::{BatchConfig, BatchEngine, EsamSystem, SystemConfig};
use esam_nn::{BnnNetwork, SnnModel};
use esam_serve::{AdmissionPolicy, BatchPolicy, EsamService, LoadGenerator, LoadMode, ServeConfig};
use esam_sram::BitcellKind;

use crate::{BenchError, Table};

/// One open-loop offered-load point.
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Load label: "under", "at" or "over" (relative to measured capacity).
    pub label: &'static str,
    /// Offered arrival rate (requests/s).
    pub offered_rps: f64,
    /// Completions per second actually achieved.
    pub achieved_rps: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests dropped by backpressure.
    pub dropped: u64,
    /// Rejected / offered.
    pub reject_rate: f64,
    /// Wall-latency quantiles.
    pub p50: Duration,
    /// 95th percentile wall latency.
    pub p95: Duration,
    /// 99th percentile wall latency.
    pub p99: Duration,
    /// Highest queue depth observed.
    pub peak_queue_depth: usize,
}

/// The closed-loop (capacity) measurement.
#[derive(Debug, Clone)]
pub struct ClosedLoopPoint {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests completed.
    pub requests: u64,
    /// Sustained completions per second.
    pub throughput_rps: f64,
    /// Closed-loop throughput / offline batch throughput.
    pub fraction_of_offline: f64,
    /// Wall-latency quantiles.
    pub p50: Duration,
    /// 95th percentile wall latency.
    pub p95: Duration,
    /// 99th percentile wall latency.
    pub p99: Duration,
    /// Median modeled cascade cycles per request.
    pub cycles_p50: u64,
    /// 99th-percentile modeled cascade cycles per request.
    pub cycles_p99: u64,
    /// Modeled dynamic energy per request (pJ).
    pub energy_per_request_pj: f64,
    /// Mean micro-batch size dispatched to the workers.
    pub mean_batch_size: f64,
}

/// Results of the serving experiment.
#[derive(Debug, Clone)]
pub struct ServeResults {
    /// Worker pipelines (and offline engine threads).
    pub workers: usize,
    /// Queue capacity of the open-loop (overload) points.
    pub queue_capacity: usize,
    /// Offline `BatchEngine` wall throughput on the same frames/workers.
    pub offline_frames_per_s: f64,
    /// The closed-loop capacity point.
    pub closed: ClosedLoopPoint,
    /// Open-loop points: under, at and over capacity.
    pub open: Vec<OpenLoopPoint>,
}

/// Runs the serving experiment: `samples` scales the request counts,
/// `max_threads` caps the worker pool (0 = available parallelism).
///
/// # Errors
///
/// Propagates model-construction and batch-measurement errors.
pub fn serve_results(samples: usize, max_threads: usize) -> Result<ServeResults, BenchError> {
    let workers = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        max_threads
    };
    let topology = [768usize, 256, 256, 256, 10];
    let net = BnnNetwork::new(&topology, 0xE5A)?;
    let model = SnnModel::from_bnn(&net)?;
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &topology).build()?;
    let system = EsamSystem::from_model(&model, &config)?;

    let generator = LoadGenerator::synthetic(topology[0], 64, 0xE5A);
    let requests = (samples.max(1) * 8).max(64 * workers);

    // 1. Offline reference: the BatchEngine on the identical workload.
    let offered: Vec<_> = (0..requests).map(|i| generator.frame(i).clone()).collect();
    let mut engine = BatchEngine::new(&system, &BatchConfig::with_threads(workers));
    let start = Instant::now();
    engine.measure(&offered)?;
    let offline_wall = start.elapsed();
    let offline_frames_per_s = requests as f64 / offline_wall.as_secs_f64();

    // 2. Closed loop: capacity + best-case latency through the service.
    let clients = workers * 2;
    let service = EsamService::start(
        &system,
        ServeConfig::with_workers(workers)
            .queue_capacity(4 * clients.max(8))
            .admission(AdmissionPolicy::Block)
            .batch(BatchPolicy::greedy(8)),
    );
    let load = generator.run(&service, LoadMode::ClosedLoop { clients }, requests);
    let report = service.shutdown();
    let closed = ClosedLoopPoint {
        clients,
        requests: load.completed,
        throughput_rps: report.throughput_rps,
        fraction_of_offline: report.throughput_rps / offline_frames_per_s,
        p50: report.wall.p50,
        p95: report.wall.p95,
        p99: report.wall.p99,
        cycles_p50: report.cycles.p50,
        cycles_p99: report.cycles.p99,
        energy_per_request_pj: report.energy_per_request.map_or(0.0, |e| e.pj()),
        mean_batch_size: report.mean_batch_size,
    };

    // 3. Open loop at under / at / over capacity, bounded queue + Reject.
    let capacity_rps = closed.throughput_rps;
    let queue_capacity = 64;
    let mut open = Vec::new();
    for (label, factor) in [("under", 0.5), ("at", 0.9), ("over", 1.6)] {
        let rate = capacity_rps * factor;
        let service = EsamService::start(
            &system,
            ServeConfig::with_workers(workers)
                .queue_capacity(queue_capacity)
                .admission(AdmissionPolicy::Reject)
                .batch(BatchPolicy::greedy(8)),
        );
        let load = generator.run(&service, LoadMode::OpenLoop { rate_rps: rate }, requests);
        let report = service.shutdown();
        open.push(OpenLoopPoint {
            label,
            offered_rps: rate,
            achieved_rps: load.achieved_rps,
            offered: load.offered,
            completed: load.completed,
            rejected: load.rejected,
            dropped: load.dropped,
            reject_rate: load.reject_rate(),
            p50: report.wall.p50,
            p95: report.wall.p95,
            p99: report.wall.p99,
            peak_queue_depth: report.peak_queue_depth,
        });
    }

    Ok(ServeResults {
        workers,
        queue_capacity,
        offline_frames_per_s,
        closed,
        open,
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Renders the human-readable tables.
pub fn serve_table(results: &ServeResults) -> Table {
    let mut table = Table::new(
        "Serving — esam-serve micro-batching service, paper-default 4-port system",
        &[
            "scenario",
            "offered [req/s]",
            "achieved [req/s]",
            "p50 [µs]",
            "p95 [µs]",
            "p99 [µs]",
            "rejected",
            "note",
        ],
    );
    table.row_owned(vec![
        "offline batch".into(),
        "-".into(),
        format!("{:.0}", results.offline_frames_per_s),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{} engine threads (reference)", results.workers),
    ]);
    let c = &results.closed;
    table.row_owned(vec![
        "closed loop".into(),
        "self-limited".into(),
        format!("{:.0}", c.throughput_rps),
        format!("{:.1}", us(c.p50)),
        format!("{:.1}", us(c.p95)),
        format!("{:.1}", us(c.p99)),
        "0".into(),
        format!(
            "{} clients, {:.0}% of offline, batch {:.2}, cycles p50/p99 {}/{}",
            c.clients,
            100.0 * c.fraction_of_offline,
            c.mean_batch_size,
            c.cycles_p50,
            c.cycles_p99
        ),
    ]);
    for p in &results.open {
        table.row_owned(vec![
            format!("open {}", p.label),
            format!("{:.0}", p.offered_rps),
            format!("{:.0}", p.achieved_rps),
            format!("{:.1}", us(p.p50)),
            format!("{:.1}", us(p.p95)),
            format!("{:.1}", us(p.p99)),
            format!("{} ({:.1}%)", p.rejected, 100.0 * p.reject_rate),
            format!("peak queue {}", p.peak_queue_depth),
        ]);
    }
    table.note("closed loop measures sustainable capacity; open-loop rates are fractions of it against a bounded queue with Reject admission — over capacity the service sheds load instead of queueing unboundedly");
    table.note("wall latency includes queueing + batching; modeled cycle-domain latency is a workload invariant (it must not move when only the serving layer changes)");
    table
}

/// Renders the results as one machine-readable JSON object (hand-rolled:
/// the workspace is offline and serde is not vendored).
pub fn serve_json(results: &ServeResults) -> String {
    let c = &results.closed;
    let open: Vec<String> = results
        .open
        .iter()
        .map(|p| {
            format!(
                "{{\"load\":\"{}\",\"offered_rps\":{:.1},\"achieved_rps\":{:.1},\"offered\":{},\"completed\":{},\"rejected\":{},\"dropped\":{},\"reject_rate\":{:.4},\"p50_us\":{:.2},\"p95_us\":{:.2},\"p99_us\":{:.2},\"peak_queue_depth\":{}}}",
                p.label,
                p.offered_rps,
                p.achieved_rps,
                p.offered,
                p.completed,
                p.rejected,
                p.dropped,
                p.reject_rate,
                us(p.p50),
                us(p.p95),
                us(p.p99),
                p.peak_queue_depth
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"serve\",\"workers\":{},\"queue_capacity\":{},\"offline_frames_per_s\":{:.1},\"closed_loop\":{{\"clients\":{},\"requests\":{},\"throughput_rps\":{:.1},\"fraction_of_offline\":{:.4},\"p50_us\":{:.2},\"p95_us\":{:.2},\"p99_us\":{:.2},\"cycles_p50\":{},\"cycles_p99\":{},\"energy_per_request_pj\":{:.2},\"mean_batch_size\":{:.3}}},\"open_loop\":[{}]}}",
        results.workers,
        results.queue_capacity,
        results.offline_frames_per_s,
        c.clients,
        c.requests,
        c.throughput_rps,
        c.fraction_of_offline,
        us(c.p50),
        us(c.p95),
        us(c.p99),
        c.cycles_p50,
        c.cycles_p99,
        c.energy_per_request_pj,
        c.mean_batch_size,
        open.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_runs_and_covers_the_load_axis() {
        // Small but real: the shape must hold even at smoke scale.
        let results = serve_results(8, 2).unwrap();
        assert_eq!(results.workers, 2);
        assert!(results.offline_frames_per_s > 0.0);
        assert!(results.closed.throughput_rps > 0.0);
        assert!(results.closed.requests > 0);
        assert!(results.closed.p99 >= results.closed.p50);
        assert!(results.closed.cycles_p99 >= results.closed.cycles_p50);
        assert!(results.closed.cycles_p50 > 0, "finite modeled latency");
        assert!(results.closed.energy_per_request_pj > 0.0);
        assert_eq!(results.open.len(), 3);
        let over = results.open.last().unwrap();
        assert_eq!(over.label, "over");
        assert!(
            over.offered_rps > results.open[0].offered_rps,
            "load axis ascends"
        );
        // Conservation at every point.
        for p in &results.open {
            assert_eq!(
                p.completed + p.rejected + p.dropped,
                p.offered,
                "{}",
                p.label
            );
        }
        let table = serve_table(&results);
        assert_eq!(table.row_count(), 5);
    }

    #[test]
    fn json_is_structurally_sound() {
        let results = serve_results(4, 2).unwrap();
        let json = serve_json(&results);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"experiment\":\"serve\""));
        assert!(json.contains("\"closed_loop\""));
        assert!(json.contains("\"open_loop\""));
        assert_eq!(json.matches("\"load\"").count(), 3);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
