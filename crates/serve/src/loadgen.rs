//! Deterministic load generation: open-loop Poisson-like arrivals and
//! closed-loop clients.
//!
//! Reproducibility is the point: the *offered* workload — which frames, in
//! which order, at which target arrival offsets — is a pure function of the
//! generator's seed and configuration (ChaCha8 streams, like every other
//! randomized component in the workspace). Wall-clock outcomes still vary
//! with the machine, but two runs offer byte-identical request sequences,
//! so latency/throughput comparisons across PRs measure the serving layer,
//! not workload drift.
//!
//! * **Open loop** ([`LoadMode::OpenLoop`]) — arrivals follow a Poisson
//!   process (exponential inter-arrival gaps) at a target rate,
//!   independent of completions. This is the mode that exposes overload:
//!   the generator keeps offering at rate λ even when the service can't
//!   keep up, so the bounded queue and admission policy must answer.
//! * **Closed loop** ([`LoadMode::ClosedLoop`]) — N clients each keep
//!   exactly one request in flight. Offered load self-limits to service
//!   capacity; this measures sustainable throughput and best-case latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use esam_bits::BitVec;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::error::ServeError;
use crate::service::EsamService;
use crate::Ticket;

/// How the generator offers load to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Poisson-like arrivals at `rate_rps` requests/second, independent of
    /// completions (overload-capable).
    OpenLoop {
        /// Target offered rate (requests per second, > 0).
        rate_rps: f64,
    },
    /// `clients` concurrent clients, each with one request in flight
    /// (self-limiting).
    ClosedLoop {
        /// Concurrent clients (clamped to at least 1).
        clients: usize,
    },
}

/// Outcome counts of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests the generator attempted to submit.
    pub offered: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Admitted requests evicted by backpressure.
    pub dropped: u64,
    /// Requests whose execution failed.
    pub failed: u64,
    /// First submission attempt → last ticket resolution.
    pub elapsed: Duration,
    /// The open-loop target rate (0 for closed loop).
    pub offered_rps: f64,
    /// Completions per second over `elapsed`.
    pub achieved_rps: f64,
    /// Completed predictions per class — a determinism fingerprint: two
    /// runs over the same frames must agree wherever both completed the
    /// same requests.
    pub predictions: Vec<u64>,
}

impl LoadReport {
    /// Fraction of offered requests refused at admission.
    pub fn reject_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.offered as f64
    }

    /// Fraction of offered requests that never completed (rejected,
    /// dropped or failed).
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.offered - self.completed) as f64 / self.offered as f64
    }
}

/// A deterministic, seeded source of request traffic.
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    frames: Vec<BitVec>,
    seed: u64,
}

impl LoadGenerator {
    /// A generator cycling through `frames` in order (request `i` carries
    /// `frames[i % frames.len()]`); `seed` drives only the arrival process.
    ///
    /// # Panics
    ///
    /// Panics when `frames` is empty.
    pub fn new(frames: Vec<BitVec>, seed: u64) -> Self {
        assert!(!frames.is_empty(), "a load generator needs frames to send");
        Self { frames, seed }
    }

    /// A generator over `count` deterministic ~20 %-density synthetic
    /// frames of the given width (ChaCha-seeded, reproducible).
    pub fn synthetic(width: usize, count: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let frames = (0..count.max(1))
            .map(|_| (0..width).map(|_| rng.random_bool(0.2)).collect())
            .collect();
        Self::new(frames, seed)
    }

    /// The frame request `i` carries.
    pub fn frame(&self, i: usize) -> &BitVec {
        &self.frames[i % self.frames.len()]
    }

    /// Number of distinct frames cycled through.
    pub fn distinct_frames(&self) -> usize {
        self.frames.len()
    }

    /// The distinct frames themselves (request `i` carries
    /// `frames()[i % frames().len()]`) — lets an experiment replay the
    /// exact offered workload through an offline path for comparison.
    pub fn frames(&self) -> &[BitVec] {
        &self.frames
    }

    /// The deterministic open-loop arrival schedule: offsets (from the run
    /// start) at which each of `requests` submissions is due, drawn as
    /// exponential gaps at `rate_rps` from this generator's seed.
    pub fn arrival_schedule(&self, rate_rps: f64, requests: usize) -> Vec<Duration> {
        let rate = rate_rps.max(1e-9);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x4C4F_4144);
        let mut at = 0.0f64;
        (0..requests)
            .map(|_| {
                let u: f64 = rng.random();
                // Inverse-CDF exponential gap; clamp u away from 1 so the
                // log stays finite.
                at += -(1.0 - u.min(1.0 - 1e-12)).ln() / rate;
                Duration::from_secs_f64(at)
            })
            .collect()
    }

    /// Offers `requests` requests to `service` under `mode` and blocks
    /// until every resulting ticket resolves.
    ///
    /// Open loop submits on the precomputed
    /// [`arrival_schedule`](Self::arrival_schedule) (short waits spin to
    /// keep sub-millisecond pacing honest) and must not be combined with
    /// [`AdmissionPolicy::Block`](crate::AdmissionPolicy::Block) — a
    /// blocked producer would distort the arrival process into a closed
    /// loop. Closed loop spawns the clients as scoped threads.
    pub fn run(&self, service: &EsamService, mode: LoadMode, requests: usize) -> LoadReport {
        match mode {
            LoadMode::OpenLoop { rate_rps } => self.run_open_loop(service, rate_rps, requests),
            LoadMode::ClosedLoop { clients } => self.run_closed_loop(service, clients, requests),
        }
    }

    fn run_open_loop(&self, service: &EsamService, rate_rps: f64, requests: usize) -> LoadReport {
        let schedule = self.arrival_schedule(rate_rps, requests);
        let classes = service.output_classes();
        let mut tickets: Vec<(usize, Ticket)> = Vec::with_capacity(requests);
        let mut rejected = 0u64;
        let mut failed = 0u64;
        // Only submissions actually attempted count as offered: a
        // mid-schedule ShuttingDown break must not report never-offered
        // requests as lost (the conservation invariant).
        let mut offered = 0u64;
        let start = Instant::now();
        for (i, due) in schedule.iter().enumerate() {
            wait_until(start, *due);
            offered += 1;
            match service.submit(self.frame(i).clone()) {
                Ok(ticket) => tickets.push((i, ticket)),
                Err(ServeError::Rejected) => rejected += 1,
                Err(ServeError::ShuttingDown) => {
                    offered -= 1;
                    break;
                }
                Err(_) => failed += 1,
            }
        }
        let admitted = tickets.len() as u64;
        let mut completed = 0u64;
        let mut dropped = 0u64;
        let mut predictions = vec![0u64; classes];
        for (_, ticket) in tickets {
            match ticket.wait() {
                Ok(response) => {
                    completed += 1;
                    if response.prediction < predictions.len() {
                        predictions[response.prediction] += 1;
                    }
                }
                Err(ServeError::Dropped) => dropped += 1,
                Err(_) => failed += 1,
            }
        }
        let elapsed = start.elapsed();
        LoadReport {
            offered,
            admitted,
            completed,
            rejected,
            dropped,
            failed,
            elapsed,
            offered_rps: rate_rps,
            achieved_rps: rate(completed, elapsed),
            predictions,
        }
    }

    fn run_closed_loop(
        &self,
        service: &EsamService,
        clients: usize,
        requests: usize,
    ) -> LoadReport {
        let clients = clients.max(1);
        let classes = service.output_classes();
        let completed = AtomicU64::new(0);
        let rejected = AtomicU64::new(0);
        let dropped = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        let admitted = AtomicU64::new(0);
        let predictions: Vec<AtomicU64> = (0..classes).map(|_| AtomicU64::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..clients {
                let completed = &completed;
                let rejected = &rejected;
                let dropped = &dropped;
                let failed = &failed;
                let admitted = &admitted;
                let predictions = &predictions;
                scope.spawn(move || {
                    // Client `c` sends requests c, c + clients, c + 2·clients, …
                    // — a fixed partition, so the offered sequence is
                    // independent of scheduling.
                    let mut i = client;
                    while i < requests {
                        match service.submit(self.frame(i).clone()) {
                            Ok(ticket) => {
                                admitted.fetch_add(1, Ordering::Relaxed);
                                match ticket.wait() {
                                    Ok(response) => {
                                        completed.fetch_add(1, Ordering::Relaxed);
                                        if let Some(slot) = predictions.get(response.prediction) {
                                            slot.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    Err(ServeError::Dropped) => {
                                        dropped.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(_) => {
                                        failed.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(ServeError::Rejected) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        i += clients;
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        let completed = completed.into_inner();
        LoadReport {
            offered: requests as u64,
            admitted: admitted.into_inner(),
            completed,
            rejected: rejected.into_inner(),
            dropped: dropped.into_inner(),
            failed: failed.into_inner(),
            elapsed,
            offered_rps: 0.0,
            achieved_rps: rate(completed, elapsed),
            predictions: predictions.into_iter().map(AtomicU64::into_inner).collect(),
        }
    }
}

fn rate(count: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    count as f64 / elapsed.as_secs_f64()
}

/// Sleeps (coarsely) then yields (finely) until `start + due`. Yielding
/// instead of spinning keeps sub-millisecond pacing honest without
/// starving the worker threads on machines with few cores.
fn wait_until(start: Instant, due: Duration) {
    let target = start + due;
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let remaining = target - now;
        if remaining > Duration::from_millis(1) {
            std::thread::sleep(remaining - Duration::from_micros(500));
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EsamService, ServeConfig};
    use esam_core::{EsamSystem, SystemConfig};
    use esam_nn::{BnnNetwork, SnnModel};
    use esam_sram::BitcellKind;

    fn small_system() -> EsamSystem {
        let net = BnnNetwork::new(&[128, 64, 10], 11).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
            .build()
            .unwrap();
        EsamSystem::from_model(&model, &config).unwrap()
    }

    #[test]
    fn schedule_is_deterministic_and_increasing() {
        let generator = LoadGenerator::synthetic(128, 8, 42);
        let a = generator.arrival_schedule(10_000.0, 100);
        let b = generator.arrival_schedule(10_000.0, 100);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        let mean_gap = a.last().unwrap().as_secs_f64() / 100.0;
        assert!(
            (mean_gap - 1e-4).abs() < 5e-5,
            "mean gap {mean_gap} should be near 100 µs at 10 krps"
        );
        let other = LoadGenerator::synthetic(128, 8, 43).arrival_schedule(10_000.0, 100);
        assert_ne!(a, other, "different seed, different schedule");
    }

    #[test]
    fn synthetic_frames_are_deterministic() {
        let a = LoadGenerator::synthetic(128, 16, 9);
        let b = LoadGenerator::synthetic(128, 16, 9);
        assert_eq!(a.distinct_frames(), 16);
        for i in 0..32 {
            assert_eq!(a.frame(i), b.frame(i));
        }
    }

    #[test]
    fn closed_loop_completes_everything() {
        let service = EsamService::start(&small_system(), ServeConfig::with_workers(2));
        let generator = LoadGenerator::synthetic(128, 16, 3);
        let report = generator.run(&service, LoadMode::ClosedLoop { clients: 4 }, 60);
        assert_eq!(report.offered, 60);
        assert_eq!(report.completed, 60);
        assert_eq!(report.rejected + report.dropped + report.failed, 0);
        assert!(report.achieved_rps > 0.0);
        assert_eq!(report.predictions.iter().sum::<u64>(), 60);
        assert_eq!(report.loss_rate(), 0.0);
        service.shutdown();
    }

    #[test]
    fn open_loop_resolves_every_ticket() {
        let service = EsamService::start(&small_system(), ServeConfig::with_workers(2));
        let generator = LoadGenerator::synthetic(128, 16, 5);
        // A rate comfortably above anything 2 workers on a tiny system
        // can't absorb — Block admission would throttle, so use the
        // default capacity which is large enough for 50 requests anyway.
        let report = generator.run(&service, LoadMode::OpenLoop { rate_rps: 50_000.0 }, 50);
        assert_eq!(report.offered, 50);
        assert_eq!(
            report.completed + report.rejected + report.dropped + report.failed,
            50
        );
        assert_eq!(report.offered_rps, 50_000.0);
        service.shutdown();
    }
}
