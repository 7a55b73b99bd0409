//! Serving layer for the ESAM system model: a concurrent inference service
//! with bounded admission, dynamic micro-batching and latency SLO metrics.
//!
//! The offline [`BatchEngine`](esam_core::BatchEngine) answers "how fast
//! can we chew through a pre-materialized corpus"; this crate answers the
//! production question the ROADMAP's north star asks — what happens when
//! the same pipelined cascade sits behind *streaming request traffic*. The
//! pieces, front to back:
//!
//! 1. [`RequestQueue`] — a bounded queue with an [`AdmissionPolicy`]
//!    (block / reject / drop-oldest) as the backpressure boundary: offered
//!    load beyond capacity is shed at the front door instead of growing an
//!    unbounded buffer.
//! 2. [`BatchPolicy`] — the size-or-deadline micro-batching trigger:
//!    workers pull whatever is queued, up to `max_batch`, waiting at most
//!    `max_wait` for stragglers.
//! 3. [`EsamService`] — the worker pool: N cheap clones of the tile
//!    cascade (weights shared behind `Arc`, as in the offline engine),
//!    each fulfilling per-request [`Ticket`]s.
//! 4. [`ServiceReport`] — latency histograms (p50/p95/p99 in wall time
//!    *and* modeled pipeline cycles), throughput over the busy window,
//!    admission counters, and modeled energy per request folded from the
//!    workers' spike-by-spike counters.
//! 5. [`LoadGenerator`] — deterministic ChaCha-seeded traffic: open-loop
//!    Poisson-like arrivals (overload-capable) and closed-loop clients
//!    (capacity-seeking), so serving experiments are reproducible.
//!
//! Everything is `std` only (`Mutex`/`Condvar`/threads — no async
//! runtime), and served responses are **bit-identical** to sequential
//! [`EsamSystem::infer`](esam_core::EsamSystem::infer) on the same frames
//! regardless of worker count, batching policy or admission pressure.
//!
//! The service is also *supervised*: a deterministic
//! [`FaultPlan`] installed via
//! [`ServeConfig::faults`] injects reproducible worker panics, stalls and
//! SRAM-domain bit faults, and the recovery ladder — bounded retry →
//! worker restart from a pristine template → deadline shed — resolves
//! every admitted ticket no matter what (poisoned locks are recovered, a
//! request unwinding out of a crashed worker completes its ticket from a
//! drop guard). Restart/retry/shed counters surface in [`ServiceReport`].
//!
//! # Examples
//!
//! ```
//! use esam_core::{EsamSystem, SystemConfig};
//! use esam_nn::{BnnNetwork, SnnModel};
//! use esam_serve::{EsamService, LoadGenerator, LoadMode, ServeConfig};
//! use esam_sram::BitcellKind;
//!
//! let net = BnnNetwork::new(&[128, 32, 10], 7)?;
//! let model = SnnModel::from_bnn(&net)?;
//! let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 32, 10])
//!     .build()?;
//! let system = EsamSystem::from_model(&model, &config)?;
//!
//! let service = EsamService::start(&system, ServeConfig::with_workers(2));
//! let generator = LoadGenerator::synthetic(128, 16, 42);
//! let load = generator.run(&service, LoadMode::ClosedLoop { clients: 4 }, 64);
//! assert_eq!(load.completed, 64);
//! let report = service.shutdown();
//! assert_eq!(report.completed, 64);
//! assert!(report.wall.p99 >= report.wall.p50);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod error;
pub mod health;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod service;
mod sync;

pub use batcher::BatchPolicy;
pub use error::ServeError;
pub use esam_core::{IntegrityMode, IntegrityTally};
pub use esam_fault::{FaultConfig, FaultPlan, FaultTally};
pub use esam_obs::{TimeDomain, Trace, TraceConfig};
pub use health::{HealthMonitor, HealthPolicy, HealthVerdict};
pub use loadgen::{LoadGenerator, LoadMode, LoadReport};
pub use metrics::{CycleSummary, LatencyHistogram, LatencySummary};
pub use queue::{AdmissionPolicy, QueueCounters, RequestQueue};
pub use request::{Response, Ticket};
pub use service::{EsamService, ServeConfig, ServiceReport, SERVE_TRACE_PID};
