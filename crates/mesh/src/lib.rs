//! Multi-core ESAM mesh: sharded networks with pipeline-parallel inference
//! over a cycle-modeled interconnect.
//!
//! The single-core [`EsamSystem`](esam_core::EsamSystem) walks one frame
//! through its whole tile cascade before touching the next. This crate
//! scales that model *out*: a [`MeshPlan`] shards the cascade across N
//! cores — contiguous layer runs, or [`ARRAY_DIM`](esam_core::ARRAY_DIM)-
//! aligned column slices of wide layers when cores outnumber layers — and
//! a [`MeshSystem`] runs the shards as a pipeline, core *k* serving frame
//! *t* while core *k+1* serves frame *t−1*. Inter-core spike traffic
//! crosses a modeled interconnect ([`LinkConfig`]) that charges hop
//! latency plus AER serialization in the same cycle domain as
//! `PipelineTiming`, and per-link activity ([`LinkStats`]) obeys the same
//! exact `u64` merge law as the tile counters.
//!
//! Execution is bit-exact by layered construction: the threaded
//! [`Execution::Pipelined`] mode and the retained [`Execution::Sequential`]
//! walk run the same per-core handlers (identical results and counters by
//! construction), and both reproduce the plain single-core system's
//! outputs exactly. Cores hand each other up to 64 consecutive frames per
//! packet and walk each frame with the single-core cascade walk, so
//! eligible tiles run the closed-form frame kernel. See
//! `tests/mesh_equivalence.rs` for the pinned contract and `crate::system`
//! for the hand-off format and the accounting model.
//!
//! The mesh is also *fault-tolerant*: a deterministic
//! [`FaultPlan`] installed via
//! [`MeshConfig::faults`] injects reproducible packet drops and delays,
//! core stalls, and (pipelined only) mid-batch core deaths. Lost frames
//! ride through the pipeline as lockstep markers and are re-run on a
//! fault-exempt sequential recovery pass, panicking core threads are
//! contained and fully joined, and a sink-side
//! [`link_timeout`](MeshConfig::link_timeout) guards liveness — so every
//! run still returns exact results for the full batch, with the fault and
//! recovery counters folded into [`MeshTally`].
//!
//! # Example
//!
//! ```
//! use esam_bits::BitVec;
//! use esam_core::SystemConfig;
//! use esam_mesh::{MeshConfig, MeshSystem};
//! use esam_nn::{BnnNetwork, SnnModel};
//! use esam_sram::BitcellKind;
//!
//! let topology = [128, 64, 32, 10];
//! let net = BnnNetwork::new(&topology, 42)?;
//! let model = SnnModel::from_bnn(&net)?;
//! let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &topology).build()?;
//! let mut mesh = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(3))?;
//!
//! let frames: Vec<BitVec> = (0..96)
//!     .map(|i| BitVec::from_indices(128, &[i % 128, (i * 7) % 128, (i * 31) % 128]))
//!     .collect();
//! let metrics = mesh.measure(&frames)?;
//! println!("{metrics}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod crc;
pub mod metrics;
pub mod noc;
pub mod plan;
pub mod spsc;
pub mod system;

pub use config::{Execution, LinkConfig, MeshConfig};
pub use core::MeshCore;
pub use crc::crc32_words;
pub use esam_fault::{FaultConfig, FaultPlan, FaultTally};
pub use esam_obs::{TimeDomain, Trace, TraceConfig};
pub use metrics::{MeshMetrics, MeshTally};
pub use noc::LinkStats;
pub use plan::{MeshPlan, StagePlan};
pub use system::{MeshSystem, MAX_RETRANSMITS, MESH_TRACE_PID};
