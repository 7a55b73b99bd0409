//! ESAM system model: tiles, cascade, spike-by-spike simulation, metrics,
//! online learning and baselines.
//!
//! This crate assembles the substrates — multiport SRAM macros
//! ([`esam_sram`]), priority-encoder arbiters ([`esam_arbiter`]), IF neurons
//! ([`esam_neuron`]) and converted binary-SNN models ([`esam_nn`]) — into the
//! full accelerator of the paper's Fig. 2 and evaluates it the way §4.1
//! describes: a spike-by-spike simulation whose access counters, combined
//! with the circuit-level timing/energy models, yield system throughput,
//! energy per inference, power and area (Fig. 8, Table 3).
//!
//! Heavy batch workloads go through the [`batch::BatchEngine`], which
//! shards frames across worker clones of the tile cascade and merges their
//! counters exactly — parallel measurements are bit-identical to the
//! sequential walk at any thread count (see [`metrics`] for the merge
//! law).
//!
//! Online learning is a first-class workload, not just a costed micro-op,
//! and it has one path: [`EsamSystem::learn_sample`] closes the loop for a
//! sample (infer → teacher derivation → transposed-port STDP), and
//! [`OnlineSession`] streams labelled samples through it and records an
//! accuracy-over-samples [`LearningCurve`]. Samples are learned one at a
//! time, as the paper's chip learns them: each update changes the weights
//! the next sample is inferred with.
//!
//! # Examples
//!
//! Build a system, measure a batch sequentially, then re-measure it on the
//! parallel [`BatchEngine`] — the results are bit-identical (this example
//! *runs* under `cargo test`; it uses a small untrained network so it
//! finishes in milliseconds — substitute `SystemConfig::paper_default` and
//! a [`Trainer`](esam_nn::Trainer)-trained network for the paper's full
//! 768:256:256:256:10 system, as the `repro` binary does):
//!
//! ```
//! use esam_bits::BitVec;
//! use esam_core::{BatchConfig, BatchEngine, EsamSystem, SystemConfig};
//! use esam_nn::{BnnNetwork, SnnModel};
//! use esam_sram::BitcellKind;
//!
//! let net = BnnNetwork::new(&[128, 32, 10], 42)?;
//! let model = SnnModel::from_bnn(&net)?;
//! let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 32, 10])
//!     .build()?;
//! let mut system = EsamSystem::from_model(&model, &config)?;
//!
//! let frames: Vec<BitVec> = (0..24)
//!     .map(|i| BitVec::from_indices(128, &[i, (i * 7) % 128, (i * 31) % 128]))
//!     .collect();
//! let sequential = system.measure_batch(&frames)?;
//!
//! let mut engine = BatchEngine::new(&system, &BatchConfig::with_threads(4));
//! assert_eq!(engine.measure(&frames)?, sequential); // bit-identical merge
//! println!("{sequential}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder_tree;
pub mod baselines;
pub mod batch;
pub mod cascade;
pub mod config;
pub mod error;
pub mod learning;
pub mod metrics;
pub mod pipeline;
pub mod system;
pub mod tile;

pub use adder_tree::{energy_crossover, sparsity_sweep, AdderTreeMacro, SparsityPoint};
pub use batch::BatchEngine;
pub use config::{BatchConfig, SystemConfig, SystemConfigBuilder, ARRAY_DIM};
pub use error::CoreError;
pub use esam_obs::TrackTrace;
pub use esam_sram::{IntegrityMode, IntegrityTally, RowVerdict};
pub use learning::{
    CurvePoint, LearningCost, LearningCurve, OnlineLearningEngine, OnlineSession, SampleOutcome,
};
pub use metrics::{BatchTally, LearningSummary, LearningTally, SystemMetrics};
pub use pipeline::{PipelineStage, PipelineTiming};
pub use system::{EsamSystem, InferenceResult};
pub use tile::{Tile, TileStats, TileWeights};
