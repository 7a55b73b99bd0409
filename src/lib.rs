//! **esam** — a from-scratch Rust reproduction of *ESAM: Energy-efficient
//! SNN Architecture using 3nm FinFET Multiport SRAM-based CIM with Online
//! Learning* (Huijbregts et al., DAC 2024).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`bits`] — packed bit vectors/matrices (request vectors, weights).
//! * [`tech`] — 3nm FinFET device/wire/variation/write-assist models.
//! * [`sram`] — the transposable multiport SRAM macro (§3.2).
//! * [`arbiter`] — the cascaded priority-encoder spike arbiter (§3.3).
//! * [`neuron`] — the integrate-and-fire neuron array (§3.4).
//! * [`nn`] — BNN training, the synthetic digit set, BNN→SNN conversion and
//!   stochastic STDP.
//! * [`core`] — tiles, the cascaded system, the spike-by-spike simulator,
//!   the parallel batch engine, metrics, the online-learning engine and the
//!   adder-tree baseline.
//! * [`fault`] — deterministic fault injection: ChaCha-seeded fault plans
//!   whose keyed-hash site decisions are order- and thread-count-
//!   independent (the resilience layer's oracle).
//! * [`mesh`] — the multi-core mesh: layer/column sharding across cores,
//!   pipeline-parallel inference over bounded channels, and a cycle-modeled
//!   interconnect.
//! * [`obs`] — the observability layer: a deterministic dual-domain tracer
//!   (wall time + modeled cycles, fixed-capacity per-thread rings, exact
//!   merge), a unified metrics registry, and Chrome-trace/Prometheus/JSON
//!   exporters.
//! * [`serve`] — the concurrent inference service: bounded admission,
//!   dynamic micro-batching, worker pool, latency SLO metrics and
//!   deterministic load generation.
//! * [`logic`] — gate-level netlists, event-driven simulation, STA and VCD
//!   dumping (structural arbiter/neuron verification).
//! * [`circuit`] — MNA transient solver for RC networks (the Spectre
//!   substitute cross-checking the analytical timing models).
//!
//! # Quickstart
//!
//! ```
//! use esam::prelude::*;
//!
//! // A small 2-layer binary SNN on the 4-port CIM system.
//! let net = BnnNetwork::new(&[128, 32, 10], 7)?;
//! let model = SnnModel::from_bnn(&net)?;
//! let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 32, 10])
//!     .build()?;
//! let mut system = EsamSystem::from_model(&model, &config)?;
//! let result = system.infer(&BitVec::from_indices(128, &[4, 9, 77]))?;
//! assert!(result.prediction < 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for end-to-end digit classification, online learning
//! under distribution shift, and design-space exploration; `ARCHITECTURE.md`
//! for the architecture; and the README's "Which `repro` id reproduces
//! what" for the experiment behind each paper artifact and the synthetic
//! digit set that stands in for MNIST.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use esam_arbiter as arbiter;
pub use esam_bits as bits;
pub use esam_circuit as circuit;
pub use esam_core as core;
pub use esam_fault as fault;
pub use esam_logic as logic;
pub use esam_mesh as mesh;
pub use esam_neuron as neuron;
pub use esam_nn as nn;
pub use esam_obs as obs;
pub use esam_serve as serve;
pub use esam_sram as sram;
pub use esam_tech as tech;

/// The most common imports in one place.
pub mod prelude {
    pub use esam_arbiter::{EncoderStructure, MultiPortArbiter};
    pub use esam_bits::{BitMatrix, BitVec, FrameBlock};
    pub use esam_core::{
        BatchConfig, BatchEngine, EsamSystem, InferenceResult, LearningCost, LearningCurve,
        OnlineLearningEngine, OnlineSession, PipelineTiming, SystemConfig, SystemMetrics, Tile,
    };
    pub use esam_fault::{FaultConfig, FaultPlan, FaultTally};
    pub use esam_mesh::{MeshConfig, MeshMetrics, MeshPlan, MeshSystem};
    pub use esam_neuron::{IfNeuron, NeuronArray, NeuronConfig};
    pub use esam_nn::{
        BnnNetwork, Dataset, DigitsConfig, SnnModel, StdpRule, TeacherSignal, TrainConfig, Trainer,
    };
    pub use esam_obs::{MetricsRegistry, TimeDomain, Trace, TraceConfig, TrackTrace};
    pub use esam_serve::{
        AdmissionPolicy, BatchPolicy, EsamService, LoadGenerator, LoadMode, ServeConfig,
        ServiceReport,
    };
    pub use esam_sram::{ArrayConfig, BitcellKind, SramArray};
    pub use esam_tech::units::{Joules, Seconds, Volts, Watts};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_the_workspace() {
        use crate::prelude::*;
        let cell = BitcellKind::multiport(4).unwrap();
        assert_eq!(cell.inference_parallelism(), 4);
        let v = BitVec::from_indices(8, &[1]);
        assert!(v.is_one_hot());
    }
}
