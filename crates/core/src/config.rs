//! System-level configuration.

use esam_arbiter::EncoderStructure;
use esam_neuron::NeuronConfig;
use esam_sram::{ArrayConfig, BitcellKind};
use esam_tech::calibration::paper;
use esam_tech::units::Volts;

use crate::error::CoreError;

/// Maximum SRAM array dimension (the NBL yield rule of §4.1 limits ESAM to
/// 128×128 arrays).
pub const ARRAY_DIM: usize = 128;

/// Configuration of a full multi-tile ESAM system.
///
/// # Examples
///
/// ```
/// use esam_core::SystemConfig;
/// use esam_sram::BitcellKind;
///
/// // The paper's 768:256:256:256:10 system on 4-port cells.
/// let config = SystemConfig::paper_default(BitcellKind::multiport(4).unwrap());
/// assert_eq!(config.topology(), &[768, 256, 256, 256, 10]);
/// assert_eq!(config.grants_per_arbiter(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    cell: BitcellKind,
    topology: Vec<usize>,
    vdd: Volts,
    vprech: Volts,
    neuron: NeuronConfig,
    arbiter_structure: EncoderStructure,
}

impl SystemConfig {
    /// Starts building a configuration for the given cell and topology
    /// (`topology[0]` is the input width).
    pub fn builder(cell: BitcellKind, topology: &[usize]) -> SystemConfigBuilder {
        SystemConfigBuilder {
            config: SystemConfig {
                cell,
                topology: topology.to_vec(),
                vdd: Volts::from_mv(paper::VDD_MV),
                vprech: Volts::from_mv(paper::VPRECH_MV),
                neuron: NeuronConfig::paper_default(),
                arbiter_structure: EncoderStructure::Tree { base_width: 16 },
            },
        }
    }

    /// The paper's §4.4.2 system: 768:256:256:256:10, 700 mV / 500 mV,
    /// 128-wide 4-port tree arbiters.
    pub fn paper_default(cell: BitcellKind) -> Self {
        Self::builder(cell, &paper::NETWORK_TOPOLOGY)
            .build()
            .expect("the paper's system configuration is always valid")
    }

    /// The bitcell kind used by every array.
    pub fn cell(&self) -> BitcellKind {
        self.cell
    }

    /// Layer widths including the input.
    pub fn topology(&self) -> &[usize] {
        &self.topology
    }

    /// Supply voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Decoupled-port precharge rail.
    pub fn vprech(&self) -> Volts {
        self.vprech
    }

    /// Neuron datapath configuration.
    pub fn neuron(&self) -> NeuronConfig {
        self.neuron
    }

    /// Arbiter encoder structure (tree with 16-wide bases by default, §3.3).
    pub fn arbiter_structure(&self) -> EncoderStructure {
        self.arbiter_structure
    }

    /// Spikes each 128-wide arbiter can grant per cycle — the cell's
    /// inference parallelism (1 for the 6T baseline through its RW port).
    pub fn grants_per_arbiter(&self) -> usize {
        self.cell.inference_parallelism()
    }

    /// The SRAM array configuration for a `rows × cols` block of this
    /// system.
    ///
    /// # Errors
    ///
    /// Propagates [`esam_sram::SramError`] for invalid dimensions.
    pub fn array_config(&self, rows: usize, cols: usize) -> Result<ArrayConfig, CoreError> {
        Ok(ArrayConfig::builder(rows, cols, self.cell)
            .vdd(self.vdd)
            .vprech(self.vprech)
            .build()?)
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.topology.len() < 2 {
            return Err(CoreError::InvalidConfig(
                "topology needs an input width and at least one layer".into(),
            ));
        }
        if self.topology.contains(&0) {
            return Err(CoreError::InvalidConfig(
                "layer widths must be non-zero".into(),
            ));
        }
        // Every block an ESAM tile instantiates must satisfy the NBL rule;
        // checking the widest block suffices (128×128 or smaller edge
        // blocks, which are strictly easier to write).
        self.array_config(ARRAY_DIM, ARRAY_DIM)?;
        Ok(())
    }
}

/// Sharding plan for the parallel batch engine
/// ([`BatchEngine`](crate::batch::BatchEngine)).
///
/// `threads` is the number of worker pipelines (independent clones of the
/// tile cascade, mirroring how the multi-core architectures the paper's
/// related work replicates compute tiles); `chunk_size` is the number of
/// consecutive frames a worker claims from the shared queue at a time.
/// Neither parameter affects *results* — the engine's counter merge is
/// exact for any partition (see [`TileStats::merge`](crate::TileStats)) —
/// only wall-clock scheduling.
///
/// # Examples
///
/// ```
/// use esam_core::BatchConfig;
///
/// let auto = BatchConfig::default();          // all available cores
/// assert!(auto.threads() >= 1);
/// let fixed = BatchConfig::with_threads(4);   // explicit worker count
/// assert_eq!(fixed.threads(), 4);
/// assert_eq!(BatchConfig::sequential().threads(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    threads: usize,
    chunk_size: usize,
}

impl BatchConfig {
    /// A plan using `threads` workers and automatic chunk sizing.
    ///
    /// `threads` is clamped to at least 1.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk_size: 0,
        }
    }

    /// The single-threaded plan (the sequential reference path).
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// Sets the number of consecutive frames a worker claims at a time
    /// (0 = automatic: balances queue contention against tail latency).
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Number of worker pipelines.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Frames claimed per queue pop; resolves the automatic setting for a
    /// batch of `frames` frames served by `workers` worker pipelines (which
    /// may be fewer than [`threads`](Self::threads) — the engine clamps
    /// state-carrying workloads to one worker).
    pub fn effective_chunk_size(&self, frames: usize, workers: usize) -> usize {
        if self.chunk_size > 0 {
            return self.chunk_size;
        }
        // Automatic: ~4 chunks per worker bounds idle tails at the end of
        // the batch while keeping queue traffic negligible.
        (frames / (workers.max(1) * 4)).max(1)
    }
}

impl Default for BatchConfig {
    /// One worker per available hardware thread.
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(threads)
    }
}

/// Builder for [`SystemConfig`] (`C-BUILDER`).
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    config: SystemConfig,
}

impl SystemConfigBuilder {
    /// Sets the decoupled-port precharge rail (default 500 mV).
    pub fn vprech(mut self, vprech: Volts) -> Self {
        self.config.vprech = vprech;
        self
    }

    /// Sets the neuron datapath configuration.
    pub fn neuron(mut self, neuron: NeuronConfig) -> Self {
        self.config.neuron = neuron;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for malformed parameters, or a
    /// propagated SRAM error when the voltages/cell violate array rules.
    pub fn build(self) -> Result<SystemConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_for_all_cells() {
        for cell in BitcellKind::ALL {
            let config = SystemConfig::paper_default(cell);
            assert_eq!(config.topology(), &[768, 256, 256, 256, 10]);
            assert_eq!(config.grants_per_arbiter(), cell.inference_parallelism());
        }
    }

    #[test]
    fn invalid_topologies_rejected() {
        let cell = BitcellKind::Std6T;
        assert!(SystemConfig::builder(cell, &[768]).build().is_err());
        assert!(SystemConfig::builder(cell, &[768, 0, 10]).build().is_err());
    }

    #[test]
    fn bad_voltages_propagate_from_sram_rules() {
        let cell = BitcellKind::multiport(2).unwrap();
        let result = SystemConfig::builder(cell, &[128, 10])
            .vprech(Volts::from_mv(100.0))
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn builder_customization() {
        let config = SystemConfig::builder(BitcellKind::multiport(1).unwrap(), &[256, 128, 10])
            .build()
            .unwrap();
        assert_eq!(config.topology(), &[256, 128, 10]);
    }

    #[test]
    fn array_config_inherits_voltages() {
        let config = SystemConfig::paper_default(BitcellKind::multiport(4).unwrap());
        let array = config.array_config(128, 10).unwrap();
        assert_eq!(array.vdd(), config.vdd());
        assert_eq!(array.cols(), 10);
    }
}
