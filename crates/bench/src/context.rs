//! Shared experiment context: the trained network and dataset.
//!
//! The system-level experiments (Fig. 8, Table 3, accuracy) all need the
//! same expensive artifact — a BNN trained on the synthetic digit set and
//! converted to a binary SNN. [`ExperimentContext`] builds it once;
//! [`Fidelity::Quick`] trims the training budget for benches and smoke runs
//! while keeping the paper's exact topology.

use esam_bits::BitVec;
use esam_nn::{BnnNetwork, Dataset, DigitsConfig, SnnModel, TrainConfig, TrainReport, Trainer};
use esam_tech::calibration::paper;

use crate::BenchError;

/// How much training budget to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Full budget (`repro` without `--quick`): ~4k samples, 12 epochs.
    #[default]
    Full,
    /// Reduced budget for benches/tests: ~1.2k samples, 5 epochs.
    Quick,
}

/// Trained model + dataset shared across system-level experiments.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    dataset: Dataset,
    network: BnnNetwork,
    model: SnnModel,
    train_report: TrainReport,
    fidelity: Fidelity,
}

impl ExperimentContext {
    /// Builds the context: generate data, train the 768:256:256:256:10 BNN,
    /// convert to an SNN.
    ///
    /// # Errors
    ///
    /// Propagates dataset/training/conversion errors.
    pub fn prepare(fidelity: Fidelity) -> Result<Self, BenchError> {
        let digits = match fidelity {
            Fidelity::Full => DigitsConfig::default(),
            Fidelity::Quick => DigitsConfig {
                train_count: 1200,
                test_count: 400,
                ..DigitsConfig::default()
            },
        };
        let train = match fidelity {
            Fidelity::Full => TrainConfig::default(),
            Fidelity::Quick => TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
        };
        let dataset = Dataset::generate(&digits)?;
        let mut network = BnnNetwork::new(&paper::NETWORK_TOPOLOGY, 42)?;
        let train_report = Trainer::new(train).train(&mut network, &dataset.train)?;
        let model = SnnModel::from_bnn(&network)?;
        Ok(Self {
            dataset,
            network,
            model,
            train_report,
            fidelity,
        })
    }

    /// The synthetic digit dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The trained BNN.
    pub fn network(&self) -> &BnnNetwork {
        &self.network
    }

    /// The converted binary-SNN model.
    pub fn model(&self) -> &SnnModel {
        &self.model
    }

    /// Training statistics.
    pub fn train_report(&self) -> &TrainReport {
        &self.train_report
    }

    /// Fidelity used.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The first `n` test images as spike frames (all of them when `n` is
    /// larger than the split).
    pub fn test_frames(&self, n: usize) -> Vec<BitVec> {
        let count = n.min(self.dataset.test.len());
        (0..count).map(|i| self.dataset.test.spikes(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_trains_usably() {
        let context = ExperimentContext::prepare(Fidelity::Quick).unwrap();
        assert_eq!(context.model().topology(), paper::NETWORK_TOPOLOGY.to_vec());
        assert!(
            context.train_report().final_accuracy() > 0.8,
            "quick training reached only {}",
            context.train_report().final_accuracy()
        );
        assert_eq!(context.test_frames(5).len(), 5);
        assert_eq!(context.test_frames(10_000).len(), 400);
    }
}
