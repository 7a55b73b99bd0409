//! Accuracy evaluation utilities.

use esam_bits::BitVec;

use crate::bnn::BnnNetwork;
use crate::convert::SnnModel;
use crate::dataset::Split;
use crate::error::NnError;

/// A 10-class confusion matrix (`rows` = true label, `cols` = prediction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Creates an empty `classes × classes` matrix.
    pub fn new(classes: usize) -> Self {
        Self {
            counts: vec![vec![0; classes]; classes],
        }
    }

    /// Records one (truth, prediction) observation.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range labels.
    pub fn record(&mut self, truth: usize, prediction: usize) {
        self.counts[truth][prediction] += 1;
    }

    /// Count at (truth, prediction).
    pub fn count(&self, truth: usize, prediction: usize) -> usize {
        self.counts[truth][prediction]
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total: usize = self.counts.iter().flatten().sum();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.counts.len()).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Total recorded observations.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }
}

/// Streaming accuracy accumulator for online-learning curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunningAccuracy {
    seen: u64,
    correct: u64,
}

impl RunningAccuracy {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction outcome.
    pub fn record(&mut self, correct: bool) {
        self.seen += 1;
        self.correct += u64::from(correct);
    }

    /// Samples observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Correct predictions so far.
    pub fn correct(&self) -> u64 {
        self.correct
    }

    /// Accuracy over everything observed (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        self.correct as f64 / self.seen as f64
    }
}

/// Evaluates the BNN on a dataset split.
///
/// # Errors
///
/// Propagates dimension mismatches from [`BnnNetwork::classify`].
pub fn evaluate_bnn(net: &BnnNetwork, split: &Split) -> Result<ConfusionMatrix, NnError> {
    let mut matrix = ConfusionMatrix::new(net.output_width());
    for (image, label) in split.iter() {
        matrix.record(label as usize, net.classify(image)?);
    }
    Ok(matrix)
}

/// Evaluates the converted SNN (golden functional model) on a split.
///
/// # Errors
///
/// Propagates dimension mismatches from [`SnnModel::classify`].
pub fn evaluate_snn(model: &SnnModel, split: &Split) -> Result<ConfusionMatrix, NnError> {
    let classes = model.topology().last().copied().unwrap_or(0);
    let mut matrix = ConfusionMatrix::new(classes);
    for i in 0..split.len() {
        let spikes: BitVec = split.spikes(i);
        matrix.record(split.label(i) as usize, model.classify(&spikes)?);
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DigitsConfig};

    #[test]
    fn confusion_matrix_accounting() {
        let mut m = ConfusionMatrix::new(3);
        m.record(0, 0);
        m.record(0, 1);
        m.record(2, 2);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.total(), 3);
        assert!((m.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ConfusionMatrix::new(2).accuracy(), 0.0);
    }

    #[test]
    fn running_accuracy_counts_exactly() {
        let mut a = RunningAccuracy::new();
        a.record(true);
        a.record(false);
        a.record(true);
        assert_eq!(a.seen(), 3);
        assert_eq!(a.correct(), 2);
        assert!((a.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(RunningAccuracy::default().accuracy(), 0.0);
    }

    #[test]
    fn bnn_and_snn_agree_on_accuracy() {
        let data = Dataset::generate(&DigitsConfig {
            train_count: 10,
            test_count: 40,
            ..DigitsConfig::default()
        })
        .unwrap();
        let net = BnnNetwork::new(&[768, 24, 10], 9).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let bnn_eval = evaluate_bnn(&net, &data.test).unwrap();
        let snn_eval = evaluate_snn(&model, &data.test).unwrap();
        assert_eq!(bnn_eval.accuracy(), snn_eval.accuracy());
        assert_eq!(bnn_eval.total(), 40);
    }
}
