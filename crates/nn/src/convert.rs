//! BNN → Binary-SNN conversion (§4.4.2, ref \[15\]).
//!
//! The trained BNN maps onto the ESAM hardware as follows:
//!
//! * binary weights `±1` become SRAM bits (`+1 → 1`, `−1 → 0`) — the bitline
//!   decode at the neuron turns them back into `±1` (§3.4);
//! * per-neuron biases become integer firing thresholds. With `{0,1}`
//!   activations, `z_j = S_j + b_j` where `S_j` is the ±1 accumulation over
//!   *firing* inputs only; since `S_j` is an integer,
//!   `z_j ≥ 0 ⇔ S_j ≥ ⌈−b_j⌉`, so `V_th,j = ⌈−b_j⌉` makes the SNN
//!   *bit-exact* with the BNN;
//! * the output layer is read out as membrane potentials: adding back the
//!   real-valued biases reproduces the logits, and argmax matches the BNN
//!   prediction exactly.

use esam_bits::{BitMatrix, BitVec};

use crate::bnn::{argmax, BnnNetwork};
use crate::error::NnError;
use crate::matrix::Matrix;

/// One converted layer: synapse bits plus integer thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct SnnLayer {
    bits: BitMatrix,
    thresholds: Vec<i32>,
}

impl SnnLayer {
    /// Synapse bits: `bits[pre][post]` — rows are pre-synaptic neurons
    /// (SRAM wordlines), columns post-synaptic neurons (SRAM bitlines),
    /// matching Fig. 1(b).
    pub fn bits(&self) -> &BitMatrix {
        &self.bits
    }

    /// Integer firing thresholds per post-synaptic neuron.
    pub fn thresholds(&self) -> &[i32] {
        &self.thresholds
    }

    /// Fan-in (pre-synaptic width).
    pub fn inputs(&self) -> usize {
        self.bits.rows()
    }

    /// Fan-out (post-synaptic width).
    pub fn outputs(&self) -> usize {
        self.bits.cols()
    }
}

/// The converted Binary-SNN model, ready to be loaded into ESAM tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SnnModel {
    layers: Vec<SnnLayer>,
    output_bias: Vec<f32>,
}

/// Reference (golden) result of one SNN forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SnnTrace {
    /// Spike frames per layer (`spikes[0]` is the input frame).
    pub spikes: Vec<BitVec>,
    /// Output-layer membrane potentials.
    pub membranes: Vec<i32>,
    /// Logits reconstructed as `membrane + bias`.
    pub logits: Vec<f32>,
}

impl SnnTrace {
    /// Argmax class prediction.
    pub fn prediction(&self) -> usize {
        argmax(&self.logits)
    }
}

impl SnnModel {
    /// Converts a trained BNN.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] if the BNN has no layers.
    pub fn from_bnn(net: &BnnNetwork) -> Result<Self, NnError> {
        if net.layers().is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let layers = net
            .layers()
            .iter()
            .map(|layer| {
                let bits = packed_bits(layer.latent());
                let thresholds = layer
                    .bias()
                    .iter()
                    .map(|&b| (-f64::from(b)).ceil() as i32)
                    .collect();
                SnnLayer { bits, thresholds }
            })
            .collect();
        Ok(Self {
            layers,
            output_bias: net
                .layers()
                .last()
                .expect("non-empty network")
                .bias()
                .to_vec(),
        })
    }

    /// The converted layers.
    pub fn layers(&self) -> &[SnnLayer] {
        &self.layers
    }

    /// Output-layer biases used by the readout.
    pub fn output_bias(&self) -> &[f32] {
        &self.output_bias
    }

    /// Layer widths including the input.
    pub fn topology(&self) -> Vec<usize> {
        let mut sizes = vec![self.layers[0].inputs()];
        sizes.extend(self.layers.iter().map(|l| l.outputs()));
        sizes
    }

    /// Checks that every threshold fits a `bits`-bit signed register
    /// (the neuron's `t`-bit `V_th` register, §3.4).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ThresholdOverflow`] for the first offender.
    pub fn check_threshold_registers(&self, bits: u8) -> Result<(), NnError> {
        let max = (1i32 << (bits - 1)) - 1;
        let min = -(1i32 << (bits - 1));
        for layer in &self.layers {
            for &t in layer.thresholds() {
                if t > max || t < min {
                    return Err(NnError::ThresholdOverflow { threshold: t, bits });
                }
            }
        }
        Ok(())
    }

    /// Golden functional forward pass: integer ±1 accumulation over firing
    /// inputs, threshold compare per hidden layer, membrane readout at the
    /// output. The hardware simulator is tested bit-exact against this.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] for a wrong input width.
    pub fn forward(&self, input: &BitVec) -> Result<SnnTrace, NnError> {
        if input.len() != self.layers[0].inputs() {
            return Err(NnError::DimensionMismatch {
                expected: self.layers[0].inputs(),
                got: input.len(),
            });
        }
        let mut spikes = vec![input.clone()];
        let mut membranes = Vec::new();
        for (index, layer) in self.layers.iter().enumerate() {
            let current = spikes.last().expect("at least the input frame");
            let mut sums = vec![0i32; layer.outputs()];
            for pre in current.iter_ones() {
                for (post, sum) in sums.iter_mut().enumerate() {
                    *sum += if layer.bits.get(pre, post) { 1 } else { -1 };
                }
            }
            let is_output = index + 1 == self.layers.len();
            if is_output {
                membranes = sums;
            } else {
                let mut fired = BitVec::new(layer.outputs());
                for (post, &sum) in sums.iter().enumerate() {
                    if sum >= layer.thresholds[post] {
                        fired.set(post, true);
                    }
                }
                spikes.push(fired);
            }
        }
        let logits: Vec<f32> = membranes
            .iter()
            .zip(&self.output_bias)
            .map(|(&m, &b)| m as f32 + b)
            .collect();
        Ok(SnnTrace {
            spikes,
            membranes,
            logits,
        })
    }

    /// Classifies one input spike frame.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] for a wrong input width.
    pub fn classify(&self, input: &BitVec) -> Result<usize, NnError> {
        Ok(self.forward(input)?.prediction())
    }
}

/// The synapse bits of a layer, `bits[pre][post]`, from its latent
/// weights (`latent[post][pre]`). Each latent row — one output neuron's
/// fan-in — is packed a word at a time with `w >= 0.0`, which is
/// `binarize(w) > 0.0` (−0.0 packs a 1, NaN a 0), into row `post` of the
/// transpose; [`BitMatrix::transposed`] then turns it round.
fn packed_bits(latent: &Matrix) -> BitMatrix {
    let mut by_post = BitMatrix::new(latent.rows(), latent.cols());
    let mut row = BitVec::new(latent.cols());
    for post in 0..latent.rows() {
        for (word, weights) in row
            .words_mut()
            .iter_mut()
            .zip(latent.row(post).chunks(BitVec::WORD_BITS))
        {
            *word = weights
                .iter()
                .rev()
                .fold(0, |word, &w| word << 1 | u64::from(w >= 0.0));
        }
        by_post.set_row(post, &row);
    }
    by_post.transposed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_input(width: usize, seed: u64) -> BitVec {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..width).map(|_| rng.random_bool(0.3)).collect()
    }

    #[test]
    fn conversion_preserves_shapes() {
        let net = BnnNetwork::new(&[20, 12, 5], 1).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        assert_eq!(model.topology(), vec![20, 12, 5]);
        assert_eq!(model.layers()[0].inputs(), 20);
        assert_eq!(model.layers()[0].outputs(), 12);
        assert_eq!(model.output_bias().len(), 5);
    }

    #[test]
    fn weight_bit_mapping() {
        let net = BnnNetwork::new(&[4, 2], 2).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        for pre in 0..4 {
            for post in 0..2 {
                let expected = net.layers()[0].binary_weight(post, pre) > 0.0;
                assert_eq!(model.layers()[0].bits().get(pre, post), expected);
            }
        }
    }

    #[test]
    fn packed_bits_match_the_per_bit_build() {
        // Signed zeros and NaN at chosen sites, on both sides of every
        // word boundary of the packed rows.
        for inputs in [1, 63, 64, 65, 130] {
            let mut net = BnnNetwork::new(&[inputs, 3], inputs as u64).unwrap();
            let latent = net.layers_mut()[0].latent_mut();
            for (post, pre, w) in [
                (0, 0, -0.0),
                (1, 0, 0.0),
                (2, 0, f32::NAN),
                (0, inputs - 1, f32::NAN),
                (1, inputs - 1, -0.0),
                (2, inputs / 2, 0.0),
                (0, inputs / 2, -f32::NAN),
            ] {
                *latent.get_mut(post, pre) = w;
            }
            let layer = &net.layers()[0];
            let per_bit =
                BitMatrix::from_fn(inputs, 3, |pre, post| layer.binary_weight(post, pre) > 0.0);
            let packed = packed_bits(layer.latent());
            assert_eq!(packed, per_bit, "fan-in {inputs}");
            assert!(packed.get(inputs - 1, 1), "fan-in {inputs}: -0.0 packs a 1");
            assert!(!packed.get(inputs - 1, 0), "fan-in {inputs}: NaN packs a 0");
        }
    }

    #[test]
    fn snn_is_bit_exact_with_bnn() {
        // The central conversion property (ref [15]): identical predictions
        // and identical hidden activations for every input.
        let net = BnnNetwork::new(&[30, 16, 12, 4], 7).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        for seed in 0..40 {
            let input = random_input(30, seed);
            let x: Vec<f32> = input.to_bools().iter().map(|&b| f32::from(b)).collect();
            let bnn = net.forward_trace(&x).unwrap();
            let snn = model.forward(&input).unwrap();
            // Hidden layers match bit-for-bit.
            for (l, frame) in snn.spikes.iter().skip(1).enumerate() {
                let bnn_hidden: Vec<bool> =
                    bnn.activations[l + 1].iter().map(|&h| h == 1.0).collect();
                assert_eq!(
                    frame.to_bools(),
                    bnn_hidden,
                    "layer {l} diverged (seed {seed})"
                );
            }
            // Logits match up to f32 rounding; predictions exactly.
            for (a, b) in snn.logits.iter().zip(bnn.logits()) {
                assert!((a - b).abs() < 1e-4, "logit mismatch {a} vs {b}");
            }
            assert_eq!(snn.prediction(), bnn.prediction(), "seed {seed}");
        }
    }

    #[test]
    fn threshold_is_ceil_of_negated_bias() {
        let mut net = BnnNetwork::new(&[4, 3], 3).unwrap();
        net.layers_mut()[0]
            .bias_mut()
            .copy_from_slice(&[0.4, -1.7, 2.0]);
        let model = SnnModel::from_bnn(&net).unwrap();
        assert_eq!(model.layers()[0].thresholds(), &[0, 2, -2]);
    }

    #[test]
    fn threshold_register_check() {
        let mut net = BnnNetwork::new(&[4, 2], 4).unwrap();
        net.layers_mut()[0].bias_mut()[0] = -3000.0;
        let model = SnnModel::from_bnn(&net).unwrap();
        assert!(model.check_threshold_registers(16).is_ok());
        assert!(matches!(
            model.check_threshold_registers(12),
            Err(NnError::ThresholdOverflow { .. })
        ));
    }

    #[test]
    fn wrong_input_width() {
        let net = BnnNetwork::new(&[8, 4], 5).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        assert!(matches!(
            model.classify(&BitVec::new(9)),
            Err(NnError::DimensionMismatch { .. })
        ));
    }
}
