//! The ESAM Integrate-and-Fire neuron array (§3.4, Fig. 5).
//!
//! Each SRAM column ends in a digital IF neuron. Per clock cycle the neuron
//! receives the sensed bits of up to `p` read ports, each qualified by a
//! validity flag so unused ports are never misread as data. Valid bits are
//! decoded to `+1`/`−1`, summed in a small adder tree and accumulated into a
//! saturating `m`-bit membrane register. When the arbiter signals `R_empty`
//! (all input spikes of the timestep served), each neuron compares
//! `V_mem ≥ V_th` against its private `t`-bit threshold register, fires a
//! spike request `r` to the next tile and resets.
//!
//! # Examples
//!
//! ```
//! use esam_bits::BitVec;
//! use esam_neuron::{NeuronArray, NeuronConfig};
//!
//! let thresholds = [1, 2, 3, 100];
//! let mut array = NeuronArray::new(NeuronConfig::paper_default(), &thresholds);
//! for _ in 0..3 {
//!     array.integrate(&[BitVec::from_indices(4, &[0, 1, 2, 3])], &[true]);
//! }
//! let fired = array.end_timestep();
//! assert_eq!(fired.count_ones(), 3); // all but the 100-threshold neuron
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod config;
pub mod if_neuron;
pub mod reference;
pub mod structural;
pub mod timing;

pub use array::NeuronArray;
pub use config::{NeuronConfig, ResetPolicy};
pub use if_neuron::IfNeuron;
pub use reference::ScalarNeuronArray;
pub use timing::NeuronTiming;
