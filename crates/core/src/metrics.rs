//! System-level figures of merit (the quantities Fig. 8 and Table 3 report)
//! and the batch engine's merge law.
//!
//! # The merge law
//!
//! A batch measurement is built from two kinds of state, both of which merge
//! exactly across workload shards:
//!
//! 1. **Cycle tallies** ([`BatchTally`]): per-frame bottleneck/latency cycle
//!    counts summed as `u64`. Addition is associative and commutative, so
//!    any partition of the frames produces the same sums.
//! 2. **Activity counters** ([`TileStats`](crate::TileStats) and the
//!    per-array access counters): also plain `u64` sums.
//!
//! [`SystemMetrics`] is then a *pure function* of (merged tally, merged
//! counters, static system properties): the same merged integers go through
//! the same float arithmetic, so a parallel measurement is **bit-identical**
//! to the sequential one — not merely statistically equivalent.

use std::fmt;

use esam_tech::units::{AreaUm2, Hertz, Joules, Seconds, Watts};

use crate::error::CoreError;
use crate::learning::{LearningCost, SampleOutcome};
use crate::pipeline::PipelineTiming;
use crate::system::InferenceResult;
use crate::tile::Tile;

esam_obs::counters! {
    /// Raw cycle tallies accumulated while running a batch (or a shard of one).
    ///
    /// This is the integer half of the merge law (see the module docs): tallies
    /// from any partition of a batch [`merge`](Self::merge) into exactly the
    /// tallies of the sequential run. Online-learning activity folds in through
    /// the same law — the learning fields are plain `u64` counters advanced by
    /// [`record_outcome`](Self::record_outcome) and stay zero for
    /// pure-inference batches.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct BatchTally {
        /// Frames processed.
        pub frames: u64,
        /// Summed bottleneck-tile cycles (pipelined throughput numerator).
        pub bottleneck_cycles: u64,
        /// Summed whole-cascade cycles (latency numerator).
        pub latency_cycles: u64,
        /// Predictions that matched their label *before* any weight update
        /// (online accuracy numerator; zero for unlabelled batches).
        pub correct: u64,
        /// Weight-column updates applied by the learning engine.
        pub learning_updates: u64,
        /// SRAM cycles consumed by those updates.
        pub learning_cycles: u64,
        /// Weight bits flipped by those updates.
        pub learning_bits_flipped: u64,
    }
}

impl BatchTally {
    /// Records one inference.
    pub fn record(&mut self, result: &InferenceResult) {
        self.frames += 1;
        self.bottleneck_cycles += result.bottleneck_cycles();
        self.latency_cycles += result.total_cycles();
    }

    /// Records one learning sample: its inference cycles *and* the learning
    /// activity its teacher signals triggered.
    pub fn record_outcome(&mut self, outcome: &SampleOutcome) {
        self.frames += 1;
        self.bottleneck_cycles += outcome.bottleneck_cycles;
        self.latency_cycles += outcome.total_cycles;
        self.correct += u64::from(outcome.correct);
        self.learning_updates += outcome.updates as u64;
        self.learning_cycles += outcome.cost.cycles;
        self.learning_bits_flipped += outcome.cost.bits_flipped as u64;
    }
}

/// Aggregate cost/accuracy of an online-learning session.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LearningTally {
    /// Labelled samples processed.
    pub samples: u64,
    /// Predictions matching their label before the update.
    pub correct: u64,
    /// Weight-column updates applied.
    pub updates: u64,
    /// Total access cost of those updates.
    pub cost: LearningCost,
}

impl LearningTally {
    /// Records one sample outcome.
    pub fn record(&mut self, outcome: &SampleOutcome) {
        self.samples += 1;
        self.correct += u64::from(outcome.correct);
        self.updates += outcome.updates as u64;
        self.cost += outcome.cost;
    }

    /// Online accuracy: the fraction of samples the system predicted
    /// correctly *before* each update (0 when empty).
    pub fn online_accuracy(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.correct as f64 / self.samples as f64
    }
}

/// Online-learning activity folded into a [`SystemMetrics`] measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningSummary {
    /// Labelled samples that drove learning.
    pub samples: u64,
    /// Weight-column updates applied.
    pub updates: u64,
    /// Online accuracy over the batch (prediction-before-update).
    pub online_accuracy: f64,
    /// Total access cost of the updates (cycles, latency, energy, flips).
    pub cost: LearningCost,
}

/// Measured system-level metrics over a batch of inferences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemMetrics {
    /// Pipeline clock frequency.
    pub clock: Hertz,
    /// Average clock cycles consumed by the bottleneck tile per inference.
    pub bottleneck_cycles: f64,
    /// Pipelined throughput (inferences per second).
    pub throughput_inf_s: f64,
    /// End-to-end latency of one inference through all tiles.
    pub latency: Seconds,
    /// Dynamic energy per inference.
    pub energy_per_inf: Joules,
    /// Dynamic power at the measured throughput.
    pub dynamic_power: Watts,
    /// Static leakage power.
    pub leakage_power: Watts,
    /// Total silicon area.
    pub area: AreaUm2,
    /// Online-learning activity folded into this measurement (`None` for a
    /// pure-inference batch). When present, the learning writes' energy is
    /// *included* in [`energy_per_inf`](Self::energy_per_inf) — they hit
    /// the same array counters — and broken out here.
    pub learning: Option<LearningSummary>,
}

impl SystemMetrics {
    /// The modeled figures of `tally.frames` frames run on `tiles`:
    /// pipelined throughput from the mean bottleneck-tile cycles, latency
    /// from the mean whole-cascade cycles, dynamic energy per inference
    /// from the tiles' accumulated activity counters, dynamic power as
    /// `E/inf × throughput`, and the tiles' leakage and area. Every sum
    /// runs in the iterator's tile order. `learning` is `None`; a caller
    /// that ran a learning session adds its summary.
    ///
    /// This is the one derivation behind
    /// [`EsamSystem::finalize_metrics`](crate::EsamSystem::finalize_metrics)
    /// and the mesh's.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty tally; propagates
    /// SRAM energy-model errors.
    pub fn modeled<'t>(
        pipeline: &PipelineTiming,
        tally: &BatchTally,
        tiles: impl Iterator<Item = &'t Tile> + Clone,
    ) -> Result<Self, CoreError> {
        if tally.frames == 0 {
            return Err(CoreError::InvalidConfig(
                "metrics need at least one frame".into(),
            ));
        }
        let n = tally.frames as f64;
        let bottleneck_cycles = tally.bottleneck_cycles as f64 / n;
        let throughput = pipeline.throughput_for_cycles(bottleneck_cycles);
        let mut energy = Joules::ZERO;
        for tile in tiles.clone() {
            energy += tile.dynamic_energy()?;
        }
        let energy_per_inf = energy / n;
        Ok(Self {
            clock: pipeline.clock_frequency(),
            bottleneck_cycles,
            throughput_inf_s: throughput,
            latency: pipeline.seconds_for_cycles(tally.latency_cycles as f64 / n),
            energy_per_inf,
            dynamic_power: Watts::new(energy_per_inf.value() * throughput),
            leakage_power: tiles.clone().map(Tile::leakage_power).sum(),
            area: tiles.map(Tile::area).sum(),
            learning: None,
        })
    }

    /// Total power: dynamic at full throughput plus leakage.
    pub fn total_power(&self) -> Watts {
        self.dynamic_power + self.leakage_power
    }

    /// Throughput in mega-inferences per second (Table 3's unit).
    pub fn throughput_minf_s(&self) -> f64 {
        self.throughput_inf_s / 1e6
    }
}

impl fmt::Display for SystemMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "clock:        {:.1}", self.clock)?;
        writeln!(f, "throughput:   {:.2} MInf/s", self.throughput_minf_s())?;
        writeln!(f, "latency:      {:.2}", self.latency)?;
        writeln!(f, "energy/inf:   {:.1}", self.energy_per_inf)?;
        writeln!(
            f,
            "power:        {:.2} (dynamic {:.2} + leakage {:.2})",
            self.total_power(),
            self.dynamic_power,
            self.leakage_power
        )?;
        write!(f, "area:         {:.0}", self.area)?;
        if let Some(learning) = &self.learning {
            write!(
                f,
                "\nlearning:     {} updates over {} samples ({:.1}% online), {} cycles, {:.2}, {:.2}",
                learning.updates,
                learning.samples,
                100.0 * learning.online_accuracy,
                learning.cost.cycles,
                learning.cost.latency,
                learning.cost.energy
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learning_tally_accumulates() {
        let outcome = SampleOutcome {
            prediction: 3,
            label: 5,
            correct: false,
            updates: 2,
            cost: LearningCost {
                cycles: 16,
                latency: Seconds::from_ns(20.0),
                energy: Joules::from_pj(4.0),
                bits_flipped: 7,
            },
            bottleneck_cycles: 9,
            total_cycles: 12,
        };
        let mut tally = LearningTally::default();
        tally.record(&outcome);
        tally.record(&SampleOutcome {
            correct: true,
            updates: 0,
            cost: LearningCost::default(),
            ..outcome
        });
        assert_eq!(tally.samples, 2);
        assert_eq!(tally.correct, 1);
        assert_eq!(tally.updates, 2);
        assert_eq!(tally.cost.cycles, 16);
        assert!((tally.online_accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(LearningTally::default().online_accuracy(), 0.0);
    }

    #[test]
    fn totals_and_display() {
        let mut m = SystemMetrics {
            clock: Hertz::from_mhz(810.0),
            bottleneck_cycles: 17.0,
            throughput_inf_s: 44e6,
            latency: Seconds::from_ns(80.0),
            energy_per_inf: Joules::from_pj(607.0),
            dynamic_power: Watts::from_mw(26.7),
            leakage_power: Watts::from_mw(2.3),
            area: AreaUm2::new(20_000.0),
            learning: None,
        };
        assert!((m.total_power().mw() - 29.0).abs() < 1e-9);
        assert!((m.throughput_minf_s() - 44.0).abs() < 1e-9);
        let text = m.to_string();
        assert!(text.contains("MInf/s"));
        assert!(text.contains("energy/inf"));
        assert!(!text.contains("learning:"));
        m.learning = Some(LearningSummary {
            samples: 10,
            updates: 7,
            online_accuracy: 0.6,
            cost: LearningCost {
                cycles: 56,
                latency: Seconds::from_ns(70.0),
                energy: Joules::from_pj(12.0),
                bits_flipped: 20,
            },
        });
        let text = m.to_string();
        assert!(text.contains("learning:"));
        assert!(text.contains("7 updates over 10 samples"));
    }
}
