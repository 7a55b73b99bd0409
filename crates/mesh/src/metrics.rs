//! Mesh-level tallies and figures of merit.
//!
//! The mesh extends the single-core merge law (see `esam_core::metrics`)
//! with two more integer tallies: the **mesh bottleneck** — per frame, the
//! maximum over every core's occupancy and every link's cycles, i.e. the
//! pipeline's slowest station for that frame — and the **NoC latency** —
//! per frame, the interconnect cycles on the critical path from input to
//! readout. Both are `u64` sums over frames, so they merge exactly across
//! any partition of a batch, and [`MeshMetrics`] finalizes once over the
//! merged integers exactly like `SystemMetrics` does.

use std::fmt;

use esam_core::{BatchTally, SystemMetrics};
use esam_tech::units::Seconds;

use crate::noc::LinkStats;

esam_obs::counters! {
    /// Integer tallies of a mesh run: the single-core [`BatchTally`] plus the
    /// interconnect's additions.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct MeshTally {
        /// The tile-side tallies — identical to what the single-core walk
        /// records for the same frames.
        pub tiles: BatchTally,
        /// Summed per-frame mesh bottlenecks: `max(core occupancies, link
        /// cycles)` per frame. The pipelined-throughput numerator of the mesh
        /// (compare [`BatchTally::bottleneck_cycles`], the single-core tile
        /// bottleneck).
        pub mesh_bottleneck_cycles: u64,
        /// Summed per-frame critical-path interconnect cycles (hop +
        /// serialization along the longest input → readout chain).
        pub noc_latency_cycles: u64,
        /// AER packets lost to injected link faults (consumer-side verdicts;
        /// the affected frames are re-run on the recovery path).
        pub packets_dropped: u64,
        /// AER packets that took an injected congestion delay (the extra
        /// cycles land in the NoC and bottleneck accumulators).
        pub packets_delayed: u64,
        /// Link transmission attempts whose payload took an injected
        /// in-flight upset and was flagged by the consumer's CRC verify
        /// (every one of them — a missed upset would abort the run).
        pub packets_corrupted: u64,
        /// NACK-triggered retransmissions issued after those CRC mismatches
        /// (at most [`MAX_RETRANSMITS`](crate::MAX_RETRANSMITS) per hand-off
        /// and edge; exhausting the budget loses the frame to the recovery
        /// pass instead).
        pub retransmits: u64,
        /// Injected core stalls (extra occupancy cycles on the stalled
        /// hand-off).
        pub core_stalls: u64,
        /// Core pipeline threads killed by injected panics. Pipelined
        /// execution only; the count of *in-flight* work lost with a thread is
        /// scheduling-dependent, so determinism suites must not compare this
        /// field (everything else in the tally stays exact).
        pub core_panics: u64,
        /// Sink-side link timeouts that tripped the liveness backstop
        /// ([`MeshConfig::link_timeout`](crate::MeshConfig::link_timeout)).
        pub link_timeouts: u64,
        /// Frames whose readout was lost mid-mesh and re-run on the
        /// fault-exempt sequential recovery path.
        pub frames_recovered: u64,
    }
}

/// Measured figures of merit of a mesh run.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshMetrics {
    /// The single-core figures of merit over the same frames, finalized
    /// from the mesh's merged counters. For layer-granular plans this is
    /// bit-identical to `EsamSystem::measure_batch` on the same workload —
    /// the mesh charges interconnect costs *on top of* the tile model,
    /// never inside it.
    pub system: SystemMetrics,
    /// Cores the plan actually uses (may be clamped below the request).
    pub cores: usize,
    /// Average per-frame mesh bottleneck: the slowest pipeline station
    /// (core occupancy or link) in cycles. Steady-state mesh throughput is
    /// one frame per this many cycles.
    pub mesh_bottleneck_cycles: f64,
    /// Pipeline-parallel mesh throughput: `clock /
    /// mesh_bottleneck_cycles` inferences per second.
    pub mesh_throughput_inf_s: f64,
    /// Average per-frame critical-path interconnect cycles.
    pub noc_latency_cycles: f64,
    /// End-to-end mesh latency of one inference: cascade latency plus the
    /// critical-path interconnect time.
    pub mesh_latency: Seconds,
    /// Per-link activity, ordered by (src, dst).
    pub links: Vec<LinkStats>,
}

impl MeshMetrics {
    /// Mesh speedup over a single core running the whole cascade: the
    /// ratio of the cascade's summed cycles (what one core would be
    /// occupied per frame) to the mesh bottleneck.
    pub fn modeled_speedup(&self) -> f64 {
        if self.mesh_bottleneck_cycles == 0.0 {
            return 1.0;
        }
        let single_core_cycles = self.system.latency.value() * self.system.clock.value();
        single_core_cycles / self.mesh_bottleneck_cycles
    }

    /// Mesh throughput in mega-inferences per second.
    pub fn mesh_throughput_minf_s(&self) -> f64 {
        self.mesh_throughput_inf_s / 1e6
    }
}

impl fmt::Display for MeshMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cores:           {}", self.cores)?;
        writeln!(
            f,
            "mesh bottleneck: {:.2} cycles/inf",
            self.mesh_bottleneck_cycles
        )?;
        writeln!(
            f,
            "mesh throughput: {:.2} MInf/s ({:.2}x one core)",
            self.mesh_throughput_minf_s(),
            self.modeled_speedup()
        )?;
        writeln!(
            f,
            "noc latency:     {:.2} cycles/inf over {} links",
            self.noc_latency_cycles,
            self.links.len()
        )?;
        writeln!(f, "mesh latency:    {:.2}", self.mesh_latency)?;
        write!(f, "{}", self.system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random shard splits of a mesh-tally stream merge to exactly
        /// the sequential fold — the mesh side of the workspace merge
        /// law, now routed through `esam_obs::tally_add`.
        #[test]
        fn sharded_merge_equals_sequential(
            raw in proptest::collection::vec((0u64..5_000, 0u64..5_000, 0u64..10), 1..60),
            cut in any::<usize>(),
        ) {
            let tallies: Vec<MeshTally> = raw
                .iter()
                .map(|&(bottleneck, noc, faults)| MeshTally {
                    tiles: BatchTally {
                        frames: 1,
                        bottleneck_cycles: bottleneck,
                        latency_cycles: bottleneck + noc,
                        ..BatchTally::default()
                    },
                    mesh_bottleneck_cycles: bottleneck,
                    noc_latency_cycles: noc,
                    packets_dropped: faults % 3,
                    packets_delayed: faults % 5,
                    packets_corrupted: faults % 6,
                    retransmits: faults % 8,
                    core_stalls: faults % 2,
                    core_panics: faults % 7,
                    link_timeouts: faults % 4,
                    frames_recovered: faults % 3,
                })
                .collect();
            let mut sequential = MeshTally::default();
            for t in &tallies {
                sequential.merge(t);
            }
            let split = cut % tallies.len();
            let fold = |chunk: &[MeshTally]| {
                let mut t = MeshTally::default();
                chunk.iter().for_each(|x| t.merge(x));
                t
            };
            let mut sharded = fold(&tallies[..split]);
            sharded.merge(&fold(&tallies[split..]));
            prop_assert_eq!(sequential, sharded);
        }
    }
}
