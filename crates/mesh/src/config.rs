//! Mesh configuration: core count, channel sizing, execution mode, fault
//! plan, link timeout; and the interconnect cost model every link uses.

use std::time::Duration;

use esam_fault::FaultPlan;

/// Cost model of one inter-core link, in the same cycle domain as
/// [`PipelineTiming`](esam_core::PipelineTiming).
///
/// A producer core hands its fired output slice to a consumer core as a
/// stream of address events (AER): the link charges a fixed routing
/// latency per hop of chain distance plus a serialization cost of
/// `ceil(events / events_per_cycle)` cycles — an `events_per_cycle`-lane
/// event bus. An all-silent slice still costs one serialization cycle
/// (the "no events" token must cross too, or the consumer could not
/// distinguish silence from a stalled producer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Router traversal cycles per unit of chain distance between the two
    /// cores.
    pub hop_latency: u64,
    /// Spike events the link serializes per cycle (event-bus width).
    pub events_per_cycle: u64,
}

impl LinkConfig {
    /// Default interconnect: one routing cycle per hop, a 32-lane event
    /// bus.
    pub const fn paper_default() -> Self {
        Self {
            hop_latency: 1,
            events_per_cycle: 32,
        }
    }

    /// Link cycles for delivering `events` spike events over `distance`
    /// hops: `hop_latency * distance + ceil(max(events, 1) /
    /// events_per_cycle)`.
    pub fn cycles(&self, events: u64, distance: u64) -> u64 {
        self.hop_latency * distance + events.max(1).div_ceil(self.events_per_cycle.max(1))
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Whether cores run on real threads or as an in-place sequential walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// One thread per core, frames pipelined through bounded SPSC
    /// channels: core *k* processes frame *t* while core *k+1* processes
    /// frame *t−1*.
    #[default]
    Pipelined,
    /// The retained single-threaded reference: the same per-core handlers
    /// invoked in stage order, frame by frame. Bit-identical to
    /// [`Pipelined`](Self::Pipelined) by construction (same code, same
    /// data, different scheduling) — the equivalence suite pins it.
    Sequential,
}

/// Configuration of a [`MeshSystem`](crate::MeshSystem).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshConfig {
    cores: usize,
    channel_capacity: usize,
    execution: Execution,
    faults: FaultPlan,
    link_timeout: Option<Duration>,
}

impl MeshConfig {
    /// A mesh of `cores` cores with the default channel depth, pipelined;
    /// no faults, no link timeout. Links cost
    /// [`LinkConfig::paper_default`].
    pub fn with_cores(cores: usize) -> Self {
        Self {
            cores,
            channel_capacity: 4,
            execution: Execution::Pipelined,
            faults: FaultPlan::none(),
            link_timeout: None,
        }
    }

    /// Overrides the per-link channel depth (in-flight packets per edge;
    /// at least one).
    #[must_use]
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity.max(1);
        self
    }

    /// Overrides the execution mode.
    #[must_use]
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Installs a deterministic fault plan. Only the plan's mesh-domain
    /// rates (packet drop/delay/corruption, core stall/panic) act here;
    /// while any of them is nonzero every hand-off carries one frame (the
    /// faults are keyed per hand-off, so each frame keeps its own fault
    /// sites) and lost frames are recovered on a fault-exempt sequential
    /// pass, so results stay exact.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Arms the sink-side liveness backstop: a readout link that stays
    /// silent for `timeout` (producer alive but stuck) aborts the
    /// pipelined run and the missing frames are recovered sequentially.
    /// `None` (the default) waits indefinitely, which is exact and
    /// sufficient whenever failures drop their endpoints.
    #[must_use]
    pub fn link_timeout(mut self, timeout: Duration) -> Self {
        self.link_timeout = Some(timeout);
        self
    }

    /// Requested core count (the plan may clamp; see
    /// [`MeshPlan::cores`](crate::MeshPlan::cores)).
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Per-link channel depth.
    pub fn channel_depth(&self) -> usize {
        self.channel_capacity
    }

    /// The execution mode.
    pub fn execution_mode(&self) -> Execution {
        self.execution
    }

    /// The installed fault plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The sink-side link timeout, if armed.
    pub fn link_timeout_budget(&self) -> Option<Duration> {
        self.link_timeout
    }
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self::with_cores(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_cycles_charge_hops_plus_serialization() {
        let link = LinkConfig {
            hop_latency: 2,
            events_per_cycle: 8,
        };
        assert_eq!(link.cycles(0, 1), 2 + 1, "silence still crosses");
        assert_eq!(link.cycles(8, 1), 2 + 1);
        assert_eq!(link.cycles(9, 1), 2 + 2);
        assert_eq!(link.cycles(9, 3), 6 + 2);
    }

    #[test]
    fn builder_clamps_channel_capacity() {
        let config = MeshConfig::with_cores(2).channel_capacity(0);
        assert_eq!(config.channel_depth(), 1);
        assert_eq!(config.cores(), 2);
    }
}
