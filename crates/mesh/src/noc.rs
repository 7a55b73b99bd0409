//! Interconnect accounting: per-link activity counters.
//!
//! Every inter-core edge of the mesh owns a [`LinkStats`] record on its
//! *consumer* side: the consumer knows exactly which spike events it
//! received over the link, so it charges the hop and serialization cycles
//! there (the producer sends the same packet clone to every consumer and
//! never touches link state). All fields are plain `u64` counters, so link
//! activity obeys the same exact merge law as the tile counters: any
//! partition of a batch sums to the sequential totals.

use crate::config::LinkConfig;

/// Activity of one directed inter-core link over a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Producer core id.
    pub src: usize,
    /// Consumer core id.
    pub dst: usize,
    /// Chain distance charged per packet (`hop_latency × distance` routing
    /// cycles).
    pub distance: u64,
    /// Spike frames delivered (a hand-off of `n` frames counts `n`).
    pub frames: u64,
    /// Spike events serialized over the link.
    pub events: u64,
    /// Routing cycles charged (`frames × hop_latency × distance`).
    pub hop_cycles: u64,
    /// Serialization cycles charged (`Σ ceil(max(events,1) /
    /// events_per_cycle)` per frame).
    pub serialize_cycles: u64,
    /// CRC verify cycles charged on the consumer side (one
    /// [`CRC_CHECK_CYCLES`](Self::CRC_CHECK_CYCLES) charge per received
    /// transmission attempt while the checksum protocol is armed).
    pub crc_cycles: u64,
    /// Retransmissions this link carried after a consumer-side CRC
    /// mismatch NACKed the attempt.
    pub retransmits: u64,
    /// Cycles charged for those retransmissions (NACK hop back plus the
    /// full hop + serialization of the re-send).
    pub retransmit_cycles: u64,
    /// Total busy cycles: `hop_cycles + serialize_cycles + crc_cycles +
    /// retransmit_cycles`.
    pub busy_cycles: u64,
}

impl LinkStats {
    /// Cycles one consumer-side CRC verify costs: the checker is a small
    /// pipelined LFSR over the already-deserialized words, adding one
    /// cycle of accept latency per received transmission attempt.
    pub const CRC_CHECK_CYCLES: u64 = 1;

    /// A zeroed record for the `src → dst` link at the given chain
    /// distance.
    pub(crate) fn new(src: usize, dst: usize, distance: u64) -> Self {
        Self {
            src,
            dst,
            distance,
            ..Self::default()
        }
    }

    /// Charges one spike frame carrying `events` events and returns the
    /// `(routing, serialization)` cycles it cost (their sum is the value
    /// folded into the mesh bottleneck).
    pub(crate) fn charge(&mut self, link: &LinkConfig, events: u64) -> (u64, u64) {
        let hop = link.hop_latency * self.distance;
        let serialize = link.cycles(events, 0);
        self.frames += 1;
        self.events += events;
        self.hop_cycles += hop;
        self.serialize_cycles += serialize;
        self.busy_cycles += hop + serialize;
        (hop, serialize)
    }

    /// Charges one consumer-side CRC verify and returns its cycles.
    pub(crate) fn charge_crc(&mut self) -> u64 {
        self.crc_cycles += Self::CRC_CHECK_CYCLES;
        self.busy_cycles += Self::CRC_CHECK_CYCLES;
        Self::CRC_CHECK_CYCLES
    }

    /// Charges one NACK + retransmission of a frame carrying `events`
    /// events and returns the cycles it cost: the NACK hops back to the
    /// producer, then the packet re-pays the full hop + serialization
    /// forward. The frame and event counters do not advance — the same
    /// logical frame is delivered, it just cost more cycles.
    pub(crate) fn charge_retransmit(&mut self, link: &LinkConfig, events: u64) -> u64 {
        let hop = link.hop_latency * self.distance;
        let cost = 2 * hop + link.cycles(events, 0);
        self.retransmits += 1;
        self.retransmit_cycles += cost;
        self.busy_cycles += cost;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_returns_link_cycles() {
        let link = LinkConfig {
            hop_latency: 2,
            events_per_cycle: 8,
        };
        let mut stats = LinkStats::new(0, 1, 3);
        let cost = stats.charge(&link, 20);
        assert_eq!(cost, (2 * 3, 3), "6 hop cycles + ceil(20/8) serialization");
        let silent = stats.charge(&link, 0);
        assert_eq!(silent, (6, 1), "silence still costs one bus cycle");
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.events, 20);
        assert_eq!(stats.hop_cycles, 12);
        assert_eq!(stats.serialize_cycles, 4);
        assert_eq!(stats.busy_cycles, 16);
    }

    #[test]
    fn retransmit_charges_nack_plus_resend() {
        let link = LinkConfig {
            hop_latency: 2,
            events_per_cycle: 8,
        };
        let mut stats = LinkStats::new(0, 1, 3);
        let cost = stats.charge_retransmit(&link, 20);
        assert_eq!(
            cost,
            2 * 6 + 3,
            "NACK hop back + re-send hop + ceil(20/8) serialization"
        );
        assert_eq!(stats.retransmits, 1);
        assert_eq!(stats.retransmit_cycles, 15);
        assert_eq!(stats.busy_cycles, 15);
        assert_eq!(stats.frames, 0, "a retransmit is not a new frame");
        let crc = stats.charge_crc();
        assert_eq!(crc, LinkStats::CRC_CHECK_CYCLES);
        assert_eq!(stats.busy_cycles, 15 + crc);
    }
}
