//! The mesh engine: sharded cores, inter-core spike traffic, pipelined
//! execution and mesh-level measurement.
//!
//! # Dataflow
//!
//! A [`MeshSystem`] instantiates one [`MeshCore`] per shard of its
//! [`MeshPlan`] and wires consecutive stages with a complete bipartite set
//! of directed edges: every shard of stage *s* sends its output slice to
//! every shard of stage *s+1* (a consumer needs the *whole* previous layer
//! as input even when producers are column-split). A synthetic feeder edge
//! delivers network input to stage 0 and a sink edge collects the readout
//! stage — neither models interconnect cost.
//!
//! # Hand-offs
//!
//! One packet format crosses every edge: up to 64 consecutive frames in
//! frame-major order — the producer's output slices as a [`BitMatrix`]
//! with one row per frame, each frame's cycle chain, the readout
//! membranes, and one set of accumulators per frame. A core serves a
//! hand-off frame by frame, in order, with the one per-frame body: drop
//! verdicts, link charges, CRC/NACK, delay, input assembly, the core's
//! [`walk_frame`] into buffers the core owns, stall, timeline. Every frame
//! is charged and walked exactly as it would be alone, so the hand-off
//! size changes no result, tally or counter; a larger hand-off only
//! spreads the per-hand-off costs (channel operations, wake-ups, packet
//! buffers) over more frames.
//!
//! While a mesh fault is armed ([`FaultPlan::mesh_active`]), every
//! hand-off carries a single frame: faults are keyed per hand-off, so each
//! frame keeps its own fault sites, lost markers and retransmissions.
//! [`MeshSystem::run`] and [`MeshSystem::run_traced`] follow the same
//! rule.
//!
//! # Cycle accounting
//!
//! Each frame of a packet carries two accumulators in the same cycle
//! domain as [`PipelineTiming`]:
//!
//! * `noc_latency` — interconnect cycles on the critical path so far: at
//!   each consumer, `max` over in-edges of (packet's `noc_latency` + that
//!   edge's hop + serialization cycles).
//! * `pipe_max` — the slowest pipeline *station* seen so far: running
//!   `max` over every traversed core's occupancy (the sum of its tiles'
//!   serve cycles for this frame) and every traversed link's cycles.
//!
//! Because stage boundaries are complete bipartite, every core and link
//! value reaches the sink, where the per-frame mesh bottleneck
//! (`max` over readout shards' `pipe_max`) and NoC latency fold into a
//! [`MeshTally`] as plain `u64` sums — the same exact merge law the
//! single-core batch engine uses.
//!
//! # Equivalence contract
//!
//! [`Execution::Pipelined`] and [`Execution::Sequential`] run the *same*
//! per-core handler over the same packets — only the scheduling differs —
//! so they are bit-identical in results, tallies and every counter. The
//! handler walks its core's tiles with [`walk_frame`], the walk the plain
//! single-core [`EsamSystem`](esam_core::EsamSystem) runs over its whole
//! cascade, so against it outputs (predictions,
//! logits, membranes, output spikes, per-tile cycles) are always
//! identical; tile counters additionally match
//! tile-for-tile whenever the plan is layer-granular (column-split shards
//! own private arbiters, so arbiter-side counters physically duplicate
//! per shard while per-array access counters partition exactly. The
//! workspace's execution matrix (`tests/execution_matrix.rs`) pins all of
//! this at 1, 2, 4 and 7 cores.
//!
//! # Resilience
//!
//! A [`FaultPlan`] installed via [`MeshConfig::faults`] injects
//! deterministic link faults (packet drops and delays, keyed on
//! `(hand-off, src, dst)`), core stalls (extra occupancy cycles) and —
//! under [`Execution::Pipelined`] only — core panics that kill a pipeline
//! thread mid-batch. Every hazard degrades gracefully instead of failing
//! the run: a dropped packet turns the frame into a `Packet::Lost`
//! marker that traverses the mesh in lockstep and sinks as a gap; a
//! panicking core is contained by `catch_unwind` so every thread still
//! joins; and after the pipeline winds down, all missing frames are re-run
//! on a fault-exempt sequential recovery pass — so [`MeshSystem::run`]
//! always returns exact results for the full batch. The injected-fault
//! counters land in [`MeshTally`] under the same exact u64 merge law as
//! everything else.
//!
//! # Tracing
//!
//! [`MeshSystem::run_traced`] attaches a timeline sink to every core and
//! runs the ordinary sequential walk. The handler draws each link,
//! CRC-retry, delay and stall charge into the sink as it makes it, and
//! each frame carries its producer's finish cycle to the consumer: the
//! link delivers at that cycle plus everything the edge charged, and the
//! core starts at `max(own busy-until, latest delivery)` — a gap is
//! pipeline dead time, drawn as a `bubble`. The feeder saturates stage 0.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use esam_bits::{BitMatrix, BitVec};
use esam_core::cascade::walk_frame;
use esam_core::{CoreError, InferenceResult, PipelineTiming, SystemConfig, SystemMetrics, Tile};
use esam_fault::FaultPlan;
use esam_nn::SnnModel;
use esam_obs::{Trace, TrackTrace, NO_ARGS};

use crate::config::{Execution, LinkConfig, MeshConfig};
use crate::core::MeshCore;
use crate::crc::crc32_words;
use crate::metrics::{MeshMetrics, MeshTally};
use crate::noc::LinkStats;
use crate::plan::MeshPlan;
use crate::spsc::{channel, Receiver, RecvTimeout, Sender};

/// Locks a mutex, recovering the guard when a panicking thread poisoned
/// it (the guarded values here — error lists, counters — are valid at
/// every instant they could have been abandoned).
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One spike hand-off between pipeline stations.
#[derive(Debug, Clone)]
enum Packet {
    /// Up to [`HAND_OFF_FRAMES`] consecutive frames.
    Frames(FramesPacket),
    /// The hand-off's frame was lost to an injected link fault somewhere
    /// upstream. Only mesh faults lose frames, and they force one-frame
    /// hand-offs, so a marker always stands for exactly one frame. It still
    /// traverses every edge so the pipeline stays in lockstep; it charges
    /// no link or tile cycles and sinks as a gap for the recovery pass to
    /// fill.
    Lost,
}

/// Frames one hand-off carries while no mesh fault is armed.
///
/// Smaller hand-offs let later stages start sooner; larger ones pay the
/// per-hand-off costs (a send and a receive per edge, a worker wake-up, a
/// few packet buffers) less often. 64 keeps those costs under half an
/// allocation per frame while a 128-frame run still spans two hand-offs,
/// so the stages of a two-core pipeline overlap; it is also the lane width
/// of the bit-sliced batch unit ([`FrameBlock::LANES`]). ARCHITECTURE.md
/// ("Mesh layer") has the measured trade-off.
///
/// [`FrameBlock::LANES`]: esam_bits::FrameBlock::LANES
const HAND_OFF_FRAMES: usize = 64;

/// Consecutive frames in flight between two stations, frame-major: lane
/// `k` of every field belongs to the hand-off's `k`-th frame.
#[derive(Debug, Clone)]
struct FramesPacket {
    /// The producing core's output slices, one row per frame.
    slices: BitMatrix,
    /// Per-layer serve cycles accumulated from the cascade start,
    /// lane-major: `cycles[lane * chain + layer]`.
    cycles: Vec<u64>,
    /// Readout membranes, `[lane * slice width + neuron]` (output-stage
    /// producers only).
    membranes: Vec<i32>,
    /// Per-frame accumulators, one per lane.
    lanes: Vec<Lane>,
}

/// One frame's accumulators in a [`FramesPacket`].
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Critical-path interconnect cycles so far.
    noc_latency: u64,
    /// Slowest pipeline station (core occupancy or link) so far.
    pipe_max: u64,
    /// CRC-32 of the frame's slice words, computed by the producer when
    /// the checksum protocol is armed ([`FaultPlan::corrupt_active`]);
    /// zero otherwise, so the clean path never pays for it.
    crc: u32,
    /// Modeled cycle at which the producer finished this frame on its
    /// timeline — the packet's departure. Written only while timelines
    /// are attached ([`MeshSystem::run_traced`]); zero otherwise.
    finish: u64,
}

impl FramesPacket {
    /// The feeder's packet for `frames`. `armed` mirrors
    /// [`FaultPlan::corrupt_active`]: when the checksum protocol is in use,
    /// even the feeder stamps its frames so every real edge downstream can
    /// verify them.
    fn feed(frames: &[BitVec], armed: bool) -> Self {
        let width = frames.first().map_or(0, BitVec::len);
        let mut slices = BitMatrix::new(frames.len(), width);
        for (lane, frame) in frames.iter().enumerate() {
            slices.set_row(lane, frame);
        }
        let lanes = frames
            .iter()
            .map(|frame| Lane {
                crc: if armed { crc32_words(frame.words()) } else { 0 },
                ..Lane::default()
            })
            .collect();
        Self {
            slices,
            cycles: Vec::new(),
            membranes: Vec::new(),
            lanes,
        }
    }

    /// Lane `lane`'s cycle chain.
    fn chain(&self, lane: usize) -> &[u64] {
        let chain = self.cycles.len() / self.lanes.len().max(1);
        &self.cycles[lane * chain..(lane + 1) * chain]
    }
}

/// Retransmissions a consumer may NACK per hand-off and edge before it
/// declares the frame lost (it then sinks as a gap for the fault-exempt
/// recovery pass, like a dropped packet).
pub const MAX_RETRANSMITS: u64 = 3;

/// A consumer-side input port: where the producer's slice lands in this
/// core's input frame, and the link it travels (None across the synthetic
/// feeder boundary).
#[derive(Debug, Clone)]
struct InPort {
    offset: usize,
    link: Option<LinkStats>,
    /// The port's slice of the frame being served, copied out of its
    /// packet.
    slice: BitVec,
}

/// What one linked in-edge charged for the frame being served — held
/// until the frame's fate (delivered or lost) decides what is drawn.
#[derive(Debug, Clone, Copy)]
struct EdgeCharge {
    /// The producer's finish cycle (the packet's departure).
    departed: u64,
    /// Routing cycles of the first transmission.
    hop: u64,
    /// Serialization cycles of the first transmission.
    serialize: u64,
    /// Spike events carried.
    events: u64,
    /// Transmission attempts that failed the CRC check.
    corrupted: u64,
    /// Retransmissions issued.
    retransmits: u64,
    /// Injected delay cycles, when the edge was delayed.
    delay: Option<u64>,
    /// Every cycle the edge charged: hop + serialization + CRC checks +
    /// retransmissions + delay.
    cost: u64,
}

/// A core's timeline sink (see the module docs' *Tracing*): the core's
/// track, one track per linked in-port, and the in-edge charges of the
/// frame being served, written by [`CoreSlot::serve_frame`].
#[derive(Debug, Clone)]
struct Timeline {
    core: TrackTrace,
    /// One per linked in-port, in port order.
    links: Vec<TrackTrace>,
    edges: Vec<EdgeCharge>,
    /// Hand-offs recorded so far: the next one's `frame` arg (the frame's
    /// index within the traced call).
    frames: u64,
}

impl Timeline {
    /// A sink for `core`, whose link tracks take tids from `link_tid` on.
    fn new(
        core: &MeshCore,
        ports: &[InPort],
        link_tid: u32,
        capacity: usize,
        epoch: Instant,
    ) -> Self {
        let links = ports
            .iter()
            .filter_map(|port| port.link.as_ref())
            .zip(link_tid..)
            .map(|(stats, tid)| {
                let name = format!("link {} -> {}", stats.src, stats.dst);
                TrackTrace::with_epoch(MESH_TRACE_PID, tid, name, capacity, epoch)
            })
            .collect();
        let name = format!("core {} (stage {})", core.id(), core.stage());
        Self {
            core: TrackTrace::with_epoch(MESH_TRACE_PID, core.id() as u32, name, capacity, epoch),
            links,
            edges: Vec::with_capacity(ports.len()),
            frames: 0,
        }
    }

    /// Records a frame lost at this core — to its own drop verdicts, to a
    /// retry budget running dry (the corrupted edges are marked), or
    /// upstream.
    fn lost(&mut self) {
        let frame = Some(("frame", self.frames));
        for (edge, track) in self.edges.iter().zip(&mut self.links) {
            if edge.corrupted > 0 {
                track.instant(
                    "packet-corrupt",
                    [frame, Some(("retransmits", edge.retransmits))],
                );
            }
        }
        self.core.instant("frame-lost", [frame, None]);
        self.edges.clear();
        self.frames += 1;
    }

    /// Records a delivered frame — each in-edge's `hop` + `serialize`
    /// transfer from its producer's finish with any `packet-corrupt` /
    /// `packet-delay` instants, a `core-stall` instant, the `bubble` while
    /// the core waits for its latest input, and the `frame` occupancy span
    /// — and returns the core's finish cycle.
    fn delivered(&mut self, occupancy: u64, stall: Option<u64>) -> u64 {
        let frame = Some(("frame", self.frames));
        let mut available = 0u64;
        for (edge, track) in self.edges.iter().zip(&mut self.links) {
            track.span_at("hop", edge.departed, edge.hop, [frame, None]);
            track.span_at(
                "serialize",
                edge.departed + edge.hop,
                edge.serialize,
                [Some(("events", edge.events)), None],
            );
            if edge.corrupted > 0 {
                track.instant(
                    "packet-corrupt",
                    [frame, Some(("retransmits", edge.retransmits))],
                );
            }
            if let Some(cycles) = edge.delay {
                track.instant("packet-delay", [frame, Some(("cycles", cycles))]);
            }
            available = available.max(edge.departed + edge.cost);
        }
        if let Some(cycles) = stall {
            self.core
                .instant("core-stall", [frame, Some(("cycles", cycles))]);
        }
        let busy_until = self.core.cursor();
        if available > busy_until {
            self.core
                .span_at("bubble", busy_until, available - busy_until, NO_ARGS);
            self.core.set_cursor(available);
        }
        self.core.span("frame", occupancy, [frame, None]);
        self.edges.clear();
        self.frames += 1;
        self.core.cursor()
    }
}

/// A core plus its consumer-side interconnect state. `handle` is the
/// single handler both execution modes invoke — bit-identity between them
/// holds by construction: fault decisions are keyed on the slot's own
/// frame counter, which advances identically under either scheduling.
#[derive(Debug, Clone)]
struct CoreSlot {
    core: MeshCore,
    ports: Vec<InPort>,
    faults: FaultPlan,
    /// Frames consumed since the last stats reset — the `t` coordinate of
    /// every fault decision at this core. Lost frames count too (the
    /// hand-off happened), fault-exempt recovery walks do not.
    consumed: u64,
    /// Injected-fault counters of the current run (drops, delays,
    /// corruptions, retransmits, stalls), merged into the run's tally when
    /// it completes.
    injected: MeshTally,
    /// The timeline sink, attached only by [`MeshSystem::run_traced`].
    timeline: Option<Timeline>,
    /// The frame being served, assembled from the in-ports' slices.
    input: BitVec,
    /// The core's fired slice of the frame being served.
    fired: BitVec,
    /// The core's readout membranes for that frame (output stage only;
    /// empty elsewhere).
    membranes: Vec<i32>,
}

impl CoreSlot {
    /// Serves one hand-off, frame by frame in lane order (see
    /// [`serve_frame`](Self::serve_frame)). `exempt` marks the recovery
    /// path: no fault decisions are made, the frame counter does not
    /// advance and nothing is drawn, so a recovered frame is the exact
    /// unfaulted computation.
    fn handle(&mut self, inputs: &[Packet], exempt: bool) -> Result<Packet, CoreError> {
        debug_assert_eq!(inputs.len(), self.ports.len());
        let mut packets = Vec::with_capacity(inputs.len());
        for input in inputs {
            match input {
                Packet::Frames(packet) => packets.push(packet),
                Packet::Lost => {
                    // An upstream loss already doomed this frame: consume
                    // it and propagate the marker (lockstep) without any
                    // tile work or link charges.
                    if !exempt {
                        self.consumed += 1;
                        if let Some(timeline) = self.timeline.as_mut() {
                            timeline.lost();
                        }
                    }
                    return Ok(Packet::Lost);
                }
            }
        }
        let Some(first) = packets.first() else {
            return Err(CoreError::InvalidConfig(
                "a mesh core received an empty hand-off".into(),
            ));
        };
        debug_assert!(
            packets.windows(2).all(|w| w[0].cycles == w[1].cycles),
            "upstream cycle chains diverged across shards"
        );
        let lanes = first.lanes.len();
        let width = self.fired.len();
        let readout = if self.core.is_output() { width } else { 0 };
        let mut out = FramesPacket {
            slices: BitMatrix::new(lanes, width),
            cycles: Vec::with_capacity(first.cycles.len() + lanes * self.core.tiles().len()),
            membranes: Vec::with_capacity(lanes * readout),
            lanes: Vec::with_capacity(lanes),
        };
        for lane in 0..lanes {
            if !self.serve_frame(&packets, lane, exempt, &mut out)? {
                debug_assert_eq!(lanes, 1, "mesh faults force one-frame hand-offs");
                return Ok(Packet::Lost);
            }
        }
        Ok(Packet::Frames(out))
    }

    /// Serves lane `lane` of a hand-off and appends the frame to `out`:
    /// drop verdicts, link charges, CRC/NACK, delay, input assembly, the
    /// core's [`walk_frame`], stall and timeline, in that order. Returns
    /// `false` when the frame is lost at this core — to its own drop
    /// verdicts or to a retry budget running dry.
    fn serve_frame(
        &mut self,
        packets: &[&FramesPacket],
        lane: usize,
        exempt: bool,
        out: &mut FramesPacket,
    ) -> Result<bool, CoreError> {
        let t = self.consumed;
        if !exempt {
            self.consumed += 1;
        }
        let faults = self.faults;
        let mut timeline = self.timeline.as_mut().filter(|_| !exempt);
        // Consumer-side drop verdicts, one per real in-edge (the synthetic
        // feeder edge never faults). Any hit dooms the whole frame at this
        // core: the transaction aborts, so nothing is charged.
        if !exempt && faults.mesh_active() {
            let mut lost = false;
            let linked = self.ports.iter().filter_map(|port| port.link.as_ref());
            for (index, stats) in linked.enumerate() {
                if faults.packet_drop(t, stats.src as u64, stats.dst as u64) {
                    self.injected.packets_dropped += 1;
                    lost = true;
                    if let Some(timeline) = timeline.as_deref_mut() {
                        let frame = Some(("frame", timeline.frames));
                        timeline.links[index].instant("packet-drop", [frame, None]);
                    }
                }
            }
            if lost {
                if let Some(timeline) = timeline {
                    timeline.lost();
                }
                return Ok(false);
            }
        }
        let link = LinkConfig::paper_default();
        let armed = !exempt && faults.corrupt_active();
        let mut noc_in = 0u64;
        let mut pipe_in = 0u64;
        let mut lost = false;
        for (port, packet) in self.ports.iter_mut().zip(packets) {
            packet.slices.copy_row_into(lane, &mut port.slice);
            let upstream = packet.lanes[lane];
            let Some(stats) = port.link.as_mut() else {
                // The synthetic feeder edge costs nothing.
                noc_in = noc_in.max(upstream.noc_latency);
                pipe_in = pipe_in.max(upstream.pipe_max);
                continue;
            };
            let slice = &port.slice;
            let events = slice.count_ones() as u64;
            let (hop, serialize) = stats.charge(&link, events);
            let mut cost = hop + serialize;
            let (mut corrupted, mut retransmits) = (0u64, 0u64);
            if armed {
                // CRC verify + NACK/retransmit protocol: every received
                // transmission attempt is checked by the *real* CRC
                // comparison — an injected upset strikes a local copy of
                // the in-flight payload and detection is computed, never
                // assumed. A mismatch NACKs the attempt and re-charges the
                // edge; exhausting the retry budget loses the frame like a
                // drop.
                let (src, dst) = (stats.src as u64, stats.dst as u64);
                let mut attempt = 0u64;
                loop {
                    cost += stats.charge_crc();
                    let received_crc = match faults.packet_corrupt(t, src, dst, attempt) {
                        None => crc32_words(slice.words()),
                        Some(selector) => {
                            let mut words = slice.words().to_vec();
                            let bit = (selector % slice.len().max(1) as u64) as usize;
                            words[bit / 64] ^= 1u64 << (bit % 64);
                            let got = crc32_words(&words);
                            // CRC-32 catches every single-bit error; a
                            // miss here would mean the consumer is about
                            // to eat wrong data — abort loudly instead of
                            // masking it.
                            assert_ne!(
                                got, upstream.crc,
                                "CRC-32 must flag a single-bit in-flight upset"
                            );
                            got
                        }
                    };
                    if received_crc == upstream.crc {
                        // Verified clean — consume.
                        break;
                    }
                    corrupted += 1;
                    if attempt == MAX_RETRANSMITS {
                        lost = true;
                        break;
                    }
                    cost += stats.charge_retransmit(&link, events);
                    retransmits += 1;
                    attempt += 1;
                }
            }
            let mut delay = None;
            if !exempt && faults.packet_delay(t, stats.src as u64, stats.dst as u64) {
                // Congestion model: the delayed packet still delivers, but
                // its edge costs extra cycles on both the latency and
                // bottleneck accumulators.
                self.injected.packets_delayed += 1;
                delay = Some(faults.config().delay_cycles());
                cost += faults.config().delay_cycles();
            }
            self.injected.packets_corrupted += corrupted;
            self.injected.retransmits += retransmits;
            if let Some(timeline) = timeline.as_deref_mut() {
                timeline.edges.push(EdgeCharge {
                    departed: upstream.finish,
                    hop,
                    serialize,
                    events,
                    corrupted,
                    retransmits,
                    delay,
                    cost,
                });
            }
            noc_in = noc_in.max(upstream.noc_latency + cost);
            pipe_in = pipe_in.max(upstream.pipe_max.max(cost));
        }
        if lost {
            // The retry budget ran dry on some in-edge: the transmissions
            // (and their retransmission traffic) were genuinely charged,
            // but the frame never arrived intact — it sinks as a gap for
            // the recovery pass, exactly like a dropped packet.
            if let Some(timeline) = timeline {
                timeline.lost();
            }
            return Ok(false);
        }
        for port in &self.ports {
            self.input.copy_bits_from(&port.slice, port.offset);
        }
        let chain = packets[0].chain(lane);
        let start = out.cycles.len() + chain.len();
        out.cycles.extend_from_slice(chain);
        let is_output = self.core.is_output();
        walk_frame(
            self.core.tiles_mut(),
            &self.input,
            &mut self.fired,
            &mut out.cycles,
            is_output.then_some(&mut self.membranes),
        )?;
        out.slices.set_row(lane, &self.fired);
        out.membranes.extend_from_slice(&self.membranes);
        let mut occupancy: u64 = out.cycles[start..].iter().sum();
        let mut stall = None;
        if !exempt && faults.core_stall(t, self.core.id() as u64) {
            // A stalled core occupies its pipeline station longer; the
            // per-tile latency chain (real compute) is untouched.
            self.injected.core_stalls += 1;
            stall = Some(faults.config().core_stall_cycles());
            occupancy += faults.config().core_stall_cycles();
        }
        let finish = timeline.map_or(0, |timeline| timeline.delivered(occupancy, stall));
        let crc = if faults.corrupt_active() {
            crc32_words(self.fired.words())
        } else {
            0
        };
        out.lanes.push(Lane {
            noc_latency: noc_in,
            pipe_max: pipe_in.max(occupancy),
            crc,
            finish,
        });
        Ok(true)
    }
}

/// The feeder's packets for a batch, `per_hand_off` frames each.
fn feed(frames: &[BitVec], per_hand_off: usize, armed: bool) -> impl Iterator<Item = Packet> + '_ {
    frames
        .chunks(per_hand_off)
        .map(move |chunk| Packet::Frames(FramesPacket::feed(chunk, armed)))
}

/// Sends `packet` down every channel (clones for all but the last);
/// `false` once any consumer is gone.
fn broadcast(txs: &[Sender<Packet>], packet: Packet) -> bool {
    let Some((last, rest)) = txs.split_last() else {
        return true;
    };
    rest.iter().all(|tx| tx.send(packet.clone()).is_ok()) && last.send(packet).is_ok()
}

/// The sink: turns the readout stage's packets (shards in column order)
/// into results.
#[derive(Debug, Clone)]
struct Readout {
    /// Column offset of each readout shard.
    offsets: Vec<usize>,
    /// Readout-layer width.
    width: usize,
    /// The converted output biases.
    bias: Vec<f32>,
}

impl Readout {
    /// Collects one hand-off's readout packets into results, one per frame
    /// in lane order, and folds their cycle accumulators into the tally. A
    /// frame lost to an injected link fault sinks as `None`, a gap the
    /// recovery pass fills after the run.
    fn record(
        &self,
        packets: &[Packet],
        results: &mut Vec<Option<InferenceResult>>,
        tally: &mut MeshTally,
    ) {
        let mut shards = Vec::with_capacity(packets.len());
        for packet in packets {
            match packet {
                Packet::Frames(shard) => shards.push(shard),
                Packet::Lost => {
                    results.push(None);
                    return;
                }
            }
        }
        debug_assert!(
            shards.windows(2).all(|w| w[0].cycles == w[1].cycles),
            "readout shards disagree on the cascade cycle chain"
        );
        for lane in 0..shards[0].lanes.len() {
            let mut membranes = Vec::with_capacity(self.width);
            for shard in &shards {
                let width = shard.slices.cols();
                membranes.extend_from_slice(&shard.membranes[lane * width..(lane + 1) * width]);
            }
            let output_spikes = match shards.as_slice() {
                [shard] => shard.slices.row(lane),
                _ => {
                    let mut spikes = BitVec::new(self.width);
                    for (shard, &offset) in shards.iter().zip(&self.offsets) {
                        spikes.copy_bits_from(&shard.slices.row(lane), offset);
                    }
                    spikes
                }
            };
            let result = InferenceResult::from_readout(
                membranes,
                &self.bias,
                output_spikes,
                shards[0].chain(lane).to_vec(),
            );
            tally.tiles.record(&result);
            let frame = shards.iter().map(|shard| shard.lanes[lane]);
            tally.mesh_bottleneck_cycles += frame.clone().map(|f| f.pipe_max).max().unwrap_or(0);
            tally.noc_latency_cycles += frame.map(|f| f.noc_latency).max().unwrap_or(0);
            results.push(Some(result));
        }
    }
}

/// Chrome-trace process id of mesh tracks in merged traces (the serving
/// layer uses pid 1; see `esam_serve::SERVE_TRACE_PID`).
pub const MESH_TRACE_PID: u32 = 2;

/// A multi-core ESAM mesh executing one network sharded across cores.
#[derive(Debug, Clone)]
pub struct MeshSystem {
    config: SystemConfig,
    mesh: MeshConfig,
    plan: MeshPlan,
    slots: Vec<CoreSlot>,
    stage_ranges: Vec<std::ops::Range<usize>>,
    readout: Readout,
    pipeline: PipelineTiming,
    tally: MeshTally,
}

impl MeshSystem {
    /// Shards `model` across cores per `mesh` (see
    /// [`MeshPlan::partition`]) and builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyMismatch`] when the model does not
    /// match the system configuration, and propagates tile construction
    /// and partitioning errors.
    pub fn from_model(
        model: &SnnModel,
        config: &SystemConfig,
        mesh: &MeshConfig,
    ) -> Result<Self, CoreError> {
        if model.topology() != config.topology() {
            return Err(CoreError::TopologyMismatch {
                expected: config.topology().to_vec(),
                got: model.topology(),
            });
        }
        let plan = MeshPlan::partition(config.topology(), mesh.cores())?;
        let pipeline = PipelineTiming::analyze(config)?;
        let stage_count = plan.stages().len();
        let mut slots: Vec<CoreSlot> = Vec::with_capacity(plan.cores());
        let mut stage_ranges = Vec::with_capacity(stage_count);
        // (core id, column offset, slice width) of the previous stage's
        // shards.
        let mut prev: Vec<(usize, usize, usize)> = Vec::new();
        for (stage_index, stage) in plan.stages().iter().enumerate() {
            let start = slots.len();
            let is_output = stage_index + 1 == stage_count;
            let mut current = Vec::with_capacity(stage.shards());
            for cols in &stage.splits {
                let id = slots.len();
                let core = MeshCore::build(
                    id,
                    stage_index,
                    model,
                    config,
                    stage.layers.clone(),
                    cols.clone(),
                    is_output,
                )?;
                let ports = if stage_index == 0 {
                    vec![InPort {
                        offset: 0,
                        link: None,
                        slice: BitVec::new(core.input_width()),
                    }]
                } else {
                    prev.iter()
                        .map(|&(src, offset, width)| InPort {
                            offset,
                            link: Some(LinkStats::new(src, id, (id - src) as u64)),
                            slice: BitVec::new(width),
                        })
                        .collect()
                };
                slots.push(CoreSlot {
                    input: BitVec::new(core.input_width()),
                    fired: BitVec::new(cols.len()),
                    membranes: Vec::new(),
                    core,
                    ports,
                    faults: *mesh.fault_plan(),
                    consumed: 0,
                    injected: MeshTally::default(),
                    timeline: None,
                });
                current.push((id, cols.start, cols.len()));
            }
            stage_ranges.push(start..slots.len());
            prev = current;
        }
        let readout = Readout {
            offsets: prev.iter().map(|&(_, offset, _)| offset).collect(),
            width: model.output_bias().len(),
            bias: model.output_bias().to_vec(),
        };
        Ok(Self {
            config: config.clone(),
            mesh: *mesh,
            plan,
            slots,
            stage_ranges,
            readout,
            pipeline,
            tally: MeshTally::default(),
        })
    }

    /// The partitioning in effect.
    pub fn plan(&self) -> &MeshPlan {
        &self.plan
    }

    /// The per-core system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The mesh configuration.
    pub fn mesh_config(&self) -> &MeshConfig {
        &self.mesh
    }

    /// Cycle tallies accumulated since the last [`reset_stats`](Self::reset_stats).
    pub fn tally(&self) -> &MeshTally {
        &self.tally
    }

    /// Number of cores actually instantiated (the plan may clamp the
    /// request).
    pub fn core_count(&self) -> usize {
        self.slots.len()
    }

    /// The cores, in id order (their tiles hold the activity counters).
    pub fn cores(&self) -> impl Iterator<Item = &MeshCore> {
        self.slots.iter().map(|slot| &slot.core)
    }

    /// Resets every activity counter: tile stats, link stats, the mesh
    /// tally, and the per-core frame counters that key fault decisions
    /// (so fault sites are a function of the frame's index within the
    /// measured batch).
    pub fn reset_stats(&mut self) {
        for slot in &mut self.slots {
            slot.core.reset_stats();
            for port in &mut slot.ports {
                if let Some(stats) = port.link.as_mut() {
                    *stats = LinkStats::new(stats.src, stats.dst, stats.distance);
                }
            }
            slot.consumed = 0;
            slot.injected = MeshTally::default();
        }
        self.tally = MeshTally::default();
    }

    /// Swaps the installed fault plan (also updates
    /// [`mesh_config`](Self::mesh_config)). Handy for sweeping fault rates
    /// over one built mesh; pass [`FaultPlan::none`] to return to the
    /// exact unfaulted baseline.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.mesh = self.mesh.faults(plan);
        for slot in &mut self.slots {
            slot.faults = plan;
        }
    }

    /// Runs a batch through the mesh, returning per-frame results in batch
    /// order. Activity accumulates in the tiles, links and
    /// [`tally`](Self::tally).
    ///
    /// Frames travel in hand-offs of up to 64 consecutive frames, one per
    /// hand-off while a mesh fault is armed (see the module docs). The
    /// hand-off size changes no result, tally or counter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for wrong-width frames
    /// and propagates per-core inference errors.
    pub fn run(&mut self, frames: &[BitVec]) -> Result<Vec<InferenceResult>, CoreError> {
        self.check_widths(frames)?;
        if frames.is_empty() {
            return Ok(Vec::new());
        }
        match self.mesh.execution_mode() {
            Execution::Sequential => self.run_sequential(frames),
            Execution::Pipelined => self.run_pipelined(frames),
        }
    }

    /// Measures a batch: reset, run, finalize — the mesh counterpart of
    /// `EsamSystem::measure_batch`.
    ///
    /// # Errors
    ///
    /// Propagates inference errors; returns [`CoreError::InvalidConfig`]
    /// for an empty batch.
    pub fn measure(&mut self, frames: &[BitVec]) -> Result<MeshMetrics, CoreError> {
        if frames.is_empty() {
            return Err(CoreError::InvalidConfig(
                "metrics need at least one frame".into(),
            ));
        }
        self.reset_stats();
        self.run(frames)?;
        self.finalize_metrics()
    }

    /// Finalizes the accumulated tally and counters into [`MeshMetrics`]
    /// — a pure function of the merged integers. The tile half is
    /// [`SystemMetrics::modeled`], the derivation
    /// `EsamSystem::finalize_metrics` runs too; the mesh adds its link and
    /// NoC figures.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when no frames have been run;
    /// propagates SRAM energy-model errors.
    pub fn finalize_metrics(&self) -> Result<MeshMetrics, CoreError> {
        let tally = &self.tally;
        let system = SystemMetrics::modeled(&self.pipeline, &tally.tiles, self.tiles())?;
        let n = tally.tiles.frames as f64;
        let mesh_bottleneck_cycles = tally.mesh_bottleneck_cycles as f64 / n;
        let mut links: Vec<LinkStats> = self
            .slots
            .iter()
            .flat_map(|slot| slot.ports.iter().filter_map(|port| port.link))
            .collect();
        links.sort_by_key(|link| (link.src, link.dst));
        Ok(MeshMetrics {
            system,
            cores: self.slots.len(),
            mesh_bottleneck_cycles,
            mesh_throughput_inf_s: self.pipeline.throughput_for_cycles(mesh_bottleneck_cycles),
            noc_latency_cycles: tally.noc_latency_cycles as f64 / n,
            mesh_latency: self.pipeline.seconds_for_cycles(
                (tally.tiles.latency_cycles + tally.noc_latency_cycles) as f64 / n,
            ),
            links,
        })
    }

    fn tiles(&self) -> impl Iterator<Item = &Tile> + Clone {
        self.slots.iter().flat_map(|slot| slot.core.tiles())
    }

    /// Frames per hand-off: [`HAND_OFF_FRAMES`], or one while a mesh fault
    /// is armed. Mesh faults are keyed per hand-off, so one-frame hand-offs
    /// keep every fault site, lost marker and retransmission where a
    /// frame-by-frame run puts it.
    fn hand_off_frames(&self) -> usize {
        if self.mesh.fault_plan().mesh_active() {
            1
        } else {
            HAND_OFF_FRAMES
        }
    }

    fn check_widths(&self, frames: &[BitVec]) -> Result<(), CoreError> {
        let expected = self.plan.topology()[0];
        match frames.iter().find(|frame| frame.len() != expected) {
            Some(frame) => Err(CoreError::InputWidthMismatch {
                expected,
                got: frame.len(),
            }),
            None => Ok(()),
        }
    }

    /// Runs a batch on the sequential reference path, recording the pipeline's steady-state timeline in the modeled cycle
    /// domain: per-core `frame` occupancy spans with fill/imbalance
    /// `bubble` spans, per-link `hop` + `serialize` transfer spans, and
    /// injected faults (`packet-drop`, `packet-corrupt`, `packet-delay`,
    /// `core-stall`, `frame-lost`) as instants. Event args carry the
    /// frame's index within this call.
    ///
    /// The timeline is drawn by the handlers as they charge (see the module
    /// docs), so results, tallies and every activity counter are exactly
    /// those of [`run`](Self::run) under [`Execution::Sequential`], with
    /// the same hand-offs. It is pure cycle arithmetic, independent of wall
    /// time: the cycle-domain Chrome export of the returned [`Trace`] is
    /// byte-identical across runs. The fault-exempt recovery pass draws
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for wrong-width frames
    /// and propagates per-core inference errors.
    pub fn run_traced(
        &mut self,
        frames: &[BitVec],
        trace_capacity: usize,
    ) -> Result<(Vec<InferenceResult>, Trace), CoreError> {
        self.check_widths(frames)?;
        let epoch = Instant::now();
        // Link tracks take the tids past the core ids, in core then port
        // order.
        let mut link_tid = self.slots.len() as u32;
        for slot in &mut self.slots {
            let timeline = Timeline::new(&slot.core, &slot.ports, link_tid, trace_capacity, epoch);
            link_tid += timeline.links.len() as u32;
            slot.timeline = Some(timeline);
        }
        let outcome = self.run_sequential(frames);
        let mut trace = Trace::new();
        trace.name_process(MESH_TRACE_PID, "esam-mesh");
        for slot in &mut self.slots {
            if let Some(timeline) = slot.timeline.take() {
                trace.push(timeline.core);
                for link in timeline.links {
                    trace.push(link);
                }
            }
        }
        Ok((outcome?, trace))
    }

    /// The retained single-threaded reference: stage order, hand-off by
    /// hand-off, through the same handlers the pipelined mode runs.
    fn run_sequential(&mut self, frames: &[BitVec]) -> Result<Vec<InferenceResult>, CoreError> {
        let mut results = Vec::with_capacity(frames.len());
        let mut tally = MeshTally::default();
        let armed = self.mesh.fault_plan().corrupt_active();
        for packet in feed(frames, self.hand_off_frames(), armed) {
            let packets = self.walk_stages(packet, false)?;
            self.readout.record(&packets, &mut results, &mut tally);
        }
        self.finish_run(frames, results, tally)
    }

    /// Pushes one feeder packet through every stage in order, returning
    /// the readout stage's packets in shard (column) order. `exempt` runs
    /// the fault-exempt recovery variant of every handler.
    fn walk_stages(&mut self, feed: Packet, exempt: bool) -> Result<Vec<Packet>, CoreError> {
        let mut prev = vec![feed];
        for stage in 0..self.stage_ranges.len() {
            let range = self.stage_ranges[stage].clone();
            let mut next = Vec::with_capacity(range.len());
            for index in range {
                next.push(self.slots[index].handle(&prev, exempt)?);
            }
            prev = next;
        }
        Ok(prev)
    }

    /// The common run epilogue: recover every missing frame on the
    /// fault-exempt sequential path (modeled retransmission from the
    /// source — links and tiles are re-charged for the re-run), drain the
    /// per-core fault counters, fold the run's tally in, and unwrap the
    /// now-complete results.
    fn finish_run(
        &mut self,
        frames: &[BitVec],
        mut results: Vec<Option<InferenceResult>>,
        mut tally: MeshTally,
    ) -> Result<Vec<InferenceResult>, CoreError> {
        let armed = self.mesh.fault_plan().corrupt_active();
        // Frames past the sink's progress never completed (a dead
        // pipeline); they are gaps like any dropped frame.
        results.resize(frames.len(), None);
        for (index, slot) in results.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let feed = FramesPacket::feed(std::slice::from_ref(&frames[index]), armed);
            let packets = self.walk_stages(Packet::Frames(feed), true)?;
            let mut recovered = Vec::with_capacity(1);
            self.readout.record(&packets, &mut recovered, &mut tally);
            tally.frames_recovered += 1;
            *slot = recovered.pop().expect("one frame in, one result out");
            debug_assert!(
                slot.is_some(),
                "the exempt recovery path cannot lose frames"
            );
        }
        for slot in &mut self.slots {
            tally.merge(&std::mem::take(&mut slot.injected));
        }
        self.tally.merge(&tally);
        Ok(results
            .into_iter()
            .map(|result| result.expect("every gap was just recovered"))
            .collect())
    }

    /// Pipeline-parallel execution: one thread per core plus a feeder
    /// thread, the sink on the calling thread. Core *k* serves hand-off
    /// *t* while core *k+1* serves *t−1*; bounded SPSC channels apply
    /// back-pressure, and endpoint drops propagate shutdown (see
    /// [`crate::spsc`]).
    ///
    /// Panics inside a core — injected by the fault plan or genuine — are
    /// contained by `catch_unwind` on the worker thread: the thread drops
    /// its endpoints (shutting the pipeline down cleanly in both
    /// directions), every spawned thread is explicitly joined, and the
    /// frames that never reached the sink are recovered sequentially. A
    /// mid-batch core death therefore degrades throughput, never
    /// correctness, and cannot deadlock or tear down the calling thread.
    fn run_pipelined(&mut self, frames: &[BitVec]) -> Result<Vec<InferenceResult>, CoreError> {
        let capacity = self.mesh.channel_depth();
        let stage_count = self.stage_ranges.len();
        let slot_count = self.slots.len();
        let mut in_rx: Vec<Vec<Receiver<Packet>>> = (0..slot_count).map(|_| Vec::new()).collect();
        let mut out_tx: Vec<Vec<Sender<Packet>>> = (0..slot_count).map(|_| Vec::new()).collect();
        let mut feed_tx = Vec::new();
        for consumer in self.stage_ranges[0].clone() {
            let (tx, rx) = channel(capacity);
            feed_tx.push(tx);
            in_rx[consumer].push(rx);
        }
        // Producers enumerate their senders in consumer order and
        // consumers their receivers in producer order; with this fixed
        // ordering on an acyclic stage graph, bounded channels cannot
        // deadlock — every blocked endpoint waits on a strictly
        // downstream or strictly upstream peer.
        for boundary in 1..stage_count {
            for producer in self.stage_ranges[boundary - 1].clone() {
                for consumer in self.stage_ranges[boundary].clone() {
                    let (tx, rx) = channel(capacity);
                    out_tx[producer].push(tx);
                    in_rx[consumer].push(rx);
                }
            }
        }
        let mut sink_rx = Vec::new();
        for producer in self.stage_ranges[stage_count - 1].clone() {
            let (tx, rx) = channel(capacity);
            out_tx[producer].push(tx);
            sink_rx.push(rx);
        }

        let errors: Mutex<Vec<CoreError>> = Mutex::new(Vec::new());
        let panics: Mutex<u64> = Mutex::new(0);
        let mut results: Vec<Option<InferenceResult>> = Vec::with_capacity(frames.len());
        let mut tally = MeshTally::default();
        let per_hand_off = self.hand_off_frames();
        let hand_offs = frames.len().div_ceil(per_hand_off);
        let link_timeout = self.mesh.link_timeout_budget();
        let armed = self.mesh.fault_plan().corrupt_active();
        let slots = &mut self.slots;
        let readout = &self.readout;

        thread::scope(|scope| {
            let feeder = scope.spawn(move || {
                for packet in feed(frames, per_hand_off, armed) {
                    if !broadcast(&feed_tx, packet) {
                        return;
                    }
                }
            });
            let mut workers = Vec::with_capacity(slots.len());
            for ((slot, rxs), txs) in slots.iter_mut().zip(in_rx).zip(out_tx) {
                let errors = &errors;
                let panics = &panics;
                workers.push(scope.spawn(move || {
                    'hand_offs: loop {
                        let mut inputs = Vec::with_capacity(rxs.len());
                        for rx in &rxs {
                            match rx.recv() {
                                Some(packet) => inputs.push(packet),
                                // A producer is gone: end of stream (or an
                                // upstream failure) — drop our endpoints so
                                // the shutdown propagates both ways.
                                None => break 'hand_offs,
                            }
                        }
                        // Injected core death fires at the hand-off
                        // boundary, before any tile work, so the core's
                        // state stays clean for the recovery pass. The
                        // catch_unwind also contains *genuine* handler
                        // panics: either way the thread breaks out, drops
                        // its endpoints, and the run degrades instead of
                        // unwinding through the scope.
                        let core_id = slot.core.id();
                        let doomed = slot.faults.core_panic(slot.consumed, core_id as u64);
                        let handled = catch_unwind(AssertUnwindSafe(|| {
                            if doomed {
                                panic!("injected core fault (core {core_id})");
                            }
                            slot.handle(&inputs, false)
                        }));
                        match handled {
                            Ok(Ok(packet)) => {
                                if !broadcast(&txs, packet) {
                                    break 'hand_offs;
                                }
                            }
                            Ok(Err(error)) => {
                                lock_recover(errors).push(error);
                                break 'hand_offs;
                            }
                            Err(_) => {
                                *lock_recover(panics) += 1;
                                break 'hand_offs;
                            }
                        }
                    }
                }));
            }
            'sink: for _ in 0..hand_offs {
                let mut packets = Vec::with_capacity(sink_rx.len());
                for rx in &sink_rx {
                    let received = match link_timeout {
                        None => rx.recv(),
                        Some(budget) => match rx.recv_timeout(budget) {
                            RecvTimeout::Value(packet) => Some(packet),
                            RecvTimeout::Closed => None,
                            RecvTimeout::TimedOut => {
                                // The liveness backstop: a hung (not dead)
                                // producer — abandon the pipeline and let
                                // the recovery pass finish the batch.
                                tally.link_timeouts += 1;
                                None
                            }
                        },
                    };
                    match received {
                        Some(packet) => packets.push(packet),
                        None => break 'sink,
                    }
                }
                readout.record(&packets, &mut results, &mut tally);
            }
            // Release the sink's receivers so upstream cores unwind if the
            // loop broke early, then join every spawned thread explicitly.
            // Panics were contained on the worker side, so these joins
            // cannot re-raise; a mid-batch core death still ends with the
            // full complement of threads reaped.
            drop(sink_rx);
            let _ = feeder.join();
            for worker in workers {
                let _ = worker.join();
            }
        });

        if let Some(error) = errors
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
        {
            return Err(error);
        }
        tally.core_panics += panics.into_inner().unwrap_or_else(PoisonError::into_inner);
        self.finish_run(frames, results, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esam_core::EsamSystem;
    use esam_nn::BnnNetwork;
    use esam_sram::BitcellKind;

    fn build(topology: &[usize], seed: u64) -> (SnnModel, SystemConfig) {
        let net = BnnNetwork::new(topology, seed).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(2).unwrap(), topology)
            .build()
            .unwrap();
        (model, config)
    }

    fn frames(width: usize, count: usize) -> Vec<BitVec> {
        (0..count)
            .map(|f| {
                BitVec::from_indices(
                    width,
                    &[(f * 13) % width, (f * 29 + 7) % width, (f * 53 + 1) % width],
                )
            })
            .collect()
    }

    #[test]
    fn single_core_mesh_matches_the_plain_system() {
        let (model, config) = build(&[128, 64, 10], 3);
        let mut plain = EsamSystem::from_model(&model, &config).unwrap();
        let mesh_config = MeshConfig::with_cores(1).execution(Execution::Sequential);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
        assert_eq!(mesh.core_count(), 1);
        let batch = frames(128, 6);
        let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
        assert_eq!(mesh.run(&batch).unwrap(), expected);
        // A single stage has no links, so the mesh bottleneck is the whole
        // cascade and NoC latency is zero.
        assert_eq!(mesh.tally().noc_latency_cycles, 0);
        assert_eq!(
            mesh.tally().mesh_bottleneck_cycles,
            mesh.tally().tiles.latency_cycles
        );
    }

    #[test]
    fn measure_reports_mesh_figures() {
        let (model, config) = build(&[128, 64, 32, 10], 5);
        let mesh_config = MeshConfig::with_cores(3);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
        let metrics = mesh.measure(&frames(128, 32)).unwrap();
        assert_eq!(metrics.cores, 3);
        assert!(metrics.mesh_bottleneck_cycles > 0.0);
        assert!(metrics.mesh_throughput_inf_s > metrics.system.throughput_inf_s / 100.0);
        assert_eq!(metrics.links.len(), 2, "two boundaries, one link each");
        assert!(metrics.links.iter().all(|l| l.frames == 32));
        let text = metrics.to_string();
        assert!(text.contains("mesh throughput"));
        assert!(mesh.measure(&[]).is_err());
    }

    #[test]
    fn wrong_width_frames_are_rejected() {
        let (model, config) = build(&[128, 64, 10], 1);
        let mut mesh = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(2)).unwrap();
        let err = mesh.run(&[BitVec::new(64)]).unwrap_err();
        assert!(matches!(err, CoreError::InputWidthMismatch { .. }));
    }
}
