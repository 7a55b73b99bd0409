//! The deterministic dual-domain tracer.
//!
//! # Design
//!
//! * A **track** ([`TrackTrace`]) is one timeline in the final trace —
//!   one per serve worker, mesh core, mesh link or engine shard. Each
//!   track is owned by exactly one thread while recording (the
//!   workspace's shard-and-merge idiom: no shared mutable state, no
//!   locks, no sampling races).
//! * Storage is a **fixed-capacity ring buffer** allocated once at
//!   construction. Recording an event writes a `Copy` struct into the
//!   ring — no allocation, ever: event names and arg keys are
//!   `&'static str`, values are `u64`. When the ring is full, the oldest
//!   event is overwritten and `dropped` ticks, so a long-lived service
//!   keeps the most recent window at a fixed memory cost.
//! * Every event carries **both time domains**: modeled pipeline cycles
//!   (from the track's cycle cursor — deterministic, workload-invariant)
//!   and wall nanoseconds since the track's epoch (machine-dependent).
//!   Exporters pick a domain via [`TimeDomain`]; cycle-domain exports are
//!   byte-identical across runs.
//! * At finalize, tracks are pushed into a [`Trace`] which linearizes
//!   each ring and sorts tracks by stable `(pid, tid)` ids — the same
//!   exact merge law the tally counters follow, so a trace assembled from
//!   N worker tracks is independent of completion order.
//!
//! Tracing is opt-in by ownership: instrumented code holds an
//! `Option<TrackTrace>` (see [`TraceConfig::track`]) and records only when
//! it is `Some`, so untraced code never touches the tracer.

use std::time::Instant;

use crate::json_escape;

/// Which timestamp domain an exporter reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeDomain {
    /// Modeled pipeline cycles — deterministic; byte-identical exports
    /// across runs at a fixed seed and thread count.
    Cycles,
    /// Wall-clock nanoseconds since the track epoch — what this machine
    /// actually took; never byte-stable across runs.
    Wall,
}

/// Tracer on/off switch plus the per-track ring capacity. `Copy` so it
/// can ride inside the serve/mesh config structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    enabled: bool,
    capacity: usize,
}

impl TraceConfig {
    /// Tracing off — [`track`](Self::track) creates no track.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: 0,
        }
    }

    /// Tracing on, with `capacity` events retained per track (clamped to
    /// at least 1; the newest events win when the ring overflows).
    pub fn enabled(capacity: usize) -> Self {
        Self {
            enabled: true,
            capacity: capacity.max(1),
        }
    }

    /// Whether tracing is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Per-track ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Creates a track when enabled; `None` when disabled.
    pub fn track(&self, pid: u32, tid: u32, name: impl Into<String>) -> Option<TrackTrace> {
        self.enabled
            .then(|| TrackTrace::new(pid, tid, name, self.capacity))
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One `(key, value)` pair attached to an event. Keys are `&'static str`
/// and values `u64` so attaching args never allocates.
pub type EventArg = (&'static str, u64);

/// Event shape in the Chrome trace-event sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (`ph: "X"`): a named interval with a duration.
    Span,
    /// An instant (`ph: "i"`): a point marker (fault events, fulfils).
    Instant,
}

/// One recorded event, carrying both time domains. `Copy`, fixed-size —
/// this is what lives in the ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (a track-local label such as `"infer"`).
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Cycle-domain timestamp (modeled pipeline cycles).
    pub cycles: u64,
    /// Cycle-domain duration (0 for instants).
    pub cycle_dur: u64,
    /// Wall-domain timestamp: nanoseconds since the track epoch.
    pub wall_ns: u64,
    /// Wall-domain duration in nanoseconds (0 when not measured).
    pub wall_dur_ns: u64,
    /// Up to two `(key, value)` args.
    pub args: [Option<EventArg>; 2],
}

/// No args — the common case.
pub const NO_ARGS: [Option<EventArg>; 2] = [None, None];

/// An open `begin`/`end` span on the track's stack.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    name: &'static str,
    cycles: u64,
    wall_ns: u64,
}

/// Maximum `begin` nesting depth per track (preallocated; deeper begins
/// are counted as unmatched rather than allocating).
const MAX_SPAN_DEPTH: usize = 32;

/// One thread-owned recording timeline: a fixed-capacity event ring, a
/// modeled-cycle cursor, and a bounded open-span stack.
#[derive(Debug, Clone)]
pub struct TrackTrace {
    pid: u32,
    tid: u32,
    name: String,
    epoch: Instant,
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    dropped: u64,
    cursor: u64,
    open: Vec<OpenSpan>,
    unmatched: u64,
}

impl TrackTrace {
    /// A new track. `pid` groups tracks into Perfetto processes (one per
    /// subsystem), `tid` orders tracks within a process, `name` labels
    /// the track, `capacity` bounds the ring (clamped to at least 1).
    /// The wall epoch is `Instant::now()`; use
    /// [`with_epoch`](Self::with_epoch) to share one epoch across tracks.
    pub fn new(pid: u32, tid: u32, name: impl Into<String>, capacity: usize) -> Self {
        Self::with_epoch(pid, tid, name, capacity, Instant::now())
    }

    /// A new track whose wall timestamps are relative to `epoch` (share
    /// one epoch across all tracks of a run so wall times line up).
    pub fn with_epoch(
        pid: u32,
        tid: u32,
        name: impl Into<String>,
        capacity: usize,
        epoch: Instant,
    ) -> Self {
        let capacity = capacity.max(1);
        Self {
            pid,
            tid,
            name: name.into(),
            epoch,
            capacity,
            events: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            cursor: 0,
            open: Vec::with_capacity(MAX_SPAN_DEPTH),
            unmatched: 0,
        }
    }

    /// Process id (subsystem group).
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Track id within the process.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Track label.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `end` calls (or abandoned opens) that had no matching `begin`.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Current modeled-cycle cursor.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Open (`begin` without `end` yet) span depth.
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Nanoseconds since the track epoch (saturated into `u64`).
    pub fn wall_elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Moves the cycle cursor to an absolute position.
    pub fn set_cursor(&mut self, cycles: u64) {
        self.cursor = cycles;
    }

    /// Advances the cycle cursor without recording anything (idle time,
    /// pipeline bubbles the caller accounts elsewhere).
    pub fn advance(&mut self, cycles: u64) {
        self.cursor = self.cursor.saturating_add(cycles);
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            // Ring full: overwrite the oldest event (newest window wins).
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records an instant at the current cursor.
    pub fn instant(&mut self, name: &'static str, args: [Option<EventArg>; 2]) {
        let wall_ns = self.wall_elapsed_ns();
        self.push(TraceEvent {
            name,
            kind: EventKind::Instant,
            cycles: self.cursor,
            cycle_dur: 0,
            wall_ns,
            wall_dur_ns: 0,
            args,
        });
    }

    /// Records a completed span at the cursor and advances the cursor by
    /// `cycle_dur` — the workhorse for sequential stage attribution.
    pub fn span(&mut self, name: &'static str, cycle_dur: u64, args: [Option<EventArg>; 2]) {
        let start = self.cursor;
        self.cursor = self.cursor.saturating_add(cycle_dur);
        self.span_at(name, start, cycle_dur, args);
    }

    /// Records a completed span at an explicit cycle position without
    /// moving the cursor (queue-wait intervals, link transfers).
    pub fn span_at(
        &mut self,
        name: &'static str,
        cycles: u64,
        cycle_dur: u64,
        args: [Option<EventArg>; 2],
    ) {
        let wall_ns = self.wall_elapsed_ns();
        self.push(TraceEvent {
            name,
            kind: EventKind::Span,
            cycles,
            cycle_dur,
            wall_ns,
            wall_dur_ns: 0,
            args,
        });
    }

    /// Records a completed span with explicit timestamps in both domains.
    #[allow(clippy::too_many_arguments)]
    pub fn span_walled(
        &mut self,
        name: &'static str,
        cycles: u64,
        cycle_dur: u64,
        wall_ns: u64,
        wall_dur_ns: u64,
        args: [Option<EventArg>; 2],
    ) {
        self.push(TraceEvent {
            name,
            kind: EventKind::Span,
            cycles,
            cycle_dur,
            wall_ns,
            wall_dur_ns,
            args,
        });
    }

    /// Opens a span at the current cursor. Paired by the next
    /// [`end`](Self::end); nesting beyond `MAX_SPAN_DEPTH` (32) is counted
    /// as unmatched instead of allocating.
    pub fn begin(&mut self, name: &'static str) {
        if self.open.len() == MAX_SPAN_DEPTH {
            self.unmatched += 1;
            return;
        }
        let wall_ns = self.wall_elapsed_ns();
        self.open.push(OpenSpan {
            name,
            cycles: self.cursor,
            wall_ns,
        });
    }

    /// Closes the innermost open span, emitting a completed span whose
    /// cycle duration is the cursor movement since the matching `begin`
    /// and whose wall duration is measured. Returns `false` (and counts
    /// the exit as unmatched) when no span is open.
    pub fn end(&mut self, args: [Option<EventArg>; 2]) -> bool {
        let Some(open) = self.open.pop() else {
            self.unmatched += 1;
            return false;
        };
        let wall_now = self.wall_elapsed_ns();
        self.push(TraceEvent {
            name: open.name,
            kind: EventKind::Span,
            cycles: open.cycles,
            cycle_dur: self.cursor.saturating_sub(open.cycles),
            wall_ns: open.wall_ns,
            wall_dur_ns: wall_now.saturating_sub(open.wall_ns),
            args,
        });
        true
    }

    /// Abandons all open spans — the panic/restart recovery hook. Each
    /// abandoned span is counted as unmatched and marked with an
    /// `"abandoned"` instant, so a supervisor that catches a worker
    /// unwind can restore the well-formedness invariant
    /// (`open_depth() == 0`) before reusing or finalizing the track.
    pub fn abandon_open(&mut self) {
        let depth = self.open.len() as u64;
        if depth > 0 {
            self.unmatched += depth;
            self.open.clear();
            self.instant("abandoned", [Some(("spans", depth)), None]);
        }
    }

    /// Retained events in recording order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.events.split_at(self.head);
        older.iter().chain(newer.iter())
    }
}

/// One finalized track inside a [`Trace`]: linearized events plus the
/// track's bookkeeping counters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSection {
    /// Process id (subsystem group).
    pub pid: u32,
    /// Track id within the process.
    pub tid: u32,
    /// Track label (Perfetto thread name).
    pub name: String,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Unmatched span exits/abandons.
    pub unmatched: u64,
}

/// A merged, finalized trace: tracks sorted by `(pid, tid)` — the exact
/// merge law — plus optional process names for the exporter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    tracks: Vec<TrackSection>,
    processes: Vec<(u32, String)>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a `pid` for the exporter (Perfetto process label).
    pub fn name_process(&mut self, pid: u32, name: impl Into<String>) {
        let name = name.into();
        match self.processes.binary_search_by(|(p, _)| p.cmp(&pid)) {
            Ok(i) => self.processes[i].1 = name,
            Err(i) => self.processes.insert(i, (pid, name)),
        }
    }

    /// Folds a finished track in, keeping tracks sorted by `(pid, tid)`.
    /// Insertion order does not matter: any completion order of worker
    /// threads produces the same trace.
    pub fn push(&mut self, track: TrackTrace) {
        let events: Vec<TraceEvent> = track.events().copied().collect();
        let section = TrackSection {
            pid: track.pid,
            tid: track.tid,
            name: track.name,
            events,
            dropped: track.dropped,
            unmatched: track.unmatched,
        };
        let at = self
            .tracks
            .partition_point(|t| (t.pid, t.tid) <= (section.pid, section.tid));
        self.tracks.insert(at, section);
    }

    /// Merges another trace in under the same sorted-track law.
    pub fn merge(&mut self, other: Trace) {
        for (pid, name) in other.processes {
            self.name_process(pid, name);
        }
        for section in other.tracks {
            let at = self
                .tracks
                .partition_point(|t| (t.pid, t.tid) <= (section.pid, section.tid));
            self.tracks.insert(at, section);
        }
    }

    /// The finalized tracks, sorted by `(pid, tid)`.
    pub fn tracks(&self) -> &[TrackSection] {
        &self.tracks
    }

    /// Total retained events across all tracks.
    pub fn total_events(&self) -> u64 {
        self.tracks.iter().map(|t| t.events.len() as u64).sum()
    }

    /// Total events lost to ring overflow across all tracks.
    pub fn total_dropped(&self) -> u64 {
        let mut total = 0;
        for track in &self.tracks {
            crate::tally_add(&mut total, track.dropped);
        }
        total
    }

    /// Total unmatched span exits across all tracks (0 ⇔ every recorded
    /// exit matched an enter).
    pub fn total_unmatched(&self) -> u64 {
        let mut total = 0;
        for track in &self.tracks {
            crate::tally_add(&mut total, track.unmatched);
        }
        total
    }

    /// Exports Chrome trace-event JSON (the format `chrome://tracing`
    /// and [Perfetto](https://ui.perfetto.dev) load). One Perfetto
    /// thread per track, `M` metadata naming processes and threads, `X`
    /// complete spans, `i` thread-scoped instants. In the
    /// [`TimeDomain::Cycles`] domain, `ts`/`dur` are modeled cycles
    /// (shown as microseconds — 1 µs ≙ 1 cycle) and the output is
    /// byte-identical across runs; in [`TimeDomain::Wall`] they are
    /// real microseconds with nanosecond decimals.
    pub fn chrome_json(&self, domain: TimeDomain) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for &(pid, ref name) in &self.processes {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(name)
                ),
                &mut out,
            );
        }
        for track in &self.tracks {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    track.pid,
                    track.tid,
                    json_escape(&track.name)
                ),
                &mut out,
            );
            for event in &track.events {
                emit(chrome_event(track, event, domain), &mut out);
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Formats a wall-domain nanosecond stamp as fractional microseconds.
fn wall_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn chrome_event(track: &TrackSection, event: &TraceEvent, domain: TimeDomain) -> String {
    let (ts, dur) = match domain {
        TimeDomain::Cycles => (event.cycles.to_string(), event.cycle_dur.to_string()),
        TimeDomain::Wall => (wall_us(event.wall_ns), wall_us(event.wall_dur_ns)),
    };
    let mut args = String::new();
    for arg in event.args.iter().flatten() {
        if !args.is_empty() {
            args.push(',');
        }
        args.push_str(&format!("\"{}\":{}", json_escape(arg.0), arg.1));
    }
    match event.kind {
        EventKind::Span => format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{ts},\"dur\":{dur},\
             \"args\":{{{args}}}}}",
            json_escape(event.name),
            track.pid,
            track.tid,
        ),
        EventKind::Instant => format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{ts},\
             \"args\":{{{args}}}}}",
            json_escape(event.name),
            track.pid,
            track.tid,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track() -> TrackTrace {
        TrackTrace::new(1, 0, "t", 8)
    }

    #[test]
    fn span_advances_the_cursor() {
        let mut t = track();
        t.span("a", 10, NO_ARGS);
        t.span("b", 5, NO_ARGS);
        assert_eq!(t.cursor(), 15);
        let events: Vec<_> = t.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].cycles, events[0].cycle_dur), (0, 10));
        assert_eq!((events[1].cycles, events[1].cycle_dur), (10, 5));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = TrackTrace::new(1, 0, "t", 3);
        for i in 0..5u64 {
            t.instant("e", [Some(("i", i)), None]);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let kept: Vec<u64> = t.events().map(|e| e.args[0].unwrap().1).collect();
        assert_eq!(kept, vec![2, 3, 4], "newest window wins, oldest first");
    }

    #[test]
    fn begin_end_pairs_and_measures_cycles() {
        let mut t = track();
        t.begin("outer");
        t.advance(4);
        t.begin("inner");
        t.advance(6);
        assert_eq!(t.open_depth(), 2);
        assert!(t.end(NO_ARGS));
        assert!(t.end(NO_ARGS));
        assert_eq!(t.open_depth(), 0);
        assert_eq!(t.unmatched(), 0);
        let events: Vec<_> = t.events().collect();
        // Inner closes first.
        assert_eq!(events[0].name, "inner");
        assert_eq!((events[0].cycles, events[0].cycle_dur), (4, 6));
        assert_eq!(events[1].name, "outer");
        assert_eq!((events[1].cycles, events[1].cycle_dur), (0, 10));
    }

    #[test]
    fn unmatched_end_is_counted_not_recorded() {
        let mut t = track();
        assert!(!t.end(NO_ARGS));
        assert_eq!(t.unmatched(), 1);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn abandon_open_restores_wellformedness() {
        let mut t = track();
        t.begin("doomed");
        t.begin("also-doomed");
        t.abandon_open();
        assert_eq!(t.open_depth(), 0);
        assert_eq!(t.unmatched(), 2);
        let last = t.events().last().unwrap();
        assert_eq!(last.name, "abandoned");
        assert_eq!(last.args[0], Some(("spans", 2)));
    }

    #[test]
    fn trace_push_sorts_tracks_by_pid_tid() {
        let mut trace = Trace::new();
        trace.push(TrackTrace::new(2, 0, "late", 4));
        trace.push(TrackTrace::new(1, 1, "mid", 4));
        trace.push(TrackTrace::new(1, 0, "early", 4));
        let ids: Vec<_> = trace.tracks().iter().map(|t| (t.pid, t.tid)).collect();
        assert_eq!(ids, vec![(1, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn merge_order_does_not_change_the_trace() {
        let mk = |pid, tid| {
            let mut t = TrackTrace::new(pid, tid, format!("{pid}.{tid}"), 4);
            t.span("s", u64::from(pid) + u64::from(tid), NO_ARGS);
            t
        };
        let mut a = Trace::new();
        a.push(mk(1, 0));
        a.push(mk(2, 1));
        let mut b = Trace::new();
        b.push(mk(2, 1));
        b.push(mk(1, 0));
        // Wall stamps differ between builds; the cycle-domain export is
        // the determinism claim and must be byte-identical.
        assert_eq!(
            a.chrome_json(TimeDomain::Cycles),
            b.chrome_json(TimeDomain::Cycles)
        );
    }

    #[test]
    fn cycle_domain_export_is_stable_and_wall_is_not_required_to_be() {
        let build = || {
            let mut t = TrackTrace::new(1, 0, "w", 8);
            t.span("infer", 100, [Some(("frame", 3)), None]);
            t.instant("fulfil", NO_ARGS);
            let mut trace = Trace::new();
            trace.name_process(1, "serve");
            trace.push(t);
            trace
        };
        let a = build().chrome_json(TimeDomain::Cycles);
        let b = build().chrome_json(TimeDomain::Cycles);
        assert_eq!(a, b, "cycle-domain export is byte-identical");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"process_name\""));
    }

    #[test]
    fn disabled_config_creates_no_tracks() {
        assert!(TraceConfig::disabled().track(1, 0, "w").is_none());
        assert!(TraceConfig::enabled(16).track(1, 0, "w").is_some());
    }
}
