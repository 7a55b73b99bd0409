//! Observability layer for the ESAM workspace: deterministic dual-domain
//! tracing, a unified metrics registry, and exporters.
//!
//! Every crate in the workspace already *counts* — `BatchTally` in core,
//! `MeshTally`/`LinkStats` in mesh, `FaultTally` in fault, the latency
//! histograms in serve — but counters only say *how much*, never *where*.
//! This crate adds the missing attribution layer, under the same
//! discipline the counters obey:
//!
//! * **Dual time domains** ([`TimeDomain`]). Every trace event carries
//!   both a *wall-clock* timestamp (what the simulator-as-a-service
//!   actually took — machine-dependent) and a *modeled-cycle* timestamp
//!   (what the modeled silicon would take — a workload invariant). The
//!   cycle domain is what makes traces reproducible: exporting it yields
//!   byte-identical output across runs, machines and thread counts.
//! * **Zero-allocation recording** ([`TrackTrace`]). Each track owns a
//!   fixed-capacity ring buffer allocated once at construction; recording
//!   an event is a couple of stores into that ring (names are
//!   `&'static str`, args are plain `u64`s). When the ring is full the
//!   oldest events are overwritten and a `dropped` counter ticks — a
//!   long-lived service can never grow unbounded trace memory. Disabled
//!   tracing is no track at all: [`TraceConfig::track`] returns `None`,
//!   and code that holds no track records nothing.
//! * **Exact merge law** ([`Trace`]). Worker threads record into private
//!   tracks (the workspace's shard-and-merge idiom — no shared mutable
//!   state, no sampling); at finalize the tracks are merged and sorted by
//!   stable `(pid, tid)` ids, and all counters fold with [`tally_add`].
//!   The merged cycle-domain trace is identical at any thread count that
//!   produces the same logical schedule.
//! * **Counters defined once** ([`counters!`]). One doc-commented field
//!   list declares a tally's struct, its saturating `merge` and a
//!   [`Tally`] visitor over its `(name, value)` pairs, which exporters
//!   read instead of naming each field.
//! * **One metrics API** ([`MetricsRegistry`]). Counters, gauges and
//!   histograms behind a single registry with deterministic (sorted)
//!   iteration, Prometheus text exposition and hand-rolled JSON
//!   snapshots in the `repro --json` style.
//! * **Exporters**. [`Trace::chrome_json`] emits Chrome trace-event JSON
//!   loadable in Perfetto (one track per worker / mesh core / link, `X`
//!   spans, `i` instants, `M` thread-name metadata); the registry exports
//!   Prometheus text and JSON.
//!
//! The [`Histogram`] here is the serve crate's latency histogram,
//! promoted so mesh link/occupancy and queue-depth series can reuse it
//! (`esam-serve` re-exports it as `LatencyHistogram`, unchanged).
//!
//! # Example
//!
//! ```
//! use esam_obs::{TimeDomain, Trace, TraceConfig, TrackTrace};
//!
//! let config = TraceConfig::enabled(64);
//! let mut track = TrackTrace::new(1, 0, "worker 0", config.capacity());
//! track.span("infer", 120, [Some(("frame", 7)), None]);
//! track.instant("fulfil", [None, None]);
//!
//! let mut trace = Trace::new();
//! trace.push(track);
//! let json = trace.chrome_json(TimeDomain::Cycles);
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod registry;
pub mod trace;

pub use counters::Tally;
pub use hist::Histogram;
pub use registry::{Metric, MetricsRegistry};
pub use trace::{
    EventArg, EventKind, TimeDomain, Trace, TraceConfig, TraceEvent, TrackSection, TrackTrace,
    NO_ARGS,
};

/// Adds `add` into the counter `dst` under the workspace tally merge law:
/// saturating in release builds (a pegged counter beats a wrapped one),
/// with a debug assertion so overflow is loud in development and test
/// builds. Every counter set declared with [`counters!`], and so every
/// tally `merge` in the workspace, folds its fields through this, as do
/// the [`MetricsRegistry`] and the [`Trace`] totals.
#[inline]
pub fn tally_add(dst: &mut u64, add: u64) {
    debug_assert!(
        dst.checked_add(add).is_some(),
        "tally counter overflow: {dst} + {add}"
    );
    *dst = dst.saturating_add(add);
}

/// Escapes a string for embedding in a JSON string literal (the
/// workspace's exporters hand-roll JSON; this is the one shared piece).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_add_is_plain_addition_in_range() {
        let mut x = 5;
        tally_add(&mut x, 7);
        assert_eq!(x, 12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tally counter overflow")]
    fn tally_add_overflow_is_loud_in_debug() {
        let mut x = u64::MAX - 1;
        tally_add(&mut x, 2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn tally_add_saturates_in_release() {
        let mut x = u64::MAX - 1;
        tally_add(&mut x, 2);
        assert_eq!(x, u64::MAX);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
