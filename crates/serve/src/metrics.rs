//! Latency SLO metrics: per-request histograms, throughput, admission
//! counters and the modeled-silicon fold.
//!
//! Latency is reported in **two domains**, deliberately:
//!
//! * **wall-time** — what a client of the *simulator-as-a-service*
//!   observes: queueing + batching delay + simulation time. This moves
//!   when the software gets faster or the machine gets slower.
//! * **modeled pipeline cycles** — the latency the *modeled silicon* would
//!   exhibit for the same request (the cascade's cycle count ×
//!   [`PipelineTiming`](esam_core::PipelineTiming) clock period). This is
//!   an invariant of the workload: it must not move when only the serving
//!   layer changes, so a shift flags a functional regression.
//!
//! The histogram itself lives in [`esam_obs`] (it is shared with the mesh
//! link/occupancy and queue-depth series); the alias below keeps this
//! crate's public API unchanged.

use std::time::Duration;

/// The shared mergeable `u64` histogram, re-exported under its historical
/// serve-crate name — see [`esam_obs::Histogram`] for the bucket layout
/// (16 linear sub-buckets per power of two, 976 buckets, fixed 8 KiB).
pub use esam_obs::Histogram as LatencyHistogram;

/// Wall-time quantiles of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Mean.
    pub mean: Duration,
    /// Maximum (exact).
    pub max: Duration,
}

impl LatencySummary {
    pub(crate) fn from_nanos(histogram: &LatencyHistogram) -> Self {
        let d = |ns: u64| Duration::from_nanos(ns);
        Self {
            p50: d(histogram.quantile(0.50)),
            p95: d(histogram.quantile(0.95)),
            p99: d(histogram.quantile(0.99)),
            mean: Duration::from_nanos(histogram.mean() as u64),
            max: d(histogram.max()),
        }
    }
}

/// Modeled-cycle quantiles of the served requests (the cycle-domain
/// latency; see the module docs for why both domains are reported).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSummary {
    /// Median cascade cycles.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Mean.
    pub mean: f64,
    /// Maximum (exact).
    pub max: u64,
}

impl CycleSummary {
    pub(crate) fn from_histogram(histogram: &LatencyHistogram) -> Self {
        Self {
            p50: histogram.quantile(0.50),
            p95: histogram.quantile(0.95),
            p99: histogram.quantile(0.99),
            mean: histogram.mean(),
            max: histogram.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram's own behavior (bucket resolution, merge exactness,
    // quantile monotonicity) is tested where it lives, in `esam_obs`.
    // These tests pin the serve-side summaries built on top of it.

    #[test]
    fn latency_summary_reads_quantiles_as_durations() {
        let mut h = LatencyHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        let s = LatencySummary::from_nanos(&h);
        assert_eq!(s.p50, Duration::from_nanos(7));
        assert_eq!(s.max, Duration::from_nanos(15));
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn cycle_summary_reads_quantiles_raw() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let c = CycleSummary::from_histogram(&h);
        assert_eq!(c.p50, 20);
        assert_eq!(c.max, 40);
        assert!((c.mean - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_summaries_are_zero() {
        let h = LatencyHistogram::new();
        let s = LatencySummary::from_nanos(&h);
        assert_eq!(s.p99, Duration::ZERO);
        let c = CycleSummary::from_histogram(&h);
        assert_eq!(c.p99, 0);
        assert_eq!(c.mean, 0.0);
    }

    #[test]
    fn reexported_histogram_is_the_shared_one() {
        // Source compatibility: the alias points at the esam-obs type.
        fn takes_shared(h: &esam_obs::Histogram) -> u64 {
            h.count()
        }
        let mut h = LatencyHistogram::new();
        h.record(1);
        assert_eq!(takes_shared(&h), 1);
    }
}
