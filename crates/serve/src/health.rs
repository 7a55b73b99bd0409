//! Health-driven worker quarantine: the last rung of the integrity
//! ladder (detect → correct → scrub → **quarantine**).
//!
//! SECDED on the CIM arrays corrects single-bit upsets and the scrub
//! pass heals the stored codewords, but a worker whose arrays keep
//! taking *uncorrectable* hits (double-bit upsets, scrub reloads from
//! the pristine image) is modeling failing hardware — correction per
//! read cannot be trusted to hold. A [`HealthMonitor`] per worker folds
//! the [`IntegrityTally`] observed after each
//! unit of work and, once the uncorrectable count inside the current
//! observation window crosses the [`HealthPolicy`] limit, tells the
//! supervisor to quarantine, which counts and traces the event. The
//! instance needs no replacing: the scrub after every checked frame has
//! already reloaded its arrays from the pristine image, and its counters
//! are banked after every request.
//!
//! The monitor is pure bookkeeping over exact `u64` counters, so the
//! quarantine schedule is as deterministic as the fault plan that drives
//! the upsets: same seed, same traffic → same verdicts, at any worker
//! count (each worker's monitor sees only that worker's tally deltas).

use esam_core::IntegrityTally;

/// When to quarantine a worker, expressed over its integrity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    limit: u64,
}

impl HealthPolicy {
    /// Quarantine a worker once it accumulates `limit` uncorrectable
    /// integrity events (detected-uncorrectable reads plus scrub
    /// reloads) since its last quarantine. Clamped to at least 1 — a
    /// zero limit would quarantine healthy workers on every request.
    pub fn uncorrectable_limit(limit: u64) -> Self {
        Self {
            limit: limit.max(1),
        }
    }

    /// The configured uncorrectable-event limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

impl Default for HealthPolicy {
    /// One uncorrectable event is enough: quarantine on first strike.
    fn default() -> Self {
        Self::uncorrectable_limit(1)
    }
}

/// The monitor's verdict for one observed unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Keep serving on this instance.
    Healthy,
    /// The worker crossed the limit: count and trace a quarantine.
    Quarantine,
}

/// Per-worker health state: a sliding tally of uncorrectable integrity
/// events since the worker's last quarantine.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    window: u64,
    quarantines: u64,
}

impl HealthMonitor {
    /// A fresh monitor for a newly started worker.
    pub fn new(policy: HealthPolicy) -> Self {
        Self {
            policy,
            window: 0,
            quarantines: 0,
        }
    }

    /// Folds the integrity tally one unit of work left on the worker
    /// (the counters are banked and reset between observations, so each
    /// call sees a disjoint delta). Returns
    /// [`HealthVerdict::Quarantine`] when the accumulated uncorrectable
    /// count reaches the policy limit, and resets the window — the scrub
    /// has already restored the worker's arrays, so the next observation
    /// starts from pristine hardware.
    pub fn observe(&mut self, tally: &IntegrityTally) -> HealthVerdict {
        self.window = self.window.saturating_add(tally.uncorrectable());
        if self.window >= self.policy.limit() {
            self.window = 0;
            self.quarantines = self.quarantines.saturating_add(1);
            HealthVerdict::Quarantine
        } else {
            HealthVerdict::Healthy
        }
    }

    /// Quarantines issued by this monitor so far.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uncorrectable(detected: u64, scrub_reloaded: u64) -> IntegrityTally {
        IntegrityTally {
            detected,
            scrub_reloaded,
            ..IntegrityTally::default()
        }
    }

    #[test]
    fn healthy_tallies_never_trip_the_monitor() {
        let mut monitor = HealthMonitor::new(HealthPolicy::uncorrectable_limit(2));
        for _ in 0..100 {
            let clean = IntegrityTally {
                checked_reads: 640,
                corrected: 3,
                ..IntegrityTally::default()
            };
            assert_eq!(monitor.observe(&clean), HealthVerdict::Healthy);
        }
        assert_eq!(monitor.quarantines(), 0);
    }

    #[test]
    fn uncorrectable_strikes_accumulate_across_observations() {
        let mut monitor = HealthMonitor::new(HealthPolicy::uncorrectable_limit(3));
        assert_eq!(
            monitor.observe(&uncorrectable(1, 0)),
            HealthVerdict::Healthy
        );
        assert_eq!(
            monitor.observe(&uncorrectable(0, 1)),
            HealthVerdict::Healthy
        );
        // Third strike — detected and scrub reloads both count.
        assert_eq!(
            monitor.observe(&uncorrectable(1, 0)),
            HealthVerdict::Quarantine
        );
        assert_eq!(monitor.quarantines(), 1);
        // The window resets after a quarantine.
        assert_eq!(
            monitor.observe(&uncorrectable(2, 0)),
            HealthVerdict::Healthy
        );
        assert_eq!(
            monitor.observe(&uncorrectable(1, 0)),
            HealthVerdict::Quarantine
        );
        assert_eq!(monitor.quarantines(), 2);
    }

    #[test]
    fn zero_limit_clamps_to_first_strike() {
        let policy = HealthPolicy::uncorrectable_limit(0);
        assert_eq!(policy.limit(), 1);
        let mut monitor = HealthMonitor::new(policy);
        assert_eq!(
            monitor.observe(&IntegrityTally::default()),
            HealthVerdict::Healthy,
            "a clean tally must not trip even the clamped limit"
        );
        assert_eq!(
            monitor.observe(&uncorrectable(0, 1)),
            HealthVerdict::Quarantine
        );
    }

    #[test]
    fn default_policy_quarantines_on_first_strike() {
        let mut monitor = HealthMonitor::new(HealthPolicy::default());
        assert_eq!(
            monitor.observe(&uncorrectable(1, 0)),
            HealthVerdict::Quarantine
        );
    }
}
