//! Deterministic fault injection for the ESAM stack.
//!
//! A [`FaultPlan`] is a *pure function from coordinates to fault
//! decisions*: it carries a user seed, a [`FaultConfig`] of per-domain
//! rates, and one ChaCha8-derived 64-bit subkey per fault domain. Whether a
//! given site faults is decided by hashing the site's coordinates with the
//! domain subkey (a splitmix64-style finalizer) and comparing the hash
//! against `rate · 2^64` — no mutable RNG state is consumed, so:
//!
//! * **Order independence.** A site's verdict does not depend on how many
//!   other sites were queried before it, or from which thread. The same
//!   seed yields bit-identical fault sites at any worker count, core
//!   count, chunking or interleaving — the property every determinism
//!   suite in this workspace pins.
//! * **Nested sites.** For a fixed seed, raising a rate only *adds* fault
//!   sites (`hash < t1 ⇒ hash < t2` when `t1 ≤ t2`), so sweeping a rate
//!   produces monotone degradation by construction.
//! * **Zero cost when disabled.** Every decision helper short-circuits on
//!   a zero rate before hashing, and [`FaultPlan::none`] disables every
//!   domain — pinned bit-identical to the unfaulted baseline by the
//!   consumer crates' test suites.
//!
//! The three fault domains (SRAM, serve, mesh) are documented on
//! [`FaultConfig`]; the injection and recovery machinery lives in
//! `esam-core`, `esam-serve` and `esam-mesh` respectively — this crate
//! only answers "does site X fault under plan P".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Number of fault domains (= derived subkeys) in a plan.
///
/// New domains are appended, never inserted: subkeys derive sequentially
/// from one ChaCha8 stream over the seed, so appending keeps every
/// existing domain's fault sites stable for a given seed.
const DOMAINS: usize = 10;

/// Subkey indices, one per fault domain.
const STUCK: usize = 0;
const WFLIP: usize = 1;
const MFLIP: usize = 2;
const WPANIC: usize = 3;
const WSTALL: usize = 4;
const DROP: usize = 5;
const DELAY: usize = 6;
const CSTALL: usize = 7;
const CPANIC: usize = 8;
const CORRUPT: usize = 9;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hashes a coordinate tuple under a domain subkey.
#[inline]
fn site_hash(key: u64, coords: &[u64]) -> u64 {
    let mut h = mix(key);
    for &c in coords {
        h = mix(h ^ c);
    }
    h
}

/// `rate` mapped onto `[0, 2^64]` so `hash < threshold` fires with
/// probability `rate` (clamped; `rate >= 1` always fires).
#[inline]
fn threshold(rate: f64) -> u128 {
    if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        1u128 << 64
    } else {
        // rate in (0, 1): the product is < 2^64 and non-negative, so the
        // cast is exact-enough (and monotone in rate, which is what the
        // nested-sites property needs).
        (rate * 18_446_744_073_709_551_616.0) as u128
    }
}

#[inline]
fn decide(key: u64, rate: f64, coords: &[u64]) -> bool {
    rate > 0.0 && u128::from(site_hash(key, coords)) < threshold(rate)
}

/// Per-domain fault rates and shape parameters. All rates are
/// probabilities in `[0, 1]` (clamped at decision time); a zero rate
/// disables its domain entirely.
///
/// | domain | knob | unit of the rate |
/// |---|---|---|
/// | SRAM | [`stuck_rate`](Self::with_stuck_rate) | per weight bit (permanent) |
/// | SRAM | [`weight_flip_rate`](Self::with_weight_flip_rate) | per weight bit *per frame* (transient) |
/// | SRAM | [`membrane_flip_rate`](Self::with_membrane_flip_rate) | per output neuron per frame |
/// | serve | [`worker_panic_rate`](Self::with_worker_panic_rate) | per (request, attempt) |
/// | serve | [`worker_stall_rate`](Self::with_worker_stall) | per (request, attempt) |
/// | mesh | [`drop_rate`](Self::with_drop_rate) | per link hand-off |
/// | mesh | [`delay_rate`](Self::with_delay) | per link hand-off |
/// | mesh | [`core_stall_rate`](Self::with_core_stall) | per core hand-off |
/// | mesh | [`core_panic_rate`](Self::with_core_panic_rate) | per core hand-off |
/// | mesh | [`packet_corrupt_rate`](Self::with_packet_corrupt_rate) | per link transmission attempt |
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    stuck_rate: f64,
    weight_flip_rate: f64,
    membrane_flip_rate: f64,
    worker_panic_rate: f64,
    worker_stall_rate: f64,
    worker_stall_micros: u64,
    drop_rate: f64,
    delay_rate: f64,
    delay_cycles: u64,
    core_stall_rate: f64,
    core_stall_cycles: u64,
    core_panic_rate: f64,
    packet_corrupt_rate: f64,
}

impl FaultConfig {
    /// All rates zero: no faults in any domain.
    pub fn none() -> Self {
        Self::default()
    }

    /// Permanent stuck-at faults: each weight bit is stuck (to a
    /// hash-derived 0 or 1) with probability `rate`. Materialized into the
    /// weight arrays once at plan installation — zero hot-path cost.
    #[must_use]
    pub fn with_stuck_rate(mut self, rate: f64) -> Self {
        self.stuck_rate = rate;
        self
    }

    /// Transient weight-bit flips: each weight bit flips, for the duration
    /// of one frame, with probability `rate` per frame.
    #[must_use]
    pub fn with_weight_flip_rate(mut self, rate: f64) -> Self {
        self.weight_flip_rate = rate;
        self
    }

    /// Transient membrane-word upsets: each output neuron's membrane word
    /// takes a low-bit flip with probability `rate` per frame.
    #[must_use]
    pub fn with_membrane_flip_rate(mut self, rate: f64) -> Self {
        self.membrane_flip_rate = rate;
        self
    }

    /// Worker panics: each (request, attempt) execution panics with
    /// probability `rate` (keyed on the attempt so retries terminate).
    #[must_use]
    pub fn with_worker_panic_rate(mut self, rate: f64) -> Self {
        self.worker_panic_rate = rate;
        self
    }

    /// Worker stalls: each (request, attempt) execution sleeps `stall` with
    /// probability `rate` before serving.
    #[must_use]
    pub fn with_worker_stall(mut self, rate: f64, stall: Duration) -> Self {
        self.worker_stall_rate = rate;
        self.worker_stall_micros = stall.as_micros() as u64;
        self
    }

    /// Dropped AER packets: each link hand-off loses its packet with
    /// probability `rate` (the mesh recovers the lost frames afterwards).
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Delayed AER packets: each link hand-off costs `cycles` extra link
    /// cycles with probability `rate`.
    #[must_use]
    pub fn with_delay(mut self, rate: f64, cycles: u64) -> Self {
        self.delay_rate = rate;
        self.delay_cycles = cycles;
        self
    }

    /// Core stalls: each core hand-off adds `cycles` to the core's modeled
    /// occupancy with probability `rate`.
    #[must_use]
    pub fn with_core_stall(mut self, rate: f64, cycles: u64) -> Self {
        self.core_stall_rate = rate;
        self.core_stall_cycles = cycles;
        self
    }

    /// Core panics: each core hand-off kills the core's pipeline thread
    /// with probability `rate` (pipelined execution only; the mesh degrades
    /// to the sequential walk for the affected frames).
    #[must_use]
    pub fn with_core_panic_rate(mut self, rate: f64) -> Self {
        self.core_panic_rate = rate;
        self
    }

    /// In-flight AER packet corruption: each link transmission *attempt*
    /// (the original hand-off and every retransmission) takes a single-bit
    /// payload upset with probability `rate`. The mesh's CRC verify must
    /// catch these — a missed one would be consumed as wrong data.
    #[must_use]
    pub fn with_packet_corrupt_rate(mut self, rate: f64) -> Self {
        self.packet_corrupt_rate = rate;
        self
    }

    /// Permanent stuck-at rate per weight bit.
    pub fn stuck_rate(&self) -> f64 {
        self.stuck_rate
    }

    /// Transient weight-flip rate per weight bit per frame.
    pub fn weight_flip_rate(&self) -> f64 {
        self.weight_flip_rate
    }

    /// Membrane-word upset rate per output neuron per frame.
    pub fn membrane_flip_rate(&self) -> f64 {
        self.membrane_flip_rate
    }

    /// Worker panic rate per (request, attempt).
    pub fn worker_panic_rate(&self) -> f64 {
        self.worker_panic_rate
    }

    /// Worker stall rate per (request, attempt).
    pub fn worker_stall_rate(&self) -> f64 {
        self.worker_stall_rate
    }

    /// Injected worker stall duration.
    pub fn worker_stall(&self) -> Duration {
        Duration::from_micros(self.worker_stall_micros)
    }

    /// Packet drop rate per link hand-off.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Packet delay rate per link hand-off.
    pub fn delay_rate(&self) -> f64 {
        self.delay_rate
    }

    /// Extra link cycles charged per delayed packet.
    pub fn delay_cycles(&self) -> u64 {
        self.delay_cycles
    }

    /// Core stall rate per core hand-off.
    pub fn core_stall_rate(&self) -> f64 {
        self.core_stall_rate
    }

    /// Extra occupancy cycles charged per core stall.
    pub fn core_stall_cycles(&self) -> u64 {
        self.core_stall_cycles
    }

    /// Core panic rate per core hand-off.
    pub fn core_panic_rate(&self) -> f64 {
        self.core_panic_rate
    }

    /// Packet corruption rate per link transmission attempt.
    pub fn packet_corrupt_rate(&self) -> f64 {
        self.packet_corrupt_rate
    }
}

/// A seeded, reproducible fault plan: the seed, the per-domain rates, and
/// one derived subkey per domain.
///
/// Plans are `Copy` and stateless — see the crate docs for why that makes
/// every decision order-independent and thread-count-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    keys: [u64; DOMAINS],
}

impl FaultPlan {
    /// The disabled plan: every rate zero, every decision `false`, every
    /// consumer bit-identical to its unfaulted baseline.
    pub fn none() -> Self {
        Self {
            seed: 0,
            config: FaultConfig::none(),
            keys: [0; DOMAINS],
        }
    }

    /// Derives a plan from a seed and a rate configuration. The per-domain
    /// subkeys come from a ChaCha8 stream over the seed, so distinct
    /// domains never share fault sites even at equal rates.
    pub fn seeded(seed: u64, config: FaultConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut keys = [0u64; DOMAINS];
        for key in &mut keys {
            *key = rng.next_u64();
        }
        Self { seed, config, keys }
    }

    /// The seed the plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rate configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether any stuck-at faults are configured.
    pub fn stuck_active(&self) -> bool {
        self.config.stuck_rate > 0.0
    }

    /// Whether any *transient* SRAM-domain faults are configured (weight or
    /// membrane flips). Transient faults change per-frame results, so the
    /// bit-sliced block path (which has no per-frame hook) is ineligible
    /// while they are active; stuck-at faults alone keep it eligible.
    pub fn transient_active(&self) -> bool {
        self.config.weight_flip_rate > 0.0 || self.config.membrane_flip_rate > 0.0
    }

    /// Whether any serve-domain faults are configured.
    pub fn serve_active(&self) -> bool {
        self.config.worker_panic_rate > 0.0 || self.config.worker_stall_rate > 0.0
    }

    /// Whether any mesh-domain faults are configured.
    pub fn mesh_active(&self) -> bool {
        self.config.drop_rate > 0.0
            || self.config.delay_rate > 0.0
            || self.config.core_stall_rate > 0.0
            || self.config.core_panic_rate > 0.0
            || self.config.packet_corrupt_rate > 0.0
    }

    /// Whether in-flight packet corruption is configured (the mesh arms
    /// its CRC verify + NACK/retransmit protocol only while this is true,
    /// keeping the clean path bit-identical to the unprotected baseline).
    pub fn corrupt_active(&self) -> bool {
        self.config.packet_corrupt_rate > 0.0
    }

    /// Whether the plan injects nothing anywhere.
    pub fn is_none(&self) -> bool {
        !self.stuck_active()
            && !self.transient_active()
            && !self.serve_active()
            && !self.mesh_active()
    }

    /// Stuck-at verdict for weight bit `(layer, input, output)`:
    /// `Some(value)` if the bit is permanently stuck at `value`.
    pub fn stuck_site(&self, layer: u64, input: u64, output: u64) -> Option<bool> {
        let rate = self.config.stuck_rate;
        if rate <= 0.0 {
            return None;
        }
        let h = site_hash(self.keys[STUCK], &[layer, input, output]);
        if u128::from(h) < threshold(rate) {
            // The stuck value comes from a second mix so it is independent
            // of the (biased-low) site hash.
            Some(mix(h) & 1 == 1)
        } else {
            None
        }
    }

    /// Whether weight bit `(layer, input, output)` flips during `frame_id`.
    pub fn weight_flip(&self, frame_id: u64, layer: u64, input: u64, output: u64) -> bool {
        decide(
            self.keys[WFLIP],
            self.config.weight_flip_rate,
            &[frame_id, layer, input, output],
        )
    }

    /// Whether output neuron `neuron`'s membrane word is upset during
    /// `frame_id`.
    pub fn membrane_flip(&self, frame_id: u64, neuron: u64) -> bool {
        decide(
            self.keys[MFLIP],
            self.config.membrane_flip_rate,
            &[frame_id, neuron],
        )
    }

    /// Whether serving attempt `attempt` of request `request_id` panics.
    pub fn worker_panic(&self, request_id: u64, attempt: u64) -> bool {
        decide(
            self.keys[WPANIC],
            self.config.worker_panic_rate,
            &[request_id, attempt],
        )
    }

    /// Whether serving attempt `attempt` of request `request_id` stalls.
    pub fn worker_stall(&self, request_id: u64, attempt: u64) -> bool {
        decide(
            self.keys[WSTALL],
            self.config.worker_stall_rate,
            &[request_id, attempt],
        )
    }

    /// Whether the packet for frame `t` is dropped on link `src → dst`.
    pub fn packet_drop(&self, t: u64, src: u64, dst: u64) -> bool {
        decide(self.keys[DROP], self.config.drop_rate, &[t, src, dst])
    }

    /// Whether the packet for frame `t` is delayed on link `src → dst`.
    pub fn packet_delay(&self, t: u64, src: u64, dst: u64) -> bool {
        decide(self.keys[DELAY], self.config.delay_rate, &[t, src, dst])
    }

    /// Whether core `core` stalls on its `t`-th hand-off.
    pub fn core_stall(&self, t: u64, core: u64) -> bool {
        decide(self.keys[CSTALL], self.config.core_stall_rate, &[t, core])
    }

    /// Whether core `core` panics on its `t`-th hand-off.
    pub fn core_panic(&self, t: u64, core: u64) -> bool {
        decide(self.keys[CPANIC], self.config.core_panic_rate, &[t, core])
    }

    /// Corruption verdict for transmission `attempt` of the frame-`t`
    /// packet on link `src → dst`: `Some(selector)` when the attempt takes
    /// a single-bit in-flight upset. The selector is a well-mixed 64-bit
    /// value the consumer reduces onto its payload width to pick the
    /// struck bit — derived from a second mix so it is independent of the
    /// (biased-low) site hash, exactly like [`stuck_site`](Self::stuck_site).
    pub fn packet_corrupt(&self, t: u64, src: u64, dst: u64, attempt: u64) -> Option<u64> {
        let rate = self.config.packet_corrupt_rate;
        if rate <= 0.0 {
            return None;
        }
        let h = site_hash(self.keys[CORRUPT], &[t, src, dst, attempt]);
        if u128::from(h) < threshold(rate) {
            Some(mix(h))
        } else {
            None
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

esam_obs::counters! {
    /// SRAM-domain injection counters, merged under the workspace's exact u64
    /// law (plain sums — bit-identical at any thread or core count).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct FaultTally {
        /// Transient weight-bit flips applied (counted once per faulted frame,
        /// not double-counted for the post-frame revert).
        pub weight_flips: u64,
        /// Membrane-word upsets applied.
        pub membrane_flips: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lively() -> FaultConfig {
        FaultConfig::none()
            .with_stuck_rate(0.3)
            .with_weight_flip_rate(0.3)
            .with_membrane_flip_rate(0.3)
            .with_worker_panic_rate(0.3)
            .with_worker_stall(0.3, Duration::from_micros(50))
            .with_drop_rate(0.3)
            .with_delay(0.3, 7)
            .with_core_stall(0.3, 9)
            .with_core_panic_rate(0.3)
            .with_packet_corrupt_rate(0.3)
    }

    #[test]
    fn none_never_fires_anywhere() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(!plan.stuck_active());
        assert!(!plan.transient_active());
        assert!(!plan.serve_active());
        assert!(!plan.mesh_active());
        assert!(!plan.corrupt_active());
        for a in 0..50u64 {
            for b in 0..5u64 {
                assert_eq!(plan.stuck_site(a, b, a ^ b), None);
                assert!(!plan.weight_flip(a, b, a, b));
                assert!(!plan.membrane_flip(a, b));
                assert!(!plan.worker_panic(a, b));
                assert!(!plan.worker_stall(a, b));
                assert!(!plan.packet_drop(a, b, a));
                assert!(!plan.packet_delay(a, b, a));
                assert!(!plan.core_stall(a, b));
                assert!(!plan.core_panic(a, b));
                assert_eq!(plan.packet_corrupt(a, b, a, b), None);
            }
        }
    }

    #[test]
    fn same_seed_same_sites_fresh_plans() {
        let a = FaultPlan::seeded(42, lively());
        let b = FaultPlan::seeded(42, lively());
        assert_eq!(a, b);
        for t in 0..200u64 {
            assert_eq!(a.weight_flip(t, 1, 2, 3), b.weight_flip(t, 1, 2, 3));
            assert_eq!(a.packet_drop(t, 0, 1), b.packet_drop(t, 0, 1));
            assert_eq!(a.stuck_site(0, t, 5), b.stuck_site(0, t, 5));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::seeded(1, lively());
        let b = FaultPlan::seeded(2, lively());
        let differs = (0..500u64).any(|t| a.weight_flip(t, 0, 0, 0) != b.weight_flip(t, 0, 0, 0));
        assert!(
            differs,
            "seeds 1 and 2 agree on 500 sites — keys not mixed in"
        );
    }

    #[test]
    fn rate_one_always_fires_and_rates_clamp() {
        let hot = FaultPlan::seeded(7, FaultConfig::none().with_drop_rate(5.0));
        let cold = FaultPlan::seeded(7, FaultConfig::none().with_drop_rate(-3.0));
        for t in 0..100u64 {
            assert!(hot.packet_drop(t, 0, 1));
            assert!(!cold.packet_drop(t, 0, 1));
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::seeded(9, FaultConfig::none().with_weight_flip_rate(0.1));
        let hits = (0..10_000u64)
            .filter(|&t| plan.weight_flip(t, 0, 0, 0))
            .count();
        assert!((800..1200).contains(&hits), "10% rate gave {hits}/10000");
    }

    #[test]
    fn corrupt_verdicts_are_attempt_keyed() {
        // Retransmission attempts draw independent verdicts, so a bounded
        // retry loop terminates with overwhelming probability; and the
        // struck-bit selector varies across sites (it is a mixed hash,
        // not a constant).
        let plan = FaultPlan::seeded(11, FaultConfig::none().with_packet_corrupt_rate(0.5));
        let verdicts: Vec<_> = (0..64u64)
            .map(|a| plan.packet_corrupt(3, 0, 1, a))
            .collect();
        assert!(verdicts.iter().any(Option::is_some));
        assert!(verdicts.iter().any(Option::is_none));
        let selectors: std::collections::BTreeSet<u64> =
            verdicts.iter().flatten().copied().collect();
        assert!(selectors.len() > 1, "selectors should vary across attempts");
        assert!(plan.corrupt_active());
        assert!(plan.mesh_active());
    }

    #[test]
    fn domains_use_distinct_keys() {
        let plan = FaultPlan::seeded(
            3,
            FaultConfig::none().with_drop_rate(0.5).with_delay(0.5, 1),
        );
        let differs = (0..200u64).any(|t| plan.packet_drop(t, 0, 1) != plan.packet_delay(t, 0, 1));
        assert!(differs, "drop and delay share sites — domain keys collide");
    }

    proptest! {
        /// Raising a rate only adds fault sites (the nesting that makes
        /// swept degradation curves monotone by construction).
        #[test]
        fn sites_nest_as_rates_rise(
            seed in 0u64..1000,
            lo in 0.0f64..0.5,
            extra in 0.0f64..0.5,
            t in 0u64..10_000,
        ) {
            let low = FaultPlan::seeded(seed, FaultConfig::none().with_weight_flip_rate(lo));
            let high = FaultPlan::seeded(
                seed,
                FaultConfig::none().with_weight_flip_rate(lo + extra),
            );
            if low.weight_flip(t, 1, 2, 3) {
                prop_assert!(high.weight_flip(t, 1, 2, 3));
            }
        }

        /// Decisions are pure: re-querying in any order gives the same
        /// verdict (no hidden RNG state).
        #[test]
        fn decisions_are_pure(seed in 0u64..1000, t in 0u64..10_000) {
            let plan = FaultPlan::seeded(seed, FaultConfig::none().with_drop_rate(0.37));
            let first = plan.packet_drop(t, 2, 3);
            // Interleave unrelated queries, then re-ask.
            for other in 0..16u64 {
                let _ = plan.packet_drop(other, 0, 1);
            }
            prop_assert_eq!(plan.packet_drop(t, 2, 3), first);
        }
    }
}
