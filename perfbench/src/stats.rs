//! Order statistics and the host reference kernel.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank method
/// on a sorted copy; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Number of samples strictly above the `q`-quantile: how many samples
/// support a percentile estimate.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// Rounds each repeat of the op sequence is split into.
pub const ROUNDS: usize = 24;

/// Fewest ops the p99 pool of [`best_rounds`] holds, so at least 10 samples
/// lie beyond p99.
const P99_POOL_OPS: usize = 1000;

/// Host statistics of a timed phase that ran one op sequence several times
/// back to back, split into [`ROUNDS`] rounds of equal op count per repeat.
///
/// The host this benchmark was built on switches between a fast state and
/// one 25–50 % slower, each lasting from under a second to minutes, so a
/// statistic over the whole phase depends on how much of the run the slow
/// state happened to cover. [`best_rounds`] keeps the rounds the host
/// ran fastest; the same rule applies on every commit, so a faster program
/// still reads faster.
#[derive(Debug, Clone, PartialEq)]
pub struct Rounds {
    /// Frames per host second.
    pub frames_per_s: f64,
    /// Median op latency, ns.
    pub p50_ns: f64,
    /// p99 op latency (nearest rank), ns.
    pub p99_ns: f64,
    /// Samples beyond that p99.
    pub p99_beyond: usize,
    /// Ops the p99 was taken over.
    pub p99_ops: usize,
}

/// One round of a timed phase.
struct Round<'a> {
    /// Summed throughput time, ns.
    busy: f64,
    /// Median op latency, ns.
    median: f64,
    /// p99 op latency, ns.
    p99: f64,
    /// The round's op latencies.
    ops: &'a [f64],
}

/// The rounds of `op_ns` / `busy_ns` (parallel, in op order) split into
/// `repeats` repeats of [`ROUNDS`] rounds each.
fn split<'a>(op_ns: &'a [f64], busy_ns: &[f64], repeats: usize) -> Vec<Round<'a>> {
    let per_repeat = op_ns.len() / repeats.max(1);
    let size = per_repeat.div_ceil(ROUNDS).max(1);
    (0..repeats.max(1))
        .flat_map(|repeat| {
            let base = repeat * per_repeat;
            (0..per_repeat)
                .step_by(size)
                .map(move |start| base + start..base + (start + size).min(per_repeat))
        })
        .map(|range| {
            let ops = &op_ns[range.clone()];
            Round {
                busy: busy_ns[range].iter().sum(),
                median: median(ops),
                p99: quantile(ops, 0.99),
                ops,
            }
        })
        .collect()
}

/// For op sequences whose rounds do equal work (random frames of fixed
/// spike count, or identical learning episodes): the best round's
/// throughput, the lowest round median, and the p99 over the fewest
/// lowest-p99 rounds that hold [`P99_POOL_OPS`] ops. One fast stretch
/// anywhere in the phase suffices.
pub fn best_rounds(op_ns: &[f64], busy_ns: &[f64], frames_per_op: f64, repeats: usize) -> Rounds {
    let mut all = split(op_ns, busy_ns, repeats);
    let frames_per_s = all
        .iter()
        .map(|r| frames_per_op * r.ops.len() as f64 / (r.busy / 1e9))
        .fold(0.0, f64::max);
    let p50_ns = all.iter().map(|r| r.median).fold(f64::INFINITY, f64::min);
    all.sort_by(|a, b| a.p99.total_cmp(&b.p99));
    let mut pool: Vec<f64> = Vec::new();
    for round in &all {
        if pool.len() >= P99_POOL_OPS {
            break;
        }
        pool.extend_from_slice(round.ops);
    }
    Rounds {
        frames_per_s,
        p50_ns: if p50_ns.is_finite() { p50_ns } else { 0.0 },
        p99_ns: quantile(&pool, 0.99),
        p99_beyond: beyond(&pool, 0.99),
        p99_ops: pool.len(),
    }
}

/// Words in the reference kernel's working set (256 KiB: resident in a
/// typical L2, so the kernel measures core speed rather than DRAM).
const REF_WORDS: usize = 32 * 1024;

/// Passes over the working set per timing.
const REF_PASSES: usize = 16;

/// Times a fixed integer loop written in this benchmark (xorshift mixing
/// and popcounts over a fixed buffer) and returns the median of five
/// timings in nanoseconds.
///
/// The program under test never runs here, so the figure moves only with
/// the host: a run whose host metrics moved while this figure held still
/// points at the program, and one where both moved points at the host. It
/// is diagnostic only; no metric is divided by it.
pub fn ref_kernel_ns() -> f64 {
    let mut words: Vec<u64> = (0..REF_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut timings = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..REF_PASSES {
            for word in words.iter_mut() {
                let mut x = *word ^ acc;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *word = x;
                acc = acc.wrapping_add(u64::from(x.count_ones()));
            }
        }
        black_box(acc);
        timings.push(start.elapsed().as_nanos() as f64);
    }
    black_box(&words);
    median(&timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(beyond(&values, 0.99), 1);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn best_rounds_take_the_fastest_round_and_pool_the_lowest_p99_rounds() {
        // One repeat of ROUNDS rounds of 100 ops; round r's ops take
        // 100 + r ns, except round 3 (all 50 ns) and one 1000 ns outlier in
        // round 0.
        let mut op_ns: Vec<f64> = (0..ROUNDS * 100)
            .map(|i| {
                if i / 100 == 3 {
                    50.0
                } else {
                    100.0 + (i / 100) as f64
                }
            })
            .collect();
        op_ns[0] = 1000.0;
        let stats = best_rounds(&op_ns, &op_ns, 2.0, 1);
        assert_eq!(stats.p50_ns, 50.0);
        assert_eq!(stats.frames_per_s, 2.0 * 100.0 / (5000.0 / 1e9));
        // By p99 the rounds rank 3, 0 (its one outlier sits above its own
        // p99), 1, 2, 4, …; ten rounds hold 1000 ops and make the pool,
        // whose p99 is round 9's 109 with only the outlier beyond.
        assert_eq!(stats.p99_ops, 1000);
        assert_eq!(stats.p99_ns, 109.0);
        assert_eq!(stats.p99_beyond, 1);
    }
}
