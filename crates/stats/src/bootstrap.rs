//! Seeded bootstrap confidence intervals.
//!
//! The paper reports point estimates; a toolkit release should also say
//! how stable they are under toplist resampling. [`bootstrap_ci`]
//! resamples observations with replacement and returns a percentile
//! interval for any statistic — used for the per-country centralization
//! intervals (suite row "Tab 5", `examples/uncertainty.rs`, the serve
//! crate's `/v1/ci` route).
//!
//! Replicate `r` draws from its own index stream seeded by
//! `mix(seed, r)`, and the percentile sort is order-independent, so an
//! interval depends only on the items, the statistic, the replicate count,
//! the level and the seed. The resampling is by *index*: the statistic
//! reads each resample through a borrowing [`Resample`] view and no item
//! is ever cloned. Every buffer lives in a caller-held
//! [`BootstrapScratch`], so a per-country loop allocates nothing after
//! its first call, and the run polls a caller-supplied abort check
//! between replicate windows so a deadline can cut it short.
//!
//! Index draws come from a SplitMix64 stream, not a cryptographic RNG:
//! resampling needs seeded reproducibility and throughput (a suite run
//! draws tens of millions of indices), and SplitMix64 passes the
//! statistical bar for percentile intervals by a wide margin.

use serde::{Deserialize, Serialize};

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Bootstrap replicates used.
    pub replicates: usize,
}

impl BootstrapCi {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value falls inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

/// One bootstrap resample, viewed through its index vector: item `i` of the
/// resample is `items[idx[i]]`. No items are cloned.
pub struct Resample<'a, T> {
    items: &'a [T],
    idx: &'a [u32],
}

impl<'a, T> Resample<'a, T> {
    /// Number of drawn items (equals the original sample size).
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the resample is empty.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The `i`-th drawn item.
    pub fn get(&self, i: usize) -> &'a T {
        &self.items[self.idx[i] as usize]
    }

    /// Iterates over the drawn items, repeats included.
    pub fn iter(&self) -> impl Iterator<Item = &'a T> + '_ {
        self.idx.iter().map(move |&i| &self.items[i as usize])
    }
}

/// Decorrelates per-replicate seeds (SplitMix64 finalizer).
fn replicate_seed(seed: u64, r: u64) -> u64 {
    let mut x = seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One replicate's index stream: SplitMix64 outputs mapped to `0..n` by
/// the multiply-shift bound. The mapping's bias is under `n / 2^64` per
/// draw — unmeasurable at bootstrap sample sizes — and it avoids the
/// rejection loop a modulo-free uniform range needs.
struct IndexStream {
    state: u64,
}

impl IndexStream {
    fn new(seed: u64) -> Self {
        IndexStream { state: seed }
    }

    fn next_below(&mut self, n: usize) -> u32 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x as u128 * n as u128) >> 64) as u32
    }
}

fn draw_indices(stream: &mut IndexStream, n: usize, idx: &mut Vec<u32>) {
    idx.clear();
    for _ in 0..n {
        idx.push(stream.next_below(n));
    }
}

fn valid(n_items: usize, replicates: usize, level: f64) -> bool {
    n_items > 0 && replicates > 0 && level > 0.0 && level < 1.0
}

/// Replicates between two polls of the abort check: often enough that a
/// deadline is noticed within a few milliseconds, rarely enough that the
/// poll costs nothing measurable.
const REPLICATE_CHUNK: usize = 32;

/// Reusable scratch for [`bootstrap_ci`]: the index buffer, the replicate
/// statistics, and the identity permutation all live here, so a
/// per-country CI loop allocates nothing after its first call.
#[derive(Debug, Default)]
pub struct BootstrapScratch {
    idx: Vec<u32>,
    stats: Vec<f64>,
    identity: Vec<u32>,
}

impl BootstrapScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The bootstrap ran out of budget before finishing its replicates.
///
/// Carries no partial interval on purpose: a truncated replicate set is a
/// *different* (narrower-tailed) estimator, so callers either get the
/// exact seeded interval or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapAborted;

/// Percentile bootstrap for `statistic` over `items`, run serially on the
/// calling thread.
///
/// * `level` — confidence level in `(0, 1)`, e.g. `0.95`.
/// * `replicates` — number of resamples (hundreds suffice for reporting).
/// * `scratch` — reused buffers; any scratch gives the same interval.
/// * `should_abort` — polled before the first replicate and every 32
///   replicates after it; `true` ends the run with [`BootstrapAborted`].
///   Pass `&mut || false` to always run to completion.
///
/// Deterministic for a given `seed`. Returns `Ok(None)` for an empty
/// sample, a degenerate level, or zero replicates (before any poll).
pub fn bootstrap_ci<T, F: Fn(&Resample<'_, T>) -> f64>(
    items: &[T],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
    scratch: &mut BootstrapScratch,
    should_abort: &mut dyn FnMut() -> bool,
) -> Result<Option<BootstrapCi>, BootstrapAborted> {
    if !valid(items.len(), replicates, level) {
        return Ok(None);
    }
    if should_abort() {
        return Err(BootstrapAborted);
    }
    let n = items.len();
    scratch.identity.clear();
    scratch.identity.extend(0..n as u32);
    let point = statistic(&Resample {
        items,
        idx: &scratch.identity,
    });
    scratch.stats.clear();
    for r in 0..replicates {
        if r % REPLICATE_CHUNK == 0 && r > 0 && should_abort() {
            return Err(BootstrapAborted);
        }
        let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
        draw_indices(&mut stream, n, &mut scratch.idx);
        scratch.stats.push(statistic(&Resample {
            items,
            idx: &scratch.idx,
        }));
    }
    Ok(Some(percentile_interval(point, &mut scratch.stats, level)))
}

fn percentile_interval(point: f64, stats: &mut [f64], level: f64) -> BootstrapCi {
    let replicates = stats.len();
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite statistics"));
    let alpha = (1.0 - level) / 2.0;
    let idx =
        |q: f64| -> usize { ((q * (replicates - 1) as f64).round() as usize).min(replicates - 1) };
    BootstrapCi {
        point,
        lo: stats[idx(alpha)],
        hi: stats[idx(1.0 - alpha)],
        replicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(rs: &Resample<'_, f64>) -> f64 {
        rs.iter().sum::<f64>() / rs.len() as f64
    }

    /// One run to completion with a fresh scratch.
    fn ci(data: &[f64], replicates: usize, level: f64, seed: u64) -> Option<BootstrapCi> {
        bootstrap_ci(
            data,
            mean,
            replicates,
            level,
            seed,
            &mut BootstrapScratch::new(),
            &mut || false,
        )
        .expect("never aborted")
    }

    /// The naive bootstrap the scratch-and-view implementation must equal:
    /// gather every resample into a fresh `Vec`, take its mean, sort all
    /// replicate means and read the nearest-rank percentiles.
    fn gathering_oracle(data: &[f64], replicates: usize, level: f64, seed: u64) -> BootstrapCi {
        let n = data.len();
        let mean_of = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let mut stats: Vec<f64> = (0..replicates)
            .map(|r| {
                let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
                let resample: Vec<f64> = (0..n)
                    .map(|_| data[stream.next_below(n) as usize])
                    .collect();
                mean_of(&resample)
            })
            .collect();
        stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let alpha = (1.0 - level) / 2.0;
        let rank = |q: f64| ((q * (replicates - 1) as f64).round() as usize).min(replicates - 1);
        BootstrapCi {
            point: mean_of(data),
            lo: stats[rank(alpha)],
            hi: stats[rank(1.0 - alpha)],
            replicates,
        }
    }

    #[test]
    fn interval_brackets_the_mean() {
        let data: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let ci = ci(&data, 500, 0.95, 42).unwrap();
        assert!(ci.contains(ci.point));
        assert!(ci.contains(4.5), "{ci:?}");
        assert!(ci.width() < 1.0, "{ci:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let a = ci(&data, 200, 0.9, 7).unwrap();
        let b = ci(&data, 200, 0.9, 7).unwrap();
        assert_eq!(a, b);
        let c = ci(&data, 200, 0.9, 8).unwrap();
        assert!(a.lo != c.lo || a.hi != c.hi);
    }

    #[test]
    fn indexed_agrees_with_gathering_oracle() {
        let data: Vec<f64> = (0..120).map(|i| ((i * 17) % 31) as f64).collect();
        for seed in [11u64, 12] {
            assert_eq!(
                ci(&data, 300, 0.95, seed).unwrap(),
                gathering_oracle(&data, 300, 0.95, seed)
            );
        }
    }

    /// The index streams are part of the output: these intervals are the
    /// bits every earlier release printed for this input, so a change to
    /// the seed mix, the stream or the percentile rule fails here.
    #[test]
    fn intervals_are_pinned() {
        let data: Vec<f64> = (0..97).map(|i| ((i * 31) % 43) as f64 * 0.5).collect();
        for (seed, lo, hi) in [
            (3u64, 0x4022_1d07_eae2_f815u64, 0x4027_07ea_e2f8_151du64),
            (42, 0x4022_a8e8_3f57_17c1, 0x4026_b0d3_224f_2cde),
        ] {
            let ci = ci(&data, 200, 0.95, seed).unwrap();
            assert_eq!(ci.point.to_bits(), 0x4024_ae2f_8151_d07f, "seed {seed}");
            assert_eq!((ci.lo.to_bits(), ci.hi.to_bits()), (lo, hi), "seed {seed}");
        }
    }

    /// A run that completes is bit-identical to the oracle, a budget spent
    /// up front aborts at once, and a mid-run abort never returns a
    /// truncated interval.
    #[test]
    fn abortable_variant_identical_or_aborted() {
        let data: Vec<f64> = (0..80).map(|i| ((i * 19) % 29) as f64).collect();
        let mut scratch = BootstrapScratch::new();
        let completed =
            bootstrap_ci(&data, mean, 300, 0.95, 9, &mut scratch, &mut || false).unwrap();
        assert_eq!(completed, Some(gathering_oracle(&data, 300, 0.95, 9)));

        assert_eq!(
            bootstrap_ci(&data, mean, 300, 0.95, 9, &mut scratch, &mut || true),
            Err(BootstrapAborted)
        );

        // Abort after the first poll window: never a partial interval.
        let mut polls = 0u32;
        let aborted = bootstrap_ci(&data, mean, 10_000, 0.95, 9, &mut scratch, &mut || {
            polls += 1;
            polls > 1
        });
        assert_eq!(aborted, Err(BootstrapAborted));

        // Degenerate inputs still report "no interval", not an abort.
        assert_eq!(
            bootstrap_ci(&data, mean, 0, 0.95, 9, &mut scratch, &mut || true),
            Ok(None)
        );
    }

    /// One scratch reused across seeds (and after an aborted run) gives
    /// the same intervals as a fresh scratch per call.
    #[test]
    fn reused_scratch_is_identical_to_fresh() {
        let data: Vec<f64> = (0..90).map(|i| ((i * 13) % 23) as f64).collect();
        let mut scratch = BootstrapScratch::new();
        let _ = bootstrap_ci(&data, mean, 500, 0.95, 3, &mut scratch, &mut || true);
        for seed in [1u64, 7, 42] {
            let fresh = ci(&data, 250, 0.95, seed).unwrap();
            let reused =
                bootstrap_ci(&data, mean, 250, 0.95, seed, &mut scratch, &mut || false).unwrap();
            assert_eq!(reused, Some(fresh), "seed {seed}");
        }
        assert_eq!(
            bootstrap_ci(&data, mean, 0, 0.95, 0, &mut scratch, &mut || false),
            Ok(None),
            "degenerate inputs still rejected"
        );
    }

    #[test]
    fn degenerate_sample_gives_zero_width() {
        let data = vec![3.0; 30];
        let ci = ci(&data, 100, 0.95, 1).unwrap();
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 3.0);
        assert_eq!(ci.width(), 0.0);
    }

    #[test]
    fn wider_level_wider_interval() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let narrow = ci(&data, 400, 0.80, 5).unwrap();
        let wide = ci(&data, 400, 0.99, 5).unwrap();
        assert!(wide.width() >= narrow.width());
    }

    #[test]
    fn invalid_inputs() {
        let data = vec![1.0];
        assert!(ci(&[], 100, 0.95, 0).is_none());
        assert!(ci(&data, 0, 0.95, 0).is_none());
        assert!(ci(&data, 100, 1.0, 0).is_none());
        assert!(ci(&data, 100, 0.0, 0).is_none());
    }
}
