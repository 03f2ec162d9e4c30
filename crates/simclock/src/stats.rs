//! Latency statistics: exact-percentile histograms.
//!
//! The evaluation reports P50/P99 end-to-end function latencies (Fig. 10);
//! [`LatencyHistogram`] is the reporting primitive behind them.

use serde::{Deserialize, Serialize};

use crate::SimDuration;

/// An exact-percentile latency recorder.
///
/// Samples are kept verbatim (the experiments record at most a few hundred
/// thousand invocations), so percentiles are exact rather than approximated.
///
/// # Example
///
/// ```
/// use simclock::{SimDuration, stats::LatencyHistogram};
///
/// let mut h = LatencyHistogram::new();
/// for ms in 1..=100 {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.percentile(0.50).as_millis(), 50);
/// assert_eq!(h.percentile(0.99).as_millis(), 99);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    samples: Vec<SimDuration>,
    sorted: bool,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Merges all samples from `other` into `self`.
    ///
    /// Merging an empty `other` is a no-op: it neither perturbs the samples
    /// nor invalidates an already-sorted sample buffer.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Returns the exact `q`-quantile (`q` in `[0, 1]`) using the
    /// nearest-rank method. Returns [`SimDuration::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    /// Median (P50).
    pub fn p50(&mut self) -> SimDuration {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> SimDuration {
        self.percentile(0.99)
    }

    /// Arithmetic mean. Returns [`SimDuration::ZERO`] when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_nanos() as u128).sum();
        SimDuration::from_nanos((total / self.samples.len() as u128) as u64)
    }

    /// Largest sample, or zero when empty.
    pub fn max(&mut self) -> SimDuration {
        self.ensure_sorted();
        self.samples.last().copied().unwrap_or(SimDuration::ZERO)
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&mut self) -> SimDuration {
        self.ensure_sorted();
        self.samples.first().copied().unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), SimDuration::ZERO);
        assert_eq!(h.p99(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_millis(42));
        assert_eq!(h.percentile(0.0).as_millis(), 42);
        assert_eq!(h.p50().as_millis(), 42);
        assert_eq!(h.p99().as_millis(), 42);
        assert_eq!(h.max().as_millis(), 42);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut h = LatencyHistogram::new();
        for ms in [10u64, 20, 30, 40] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.p50().as_millis(), 20);
        assert_eq!(h.percentile(0.75).as_millis(), 30);
        assert_eq!(h.p99().as_millis(), 40);
        assert_eq!(h.min().as_millis(), 10);
    }

    #[test]
    fn empty_histogram_percentile_edges_do_not_panic() {
        // Regression: every quantile of an empty histogram — including the
        // extreme ranks q=0.0 and q=1.0 — must return zero rather than
        // indexing an empty sample buffer.
        let mut h = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), SimDuration::ZERO, "q={q}");
        }
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn full_quantile_returns_true_max() {
        // Regression: q=1.0 must select the last sorted sample (the true
        // max), not run off the end or stop one rank short.
        let mut h = LatencyHistogram::new();
        for ms in [7u64, 3, 99, 12, 54] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.percentile(1.0).as_millis(), 99);
        assert_eq!(h.percentile(1.0), h.max());
        // And q=0.0 clamps to the first rank (the true min).
        assert_eq!(h.percentile(0.0).as_millis(), 3);
    }

    #[test]
    fn merge_with_empty_other_is_a_noop() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_millis(5));
        h.record(SimDuration::from_millis(1));
        let p50 = h.p50(); // forces a sort
        let before = h.clone();
        h.merge(&LatencyHistogram::new());
        assert_eq!(h, before, "empty merge must not perturb the histogram");
        assert_eq!(h.len(), 2);
        assert_eq!(h.p50(), p50);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn percentile_rejects_out_of_range() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        let _ = h.percentile(1.5);
    }

    #[test]
    fn merged_percentiles_equal_single_histogram() {
        // Per-node histograms folded with `merge` must report the exact
        // same percentiles as recording every sample into one histogram
        // directly — merging moves samples, it does not approximate.
        let mut merged = LatencyHistogram::new();
        let mut single = LatencyHistogram::new();
        let mut node = LatencyHistogram::new();
        for i in 0u64..200 {
            // Deterministic, interleaved, non-monotonic sample stream
            // split across 4 "nodes".
            let d = SimDuration::from_nanos((i * 7919) % 1000 + 1);
            single.record(d);
            node.record(d);
            if i % 50 == 49 {
                merged.merge(&node);
                node = LatencyHistogram::new();
            }
        }
        assert_eq!(merged.len(), single.len());
        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 1.0] {
            assert_eq!(
                merged.percentile(q),
                single.percentile(q),
                "quantile {q} drifted after merge"
            );
        }
        assert_eq!(merged.mean(), single.mean());
        assert_eq!(merged.min(), single.min());
        assert_eq!(merged.max(), single.max());
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean().as_millis(), 2);
    }
}
