//! Log-bucketed histograms for latency-like distributions.
//!
//! Response times in an overloaded web-database span five orders of
//! magnitude (the paper's Figure 1 plots 23 ms next to 11,591 ms on a log
//! axis), so fixed-width bins are useless. [`LogHistogram`] uses
//! exponentially growing buckets with a configurable number of sub-buckets
//! per power of two, giving a bounded relative error on percentile queries
//! at O(1) insertion cost.

/// A histogram over non-negative `u64` values (e.g. microseconds) with
/// logarithmic bucket widths.
///
/// ```
/// use quts_metrics::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in [120, 450, 900, 12_000, 95_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), Some(120));
/// assert!(h.quantile(0.5).unwrap() <= 900);
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LogHistogram {
    /// `counts[b]` is the number of samples whose bucket index is `b`.
    counts: Vec<u64>,
    /// Sub-buckets per power of two; higher means finer resolution.
    grid: u32,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const DEFAULT_GRID: u32 = 16;
/// Enough buckets for values up to 2^48 µs (~8.9 years).
const MAX_POW2: u32 = 48;

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A histogram with the default resolution (16 sub-buckets per power
    /// of two, i.e. at most ~6% relative error).
    pub fn new() -> Self {
        Self::with_grid(DEFAULT_GRID)
    }

    /// A histogram with `grid` sub-buckets per power of two.
    ///
    /// # Panics
    /// Panics if `grid` is zero or not a power of two.
    fn with_grid(grid: u32) -> Self {
        assert!(grid.is_power_of_two(), "grid must be a power of two");
        LogHistogram {
            counts: vec![0; (MAX_POW2 * grid) as usize + grid as usize],
            grid,
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(&self, value: u64) -> usize {
        let grid = self.grid as u64;
        if value < grid {
            return value as usize;
        }
        // The highest set bit determines the power-of-two range; the next
        // log2(grid) bits select the sub-bucket.
        let msb = 63 - value.leading_zeros() as u64;
        let shift = msb - self.grid.trailing_zeros() as u64;
        let sub = (value >> shift) & (grid - 1);
        let range = msb - self.grid.trailing_zeros() as u64;
        ((range * grid) + grid + sub).min(self.counts.len() as u64 - 1) as usize
    }

    /// Representative (lower-bound) value of a bucket.
    fn bucket_low(&self, bucket: usize) -> u64 {
        let grid = self.grid as u64;
        let b = bucket as u64;
        if b < grid {
            return b;
        }
        let range = (b - grid) / grid;
        let sub = (b - grid) % grid;
        let shift = range;
        (grid + sub) << shift
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let b = self.bucket_of(value);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample (exact), or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact), or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate value at quantile `q` in `[0, 1]`; `None` when empty.
    ///
    /// The returned value is the lower bound of the bucket containing the
    /// q-th sample, clamped to the exact min/max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_low(b).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Convenience: the median.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Exact sum of the recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Approximate number of samples ≤ `value`: the cumulative count
    /// through the bucket containing `value`. Monotone in `value` and
    /// equal to [`count`](Self::count) once `value ≥ max`; samples
    /// sharing the bucket but exceeding `value` are over-counted by at
    /// most one bucket width (~1/grid relative error).
    pub(crate) fn count_le(&self, value: u64) -> u64 {
        let b = self.bucket_of(value);
        self.counts[..=b].iter().sum()
    }

    /// Merges another histogram with the same grid.
    ///
    /// # Panics
    /// Panics if the grids differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.grid, other.grid, "histogram grids must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(15));
        // Values below the grid size land in exact buckets.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(15));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30, 1000, 5000] {
            h.record(v);
        }
        assert!((h.mean() - 1212.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = LogHistogram::new();
        let values: Vec<u64> = (1..10_000u64).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let exact = values[((q * values.len() as f64) as usize).min(values.len() - 1)];
            let approx = h.quantile(q).unwrap() as f64;
            let rel = (approx - exact as f64).abs() / exact as f64;
            assert!(rel < 0.15, "q={q}: exact={exact} approx={approx} rel={rel}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for v in 0..1000u64 {
            c.record(v * 7);
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.quantile(0.5), c.quantile(0.5));
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn grid_must_be_power_of_two() {
        let _ = LogHistogram::with_grid(10);
    }

    #[test]
    fn zero_samples_has_no_quantiles_and_zero_cumulative() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
        assert_eq!(h.count_le(0), 0);
        assert_eq!(h.count_le(u64::MAX), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(12_345), "q={q}");
        }
        assert_eq!(h.min(), h.max());
        assert_eq!(h.sum(), 12_345);
        assert_eq!(h.count_le(0), 0);
        assert_eq!(h.count_le(u64::MAX), 1);
    }

    #[test]
    fn values_below_first_bucket_boundary_are_exact() {
        // Values below `grid` land in width-1 buckets: quantiles and
        // cumulative counts are exact there.
        let mut h = LogHistogram::with_grid(16);
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(3));
        assert_eq!(h.count_le(0), 1);
        assert_eq!(h.count_le(1), 2);
        assert_eq!(h.count_le(2), 3);
        assert_eq!(h.count_le(3), 4);
        assert_eq!(h.count_le(15), 4);
    }

    #[test]
    fn p0_p50_p100_exactness_bounds() {
        let mut h = LogHistogram::new();
        let values: Vec<u64> = (1..=101u64).map(|v| v * 97).collect();
        for &v in &values {
            h.record(v);
        }
        // p0 is exact: the min's bucket lower bound clamps up to min.
        assert_eq!(h.quantile(0.0), Some(*values.first().unwrap()));
        // p50 and p100 return the containing bucket's lower bound:
        // within one sub-bucket (1/grid ≈ 6%) below the exact value,
        // never above it.
        for (q, exact) in [
            (0.5, values[values.len() / 2]),
            (1.0, *values.last().unwrap()),
        ] {
            let approx = h.quantile(q).unwrap();
            assert!(approx <= exact, "q={q}");
            assert!(
                approx as f64 >= exact as f64 * (1.0 - 1.0 / 16.0) - 1.0,
                "q={q}: approx={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn count_le_is_monotone_and_reaches_total() {
        let mut h = LogHistogram::new();
        for v in [3u64, 70, 900, 40_000, 2_000_000] {
            h.record(v);
        }
        let probes = [0u64, 3, 69, 70, 1_000, 50_000, 3_000_000, u64::MAX];
        let counts: Vec<u64> = probes.iter().map(|&p| h.count_le(p)).collect();
        for w in counts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*counts.last().unwrap(), h.count());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn quantiles_are_monotone(values in proptest::collection::vec(0u64..1_000_000, 1..500)) {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let qs = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
            let results: Vec<u64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
            for w in results.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert!(results[0] >= h.min().unwrap());
            prop_assert!(*results.last().unwrap() <= h.max().unwrap());
        }

        #[test]
        fn bucket_lower_bound_is_below_value(v in 0u64..u64::MAX / 2) {
            let h = LogHistogram::new();
            let b = h.bucket_of(v);
            prop_assert!(h.bucket_low(b) <= v);
        }
    }
}
