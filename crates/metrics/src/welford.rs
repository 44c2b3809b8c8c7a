//! Online mean / variance / extrema via Welford's algorithm.

/// Numerically stable online statistics over a stream of `f64` samples.
///
/// Supports O(1) insertion and O(1) merge (parallel aggregation), tracking
/// count, mean, variance, min and max.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "samples must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Population variance from the running sum of squared deviations;
    /// zero with fewer than two samples.
    pub(super) fn variance(s: &OnlineStats) -> f64 {
        if s.count < 2 {
            0.0
        } else {
            s.m2 / s.count as f64
        }
    }

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(variance(&s), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((variance(&s) - 4.0).abs() < 1e-12);
        assert!((variance(&s).sqrt() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(variance(&s), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((variance(&a) - variance(&all)).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(2.0);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::variance;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn mean_within_bounds(xs in proptest::collection::vec(-1e6..1e6f64, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &xs {
                s.push(x);
            }
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(s.mean() >= min - 1e-6 && s.mean() <= max + 1e-6);
            prop_assert!(variance(&s) >= 0.0);
        }

        #[test]
        fn merge_is_associative_enough(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..100),
            split in 0usize..100,
        ) {
            let split = split.min(xs.len());
            let mut whole = OnlineStats::new();
            xs.iter().for_each(|&x| whole.push(x));
            let mut left = OnlineStats::new();
            let mut right = OnlineStats::new();
            xs[..split].iter().for_each(|&x| left.push(x));
            xs[split..].iter().for_each(|&x| right.push(x));
            left.merge(&right);
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((variance(&left) - variance(&whole)).abs() < 1e-4);
        }
    }
}
