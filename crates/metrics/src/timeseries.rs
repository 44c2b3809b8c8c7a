//! Fixed-width time-binned series with moving-window smoothing.
//!
//! The paper's time plots (Figure 5a/b arrival rates, Figure 9 profit and ρ
//! over time) bin raw events into per-second buckets and, for Figure 9,
//! smooth with a 5-second moving window. [`BinnedSeries`] reproduces both.

/// A series of values accumulated into fixed-width time bins.
///
/// Time is an abstract `u64` (the simulator uses microseconds); each bin
/// accumulates a sum and a count so the caller can read either totals
/// (arrivals per second) or bin means (average ρ per adaptation period).
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BinnedSeries {
    bin_width: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl BinnedSeries {
    /// A series with the given bin width (same unit as the timestamps).
    ///
    /// # Panics
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: u64) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        BinnedSeries {
            bin_width,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The configured bin width.
    pub(crate) fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Adds `value` at time `t`.
    pub fn record(&mut self, t: u64, value: f64) {
        let bin = (t / self.bin_width) as usize;
        if bin >= self.sums.len() {
            self.sums.resize(bin + 1, 0.0);
            self.counts.resize(bin + 1, 0);
        }
        self.sums[bin] += value;
        self.counts[bin] += 1;
    }

    /// Counts an event at time `t` (value 1).
    pub fn record_event(&mut self, t: u64) {
        self.record(t, 1.0);
    }

    /// Number of bins currently covered.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Whether no bins exist yet.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Per-bin sums (e.g. profit earned per second).
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Per-bin event counts (e.g. arrivals per second).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bin means; bins with no samples yield 0.
    pub fn means(&self) -> Vec<f64> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }
}

/// Centred moving average; edge bins average over the available
/// neighbours. The paper's Figure 9 smooths with a 5-bin (5-second)
/// window.
///
/// # Panics
/// Panics if `window` is zero.
pub fn moving_average(values: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let half = window / 2;
    (0..values.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(values.len());
            let slice = &values[lo..hi];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate() {
        let mut s = BinnedSeries::new(1000);
        s.record(0, 2.0);
        s.record(999, 3.0);
        s.record(1000, 4.0);
        s.record(2500, 5.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.sums(), &[5.0, 4.0, 5.0]);
        assert_eq!(s.counts(), &[2, 1, 1]);
        assert_eq!(s.means(), vec![2.5, 4.0, 5.0]);
    }

    #[test]
    fn events_count() {
        let mut s = BinnedSeries::new(10);
        for t in 0..25 {
            s.record_event(t);
        }
        assert_eq!(s.counts(), &[10, 10, 5]);
    }

    #[test]
    fn empty_bins_between_samples() {
        let mut s = BinnedSeries::new(10);
        s.record(5, 1.0);
        s.record(35, 1.0);
        assert_eq!(s.len(), 4);
        assert_eq!(s.counts(), &[1, 0, 0, 1]);
        assert_eq!(s.means()[1], 0.0);
    }

    #[test]
    fn moving_average_smooths() {
        let v = [0.0, 0.0, 10.0, 0.0, 0.0];
        let sm = moving_average(&v, 5);
        assert_eq!(sm[2], 2.0);
        // Edges average over fewer bins.
        assert!((sm[0] - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_one_is_identity() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(moving_average(&v, 1), v.to_vec());
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_rejected() {
        let _ = BinnedSeries::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn total_is_preserved_by_binning(
            samples in proptest::collection::vec((0u64..100_000, -100.0..100.0f64), 1..200),
            width in 1u64..10_000,
        ) {
            let mut s = BinnedSeries::new(width);
            let mut total = 0.0;
            for &(t, v) in &samples {
                s.record(t, v);
                total += v;
            }
            let binned: f64 = s.sums().iter().sum();
            prop_assert!((binned - total).abs() < 1e-6);
            prop_assert_eq!(s.counts().iter().sum::<u64>(), samples.len() as u64);
        }

        #[test]
        fn smoothing_preserves_constant_series(c in -100.0..100.0f64, n in 1usize..50, w in 1usize..10) {
            let v = vec![c; n];
            for x in moving_average(&v, w) {
                prop_assert!((x - c).abs() < 1e-9);
            }
        }

        #[test]
        fn smoothing_stays_within_range(
            v in proptest::collection::vec(-1e3..1e3f64, 1..100),
            w in 1usize..20,
        ) {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for x in moving_average(&v, w) {
                prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9);
            }
        }
    }
}
