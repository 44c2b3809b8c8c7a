//! Order statistics and the percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it; a percentile the sample
//! count cannot support is refused (`None`), never extrapolated.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of percentile `p` among `n` samples, in
/// integer arithmetic on per-mille so that p99 of 1,000 is rank 990 and
/// not whatever `0.99 * 1000.0` rounds to.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 1_000.0).round() as usize;
    (n * per_mille).div_ceil(1_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`, to
/// a tenth of a percent.
///
/// # Panics
/// Panics on an empty slice (callers gate on the sample count first).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `n` samples leave at least [`MIN_SAMPLES_BEYOND`] beyond
/// percentile `p` (p99 needs 1,000 samples, p50 needs 20).
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_SAMPLES_BEYOND
}

/// The highest of p50/p90/p99/p99.9 that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// A set of latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Percentile `p` in microseconds, refused when the rule does not
    /// support it.
    pub fn percentile_us(&mut self, p: f64) -> Option<f64> {
        if !supports(self.ns.len(), p) {
            return None;
        }
        self.sort();
        Some(percentile_sorted(&self.ns, p) as f64 / 1_000.0)
    }

    /// Median in microseconds of however many samples there are (used
    /// for counts too small for the rule, and flagged as such by the
    /// sample count printed beside it).
    pub fn median_us_any(&mut self) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        self.sort();
        Some(percentile_sorted(&self.ns, 0.5) as f64 / 1_000.0)
    }
}

/// Median of unsorted values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same cut
/// points Python's `statistics.quantiles(values, n=4)` returns, which
/// is what the acceptance check of this benchmark computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale; the interval is clamped
        // to the data and the remainder may extrapolate, as in Python.
        let j = ((k * (n + 1)) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_refuses_p99_under_1000_samples() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(!supports(19, 0.5));
        assert!(supports(20, 0.5));
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));

        let mut s = Samples::default();
        for i in 0..999u64 {
            s.push(i * 1_000);
        }
        assert_eq!(s.percentile_us(0.99), None);
        assert!(s.percentile_us(0.9).is_some());
        s.push(999_000);
        // 1000 samples 0..=999 us: nearest rank 990 is the value 989.
        assert_eq!(s.percentile_us(0.99), Some(989.0));
        assert_eq!(s.percentile_us(0.5), Some(499.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }
}
