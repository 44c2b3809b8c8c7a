//! Non-increasing profit functions over a quality metric.
//!
//! A profit function maps a quality metric value (response time in
//! milliseconds, or staleness in unapplied updates) to the dollar amount the
//! server earns. Quality Contracts only admit *non-increasing* functions:
//! worse quality never earns more. The paper studies two concrete shapes —
//! step functions (Figure 2) and linear functions (Figure 3) — and this
//! module additionally supports arbitrary non-increasing piecewise-linear
//! functions so that service providers can ship richer contract templates.

/// A non-increasing profit function over a non-negative quality metric.
///
/// All variants satisfy `value_at(a) >= value_at(b)` whenever `a <= b`, and
/// `value_at(0)` equals [`ProfitFn::max_profit`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ProfitFn {
    /// Earns `max` while the metric is strictly below `cutoff`, zero after.
    ///
    /// The strict boundary makes `uumax = 1` mean "profit only when no
    /// update is missed", matching the paper's experimental setup.
    Step {
        /// Maximum profit, earned for any metric value below the cutoff.
        max: f64,
        /// First metric value that earns nothing.
        cutoff: f64,
    },
    /// Decays linearly from `max` at metric 0 to zero at `cutoff`.
    Linear {
        /// Profit earned at a metric value of zero.
        max: f64,
        /// Metric value at which the profit reaches zero.
        cutoff: f64,
    },
    /// A general non-increasing piecewise-linear function.
    ///
    /// Points are `(metric, profit)` pairs sorted by metric; profit is
    /// interpolated between points, constant at `points[0].1` before the
    /// first point, and zero after the last.
    Piecewise {
        /// Breakpoints, sorted by metric value, with non-increasing profit.
        points: Vec<(f64, f64)>,
    },
    /// Earns nothing regardless of quality. Useful for queries that only
    /// care about one of the two dimensions.
    Zero,
}

impl ProfitFn {
    /// A step function worth `max` up to (strictly below) `cutoff`.
    ///
    /// # Panics
    /// Panics if `max` is negative or not finite, or `cutoff` is not
    /// positive.
    pub fn step(max: f64, cutoff: f64) -> Self {
        assert!(
            max.is_finite() && max >= 0.0,
            "profit must be finite and >= 0"
        );
        assert!(cutoff > 0.0, "cutoff must be positive");
        ProfitFn::Step { max, cutoff }
    }

    /// A linear function from `max` at 0 down to zero at `cutoff`.
    ///
    /// # Panics
    /// Panics if `max` is negative or not finite, or `cutoff` is not
    /// positive.
    pub fn linear(max: f64, cutoff: f64) -> Self {
        assert!(
            max.is_finite() && max >= 0.0,
            "profit must be finite and >= 0"
        );
        assert!(cutoff > 0.0, "cutoff must be positive");
        ProfitFn::Linear { max, cutoff }
    }

    /// A piecewise-linear function through the given `(metric, profit)`
    /// breakpoints.
    ///
    /// # Errors
    /// Returns an error when the points are empty, unsorted, contain
    /// non-finite values, or the profits increase anywhere.
    pub fn piecewise(points: Vec<(f64, f64)>) -> Result<Self, PiecewiseError> {
        if points.is_empty() {
            return Err(PiecewiseError::Empty);
        }
        for window in points.windows(2) {
            let (x0, y0) = window[0];
            let (x1, y1) = window[1];
            if !(x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite()) {
                return Err(PiecewiseError::NonFinite);
            }
            if x1 <= x0 {
                return Err(PiecewiseError::Unsorted);
            }
            if y1 > y0 {
                return Err(PiecewiseError::Increasing);
            }
        }
        let (x0, y0) = points[0];
        if !x0.is_finite() || !y0.is_finite() || x0 < 0.0 || y0 < 0.0 {
            return Err(PiecewiseError::NonFinite);
        }
        Ok(ProfitFn::Piecewise { points })
    }

    /// Evaluates the profit at the given metric value.
    ///
    /// Negative metric values are clamped to zero (a response time or
    /// staleness can never be negative; clamping keeps the function total).
    pub fn value_at(&self, metric: f64) -> f64 {
        let metric = metric.max(0.0);
        match self {
            ProfitFn::Step { max, cutoff } => {
                if metric < *cutoff {
                    *max
                } else {
                    0.0
                }
            }
            ProfitFn::Linear { max, cutoff } => {
                if metric >= *cutoff {
                    0.0
                } else {
                    max * (1.0 - metric / cutoff)
                }
            }
            ProfitFn::Piecewise { points } => {
                let (first_x, first_y) = points[0];
                if metric <= first_x {
                    return first_y;
                }
                let (last_x, _) = points[points.len() - 1];
                if metric > last_x {
                    return 0.0;
                }
                // Binary search for the surrounding segment.
                let idx = points.partition_point(|&(x, _)| x < metric);
                let (x1, y1) = points[idx];
                if x1 == metric {
                    return y1;
                }
                let (x0, y0) = points[idx - 1];
                let t = (metric - x0) / (x1 - x0);
                y0 + t * (y1 - y0)
            }
            ProfitFn::Zero => 0.0,
        }
    }

    /// The maximum profit this function can yield (its value at metric 0).
    pub(crate) fn max_profit(&self) -> f64 {
        match self {
            ProfitFn::Step { max, .. } | ProfitFn::Linear { max, .. } => *max,
            ProfitFn::Piecewise { points } => points[0].1,
            ProfitFn::Zero => 0.0,
        }
    }

    /// The smallest metric value at which the profit has dropped to zero,
    /// or `None` if the function is identically zero (no deadline pressure).
    pub(crate) fn zero_point(&self) -> Option<f64> {
        match self {
            ProfitFn::Step { cutoff, .. } | ProfitFn::Linear { cutoff, .. } => Some(*cutoff),
            ProfitFn::Piecewise { points } => points
                .iter()
                .find(|&&(_, y)| y == 0.0)
                .map(|&(x, _)| x)
                .or_else(|| points.last().map(|&(x, _)| x)),
            ProfitFn::Zero => None,
        }
    }

    /// Whether the function is identically zero.
    pub fn is_zero(&self) -> bool {
        self.max_profit() == 0.0
    }
}

/// Validation failure when constructing a piecewise profit function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiecewiseError {
    /// No breakpoints were supplied.
    Empty,
    /// Breakpoints are not strictly increasing in the metric.
    Unsorted,
    /// A profit increases between consecutive breakpoints.
    Increasing,
    /// A coordinate is NaN, infinite, or negative where it must not be.
    NonFinite,
}

impl std::fmt::Display for PiecewiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PiecewiseError::Empty => {
                write!(f, "piecewise profit function needs at least one point")
            }
            PiecewiseError::Unsorted => {
                write!(f, "piecewise breakpoints must be strictly increasing")
            }
            PiecewiseError::Increasing => write!(f, "profit must be non-increasing in the metric"),
            PiecewiseError::NonFinite => write!(f, "coordinates must be finite and non-negative"),
        }
    }
}

impl std::error::Error for PiecewiseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_earns_max_strictly_below_cutoff() {
        let f = ProfitFn::step(10.0, 50.0);
        assert_eq!(f.value_at(0.0), 10.0);
        assert_eq!(f.value_at(49.999), 10.0);
        assert_eq!(f.value_at(50.0), 0.0);
        assert_eq!(f.value_at(1e9), 0.0);
    }

    #[test]
    fn step_with_uumax_one_requires_zero_staleness() {
        // uumax = 1 in the paper means profit only when no update missed.
        let f = ProfitFn::step(5.0, 1.0);
        assert_eq!(f.value_at(0.0), 5.0);
        assert_eq!(f.value_at(1.0), 0.0);
        assert_eq!(f.value_at(2.0), 0.0);
    }

    #[test]
    fn linear_interpolates() {
        let f = ProfitFn::linear(10.0, 100.0);
        assert_eq!(f.value_at(0.0), 10.0);
        assert!((f.value_at(50.0) - 5.0).abs() < 1e-12);
        assert_eq!(f.value_at(100.0), 0.0);
        assert_eq!(f.value_at(150.0), 0.0);
    }

    #[test]
    fn negative_metric_clamps_to_max() {
        let f = ProfitFn::linear(10.0, 100.0);
        assert_eq!(f.value_at(-5.0), 10.0);
    }

    #[test]
    fn piecewise_evaluates_segments() {
        let f = ProfitFn::piecewise(vec![(0.0, 10.0), (10.0, 10.0), (20.0, 0.0)]).unwrap();
        assert_eq!(f.value_at(0.0), 10.0);
        assert_eq!(f.value_at(5.0), 10.0);
        assert_eq!(f.value_at(10.0), 10.0);
        assert!((f.value_at(15.0) - 5.0).abs() < 1e-12);
        assert_eq!(f.value_at(20.0), 0.0);
        assert_eq!(f.value_at(25.0), 0.0);
    }

    #[test]
    fn piecewise_rejects_bad_input() {
        assert_eq!(ProfitFn::piecewise(vec![]), Err(PiecewiseError::Empty));
        assert_eq!(
            ProfitFn::piecewise(vec![(0.0, 1.0), (0.0, 0.5)]),
            Err(PiecewiseError::Unsorted)
        );
        assert_eq!(
            ProfitFn::piecewise(vec![(0.0, 1.0), (1.0, 2.0)]),
            Err(PiecewiseError::Increasing)
        );
        assert_eq!(
            ProfitFn::piecewise(vec![(0.0, f64::NAN)]),
            Err(PiecewiseError::NonFinite)
        );
    }

    #[test]
    fn zero_function() {
        let f = ProfitFn::Zero;
        assert_eq!(f.value_at(0.0), 0.0);
        assert_eq!(f.max_profit(), 0.0);
        assert!(f.is_zero());
        assert_eq!(f.zero_point(), None);
    }

    #[test]
    fn zero_points() {
        assert_eq!(ProfitFn::step(1.0, 50.0).zero_point(), Some(50.0));
        assert_eq!(ProfitFn::linear(1.0, 80.0).zero_point(), Some(80.0));
        let pw = ProfitFn::piecewise(vec![(0.0, 2.0), (5.0, 0.0)]).unwrap();
        assert_eq!(pw.zero_point(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn step_rejects_zero_cutoff() {
        let _ = ProfitFn::step(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "profit must be finite")]
    fn linear_rejects_negative_profit() {
        let _ = ProfitFn::linear(-1.0, 10.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_fn() -> impl Strategy<Value = ProfitFn> {
        prop_oneof![
            (0.0..1000.0f64, 0.001..1e6f64).prop_map(|(m, c)| ProfitFn::step(m, c)),
            (0.0..1000.0f64, 0.001..1e6f64).prop_map(|(m, c)| ProfitFn::linear(m, c)),
            proptest::collection::vec((0.0..1e5f64, 0.0..1e3f64), 1..8).prop_map(|mut pts| {
                // Sort by metric, dedupe, then force profits non-increasing.
                pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                pts.dedup_by(|a, b| a.0 == b.0);
                let mut best = f64::INFINITY;
                for p in &mut pts {
                    best = best.min(p.1);
                    p.1 = best;
                }
                ProfitFn::piecewise(pts).unwrap()
            }),
            Just(ProfitFn::Zero),
        ]
    }

    proptest! {
        #[test]
        fn profit_is_nonincreasing(f in arbitrary_fn(), a in 0.0..1e6f64, b in 0.0..1e6f64) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(f.value_at(lo) >= f.value_at(hi) - 1e-9);
        }

        #[test]
        fn profit_bounded_by_max(f in arbitrary_fn(), x in 0.0..1e6f64) {
            let v = f.value_at(x);
            prop_assert!(v >= 0.0);
            prop_assert!(v <= f.max_profit() + 1e-9);
        }

        #[test]
        fn value_at_zero_is_max(f in arbitrary_fn()) {
            prop_assert!((f.value_at(0.0) - f.max_profit()).abs() < 1e-9);
        }

        #[test]
        fn beyond_zero_point_earns_nothing(f in arbitrary_fn(), eps in 0.001..100.0f64) {
            if let Some(z) = f.zero_point() {
                prop_assert_eq!(f.value_at(z + eps), 0.0);
            }
        }
    }
}
