//! Staleness metrics and their aggregation over a query's item set.
//!
//! The paper (Section 2.1) lists three ways to measure how stale a data item
//! is: the number of unapplied updates (`#uu`), the time differential since
//! the item was last up to date (`td`), and the value distance between the
//! served and the master value (`vd`). `#uu` is the metric used throughout
//! the evaluation because the target systems push every update to the
//! replica as soon as the master changes.
//!
//! A query may touch several items; [`StalenessAggregation`] decides how the
//! per-item numbers combine into the single value fed to the QoD profit
//! function.

/// How per-item staleness values combine into a query-level number.
///
/// The paper does not pin this down for multi-item queries; `Max` is the
/// default here because it composes naturally with the experiments'
/// `uumax = 1` ("no update missed on *any* accessed item"). An ablation
/// bench compares the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum StalenessAggregation {
    /// The stalest accessed item decides (default).
    #[default]
    Max,
    /// Total staleness across accessed items.
    Sum,
    /// Average staleness across accessed items.
    Mean,
}

impl StalenessAggregation {
    /// Aggregates per-item staleness values; empty input is perfectly fresh.
    pub fn aggregate(self, values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        match self {
            StalenessAggregation::Max => values.iter().copied().fold(0.0, f64::max),
            StalenessAggregation::Sum => values.iter().sum(),
            StalenessAggregation::Mean => values.iter().sum::<f64>() / values.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_modes() {
        let v = [0.0, 2.0, 4.0];
        assert_eq!(StalenessAggregation::Max.aggregate(&v), 4.0);
        assert_eq!(StalenessAggregation::Sum.aggregate(&v), 6.0);
        assert_eq!(StalenessAggregation::Mean.aggregate(&v), 2.0);
    }

    #[test]
    fn empty_item_set_is_fresh() {
        for agg in [
            StalenessAggregation::Max,
            StalenessAggregation::Sum,
            StalenessAggregation::Mean,
        ] {
            assert_eq!(agg.aggregate(&[]), 0.0);
        }
    }

    #[test]
    fn default_is_max() {
        assert_eq!(StalenessAggregation::default(), StalenessAggregation::Max);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn max_dominates_mean(values in proptest::collection::vec(0.0..1e6f64, 1..32)) {
            let max = StalenessAggregation::Max.aggregate(&values);
            let mean = StalenessAggregation::Mean.aggregate(&values);
            let sum = StalenessAggregation::Sum.aggregate(&values);
            prop_assert!(mean <= max + 1e-9);
            prop_assert!(max <= sum + 1e-9);
        }

        #[test]
        fn aggregation_of_fresh_items_is_fresh(n in 1usize..64) {
            let values = vec![0.0; n];
            prop_assert_eq!(StalenessAggregation::Max.aggregate(&values), 0.0);
            prop_assert_eq!(StalenessAggregation::Sum.aggregate(&values), 0.0);
            prop_assert_eq!(StalenessAggregation::Mean.aggregate(&values), 0.0);
        }
    }
}
