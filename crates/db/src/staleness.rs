//! Per-item staleness bookkeeping.
//!
//! Tracks, for every data item, the number of unapplied updates (`#uu`)
//! and when the item first became stale (for the `td` metric). An update
//! *arrival* makes the item staler; *applying* the freshest value makes it
//! perfectly fresh again (data items are independently refreshed, so one
//! application catches up the whole backlog).

use crate::store::StockId;

/// Flat per-item staleness counters.
#[derive(Debug, Clone)]
pub struct StalenessTracker {
    /// `#uu` per item: arrivals since the item was last up to date.
    missed: Vec<u64>,
    /// Time (µs) the item first became stale; meaningful when missed > 0.
    stale_since: Vec<u64>,
}

impl StalenessTracker {
    /// A tracker for `n` items, all initially fresh.
    pub fn new(n: usize) -> Self {
        StalenessTracker {
            missed: vec![0; n],
            stale_since: vec![0; n],
        }
    }

    /// Number of items tracked.
    pub fn len(&self) -> usize {
        self.missed.len()
    }

    /// Whether the tracker covers no items.
    pub fn is_empty(&self) -> bool {
        self.missed.is_empty()
    }

    /// Records an update arrival on `item` at time `now` (µs).
    pub fn on_arrival(&mut self, item: StockId, now: u64) {
        let i = item.index();
        if self.missed[i] == 0 {
            self.stale_since[i] = now;
        }
        self.missed[i] += 1;
    }

    /// Records that the freshest pending value was applied to `item`: the
    /// item is now fully up to date.
    pub fn on_apply(&mut self, item: StockId) {
        self.missed[item.index()] = 0;
    }

    /// `#uu` for one item.
    pub fn unapplied(&self, item: StockId) -> u64 {
        self.missed[item.index()]
    }

    /// Time differential `td` for one item at time `now` (µs): how long
    /// the served value has been out of date. Zero when fresh.
    pub fn time_differential(&self, item: StockId, now: u64) -> u64 {
        let i = item.index();
        if self.missed[i] == 0 {
            0
        } else {
            now.saturating_sub(self.stale_since[i])
        }
    }

    /// Per-item `#uu` over a query's accessed item set, in item order,
    /// into a caller-owned scratch buffer (cleared first) so hot paths
    /// can reuse one allocation across queries.
    pub fn unapplied_over_into(&self, items: &[StockId], out: &mut Vec<f64>) {
        out.clear();
        out.extend(items.iter().map(|&s| self.unapplied(s) as f64));
    }

    /// Total `#uu` across all items (queue-pressure diagnostic).
    pub fn total_unapplied(&self) -> u64 {
        self.missed.iter().sum()
    }

    /// The raw per-item `#uu` counters (for snapshot encoding).
    pub fn missed_counts(&self) -> &[u64] {
        &self.missed
    }

    /// Rebuilds a tracker from snapshot `#uu` counters. The `td` clocks
    /// restart at zero: wall-clock stale-since points don't survive a
    /// crash, so recovered items report `#uu` exactly and `td` from the
    /// moment of recovery (a documented under-estimate).
    pub(crate) fn from_missed(missed: Vec<u64>) -> Self {
        let stale_since = vec![0; missed.len()];
        StalenessTracker {
            missed,
            stale_since,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: StockId = StockId(0);
    const B: StockId = StockId(1);

    #[test]
    fn initially_fresh() {
        let t = StalenessTracker::new(2);
        assert_eq!(t.unapplied(A), 0);
        assert_eq!(t.time_differential(A, 100), 0);
        assert_eq!(t.total_unapplied(), 0);
    }

    #[test]
    fn arrivals_accumulate_apply_resets() {
        let mut t = StalenessTracker::new(2);
        t.on_arrival(A, 10);
        t.on_arrival(A, 20);
        t.on_arrival(B, 30);
        assert_eq!(t.unapplied(A), 2);
        assert_eq!(t.unapplied(B), 1);
        assert_eq!(t.total_unapplied(), 3);
        t.on_apply(A);
        assert_eq!(t.unapplied(A), 0);
        assert_eq!(t.unapplied(B), 1);
    }

    #[test]
    fn time_differential_from_first_missed() {
        let mut t = StalenessTracker::new(1);
        t.on_arrival(A, 100);
        t.on_arrival(A, 200); // does not move the stale-since point
        assert_eq!(t.time_differential(A, 500), 400);
        t.on_apply(A);
        assert_eq!(t.time_differential(A, 600), 0);
        // Becoming stale again restarts the clock.
        t.on_arrival(A, 700);
        assert_eq!(t.time_differential(A, 750), 50);
    }

    #[test]
    fn unapplied_over_item_set() {
        let mut t = StalenessTracker::new(3);
        t.on_arrival(StockId(2), 1);
        t.on_arrival(StockId(2), 2);
        let mut out = Vec::new();
        t.unapplied_over_into(&[A, StockId(2)], &mut out);
        assert_eq!(out, vec![0.0, 2.0]);
    }

    #[test]
    fn unapplied_over_into_reuses_buffer() {
        let mut t = StalenessTracker::new(3);
        t.on_arrival(B, 5);
        let mut buf = vec![9.0; 8]; // stale contents must be cleared
        t.unapplied_over_into(&[A, B], &mut buf);
        assert_eq!(buf, vec![0.0, 1.0]);
        t.unapplied_over_into(&[B], &mut buf);
        assert_eq!(buf, vec![1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// total_unapplied always equals arrivals minus the missed counts
        /// cleared by applications.
        #[test]
        fn counter_consistency(ops in proptest::collection::vec((0u32..4, proptest::bool::ANY), 1..300)) {
            let mut t = StalenessTracker::new(4);
            let mut model = [0u64; 4];
            let mut now = 0;
            for (item, is_apply) in ops {
                now += 1;
                let id = StockId(item);
                if is_apply {
                    model[item as usize] = 0;
                    t.on_apply(id);
                } else {
                    model[item as usize] += 1;
                    t.on_arrival(id, now);
                }
                prop_assert_eq!(t.unapplied(id), model[item as usize]);
            }
            prop_assert_eq!(t.total_unapplied(), model.iter().sum::<u64>());
        }
    }
}
