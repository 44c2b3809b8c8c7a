//! A single stock's in-memory state.

use std::collections::VecDeque;

/// How many recent prices a record retains for moving-average queries.
const HISTORY_CAPACITY: usize = 64;

/// One data item: the latest trade plus a bounded window of recent prices.
///
/// Data items are independently refreshed — the database keeps only the
/// most recent update; the full history lives with the external source
/// (e.g. the NYSE servers). The small price window exists because the
/// trace's second most common query type computes moving averages.
#[derive(Debug, Clone)]
pub struct StockRecord {
    symbol: String,
    price: f64,
    volume: u64,
    last_trade_time_ms: u64,
    history: VecDeque<f64>,
}

impl StockRecord {
    /// A fresh record at the given initial price.
    pub fn new(symbol: impl Into<String>, initial_price: f64) -> Self {
        let mut history = VecDeque::with_capacity(HISTORY_CAPACITY);
        history.push_back(initial_price);
        StockRecord {
            symbol: symbol.into(),
            price: initial_price,
            volume: 0,
            last_trade_time_ms: 0,
            history,
        }
    }

    /// The ticker symbol.
    pub fn symbol(&self) -> &str {
        &self.symbol
    }

    /// The most recent trade price.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// The most recent trade volume.
    pub fn volume(&self) -> u64 {
        self.volume
    }

    /// Wall-clock time of the most recent applied trade, in milliseconds.
    pub(crate) fn last_trade_time_ms(&self) -> u64 {
        self.last_trade_time_ms
    }

    /// Applies a blind update (newest value wins; history window slides).
    pub(crate) fn apply_trade(&mut self, price: f64, volume: u64, trade_time_ms: u64) {
        self.price = price;
        self.volume = volume;
        self.last_trade_time_ms = trade_time_ms;
        if self.history.len() == HISTORY_CAPACITY {
            self.history.pop_front();
        }
        self.history.push_back(price);
    }

    /// Moving average over the last `window` applied prices (fewer if the
    /// record is young). `window` is clamped to at least 1.
    pub fn moving_average(&self, window: usize) -> f64 {
        let window = window.max(1).min(self.history.len());
        let n = self.history.len();
        self.history.iter().skip(n - window).sum::<f64>() / window as f64
    }

    /// Number of prices currently retained.
    pub(crate) fn history_len(&self) -> usize {
        self.history.len()
    }

    /// The retained price window, oldest first (for snapshot encoding).
    pub fn history(&self) -> impl Iterator<Item = f64> + '_ {
        self.history.iter().copied()
    }

    /// Rebuilds a record from snapshot fields. The history window is
    /// clamped to [`HISTORY_CAPACITY`] (keeping the newest prices) and
    /// seeded with the current price when empty, matching [`new`].
    ///
    /// [`new`]: StockRecord::new
    pub(crate) fn from_parts(
        symbol: impl Into<String>,
        price: f64,
        volume: u64,
        last_trade_time_ms: u64,
        history: impl IntoIterator<Item = f64>,
    ) -> Self {
        let mut history: VecDeque<f64> = history.into_iter().collect();
        while history.len() > HISTORY_CAPACITY {
            history.pop_front();
        }
        if history.is_empty() {
            history.push_back(price);
        }
        StockRecord {
            symbol: symbol.into(),
            price,
            volume,
            last_trade_time_ms,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_record() {
        let r = StockRecord::new("IBM", 100.0);
        assert_eq!(r.symbol(), "IBM");
        assert_eq!(r.price(), 100.0);
        assert_eq!(r.volume(), 0);
        assert_eq!(r.history_len(), 1);
    }

    #[test]
    fn apply_trade_updates_everything() {
        let mut r = StockRecord::new("IBM", 100.0);
        r.apply_trade(101.0, 500, 42);
        assert_eq!(r.price(), 101.0);
        assert_eq!(r.volume(), 500);
        assert_eq!(r.last_trade_time_ms(), 42);
        assert_eq!(r.history_len(), 2);
    }

    #[test]
    fn moving_average_over_window() {
        let mut r = StockRecord::new("IBM", 10.0);
        r.apply_trade(20.0, 1, 1);
        r.apply_trade(30.0, 1, 2);
        assert!((r.moving_average(2) - 25.0).abs() < 1e-12);
        assert!((r.moving_average(3) - 20.0).abs() < 1e-12);
        // Window larger than history clamps.
        assert!((r.moving_average(100) - 20.0).abs() < 1e-12);
        // Zero window clamps to 1 (latest price).
        assert!((r.moving_average(0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn history_is_bounded() {
        let mut r = StockRecord::new("IBM", 0.0);
        for i in 0..(HISTORY_CAPACITY * 2) {
            r.apply_trade(i as f64, 1, i as u64);
        }
        assert_eq!(r.history_len(), HISTORY_CAPACITY);
        // The retained window is the most recent one.
        let expected_last = (HISTORY_CAPACITY * 2 - 1) as f64;
        assert!((r.moving_average(1) - expected_last).abs() < 1e-12);
    }
}
