//! The hash-indexed in-memory stock table.

use crate::ops::Trade;
use crate::record::StockRecord;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Identifier of one data item (stock). Dense — valid ids are
/// `0..store.len()` — so per-item side tables can be flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StockId(pub u32);

impl StockId {
    /// The id as a flat-vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The main-memory database `D`: `Nd` independently refreshed stock
/// records, hash-accessed by ticker symbol and directly addressed by
/// [`StockId`].
#[derive(Debug, Clone, Default)]
pub struct Store {
    records: Vec<StockRecord>,
    by_symbol: HashMap<String, StockId>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// A store pre-populated with `n` synthetic tickers (`S0000`…)
    /// starting at price 100.0 — the shape used by the simulator.
    pub fn with_synthetic_stocks(n: u32) -> Self {
        let mut store = Store {
            records: Vec::with_capacity(n as usize),
            by_symbol: HashMap::with_capacity(n as usize),
        };
        for i in 0..n {
            store.insert(format!("S{i:04}"), 100.0);
        }
        store
    }

    /// Registers a new stock; returns its id.
    ///
    /// # Panics
    /// Panics if the symbol already exists.
    pub fn insert(&mut self, symbol: impl Into<String>, initial_price: f64) -> StockId {
        let id = StockId(self.records.len() as u32);
        // One hash of the symbol: the entry both detects a duplicate and
        // takes the id.
        match self.by_symbol.entry(symbol.into()) {
            Entry::Occupied(taken) => panic!("duplicate ticker symbol {}", taken.key()),
            Entry::Vacant(slot) => {
                self.records
                    .push(StockRecord::new(slot.key().clone(), initial_price));
                slot.insert(id);
            }
        }
        id
    }

    /// Number of data items (`Nd`).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Hash-based lookup by ticker symbol.
    pub fn id_of(&self, symbol: &str) -> Option<StockId> {
        self.by_symbol.get(symbol).copied()
    }

    /// The record for an id.
    ///
    /// # Panics
    /// Panics on an id not issued by this store.
    pub fn record(&self, id: StockId) -> &StockRecord {
        &self.records[id.index()]
    }

    /// Applies a blind update: overwrites the item with the trade's price
    /// and volume. Only the most recent value is kept (plus a bounded
    /// price history for moving-average queries).
    ///
    /// # Panics
    /// Panics on an id not issued by this store.
    pub fn apply_update(&mut self, trade: &Trade) {
        self.records[trade.stock.index()].apply_trade(
            trade.price,
            trade.volume,
            trade.trade_time_ms,
        );
    }

    /// Rebuilds a store from decoded snapshot records, re-deriving the
    /// symbol index. Ids keep their snapshot order (dense, by position).
    ///
    /// # Panics
    /// Panics if two records share a ticker symbol — a snapshot written
    /// by this crate can't contain one, so that is corruption the
    /// caller's checksum should have caught.
    pub fn from_records(records: Vec<StockRecord>) -> Self {
        let mut by_symbol = HashMap::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            let prev = by_symbol.insert(r.symbol().to_string(), StockId(i as u32));
            assert!(prev.is_none(), "duplicate ticker symbol {}", r.symbol());
        }
        Store { records, by_symbol }
    }

    /// The records in id order, giving up the symbol index — the inverse
    /// of [`Store::from_records`].
    pub fn into_records(self) -> Vec<StockRecord> {
        self.records
    }

    /// Iterates over all `(id, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StockId, &StockRecord)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (StockId(i as u32), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut s = Store::new();
        let ibm = s.insert("IBM", 120.0);
        let aapl = s.insert("AAPL", 30.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.id_of("IBM"), Some(ibm));
        assert_eq!(s.id_of("AAPL"), Some(aapl));
        assert_eq!(s.id_of("MSFT"), None);
        assert_eq!(s.record(ibm).price(), 120.0);
    }

    #[test]
    fn ids_are_dense() {
        let s = Store::with_synthetic_stocks(10);
        for (i, (id, _)) in s.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn apply_update_overwrites() {
        let mut s = Store::new();
        let id = s.insert("IBM", 120.0);
        s.apply_update(&Trade {
            stock: id,
            price: 121.5,
            volume: 300,
            trade_time_ms: 1000,
        });
        assert_eq!(s.record(id).price(), 121.5);
        assert_eq!(s.record(id).volume(), 300);
        assert_eq!(s.record(id).last_trade_time_ms(), 1000);
    }

    #[test]
    #[should_panic(expected = "duplicate ticker")]
    fn duplicate_symbol_rejected() {
        let mut s = Store::new();
        s.insert("IBM", 1.0);
        s.insert("IBM", 2.0);
    }

    #[test]
    fn synthetic_store() {
        let s = Store::with_synthetic_stocks(100);
        assert_eq!(s.len(), 100);
        assert!(s.id_of("S0042").is_some());
        assert_eq!(s.record(StockId(0)).price(), 100.0);
    }
}
