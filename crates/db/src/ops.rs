//! Executable read-only query operators and blind updates.
//!
//! The Stock.com trace's query types (Section 5 of the paper): price
//! look-ups, moving averages of stock prices, and comparisons among
//! stocks; all are read-only selection/aggregation queries over one or a
//! few hash-accessed items. Updates are *blind* — they overwrite an item
//! with a new trade without reading it first.

use crate::store::{StockId, Store};

/// A write-only blind update: one trade on one stock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trade {
    /// The stock being traded.
    pub stock: StockId,
    /// Trade price per share.
    pub price: f64,
    /// Number of shares.
    pub volume: u64,
    /// Trade time in milliseconds (trace time).
    pub trade_time_ms: u64,
}

/// A read-only query over one or more stocks.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    /// Current price of one stock (the trace's dominant query type).
    Lookup(StockId),
    /// Moving average of the last `window` prices of one stock.
    MovingAverage {
        /// The stock whose history is averaged.
        stock: StockId,
        /// Number of recent prices to average over.
        window: usize,
    },
    /// Comparison among several stocks: returns the spread between the
    /// highest and lowest current price.
    Compare(Vec<StockId>),
    /// Weighted portfolio valuation over `(stock, shares)` positions.
    Portfolio(Vec<(StockId, f64)>),
}

/// The answer produced by executing a [`QueryOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A single price.
    Price(f64),
    /// A moving average.
    Average(f64),
    /// `(min, max, spread)` over the compared stocks.
    Spread {
        /// Lowest current price among the compared stocks.
        min: f64,
        /// Highest current price among the compared stocks.
        max: f64,
        /// `max - min`.
        spread: f64,
    },
    /// Total portfolio value.
    Value(f64),
}

/// The item set a query reads, produced without heap allocation in the
/// common cases.
///
/// Single-item queries and small portfolios live inline; `Compare`
/// borrows the operator's own stock list. Only a portfolio larger than
/// the inline capacity falls back to a `Vec`. Dereferences to
/// `[StockId]`, so call sites treat it as a slice.
#[derive(Debug, Clone)]
pub enum AccessedItems<'a> {
    /// Up to [`AccessedItems::INLINE`] items stored inline.
    Inline {
        /// Inline storage; only `..len` is meaningful.
        buf: [StockId; AccessedItems::INLINE],
        /// Number of valid items in `buf`.
        len: usize,
    },
    /// Items borrowed straight from the operator.
    Borrowed(&'a [StockId]),
    /// Overflow fallback for oversized portfolios.
    Spilled(Vec<StockId>),
}

impl AccessedItems<'_> {
    /// Inline capacity: covers every trace-generated portfolio size.
    const INLINE: usize = 16;

    /// The items as a slice.
    pub fn as_slice(&self) -> &[StockId] {
        match self {
            AccessedItems::Inline { buf, len } => &buf[..*len],
            AccessedItems::Borrowed(items) => items,
            AccessedItems::Spilled(items) => items,
        }
    }
}

impl std::ops::Deref for AccessedItems<'_> {
    type Target = [StockId];

    fn deref(&self) -> &[StockId] {
        self.as_slice()
    }
}

impl QueryOp {
    /// The set of items this query reads — exactly the items it must
    /// read-lock under 2PL. Allocation-free except for portfolios wider
    /// than [`AccessedItems::INLINE`] positions.
    pub fn accessed_items(&self) -> AccessedItems<'_> {
        match self {
            QueryOp::Lookup(s) | QueryOp::MovingAverage { stock: s, .. } => {
                let mut buf = [StockId(0); AccessedItems::INLINE];
                buf[0] = *s;
                AccessedItems::Inline { buf, len: 1 }
            }
            QueryOp::Compare(stocks) => AccessedItems::Borrowed(stocks),
            QueryOp::Portfolio(positions) => {
                if positions.len() <= AccessedItems::INLINE {
                    let mut buf = [StockId(0); AccessedItems::INLINE];
                    for (slot, &(s, _)) in buf.iter_mut().zip(positions) {
                        *slot = s;
                    }
                    AccessedItems::Inline {
                        buf,
                        len: positions.len(),
                    }
                } else {
                    AccessedItems::Spilled(positions.iter().map(|&(s, _)| s).collect())
                }
            }
        }
    }

    /// Executes the query against the store.
    ///
    /// # Panics
    /// Panics if any referenced id was not issued by this store, or if a
    /// `Compare` has no stocks.
    pub fn execute(&self, store: &Store) -> QueryResult {
        if let QueryOp::MovingAverage { stock, window } = self {
            return QueryResult::Average(store.record(*stock).moving_average(*window));
        }
        self.over_prices(|s| store.record(s).price())
    }

    /// Evaluates a query that reads only current prices (`Lookup`,
    /// `Compare`, `Portfolio`) with `price` giving each item's price: the
    /// store's, or the prices a cross-shard read was granted under its
    /// locks.
    ///
    /// # Panics
    /// Panics on `MovingAverage`, which reads a record's price history,
    /// and on a `Compare` with no stocks.
    pub fn over_prices(&self, price: impl Fn(StockId) -> f64) -> QueryResult {
        match self {
            QueryOp::Lookup(s) => QueryResult::Price(price(*s)),
            QueryOp::MovingAverage { .. } => {
                panic!("a moving average reads the price history, not one price")
            }
            QueryOp::Compare(stocks) => {
                assert!(!stocks.is_empty(), "Compare needs at least one stock");
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for &s in stocks {
                    let p = price(s);
                    min = min.min(p);
                    max = max.max(p);
                }
                QueryResult::Spread {
                    min,
                    max,
                    spread: max - min,
                }
            }
            QueryOp::Portfolio(positions) => {
                QueryResult::Value(positions.iter().map(|&(s, shares)| price(s) * shares).sum())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store3() -> (Store, StockId, StockId, StockId) {
        let mut st = Store::new();
        let a = st.insert("A", 10.0);
        let b = st.insert("B", 20.0);
        let c = st.insert("C", 30.0);
        (st, a, b, c)
    }

    #[test]
    fn lookup() {
        let (st, a, _, _) = store3();
        assert_eq!(QueryOp::Lookup(a).execute(&st), QueryResult::Price(10.0));
        assert_eq!(&*QueryOp::Lookup(a).accessed_items(), &[a]);
    }

    #[test]
    fn moving_average() {
        let (mut st, a, _, _) = store3();
        st.apply_update(&Trade {
            stock: a,
            price: 30.0,
            volume: 1,
            trade_time_ms: 1,
        });
        let q = QueryOp::MovingAverage {
            stock: a,
            window: 2,
        };
        assert_eq!(q.execute(&st), QueryResult::Average(20.0));
    }

    #[test]
    fn compare_spread() {
        let (st, a, b, c) = store3();
        let q = QueryOp::Compare(vec![a, b, c]);
        assert_eq!(
            q.execute(&st),
            QueryResult::Spread {
                min: 10.0,
                max: 30.0,
                spread: 20.0
            }
        );
        assert_eq!(&*q.accessed_items(), &[a, b, c]);
    }

    #[test]
    fn portfolio_value() {
        let (st, a, b, _) = store3();
        let q = QueryOp::Portfolio(vec![(a, 2.0), (b, 0.5)]);
        assert_eq!(q.execute(&st), QueryResult::Value(30.0));
        assert!(matches!(
            q.accessed_items(),
            AccessedItems::Inline { len: 2, .. }
        ));
        assert_eq!(&*q.accessed_items(), &[a, b]);
    }

    #[test]
    fn oversized_portfolio_spills() {
        let positions: Vec<(StockId, f64)> = (0..AccessedItems::INLINE as u32 + 3)
            .map(|i| (StockId(i), 1.0))
            .collect();
        let q = QueryOp::Portfolio(positions.clone());
        let items = q.accessed_items();
        assert!(matches!(items, AccessedItems::Spilled(_)));
        let expect: Vec<StockId> = positions.iter().map(|&(s, _)| s).collect();
        assert_eq!(&*items, expect.as_slice());
    }

    #[test]
    fn update_changes_query_answers() {
        let (mut st, a, b, _) = store3();
        let q = QueryOp::Compare(vec![a, b]);
        st.apply_update(&Trade {
            stock: a,
            price: 50.0,
            volume: 1,
            trade_time_ms: 1,
        });
        assert_eq!(
            q.execute(&st),
            QueryResult::Spread {
                min: 20.0,
                max: 50.0,
                spread: 30.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one stock")]
    fn empty_compare_panics() {
        let (st, ..) = store3();
        let _ = QueryOp::Compare(vec![]).execute(&st);
    }
}
