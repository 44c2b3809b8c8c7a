//! The trace container and a plain-text (CSV) round-trip format.
//!
//! Traces are kept in the simulator's own [`QuerySpec`] / [`UpdateSpec`]
//! types. The CSV serialisation covers the four-parameter step/linear
//! Quality Contracts the paper's experiments use, with the default
//! lifetime and independent composition; piecewise shapes, a set
//! lifetime and QoS-dependent composition are in-memory-only features,
//! and `write_csv` refuses a contract that carries one rather than write
//! a different contract.

use quts_db::{QueryOp, StockId, Trade};
use quts_qc::{Composition, ProfitFn, QualityContract};
use quts_sim::{QuerySpec, SimDuration, SimTime, UpdateSpec};
use std::io::{self, BufRead, Write};

/// A complete workload: both traces plus the store size they reference.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Number of data items (stocks) referenced.
    pub num_stocks: u32,
    /// Queries sorted by arrival.
    pub queries: Vec<QuerySpec>,
    /// Updates sorted by arrival.
    pub updates: Vec<UpdateSpec>,
}

impl Trace {
    /// Trace duration: the latest arrival.
    pub fn horizon(&self) -> SimTime {
        let q = self
            .queries
            .last()
            .map(|q| q.arrival)
            .unwrap_or(SimTime::ZERO);
        let u = self
            .updates
            .last()
            .map(|u| u.arrival)
            .unwrap_or(SimTime::ZERO);
        q.max(u)
    }

    /// Total CPU demand of all queries.
    pub fn query_demand(&self) -> SimDuration {
        SimDuration(self.queries.iter().map(|q| q.cost.as_micros()).sum())
    }

    /// Total CPU demand of all updates (before any invalidation savings).
    pub fn update_demand(&self) -> SimDuration {
        SimDuration(self.updates.iter().map(|u| u.cost.as_micros()).sum())
    }

    /// Writes the trace as line-oriented CSV (header line, then one line
    /// per transaction, queries and updates in separate sections).
    pub fn write_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "#quts-trace v1 stocks={}", self.num_stocks)?;
        writeln!(w, "#queries {}", self.queries.len())?;
        for q in &self.queries {
            let (kind, stocks, extra) = encode_op(&q.op);
            let (shape, qosmax, rtmax, qodmax, uumax) = encode_qc(&q.qc).ok_or_else(|| {
                io::Error::other(
                    "only step/linear QCs with the default lifetime and independent composition serialise",
                )
            })?;
            writeln!(
                w,
                "q,{},{},{},{},{},{},{},{},{},{}",
                q.arrival.as_micros(),
                q.cost.as_micros(),
                kind,
                stocks,
                extra,
                shape,
                fmt_f(qosmax),
                fmt_f(rtmax),
                fmt_f(qodmax),
                uumax,
            )?;
        }
        writeln!(w, "#updates {}", self.updates.len())?;
        for u in &self.updates {
            writeln!(
                w,
                "u,{},{},{},{},{}",
                u.arrival.as_micros(),
                u.cost.as_micros(),
                u.trade.stock.0,
                fmt_f(u.trade.price),
                u.trade.volume,
            )?;
        }
        Ok(())
    }

    /// Reads a trace written by [`Trace::write_csv`].
    pub fn read_csv<R: BufRead>(r: &mut R) -> io::Result<Trace> {
        let mut trace = Trace::default();
        for line in r.lines() {
            let line = line?;
            if let Some(rest) = line.strip_prefix("#quts-trace v1 stocks=") {
                trace.num_stocks = parse(rest)?;
            } else if line.starts_with('#') || line.is_empty() {
                continue;
            } else if let Some(rest) = line.strip_prefix("q,") {
                trace.queries.push(parse_query(rest)?);
            } else if let Some(rest) = line.strip_prefix("u,") {
                trace.updates.push(parse_update(rest)?);
            } else {
                return Err(bad(&format!("unrecognised line: {line}")));
            }
        }
        Ok(trace)
    }
}

fn fmt_f(x: f64) -> String {
    // Round-trippable compact float.
    format!("{x}")
}

fn encode_op(op: &QueryOp) -> (&'static str, String, String) {
    match op {
        QueryOp::Lookup(s) => ("L", s.0.to_string(), String::new()),
        QueryOp::MovingAverage { stock, window } => ("M", stock.0.to_string(), window.to_string()),
        QueryOp::Compare(stocks) => (
            "C",
            stocks
                .iter()
                .map(|s| s.0.to_string())
                .collect::<Vec<_>>()
                .join(";"),
            String::new(),
        ),
        QueryOp::Portfolio(pos) => (
            "P",
            pos.iter()
                .map(|(s, _)| s.0.to_string())
                .collect::<Vec<_>>()
                .join(";"),
            pos.iter()
                .map(|(_, w)| fmt_f(*w))
                .collect::<Vec<_>>()
                .join(";"),
        ),
    }
}

fn encode_qc(qc: &QualityContract) -> Option<(char, f64, f64, f64, u32)> {
    // Shape is shared between the two dimensions (the paper never mixes
    // step and linear inside one contract); `None` means not encodable.
    // The line has no field for a lifetime or a composition, so a
    // contract that sets either would read back as a different one.
    if qc.lifetime_ms.is_some() || qc.composition != Composition::QoSIndependent {
        return None;
    }
    let (qos_shape, qosmax, rtmax) = match &qc.qos {
        ProfitFn::Step { max, cutoff } => (Some('s'), *max, *cutoff),
        ProfitFn::Linear { max, cutoff } => (Some('l'), *max, *cutoff),
        ProfitFn::Zero => (None, 0.0, 1.0),
        ProfitFn::Piecewise { .. } => return None,
    };
    let (qod_shape, qodmax, uumax) = match &qc.qod {
        ProfitFn::Step { max, cutoff } => (Some('s'), *max, *cutoff as u32),
        ProfitFn::Linear { max, cutoff } => (Some('l'), *max, *cutoff as u32),
        ProfitFn::Zero => (None, 0.0, 1),
        ProfitFn::Piecewise { .. } => return None,
    };
    let shape = match (qos_shape, qod_shape) {
        (Some(a), Some(b)) if a != b => return None, // mixed shapes
        (Some(a), _) => a,
        (None, Some(b)) => b,
        (None, None) => 's',
    };
    Some((shape, qosmax, rtmax, qodmax, uumax))
}

fn bad(msg: &str) -> io::Error {
    io::Error::other(msg.to_string())
}

fn parse<T: std::str::FromStr>(s: &str) -> io::Result<T> {
    s.trim()
        .parse()
        .map_err(|_| bad(&format!("bad field: {s:?}")))
}

fn parse_query(rest: &str) -> io::Result<QuerySpec> {
    let f: Vec<&str> = rest.split(',').collect();
    if f.len() != 10 {
        return Err(bad(&format!("query line needs 10 fields, got {}", f.len())));
    }
    let arrival = SimTime(parse(f[0])?);
    let cost = SimDuration(parse(f[1])?);
    let stocks: Vec<StockId> = if f[3].is_empty() {
        vec![]
    } else {
        f[3].split(';')
            .map(|s| parse::<u32>(s).map(StockId))
            .collect::<io::Result<_>>()?
    };
    let op = match f[2] {
        "L" => QueryOp::Lookup(*stocks.first().ok_or_else(|| bad("lookup needs a stock"))?),
        "M" => QueryOp::MovingAverage {
            stock: *stocks.first().ok_or_else(|| bad("avg needs a stock"))?,
            window: parse(f[4])?,
        },
        "C" => QueryOp::Compare(stocks),
        "P" => {
            let weights: Vec<f64> = f[4]
                .split(';')
                .map(parse::<f64>)
                .collect::<io::Result<_>>()?;
            if weights.len() != stocks.len() {
                return Err(bad("portfolio stocks/weights mismatch"));
            }
            QueryOp::Portfolio(stocks.into_iter().zip(weights).collect())
        }
        other => return Err(bad(&format!("unknown op kind {other:?}"))),
    };
    let qosmax: f64 = parse(f[6])?;
    let rtmax: f64 = parse(f[7])?;
    let qodmax: f64 = parse(f[8])?;
    let uumax: u32 = parse(f[9])?;
    let qc = match f[5] {
        "s" => QualityContract::step(qosmax, rtmax, qodmax, uumax),
        "l" => QualityContract::linear(qosmax, rtmax, qodmax, uumax),
        other => return Err(bad(&format!("unknown QC shape {other:?}"))),
    };
    Ok(QuerySpec {
        arrival,
        op,
        cost,
        qc,
    })
}

fn parse_update(rest: &str) -> io::Result<UpdateSpec> {
    let f: Vec<&str> = rest.split(',').collect();
    if f.len() != 5 {
        return Err(bad(&format!("update line needs 5 fields, got {}", f.len())));
    }
    let arrival = SimTime(parse(f[0])?);
    Ok(UpdateSpec {
        arrival,
        cost: SimDuration(parse(f[1])?),
        trade: Trade {
            stock: StockId(parse(f[2])?),
            price: parse(f[3])?,
            volume: parse(f[4])?,
            trade_time_ms: arrival.as_micros() / 1000,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            num_stocks: 4,
            queries: vec![
                QuerySpec {
                    arrival: SimTime::from_ms(1),
                    op: QueryOp::Lookup(StockId(0)),
                    cost: SimDuration::from_ms(5),
                    qc: QualityContract::step(10.0, 50.0, 20.0, 1),
                },
                QuerySpec {
                    arrival: SimTime::from_ms(2),
                    op: QueryOp::MovingAverage {
                        stock: StockId(1),
                        window: 8,
                    },
                    cost: SimDuration::from_ms(7),
                    qc: QualityContract::linear(5.5, 80.0, 1.25, 2),
                },
                QuerySpec {
                    arrival: SimTime::from_ms(3),
                    op: QueryOp::Compare(vec![StockId(0), StockId(2), StockId(3)]),
                    cost: SimDuration::from_ms(9),
                    qc: QualityContract::step(0.0, 1.0, 30.0, 3),
                },
                QuerySpec {
                    arrival: SimTime::from_ms(4),
                    op: QueryOp::Portfolio(vec![(StockId(1), 2.5), (StockId(2), 1.0)]),
                    cost: SimDuration::from_ms(6),
                    qc: QualityContract::step(7.0, 60.0, 0.0, 1),
                },
            ],
            updates: vec![UpdateSpec {
                arrival: SimTime::from_ms(1),
                cost: SimDuration::from_ms(3),
                trade: Trade {
                    stock: StockId(2),
                    price: 101.25,
                    volume: 500,
                    trade_time_ms: 1,
                },
            }],
        }
    }

    #[test]
    fn csv_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back.num_stocks, 4);
        assert_eq!(back.queries.len(), 4);
        assert_eq!(back.updates.len(), 1);
        for (a, b) in t.queries.iter().zip(&back.queries) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.op, b.op);
            assert_eq!(a.qc.qosmax(), b.qc.qosmax());
            assert_eq!(a.qc.qodmax(), b.qc.qodmax());
            assert_eq!(a.qc.rtmax_ms(), b.qc.rtmax_ms());
        }
        assert_eq!(t.updates[0].trade.price, back.updates[0].trade.price);
        assert_eq!(t.updates[0].trade.stock, back.updates[0].trade.stock);
    }

    #[test]
    fn horizon_and_demand() {
        let t = sample_trace();
        assert_eq!(t.horizon(), SimTime::from_ms(4));
        assert_eq!(t.query_demand(), SimDuration::from_ms(27));
        assert_eq!(t.update_demand(), SimDuration::from_ms(3));
    }

    #[test]
    fn empty_trace_round_trip() {
        let t = Trace {
            num_stocks: 7,
            ..Trace::default()
        };
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back.num_stocks, 7);
        assert!(back.queries.is_empty());
        assert!(back.updates.is_empty());
        assert_eq!(back.horizon(), SimTime::ZERO);
    }

    #[test]
    fn write_csv_refuses_a_contract_it_would_change() {
        let base = QualityContract::step(10.0, 50.0, 20.0, 1);
        for qc in [
            base.clone().with_lifetime_ms(100.0),
            base.with_composition(Composition::QoSDependent),
        ] {
            let mut t = sample_trace();
            t.queries[0].qc = qc;
            let mut buf = Vec::new();
            let err = t.write_csv(&mut buf).unwrap_err();
            assert!(err.to_string().contains("default lifetime"), "{err}");
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Trace::read_csv(&mut "nonsense line".as_bytes()).is_err());
        assert!(Trace::read_csv(&mut "q,1,2,3".as_bytes()).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = QueryOp> {
        prop_oneof![
            (0u32..64).prop_map(|s| QueryOp::Lookup(StockId(s))),
            (0u32..64, 1usize..64).prop_map(|(s, w)| QueryOp::MovingAverage {
                stock: StockId(s),
                window: w,
            }),
            proptest::collection::vec(0u32..64, 1..6)
                .prop_map(|v| QueryOp::Compare(v.into_iter().map(StockId).collect())),
            proptest::collection::vec((0u32..64, 0.5..100.0f64), 1..5).prop_map(|v| {
                QueryOp::Portfolio(v.into_iter().map(|(s, w)| (StockId(s), w)).collect())
            }),
        ]
    }

    fn arb_trace() -> impl Strategy<Value = Trace> {
        let queries = proptest::collection::vec(
            (
                0u64..1_000_000,
                arb_op(),
                100u64..20_000,
                0.0..99.0f64,
                1.0..500.0f64,
                0.0..99.0f64,
                1u32..10,
                proptest::bool::ANY,
            ),
            0..30,
        );
        let updates = proptest::collection::vec(
            (
                0u64..1_000_000,
                0u32..64,
                100u64..8_000,
                0.01..900.0f64,
                0u64..10_000,
            ),
            0..30,
        );
        (queries, updates).prop_map(|(qs, us)| {
            let mut queries: Vec<QuerySpec> = qs
                .into_iter()
                .map(|(us_t, op, cost, qos, rt, qod, uu, step)| QuerySpec {
                    arrival: SimTime(us_t),
                    op,
                    cost: SimDuration(cost),
                    qc: if step {
                        QualityContract::step(qos, rt, qod, uu)
                    } else {
                        QualityContract::linear(qos, rt, qod, uu)
                    },
                })
                .collect();
            queries.sort_by_key(|q| q.arrival);
            let mut updates: Vec<UpdateSpec> = us
                .into_iter()
                .map(|(us_t, stock, cost, price, volume)| UpdateSpec {
                    arrival: SimTime(us_t),
                    cost: SimDuration(cost),
                    trade: Trade {
                        stock: StockId(stock),
                        price,
                        volume,
                        trade_time_ms: us_t / 1000,
                    },
                })
                .collect();
            updates.sort_by_key(|u| u.arrival);
            Trace {
                num_stocks: 64,
                queries,
                updates,
            }
        })
    }

    proptest! {
        /// Any trace the generator can produce round-trips exactly
        /// through the CSV format.
        #[test]
        fn csv_round_trip_is_lossless(trace in arb_trace()) {
            let mut buf = Vec::new();
            trace.write_csv(&mut buf).unwrap();
            let back = Trace::read_csv(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(back.num_stocks, trace.num_stocks);
            prop_assert_eq!(back.queries.len(), trace.queries.len());
            prop_assert_eq!(back.updates.len(), trace.updates.len());
            for (a, b) in trace.queries.iter().zip(&back.queries) {
                prop_assert_eq!(a.arrival, b.arrival);
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(&a.op, &b.op);
                prop_assert_eq!(&a.qc, &b.qc);
            }
            for (a, b) in trace.updates.iter().zip(&back.updates) {
                prop_assert_eq!(a.arrival, b.arrival);
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(a.trade.stock, b.trade.stock);
                prop_assert_eq!(a.trade.price, b.trade.price);
                prop_assert_eq!(a.trade.volume, b.trade.volume);
            }
        }

        /// Truncated files never panic — they parse or error cleanly.
        #[test]
        fn truncation_never_panics(trace in arb_trace(), cut in 0usize..2_000) {
            let mut buf = Vec::new();
            trace.write_csv(&mut buf).unwrap();
            let cut = cut.min(buf.len());
            let _ = Trace::read_csv(&mut buf[..cut].as_ref());
        }
    }
}
