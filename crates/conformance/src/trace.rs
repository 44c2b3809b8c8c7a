//! The conformance workload trace and its JSONL persistence.
//!
//! A [`ConfTrace`] is the unit the oracle operates on: a fully explicit
//! list of query and update arrivals (with per-query Quality
//! Contracts) that either engine can replay deterministically. It is
//! deliberately minimal — single-item lookups, step contracts — because
//! the oracle's job is to compare *scheduling decisions*, and every
//! extra degree of freedom widens the space the shrinker has to search.
//!
//! Traces serialise to JSONL (one event per line, fixed key order) so a
//! shrunk counterexample can be committed under
//! `crates/conformance/regressions/` and replayed forever. The format
//! is hand-rolled: the build is hermetic and the vendored `serde` has
//! no JSON backend.

use quts_db::{QueryOp, StockId, Trade};
use quts_qc::QualityContract;
use quts_sim::{QuerySpec, SimDuration, SimTime, UpdateSpec};

/// One query arrival: when, what it reads, and its step contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfQuery {
    /// Arrival time in virtual µs.
    pub at_us: u64,
    /// The single stock the lookup reads.
    pub stock: u32,
    /// `qosmax` of the step contract (dollars).
    pub qos_max: f64,
    /// `qodmax` of the step contract (dollars).
    pub qod_max: f64,
    /// QoS cutoff `rtmax` in ms.
    pub rt_max_ms: f64,
    /// QoD cutoff `uumax` (unapplied updates).
    pub uu_max: u32,
    /// Contract lifetime in ms (expiry horizon).
    pub lifetime_ms: f64,
}

/// One update arrival: when, which stock, the new price.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfUpdate {
    /// Arrival time in virtual µs.
    pub at_us: u64,
    /// The stock the blind write replaces.
    pub stock: u32,
    /// New price carried by the update.
    pub price: f64,
}

/// A replayable conformance workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfTrace {
    /// Seed the trace was generated from (provenance only; replay does
    /// not re-draw anything from it).
    pub seed: u64,
    /// Number of stocks in the store; all events reference ids below it.
    pub num_stocks: u32,
    /// Query arrivals, sorted by `at_us`.
    pub queries: Vec<ConfQuery>,
    /// Update arrivals, sorted by `at_us`.
    pub updates: Vec<ConfUpdate>,
}

impl ConfTrace {
    /// Total number of events (the size the shrinker minimises).
    pub fn events(&self) -> usize {
        self.queries.len() + self.updates.len()
    }

    /// Lowers the trace to the engines' spec types. Query service cost
    /// comes from the envelope (`query_cost`); updates cost zero, the
    /// equivalence-envelope convention (the live engine has no
    /// synthetic update cost either, so both sides apply updates
    /// instantaneously).
    pub(crate) fn to_specs(&self, query_cost: SimDuration) -> (Vec<QuerySpec>, Vec<UpdateSpec>) {
        let queries = self
            .queries
            .iter()
            .map(|q| QuerySpec {
                arrival: SimTime(q.at_us),
                op: QueryOp::Lookup(StockId(q.stock)),
                cost: query_cost,
                qc: QualityContract::step(q.qos_max, q.rt_max_ms, q.qod_max, q.uu_max)
                    .with_lifetime_ms(q.lifetime_ms),
            })
            .collect();
        let updates = self
            .updates
            .iter()
            .map(|u| UpdateSpec {
                arrival: SimTime(u.at_us),
                trade: Trade {
                    stock: StockId(u.stock),
                    price: u.price,
                    volume: 1,
                    trade_time_ms: u.at_us / 1000,
                },
                cost: SimDuration::ZERO,
            })
            .collect();
        (queries, updates)
    }

    /// The price each stock should hold after a fully drained replay:
    /// its last update's price, or the synthetic-store default for
    /// never-updated stocks. This is the oracle's absolute ground truth
    /// for final store state — derived from the trace, not from either
    /// engine.
    pub(crate) fn expected_final_prices(&self, default_price: f64) -> Vec<f64> {
        let mut prices = vec![default_price; self.num_stocks as usize];
        for u in &self.updates {
            // Trace order breaks `at_us` ties: a later line wins, the
            // register-table rule on both engines.
            prices[u.stock as usize] = u.price;
        }
        prices
    }

    /// Serialises to JSONL: a `meta` line, then one line per event in
    /// arrival order (queries and updates separately, both sorted).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 * (1 + self.events()));
        out.push_str(&format!(
            "{{\"kind\":\"meta\",\"seed\":{},\"num_stocks\":{}}}\n",
            self.seed, self.num_stocks
        ));
        for q in &self.queries {
            out.push_str(&format!(
                "{{\"kind\":\"query\",\"at_us\":{},\"stock\":{},\"qos_max\":{},\"qod_max\":{},\"rt_max_ms\":{},\"uu_max\":{},\"lifetime_ms\":{}}}\n",
                q.at_us, q.stock, q.qos_max, q.qod_max, q.rt_max_ms, q.uu_max, q.lifetime_ms
            ));
        }
        for u in &self.updates {
            out.push_str(&format!(
                "{{\"kind\":\"update\",\"at_us\":{},\"stock\":{},\"price\":{}}}\n",
                u.at_us, u.stock, u.price
            ));
        }
        out
    }

    /// Parses the [`to_jsonl`](Self::to_jsonl) format back. Round-trips
    /// exactly: Rust's `f64` display is shortest-round-trip.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut trace = ConfTrace::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields = parse_flat_object(line)
                .ok_or_else(|| format!("line {}: not a flat JSON object", lineno + 1))?;
            let get = |key: &str| -> Result<&str, String> {
                fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("line {}: missing key {key:?}", lineno + 1))
            };
            let num = |key: &str| -> Result<f64, String> {
                get(key)?
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: bad number for {key:?}: {e}", lineno + 1))
            };
            match get("kind")? {
                "\"meta\"" => {
                    trace.seed = num("seed")? as u64;
                    trace.num_stocks = num("num_stocks")? as u32;
                }
                "\"query\"" => trace.queries.push(ConfQuery {
                    at_us: num("at_us")? as u64,
                    stock: num("stock")? as u32,
                    qos_max: num("qos_max")?,
                    qod_max: num("qod_max")?,
                    rt_max_ms: num("rt_max_ms")?,
                    uu_max: num("uu_max")? as u32,
                    lifetime_ms: num("lifetime_ms")?,
                }),
                "\"update\"" => trace.updates.push(ConfUpdate {
                    at_us: num("at_us")? as u64,
                    stock: num("stock")? as u32,
                    price: num("price")?,
                }),
                other => return Err(format!("line {}: unknown kind {other}", lineno + 1)),
            }
        }
        trace.queries.sort_by_key(|q| q.at_us);
        trace.updates.sort_by_key(|u| u.at_us);
        Ok(trace)
    }
}

/// Splits `{"k":v,"k":v}` into `(key, raw_value)` pairs. Only handles
/// the flat, comma-free-string objects this module writes — which is
/// all the hermetic build needs.
fn parse_flat_object(line: &str) -> Option<Vec<(&str, &str)>> {
    let inner = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    for pair in inner.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        fields.push((key, value.trim()));
    }
    Some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfTrace {
        ConfTrace {
            seed: 7,
            num_stocks: 3,
            queries: vec![ConfQuery {
                at_us: 1500,
                stock: 2,
                qos_max: 12.5,
                qod_max: 30.0,
                rt_max_ms: 75.25,
                uu_max: 1,
                lifetime_ms: 150.5,
            }],
            updates: vec![
                ConfUpdate {
                    at_us: 100,
                    stock: 0,
                    price: 101.625,
                },
                ConfUpdate {
                    at_us: 2000,
                    stock: 2,
                    price: 99.0,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let t = sample();
        let parsed = ConfTrace::from_jsonl(&t.to_jsonl()).expect("parses");
        assert_eq!(parsed, t);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(ConfTrace::from_jsonl("not json").is_err());
        assert!(ConfTrace::from_jsonl("{\"kind\":\"query\"}").is_err());
        assert!(ConfTrace::from_jsonl("{\"kind\":\"banana\",\"x\":1}").is_err());
    }

    #[test]
    fn to_specs_preserves_arrivals_and_contracts() {
        let t = sample();
        let (q, u) = t.to_specs(SimDuration::from_ms(7));
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].arrival.as_micros(), 1500);
        assert_eq!(q[0].qc.qosmax(), 12.5);
        assert_eq!(q[0].qc.default_lifetime_ms(), 150.5);
        assert_eq!(u.len(), 2);
        assert_eq!(u[1].trade.price, 99.0);
        assert_eq!(u[0].cost, SimDuration::ZERO);
    }

    #[test]
    fn expected_final_prices_take_last_update() {
        let t = sample();
        let p = t.expected_final_prices(50.0);
        assert_eq!(p, vec![101.625, 50.0, 99.0]);
    }
}
