//! The line protocol: parsing requests and rendering responses.
//!
//! Grammar (whitespace-separated, case-insensitive verbs):
//!
//! ```text
//! request   := get | avg | cmp | upd | stats | metrics | repl | flight | quit
//! get       := "GET" symbol contract?
//! avg       := "AVG" symbol window contract?
//! cmp       := "CMP" symbol symbol+ contract?
//! upd       := "UPD" symbol price volume
//! stats     := "STATS"
//! metrics   := "METRICS"
//! repl      := "REPL"
//! flight    := "FLIGHT"
//! quit      := "QUIT"
//! contract  := qos? qod?             (absent sides are worth nothing)
//! qos       := "QOS" max rtmax_ms
//! qod       := "QOD" max uumax
//! ```
//!
//! `OK` in reply to `UPD` is an admission receipt: the update entered
//! the engine's bounded inbox (`ERR overloaded` when it is full). It is
//! written before the update's WAL append and is not a durability
//! promise — only the in-process `submit_update_durable` ticket waits
//! for the covering fsync.

use quts_qc::QualityContract;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Price lookup.
    Get {
        /// Ticker symbol.
        symbol: String,
        /// The attached contract.
        qc: QualityContract,
    },
    /// Moving average over the last `window` applied prices.
    Avg {
        /// Ticker symbol.
        symbol: String,
        /// History window.
        window: usize,
        /// The attached contract.
        qc: QualityContract,
    },
    /// Price spread across several symbols.
    Cmp {
        /// Ticker symbols (at least two).
        symbols: Vec<String>,
        /// The attached contract.
        qc: QualityContract,
    },
    /// A blind update from the feed.
    Upd {
        /// Ticker symbol.
        symbol: String,
        /// Trade price.
        price: f64,
        /// Shares traded.
        volume: u64,
    },
    /// Engine statistics snapshot (one-line, human-oriented).
    Stats,
    /// Prometheus-style text exposition, terminated by `# EOF`.
    Metrics,
    /// Replication status: router counters plus one line per replica,
    /// terminated by `# EOF`. Errors when replication is not enabled.
    Repl,
    /// Live flight-recorder dump (JSONL event ring + timeseries),
    /// terminated by `# EOF`. Errors when no recorder is configured.
    Flight,
    /// Close the connection.
    Quit,
}

/// Parse failure with a client-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Parses one request line.
pub fn parse(line: &str) -> Result<Request, ParseError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((verb, rest)) = tokens.split_first() else {
        return Err(err("empty request"));
    };
    match verb.to_ascii_uppercase().as_str() {
        "GET" => {
            let (symbol, rest) = take_symbol(rest)?;
            let qc = parse_contract(rest)?;
            Ok(Request::Get { symbol, qc })
        }
        "AVG" => {
            let (symbol, rest) = take_symbol(rest)?;
            let (window_tok, rest) = rest
                .split_first()
                .ok_or_else(|| err("AVG needs a window"))?;
            let window: usize = window_tok
                .parse()
                .map_err(|_| err(format!("bad window {window_tok:?}")))?;
            if window == 0 || window > 1024 {
                return Err(err("window must be 1..=1024"));
            }
            let qc = parse_contract(rest)?;
            Ok(Request::Avg { symbol, window, qc })
        }
        "CMP" => {
            let mut symbols = Vec::new();
            let mut rest = rest;
            while let Some((tok, tail)) = rest.split_first() {
                if is_contract_keyword(tok) {
                    break;
                }
                symbols.push(validate_symbol(tok)?);
                rest = tail;
            }
            if symbols.len() < 2 {
                return Err(err("CMP needs at least two symbols"));
            }
            let qc = parse_contract(rest)?;
            Ok(Request::Cmp { symbols, qc })
        }
        "UPD" => {
            let (symbol, rest) = take_symbol(rest)?;
            let [price_tok, volume_tok] = rest else {
                return Err(err("UPD needs price and volume"));
            };
            let price: f64 = price_tok
                .parse()
                .map_err(|_| err(format!("bad price {price_tok:?}")))?;
            if !(price.is_finite() && price > 0.0) {
                return Err(err("price must be positive"));
            }
            let volume: u64 = volume_tok
                .parse()
                .map_err(|_| err(format!("bad volume {volume_tok:?}")))?;
            Ok(Request::Upd {
                symbol,
                price,
                volume,
            })
        }
        "STATS" => {
            if rest.is_empty() {
                Ok(Request::Stats)
            } else {
                Err(err("STATS takes no arguments"))
            }
        }
        "METRICS" => {
            if rest.is_empty() {
                Ok(Request::Metrics)
            } else {
                Err(err("METRICS takes no arguments"))
            }
        }
        "REPL" => {
            if rest.is_empty() {
                Ok(Request::Repl)
            } else {
                Err(err("REPL takes no arguments"))
            }
        }
        "FLIGHT" => {
            if rest.is_empty() {
                Ok(Request::Flight)
            } else {
                Err(err("FLIGHT takes no arguments"))
            }
        }
        "QUIT" => {
            if rest.is_empty() {
                Ok(Request::Quit)
            } else {
                Err(err("QUIT takes no arguments"))
            }
        }
        other => Err(err(format!("unknown verb {other:?}"))),
    }
}

fn is_contract_keyword(tok: &str) -> bool {
    tok.eq_ignore_ascii_case("QOS") || tok.eq_ignore_ascii_case("QOD")
}

fn validate_symbol(tok: &str) -> Result<String, ParseError> {
    if tok.is_empty() || tok.len() > 12 {
        return Err(err(format!("bad symbol {tok:?}")));
    }
    if !tok
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-')
    {
        return Err(err(format!("bad symbol {tok:?}")));
    }
    Ok(tok.to_ascii_uppercase())
}

fn take_symbol<'a>(rest: &'a [&'a str]) -> Result<(String, &'a [&'a str]), ParseError> {
    let (tok, tail) = rest.split_first().ok_or_else(|| err("missing symbol"))?;
    Ok((validate_symbol(tok)?, tail))
}

/// Parses the optional `QOS max rtmax` / `QOD max uumax` clauses; a
/// request without a contract is best-effort (worth nothing).
fn parse_contract(mut rest: &[&str]) -> Result<QualityContract, ParseError> {
    let mut qos: Option<(f64, f64)> = None;
    let mut qod: Option<(f64, u32)> = None;
    while let Some((tok, tail)) = rest.split_first() {
        let upper = tok.to_ascii_uppercase();
        match upper.as_str() {
            "QOS" => {
                if qos.is_some() {
                    return Err(err("duplicate QOS clause"));
                }
                let [max, rtmax, tail @ ..] = tail else {
                    return Err(err("QOS needs <max> <rtmax_ms>"));
                };
                let max: f64 = max.parse().map_err(|_| err("bad QOS max"))?;
                let rtmax: f64 = rtmax.parse().map_err(|_| err("bad rtmax"))?;
                if !(max.is_finite() && max >= 0.0 && rtmax.is_finite() && rtmax > 0.0) {
                    return Err(err("QOS values out of range"));
                }
                qos = Some((max, rtmax));
                rest = tail;
            }
            "QOD" => {
                if qod.is_some() {
                    return Err(err("duplicate QOD clause"));
                }
                let [max, uumax, tail @ ..] = tail else {
                    return Err(err("QOD needs <max> <uumax>"));
                };
                let max: f64 = max.parse().map_err(|_| err("bad QOD max"))?;
                let uumax: u32 = uumax.parse().map_err(|_| err("bad uumax"))?;
                if !(max.is_finite() && max >= 0.0) || uumax == 0 {
                    return Err(err("QOD values out of range"));
                }
                qod = Some((max, uumax));
                rest = tail;
            }
            other => return Err(err(format!("unexpected token {other:?}"))),
        }
    }
    let (qosmax, rtmax) = qos.unwrap_or((0.0, 1.0));
    let (qodmax, uumax) = qod.unwrap_or((0.0, 1));
    Ok(QualityContract::step(qosmax, rtmax, qodmax, uumax))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_with_full_contract() {
        let r = parse("GET ibm QOS 5 50 QOD 2 1").unwrap();
        let Request::Get { symbol, qc } = r else {
            panic!("wrong variant");
        };
        assert_eq!(symbol, "IBM");
        assert_eq!(qc.qosmax(), 5.0);
        assert_eq!(qc.rtmax_ms(), Some(50.0));
        assert_eq!(qc.qodmax(), 2.0);
        assert_eq!(qc.qod_profit(1.0), 0.0);
    }

    #[test]
    fn get_without_contract_is_best_effort() {
        let Request::Get { qc, .. } = parse("GET AOL").unwrap() else {
            panic!();
        };
        assert_eq!(qc.total_max(), 0.0);
    }

    #[test]
    fn avg_and_cmp() {
        assert_eq!(
            parse("AVG GE 16").unwrap(),
            Request::Avg {
                symbol: "GE".into(),
                window: 16,
                qc: QualityContract::step(0.0, 1.0, 0.0, 1)
            }
        );
        let Request::Cmp { symbols, .. } = parse("CMP ibm aol ge QOD 3 2").unwrap() else {
            panic!();
        };
        assert_eq!(symbols, vec!["IBM", "AOL", "GE"]);
    }

    #[test]
    fn upd() {
        assert_eq!(
            parse("UPD IBM 121.5 300").unwrap(),
            Request::Upd {
                symbol: "IBM".into(),
                price: 121.5,
                volume: 300
            }
        );
    }

    #[test]
    fn control_verbs() {
        assert_eq!(parse("stats").unwrap(), Request::Stats);
        assert_eq!(parse("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse("metrics").unwrap(), Request::Metrics);
        assert_eq!(parse("REPL").unwrap(), Request::Repl);
        assert_eq!(parse("repl").unwrap(), Request::Repl);
        assert_eq!(parse("FLIGHT").unwrap(), Request::Flight);
        assert_eq!(parse("flight").unwrap(), Request::Flight);
        assert_eq!(parse("QUIT").unwrap(), Request::Quit);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "NOPE",
            "GET",
            "GET toolongsymbolname",
            "GET IBM QOS 5",
            "GET IBM QOS 5 50 QOS 5 50",
            "GET IBM QOD 2 0",
            "AVG IBM 0",
            "AVG IBM 9999",
            "UPD IBM -3 5",
            "UPD IBM 1.0",
            "CMP IBM",
            "STATS NOW",
            "METRICS NOW",
            "REPL STATUS",
            "FLIGHT NOW",
            "GET IBM PLEASE",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Valid-by-construction symbols (uppercase, never a contract
    /// keyword, so they survive a round trip through the parser).
    fn symbol() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..38, 1..13).prop_map(|idx| {
            const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-";
            let s: String = idx.iter().map(|&i| CHARS[i] as char).collect();
            if s == "QOS" || s == "QOD" {
                "SAFE".to_string()
            } else {
                s
            }
        })
    }

    proptest! {
        /// The parser is total: any byte soup (decoded lossily, as the
        /// server does with a line off the wire) returns Ok or Err,
        /// never panics.
        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..200)) {
            let line = String::from_utf8_lossy(&bytes);
            let _ = parse(&line);
        }

        /// `METRICS` parses under any casing and surrounding whitespace,
        /// and — like every other verb — rejects trailing tokens.
        #[test]
        fn metrics_verb_is_case_and_space_insensitive(
            caps in 0u32..128,
            pad_left in 0usize..4,
            pad_right in 0usize..4,
            trailing in proptest::collection::vec(0usize..26, 0..9),
        ) {
            let word: String = "metrics"
                .chars()
                .enumerate()
                .map(|(i, c)| if caps & (1 << i) != 0 { c.to_ascii_uppercase() } else { c })
                .collect();
            let tail: String = trailing.iter().map(|&i| (b'A' + i as u8) as char).collect();
            let mut line = format!("{}{}{}", " ".repeat(pad_left), word, " ".repeat(pad_right));
            if tail.is_empty() {
                prop_assert_eq!(parse(&line).unwrap(), Request::Metrics);
            } else {
                line.push(' ');
                line.push_str(&tail);
                prop_assert!(parse(&line).is_err());
            }
        }

        /// Valid GET requests round-trip through render + parse.
        #[test]
        fn get_round_trips(
            sym in symbol(),
            qosmax in 0.0..100.0f64,
            rtmax in 0.5..5000.0f64,
            qodmax in 0.0..100.0f64,
            uumax in 1u32..50,
        ) {
            let line = format!("GET {sym} QOS {qosmax} {rtmax} QOD {qodmax} {uumax}");
            let parsed = parse(&line).expect("valid GET must parse");
            prop_assert_eq!(parsed, Request::Get {
                symbol: sym,
                qc: QualityContract::step(qosmax, rtmax, qodmax, uumax),
            });
        }

        /// Valid AVG/CMP/UPD requests round-trip through render + parse.
        #[test]
        fn other_verbs_round_trip(
            a in symbol(),
            b in symbol(),
            window in 1usize..1025,
            price in 0.01..10_000.0f64,
            volume in 0u64..1_000_000,
        ) {
            let parsed = parse(&format!("AVG {a} {window}")).expect("valid AVG must parse");
            prop_assert_eq!(parsed, Request::Avg {
                symbol: a.clone(),
                window,
                qc: QualityContract::step(0.0, 1.0, 0.0, 1),
            });

            let parsed = parse(&format!("CMP {a} {b}")).expect("valid CMP must parse");
            prop_assert_eq!(parsed, Request::Cmp {
                symbols: vec![a.clone(), b],
                qc: QualityContract::step(0.0, 1.0, 0.0, 1),
            });

            let parsed = parse(&format!("UPD {a} {price} {volume}")).expect("valid UPD must parse");
            prop_assert_eq!(parsed, Request::Upd { symbol: a, price, volume });
        }
    }
}
