//! Virtual-time deterministic driver for the live engine.
//!
//! [`run_virtual`] executes the *real* live driver — the same
//! [`Runtime`](crate::runtime) the engine thread runs, around the same
//! `quts-sched` policy object — over a manually advanced clock,
//! single-stepped here instead of by a worker thread draining a channel.
//! Every source of nondeterminism in a live run is pinned:
//!
//! - **Time** is an [`EngineClock::Virtual`](crate::clock) counter:
//!   synthetic service costs advance it instantly, idle gaps jump it to
//!   the next arrival.
//! - **Arrival interleaving** is fixed by the trace: queries and updates
//!   are ingested in merged arrival order (updates win exact ties, the
//!   simulator's merge rule) rather than racing through a channel.
//! - **Randomness** stays the policy's own seeded atom coin, untouched.
//!
//! The result is a live-engine run that is bit-reproducible for a given
//! `(trace, config)` — the property the conformance oracle needs to diff
//! it against the discrete-event simulator. The policy is shared, so what
//! this driver must get right is *when* it is called and *with what
//! time*: a dispatch settles the policy to "now" (`pop_next`), an idle
//! step settles it explicitly (`on_timer`), a query is admitted at its
//! stamped arrival, an update admission never advances policy time. Two
//! ordering rules replicate the simulator's event loop exactly: at the top of each step only
//! arrivals *strictly* before "now" are ingested (a completion at `t`
//! settles its next dispatch before arrivals at `t`), while an idle
//! engine jumps to the next arrival time and ingests arrivals *at* that
//! instant (an idle dispatch happens at the arrival time itself).

use crate::clock::EngineClock;
use crate::config::EngineConfig;
use crate::runtime::{Msg, QueryError, QueryReply, ReplySink, Runtime, SubmitStamp};
use crate::shared::EngineShared;
use crate::stats::LiveStats;
use crate::supervisor::EngineSeed;
use crossbeam::channel::bounded;
use quts_db::{Recovered, Store};
use quts_metrics::TraceRecord;
use quts_sim::{QuerySpec, UpdateSpec};
use std::sync::Arc;

/// Resolution of one traced query in a virtual run.
#[derive(Debug, Clone)]
pub struct VirtualOutcome {
    /// The id the live engine assigned (its merged arrival sequence
    /// number) — equals the query's index in the merged arrival order,
    /// which is how the oracle aligns it with the simulator's `QueryId`.
    pub live_id: u64,
    /// The committed reply, or why the query earned nothing.
    pub reply: Result<QueryReply, QueryError>,
}

/// Everything a virtual-time run of the live engine produces.
#[derive(Debug, Clone)]
pub struct VirtualRunReport {
    /// Final statistics (same struct a real engine's `shutdown` returns).
    pub stats: LiveStats,
    /// Per-query resolutions, in trace (arrival) order.
    pub outcomes: Vec<VirtualOutcome>,
    /// Decision trace, oldest first — `Some` when `config.trace` is
    /// `Full` (size the ring to the trace; overwrites are not replayed).
    pub trace: Option<Vec<TraceRecord>>,
    /// Final price of every stock, by dense [`StockId`](quts_db::StockId)
    /// index.
    pub final_prices: Vec<f64>,
    /// Σ unapplied-update counters at the end (0 once fully drained).
    pub total_unapplied: u64,
    /// Distinct stocks with a pending (never-applied) update at the end.
    pub pending_updates: u64,
    /// Virtual time when the run went idle with the trace exhausted.
    pub end_us: u64,
}

/// Runs the live engine's scheduler over a trace in virtual time; see
/// the module docs. `queries` and `updates` must each be sorted by
/// arrival time (the simulator's trace contract).
///
/// # Panics
/// Panics if either slice is out of arrival order.
pub fn run_virtual(
    num_stocks: u32,
    queries: &[QuerySpec],
    updates: &[UpdateSpec],
    config: &EngineConfig,
) -> VirtualRunReport {
    // The driver *is* the scheduler's thread: each query carries its
    // trace index and the runtime files the outcome under it — no
    // synchronisation object per query.
    drive(num_stocks, queries, updates, config, ReplySink::Index)
}

/// [`run_virtual`] with the reply sink of each query (by trace index)
/// chosen by the caller; `outcomes` reports only what went to
/// [`ReplySink::Index`] sinks.
fn drive(
    num_stocks: u32,
    queries: &[QuerySpec],
    updates: &[UpdateSpec],
    config: &EngineConfig,
    mut sink: impl FnMut(usize) -> ReplySink,
) -> VirtualRunReport {
    assert!(
        queries.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "query trace must be sorted by arrival"
    );
    assert!(
        updates.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "update trace must be sorted by arrival"
    );

    let store = Store::with_synthetic_stocks(num_stocks);
    let mut seed = EngineSeed::new(Recovered::fresh(store), None);
    let init = LiveStats {
        rho: config.initial_rho,
        ..LiveStats::default()
    };
    let shared = Arc::new(EngineShared::new(config, seed.store.len(), init));
    // The runtime still owns a receiver (its ingest path is unchanged),
    // but the driver feeds it directly; keep the sender alive so the
    // channel never reads as disconnected.
    let (_tx, rx) = bounded::<Msg>(1);

    let mut live_ids: Vec<u64> = Vec::with_capacity(queries.len());
    let end_us;
    let delivered;
    {
        let clock = EngineClock::virtual_at_zero();
        let mut rt = Runtime::new(&mut seed, config, rx, Arc::clone(&shared), clock);
        rt.expect_outcomes(queries.len());
        // Cursors into the sorted traces.
        let mut qi = 0usize;
        let mut ui = 0usize;
        // Ingests every arrival due by `limit` (inclusive), updates
        // winning exact ties — the simulator's merge rule.
        let mut ingest_due =
            |rt: &mut Runtime, qi: &mut usize, ui: &mut usize, limit: u64, inclusive: bool| loop {
                let qa = queries.get(*qi).map(|q| q.arrival.as_micros());
                let ua = updates.get(*ui).map(|u| u.arrival.as_micros());
                let due = |at: u64| if inclusive { at <= limit } else { at < limit };
                let take_update = match (qa, ua) {
                    (_, None) => false,
                    (None, Some(u)) => due(u),
                    (Some(q), Some(u)) => u <= q && due(u),
                };
                if take_update {
                    rt.ingest_update(updates[*ui].trade, None);
                    *ui += 1;
                    continue;
                }
                match qa {
                    Some(q) if due(q) && (ua.is_none() || q < ua.unwrap()) => {
                        let spec = &queries[*qi];
                        live_ids.push(rt.peek_next_seq());
                        rt.ingest_direct(Msg::Query {
                            op: spec.op.clone(),
                            qc: spec.qc.clone(),
                            submitted: SubmitStamp::VirtualUs(spec.arrival.as_micros()),
                            ctx: None,
                            reply: sink(*qi),
                        });
                        *qi += 1;
                        continue;
                    }
                    _ => break,
                }
            };
        loop {
            // Completions at t dispatch before arrivals at t: only
            // strictly past arrivals enter here.
            let now = rt.now_us();
            ingest_due(&mut rt, &mut qi, &mut ui, now, false);
            if rt.execute_one() {
                continue;
            }
            // Idle: settle the policy's boundaries up to now (a dispatch
            // does that itself), then jump to the next arrival (if any)
            // and admit everything landing at that instant.
            rt.on_timer();
            let next_q = queries.get(qi).map(|q| q.arrival.as_micros());
            let next_u = updates.get(ui).map(|u| u.arrival.as_micros());
            let at = match (next_q, next_u) {
                (Some(q), Some(u)) => q.min(u),
                (Some(q), None) => q,
                (None, Some(u)) => u,
                (None, None) => break, // trace exhausted, queues drained
            };
            rt.advance_clock_to(at);
            let now = rt.now_us();
            ingest_due(&mut rt, &mut qi, &mut ui, now, true);
        }
        // No trailing boundary settle here. The simulator parks one
        // timer while work is outstanding, and whichever timer is still
        // parked when the last transaction resolves fires afterwards —
        // at a boundary that depends on the whole push/fire history of
        // its event heap, not on the scheduler state at the end. Every
        // parked boundary is at most one atom (τ) past the clock it was
        // computed at, so that stale fire settles at most one atom and
        // one adaptation, strictly after the final resolution, with both
        // queues empty: dead state that decides nothing. The driver
        // stops at the last resolution instead, and the differential
        // oracle compares boundary series up to that point (see the
        // conformance crate's oracle docs for the tail tolerance).
        end_us = rt.now_us();
        delivered = rt.take_outcomes();
    }

    let outcomes = live_ids
        .into_iter()
        .zip(delivered)
        .map(|(live_id, reply)| VirtualOutcome {
            live_id,
            // A reply the engine dropped reads as a dead engine, exactly
            // what a ticket holder would see.
            reply: reply.unwrap_or(Err(QueryError::EngineDown)),
        })
        .collect();
    let EngineSeed { store, tracker, .. } = seed;
    let final_prices = (0..store.len())
        .map(|i| store.record(quts_db::StockId(i as u32)).price())
        .collect();
    let pending_updates = tracker
        .missed_counts()
        .iter()
        .filter(|&&missed| missed > 0)
        .count() as u64;
    let final_stats = shared.stats.lock().clone();
    VirtualRunReport {
        stats: final_stats,
        outcomes,
        trace: shared.trace.trace_snapshot(),
        final_prices,
        total_unapplied: tracker.total_unapplied(),
        pending_updates,
        end_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LivePolicy;
    use quts_db::{QueryOp, StockId, Trade};
    use quts_metrics::TraceConfig;
    use quts_qc::QualityContract;
    use quts_sim::{SimDuration, SimTime};
    use std::time::Duration;

    fn qspec(at_ms: u64, stock: u32, qos: f64, qod: f64) -> QuerySpec {
        QuerySpec {
            arrival: SimTime::from_ms(at_ms),
            op: QueryOp::Lookup(StockId(stock)),
            cost: SimDuration::from_ms(7),
            qc: QualityContract::step(qos, 1000.0, qod, 1),
        }
    }

    fn uspec(at_ms: u64, stock: u32, price: f64) -> UpdateSpec {
        UpdateSpec {
            arrival: SimTime::from_ms(at_ms),
            trade: Trade {
                stock: StockId(stock),
                price,
                volume: 1,
                trade_time_ms: 0,
            },
            cost: SimDuration::from_ms(3),
        }
    }

    fn conf() -> EngineConfig {
        EngineConfig {
            synthetic_query_cost: Some(Duration::from_millis(7)),
            synthetic_update_cost: None,
            ..EngineConfig::default()
        }
        .with_seed(99)
        .with_trace(TraceConfig::full())
    }

    #[test]
    fn virtual_run_is_bit_reproducible() {
        let queries: Vec<_> = (0..20)
            .map(|i| qspec(i * 3, i as u32 % 4, 10.0, 5.0))
            .collect();
        let updates: Vec<_> = (0..30)
            .map(|i| uspec(i * 2, i as u32 % 4, 50.0 + i as f64))
            .collect();
        let a = run_virtual(4, &queries, &updates, &conf());
        let b = run_virtual(4, &queries, &updates, &conf());
        assert_eq!(a.end_us, b.end_us);
        assert_eq!(a.final_prices, b.final_prices);
        assert_eq!(a.stats.adaptations, b.stats.adaptations);
        assert_eq!(a.stats.rho, b.stats.rho);
        let times = |r: &VirtualRunReport| {
            r.trace
                .as_ref()
                .unwrap()
                .iter()
                .map(|t| (t.at_us, t.event.kind()))
                .collect::<Vec<_>>()
        };
        assert_eq!(times(&a), times(&b));
        assert_eq!(a.outcomes.len(), 20);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.live_id, y.live_id);
            match (&x.reply, &y.reply) {
                (Ok(rx), Ok(ry)) => {
                    assert_eq!(rx.rt_ms, ry.rt_ms);
                    assert_eq!(rx.staleness, ry.staleness);
                    assert_eq!(rx.qos, ry.qos);
                    assert_eq!(rx.qod, ry.qod);
                }
                (Err(ex), Err(ey)) => assert_eq!(ex, ey),
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn same_seed_trace_jsonl_is_byte_identical() {
        // The trace-annotated JSONL — ingest events carrying the
        // deterministic per-request trace ids included — is a pure
        // function of (trace, seed): two runs serialise to equal bytes.
        let queries: Vec<_> = (0..16)
            .map(|i| qspec(i * 3, i as u32 % 4, 10.0, 5.0))
            .collect();
        let updates: Vec<_> = (0..24)
            .map(|i| uspec(i * 2, i as u32 % 4, 50.0 + i as f64))
            .collect();
        let jsonl = || {
            let r = run_virtual(4, &queries, &updates, &conf());
            quts_metrics::records_to_jsonl(r.trace.as_ref().expect("traced run"))
        };
        let a = jsonl();
        assert!(
            a.lines().any(|l| l.contains("\"trace_id\":")),
            "ingest events must carry trace ids: {a}"
        );
        assert_eq!(a, jsonl(), "same-seed trace JSONL diverged");
    }

    #[test]
    fn virtual_run_drains_everything() {
        let queries: Vec<_> = (0..10)
            .map(|i| qspec(i * 5, i as u32 % 3, 8.0, 8.0))
            .collect();
        let updates: Vec<_> = (0..10)
            .map(|i| uspec(1 + i * 5, i as u32 % 3, 70.0))
            .collect();
        let r = run_virtual(3, &queries, &updates, &conf());
        assert_eq!(r.total_unapplied, 0, "a drained run owes no updates");
        assert_eq!(r.pending_updates, 0);
        assert_eq!(
            r.stats.aggregates.committed + r.stats.shed_expired,
            10,
            "every query resolves"
        );
        assert_eq!(
            r.stats.updates_applied + r.stats.updates_invalidated,
            10,
            "every update applies or is invalidated"
        );
        // Updates all landed: the last price of stock 0/1/2 is 70.
        for p in &r.final_prices {
            assert_eq!(*p, 70.0);
        }
    }

    /// A seeded trace of `events` arrivals, about one query to six
    /// updates, over 64 stocks with half the traffic on stock 0.
    fn generated_trace(events: usize, seed: u64) -> (Vec<QuerySpec>, Vec<UpdateSpec>) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut queries, mut updates) = (Vec::new(), Vec::new());
        let mut at_us = 0u64;
        for i in 0..events {
            at_us += rng.random_range(0..1_500u64);
            let stock = StockId(rng.random_range(0..64u32) * rng.random_range(0..2u32));
            let arrival = SimTime(at_us);
            if rng.random_range(0..7u32) == 0 {
                let rtmax_ms = rng.random_range(20.0..400.0);
                let uumax = rng.random_range(1..4u32);
                let qc = if i % 2 == 0 {
                    QualityContract::step(rng.random_range(1.0..50.0), rtmax_ms, 20.0, uumax)
                } else {
                    QualityContract::linear(rng.random_range(1.0..50.0), rtmax_ms, 20.0, uumax)
                };
                // Every third contract gives up early, so some expire.
                let qc = if i % 3 == 0 {
                    qc.with_lifetime_ms(rtmax_ms)
                } else {
                    qc
                };
                queries.push(QuerySpec {
                    arrival,
                    op: QueryOp::Lookup(stock),
                    cost: SimDuration::from_ms(7),
                    qc,
                });
            } else {
                updates.push(UpdateSpec {
                    arrival,
                    trade: Trade {
                        stock,
                        price: rng.random_range(1.0..500.0),
                        volume: 1,
                        trade_time_ms: 0,
                    },
                    cost: SimDuration::from_ms(3),
                });
            }
        }
        (queries, updates)
    }

    #[test]
    fn index_sink_equals_ticket_sink() {
        // The same trace, once with outcomes filed by trace index and
        // once through real tickets on the same virtual clock, must
        // resolve every query identically — dropped replies included.
        let (queries, updates) = generated_trace(5_000, 0x5EED);
        let config = EngineConfig::default()
            .with_paper_costs()
            .with_seed(17)
            .with_fault_plan(crate::fault::FaultPlan::default().drop_reply_every(11));
        let indexed = run_virtual(64, &queries, &updates, &config);

        let mut tickets = Vec::with_capacity(queries.len());
        let ticketed = drive(64, &queries, &updates, &config, |_| {
            let (tx, ticket) = crate::runtime::QueryTicket::pair();
            tickets.push(ticket);
            ReplySink::Ticket(tx)
        });

        assert_eq!(indexed.outcomes.len(), queries.len());
        assert_eq!(tickets.len(), queries.len());
        let (mut answered, mut expired, mut dropped) = (0, 0, 0);
        for (outcome, ticket) in indexed.outcomes.iter().zip(&tickets) {
            let via_ticket = ticket.try_recv().expect("every ticket settles in the run");
            assert_eq!(format!("{:?}", outcome.reply), format!("{via_ticket:?}"));
            match outcome.reply {
                Ok(_) => answered += 1,
                Err(QueryError::Expired) => expired += 1,
                Err(_) => dropped += 1,
            }
        }
        assert!(
            answered > 0 && expired > 0 && dropped > 0,
            "the trace must exercise all three: {answered} answered, {expired} expired, {dropped} dropped"
        );
        assert_eq!(indexed.end_us, ticketed.end_us);
        assert_eq!(indexed.final_prices, ticketed.final_prices);
        assert_eq!(
            indexed.stats.aggregates.committed,
            ticketed.stats.aggregates.committed
        );
        assert_eq!(
            indexed.stats.updates_applied,
            ticketed.stats.updates_applied
        );
    }

    #[test]
    fn policies_share_the_driver() {
        let queries: Vec<_> = (0..8)
            .map(|i| qspec(i * 4, i as u32 % 2, 6.0, 6.0))
            .collect();
        let updates: Vec<_> = (0..8).map(|i| uspec(i * 4, i as u32 % 2, 42.0)).collect();
        for policy in [
            LivePolicy::Fifo,
            LivePolicy::UpdateHigh,
            LivePolicy::QueryHigh,
            LivePolicy::Quts,
        ] {
            let r = run_virtual(2, &queries, &updates, &conf().with_policy(policy));
            assert_eq!(
                r.stats.aggregates.committed + r.stats.shed_expired,
                8,
                "{} resolves all queries",
                policy.label()
            );
            assert_eq!(r.total_unapplied, 0, "{} drains updates", policy.label());
        }
    }
}
