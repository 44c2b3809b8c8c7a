//! A live stock-ticker service on the wall-clock QUTS engine.
//!
//! Three client threads with different Quality Contracts hammer a running
//! engine while a feed thread streams trades; the engine time-shares the
//! CPU between answering and ingesting according to the submitted
//! contracts.
//!
//! ```text
//! cargo run --release --example live_ticker
//! ```

use quts::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    // A small market.
    let mut store = Store::new();
    let symbols = [
        "AAPL", "IBM", "MSFT", "ORCL", "SUNW", "CSCO", "INTC", "DELL",
    ];
    let ids: Vec<StockId> = symbols
        .iter()
        .enumerate()
        .map(|(i, s)| store.insert(*s, 50.0 + 10.0 * i as f64))
        .collect();

    // Synthetic service costs make the single CPU a real bottleneck, so
    // the scheduler's choices (and the register table's collapsing of
    // bursty trades) actually matter within a one-second demo; a 100 ms
    // adaptation period ω lets ρ adapt several times within it.
    let mut config = EngineConfig::default();
    config.quts.omega = SimDuration::from_ms(100);
    config.synthetic_query_cost = Some(Duration::from_micros(1_500));
    config.synthetic_update_cost = Some(Duration::from_micros(800));
    let engine = Engine::start(store, config);
    let deadline = Instant::now() + Duration::from_millis(900);

    // Feed thread: a stream of trades, bursty on the first two tickers.
    let feed = {
        let h = engine.handle();
        let ids = ids.clone();
        std::thread::spawn(move || {
            let mut price = 100.0;
            let mut n = 0u64;
            while Instant::now() < deadline {
                n += 1;
                price *= 1.0 + 0.001 * ((n % 7) as f64 - 3.0);
                let stock = ids[(n % 3) as usize]; // hot tickers
                                                   // Backpressure: a full admission queue just skips a beat.
                let _ = h.submit_update(Trade {
                    stock,
                    price,
                    volume: 100 + n % 900,
                    trade_time_ms: n,
                });
                std::thread::sleep(Duration::from_micros(1_000));
            }
            n
        })
    };

    // Client threads with different preferences.
    let clients: Vec<_> = [
        (
            "day-trader (speed)",
            QualityContract::step(9.0, 20.0, 1.0, 1),
        ),
        (
            "analyst (freshness)",
            QualityContract::step(1.0, 200.0, 9.0, 1),
        ),
        (
            "balanced investor",
            QualityContract::step(5.0, 80.0, 5.0, 1),
        ),
    ]
    .into_iter()
    .map(|(name, qc)| {
        let h = engine.handle();
        let ids = ids.clone();
        std::thread::spawn(move || {
            let mut earned = 0.0;
            let mut asked = 0u32;
            let mut fresh = 0u32;
            while Instant::now() < deadline {
                let op = match asked % 3 {
                    0 => QueryOp::Lookup(ids[(asked % 8) as usize]),
                    1 => QueryOp::MovingAverage {
                        stock: ids[0],
                        window: 8,
                    },
                    _ => QueryOp::Compare(vec![ids[0], ids[1], ids[2]]),
                };
                if let Ok(ticket) = h.submit_query(op, qc.clone()) {
                    if let Ok(reply) = ticket.recv_timeout(Duration::from_secs(2)) {
                        earned += reply.profit();
                        fresh += (reply.staleness == 0.0) as u32;
                        asked += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(6));
            }
            (name, asked, earned, fresh)
        })
    })
    .collect();

    let trades = feed.join().unwrap();
    for c in clients {
        let (name, asked, earned, fresh) = c.join().unwrap();
        println!("{name:<20} {asked:>4} queries, earned ${earned:>8.2}, {fresh:>4} served fresh");
    }

    let stats = engine.shutdown();
    println!();
    println!(
        "engine: {} trades submitted, {} applied, {} collapsed by the register table",
        trades, stats.updates_applied, stats.updates_invalidated
    );
    println!(
        "profit: {:.1}% of offered, final rho = {:.3} after {} adaptations",
        stats.total_pct() * 100.0,
        stats.rho,
        stats.adaptations
    );
}
