//! The one-shot reply slot behind [`QueryTicket`] and [`UpdateTicket`],
//! through the public API only: a ticket is empty until the answer,
//! resolves exactly once, and reads a vanished reply, a poisoned engine
//! and a shutdown as a clean error — never a hang. Every blocking call
//! runs under a deadline, so a lost wake-up fails here instead of
//! stalling CI.

use quts::prelude::*;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(20);

fn qc() -> QualityContract {
    QualityContract::step(5.0, 1000.0, 5.0, 1)
}

fn trade(stock: u32, price: f64) -> Trade {
    Trade {
        stock: StockId(stock),
        price,
        volume: 1,
        trade_time_ms: 0,
    }
}

/// Runs a call that has no timeout of its own on a helper thread and
/// fails the test if it has not returned by the deadline.
fn within_deadline<T: Send + 'static>(call: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || done_tx.send(call()));
    done_rx
        .recv_timeout(DEADLINE)
        .expect("blocking receive never returned")
}

/// An engine whose every transaction first stalls for `stall`: whatever
/// is submitted while one is in progress stays pending that long.
fn stalled_engine(stall: Duration) -> Engine {
    Engine::start(
        Store::with_synthetic_stocks(4),
        EngineConfig::default()
            .with_seed(61)
            .with_fault_plan(FaultPlan::default().stall_per_txn(stall)),
    )
}

fn until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}

#[test]
fn query_ticket_is_empty_until_the_answer_then_resolves_once() {
    let engine = stalled_engine(Duration::from_millis(400));
    let ticket = engine
        .submit_query(QueryOp::Lookup(StockId(0)), qc())
        .expect("admitted");
    assert!(ticket.try_recv().is_none(), "nothing executed yet");
    assert!(matches!(
        ticket.recv_timeout(Duration::from_millis(1)),
        Err(QueryError::Timeout)
    ));
    // The timed-out wait gave nothing up: the answer still arrives.
    let reply = ticket.recv_timeout(DEADLINE).expect("answered");
    assert_eq!(reply.result, QueryResult::Price(100.0));
    // One value, handed over once.
    assert!(matches!(
        ticket.try_recv(),
        Some(Err(QueryError::EngineDown))
    ));
    engine.shutdown();
}

#[test]
fn update_ticket_is_empty_until_the_ack() {
    let engine = stalled_engine(Duration::from_millis(400));
    let blocker = engine
        .submit_query(QueryOp::Lookup(StockId(0)), qc())
        .expect("admitted");
    // Once the query is ingested the scheduler is inside its stalled
    // transaction; the update waits in the inbox behind it.
    until("query never ingested", || {
        engine.stats().aggregates.submitted == 1
    });
    let ack = engine
        .submit_update_durable(trade(1, 7.0))
        .expect("admitted");
    assert!(ack.try_recv().is_none(), "still in the inbox");
    assert_eq!(
        ack.recv_timeout(Duration::from_millis(1)),
        Err(UpdateError::Timeout)
    );
    assert_eq!(within_deadline(move || ack.recv()), Ok(0), "no WAL: LSN 0");
    blocker.recv_timeout(DEADLINE).expect("answered");
    engine.shutdown();
}

#[test]
fn a_parked_recv_is_woken_by_the_answer() {
    let engine = stalled_engine(Duration::from_millis(50));
    let ticket = engine
        .submit_query(QueryOp::Lookup(StockId(2)), qc())
        .expect("admitted");
    let reply = within_deadline(move || ticket.recv()).expect("answered");
    assert_eq!(reply.result, QueryResult::Price(100.0));
    // "No timeout" must wait, not overflow the clock.
    let ticket = engine
        .submit_query(QueryOp::Lookup(StockId(3)), qc())
        .expect("admitted");
    within_deadline(move || ticket.recv_timeout(Duration::MAX)).expect("answered");
    let ack = engine
        .submit_update_durable(trade(3, 9.0))
        .expect("admitted");
    assert_eq!(
        within_deadline(move || ack.recv_timeout(Duration::MAX)),
        Ok(0)
    );
    engine.shutdown();
}

#[test]
fn a_dropped_reply_reads_as_engine_down_on_every_receive() {
    let engine = Engine::start(
        Store::with_synthetic_stocks(4),
        EngineConfig::default()
            .with_seed(67)
            .with_fault_plan(FaultPlan::default().drop_reply_every(1)),
    );
    let submit = || {
        engine
            .submit_query(QueryOp::Lookup(StockId(1)), qc())
            .expect("admitted")
    };
    let blocking = submit();
    assert!(matches!(
        within_deadline(move || blocking.recv()),
        Err(QueryError::EngineDown)
    ));
    assert!(matches!(
        submit().recv_timeout(DEADLINE),
        Err(QueryError::EngineDown)
    ));
    let polled = submit();
    until("dropped reply never closed the ticket", || {
        matches!(polled.try_recv(), Some(Err(QueryError::EngineDown)))
    });
    let stats = engine.shutdown();
    assert_eq!(stats.aggregates.committed, 3, "executed, reply vanished");
}

#[test]
fn a_poisoned_engine_releases_a_parked_recv() {
    let engine = Engine::start(
        Store::with_synthetic_stocks(4),
        EngineConfig::default().with_seed(71).with_fault_plan(
            FaultPlan::default()
                .stall_per_txn(Duration::from_millis(200))
                .panic_after(2),
        ),
    );
    // The first transaction stalls while the other two queries queue up
    // behind it; the second transaction panics with both still pending
    // and, with no restart budget, their reply senders die in the unwind.
    let mut tickets: Vec<_> = (0..3)
        .map(|i| {
            engine
                .submit_query(QueryOp::Lookup(StockId(i)), qc())
                .expect("admitted")
        })
        .collect();
    let answered = tickets.remove(0);
    within_deadline(move || answered.recv()).expect("ran before the fault");
    for ticket in tickets {
        assert!(matches!(
            within_deadline(move || ticket.recv()),
            Err(QueryError::EngineDown)
        ));
    }
    until("engine never poisoned", || {
        engine.state() == EngineState::Poisoned
    });
    engine.shutdown();
}

#[test]
fn shutdown_leaves_no_ticket_unresolved() {
    let engine = stalled_engine(Duration::from_millis(5));
    let queries: Vec<_> = (0..6)
        .map(|i| {
            engine
                .submit_query(QueryOp::Lookup(StockId(i % 4)), qc())
                .expect("admitted")
        })
        .collect();
    let acks: Vec<_> = (0..6)
        .map(|i| {
            engine
                .submit_update_durable(trade(i % 4, 10.0 + f64::from(i)))
                .expect("admitted")
        })
        .collect();
    let handle = engine.handle();
    let stats = engine.shutdown();
    // The drain answered everything accepted before the shutdown…
    for ticket in &queries {
        assert!(matches!(ticket.try_recv(), Some(Ok(_))));
    }
    for ack in &acks {
        assert_eq!(ack.try_recv(), Some(Ok(0)));
    }
    assert_eq!(stats.aggregates.committed, 6);
    // …and nothing is accepted after it.
    assert_eq!(
        handle.submit_update_durable(trade(0, 1.0)).err(),
        Some(SubmitError::EngineDown)
    );
}

#[test]
fn a_ticket_dropped_before_the_answer_costs_the_engine_nothing() {
    let engine = stalled_engine(Duration::from_millis(2));
    for i in 0..20 {
        drop(
            engine
                .submit_query(QueryOp::Lookup(StockId(i % 4)), qc())
                .expect("admitted"),
        );
        drop(
            engine
                .submit_update_durable(trade(i % 4, 50.0))
                .expect("admitted"),
        );
    }
    // The engine answers into the abandoned slots and carries on.
    let reply = engine
        .submit_query(QueryOp::Lookup(StockId(0)), qc())
        .expect("admitted")
        .recv_timeout(DEADLINE)
        .expect("answered");
    assert!(reply.profit() <= 10.0);
    let stats = engine.shutdown();
    assert_eq!(stats.aggregates.committed, 21);
    assert_eq!(stats.engine_restarts, 0);
    assert_eq!(stats.updates_applied + stats.updates_invalidated, 20);
}
