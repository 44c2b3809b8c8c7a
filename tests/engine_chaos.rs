//! Fault-injection and overload tests for the live engine.
//!
//! The invariant under test everywhere: a client that submits a query
//! gets exactly one resolution — an answer or a clean error — **never a
//! hang**, no matter what the scheduler does (panics, restarts, stalls,
//! floods, dropped replies, shutdown races).

use quts::engine::{TraceConfig, TraceEvent};
use quts::metrics::TraceClass;
use quts::prelude::*;
use quts_conformance::{check_run, trace_causality, Observation};
use std::time::Duration;

fn stocks(n: u32) -> (Store, Vec<StockId>) {
    let store = Store::with_synthetic_stocks(n);
    let ids = (0..n).map(StockId).collect();
    (store, ids)
}

fn qc() -> QualityContract {
    QualityContract::step(5.0, 1000.0, 5.0, 1)
}

/// Iteration scale: `QUTS_TEST_ITERS=full` (CI) runs the original
/// counts; the default is reduced so `cargo test -q` stays fast. Every
/// reduced count still crosses its test's trigger threshold (queue
/// overflow, burst firing, injected fault index).
fn scaled(quick: usize, full: usize) -> usize {
    match std::env::var("QUTS_TEST_ITERS").as_deref() {
        Ok("full") => full,
        _ => quick,
    }
}

/// Every chaos run, however violent, must still satisfy the
/// conservation/band invariants on its final accounting.
fn assert_invariants(stats: &quts::engine::LiveStats, updates_arrived: Option<u64>) {
    let violations = check_run(&Observation::from_live_stats(stats, updates_arrived));
    assert!(
        violations.is_empty(),
        "invariant violations: {violations:?}"
    );
}

/// Resolution must not be a caller-side timeout: that would mean the
/// reply channel never settled.
fn assert_settled(outcome: &Result<quts::engine::QueryReply, QueryError>) {
    assert!(
        !matches!(outcome, Err(QueryError::Timeout)),
        "ticket hung: reply channel never resolved"
    );
}

#[test]
fn panic_without_restart_poisons_and_resolves_every_client() {
    let (store, ids) = stocks(4);
    let cfg = EngineConfig::default()
        .with_seed(1)
        .with_fault_plan(FaultPlan::default().panic_after(1));
    let engine = Engine::start(store, cfg);
    let handle = engine.handle();

    let mut tickets = Vec::new();
    for i in 0..scaled(8, 20) as u32 {
        match handle.submit_query(QueryOp::Lookup(ids[(i % 4) as usize]), qc()) {
            Ok(t) => tickets.push(t),
            // Late submissions may already see the poisoned engine.
            Err(SubmitError::EngineDown) => {}
            Err(SubmitError::QueueFull) => panic!("capacity is ample here"),
        }
    }

    // Every admitted ticket resolves; after the injected panic nothing
    // hangs, clients get a clean error (or an answer, for work that ran
    // before the crash).
    for t in &tickets {
        assert_settled(&t.recv_timeout(Duration::from_secs(10)));
    }

    // The supervisor poisons the engine (no restart budget configured).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.state() == EngineState::Running {
        assert!(std::time::Instant::now() < deadline, "never poisoned");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.state(), EngineState::Poisoned);
    assert!(matches!(
        handle.submit_query(QueryOp::Lookup(ids[0]), qc()),
        Err(SubmitError::EngineDown)
    ));
    assert!(matches!(
        handle.submit_update(Trade {
            stock: ids[0],
            price: 1.0,
            volume: 1,
            trade_time_ms: 0
        }),
        Err(SubmitError::EngineDown)
    ));

    let stats = engine.shutdown();
    assert_eq!(stats.engine_restarts, 0);
    assert_invariants(&stats, Some(0));
}

#[test]
fn restart_on_panic_continues_over_the_surviving_store() {
    let (store, ids) = stocks(2);
    let cfg = EngineConfig::default()
        .with_seed(2)
        .with_restart_on_panic(3)
        .with_fault_plan(FaultPlan::default().panic_after(2));
    let engine = Engine::start(store, cfg);

    // Transaction 1: apply an update, mutating the store.
    engine
        .submit_update(Trade {
            stock: ids[0],
            price: 77.0,
            volume: 1,
            trade_time_ms: 0,
        })
        .expect("admitted");
    // Deterministic wait: the update must be applied (transaction 1)
    // before the query below draws the injected panic (transaction 2).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.stats().updates_applied < 1 {
        assert!(std::time::Instant::now() < deadline, "update never applied");
        std::thread::yield_now();
    }

    // Transaction 2 panics (injected). Whatever was in flight resolves
    // with a clean error; the supervisor restarts the scheduler.
    let crashed = engine
        .submit_query(QueryOp::Lookup(ids[0]), qc())
        .expect("admitted");
    assert_settled(&crashed.recv_timeout(Duration::from_secs(10)));

    // The restarted scheduler serves the pre-crash store state: the
    // applied update survived, and the staleness tracker knows the item
    // is fresh.
    let reply = engine
        .submit_query(QueryOp::Lookup(ids[0]), qc())
        .expect("engine is running again")
        .recv_timeout(Duration::from_secs(10))
        .expect("answered after restart");
    assert_eq!(reply.result, QueryResult::Price(77.0));
    assert_eq!(reply.staleness, 0.0, "tracker survived the restart");

    assert_eq!(engine.state(), EngineState::Running);
    let stats = engine.shutdown();
    assert_eq!(stats.engine_restarts, 1);
    assert_eq!(stats.updates_applied, 1);
    assert_invariants(&stats, Some(1));
}

#[test]
fn a_restart_does_not_reuse_trace_ids() {
    let (store, ids) = stocks(2);
    let cfg = EngineConfig::default()
        .with_seed(3)
        .with_trace(TraceConfig::full())
        .with_restart_on_panic(1)
        .with_fault_plan(FaultPlan::default().panic_after(3));
    let engine = Engine::start(store, cfg);

    // One query at a time: the first two are answered, the third draws
    // the injected panic, the rest run on the restarted scheduler.
    for i in 0..6 {
        let outcome = engine
            .submit_query(QueryOp::Lookup(ids[i % 2]), qc())
            .expect("admitted")
            .recv_timeout(Duration::from_secs(10));
        assert_settled(&outcome);
        assert_eq!(outcome.is_ok(), i != 2, "query {i}: {outcome:?}");
    }

    // The flight ring outlives the crashed incarnation, so it holds the
    // ingests of both: each must have its own trace id.
    let records = engine.handle().trace_snapshot().expect("tracing at Full");
    let mut trace_ids: Vec<u64> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Ingest {
                ctx,
                class: TraceClass::Query,
                ..
            } => Some(ctx.trace_id),
            _ => None,
        })
        .collect();
    assert_eq!(trace_ids.len(), 6, "{records:?}");
    trace_ids.sort_unstable();
    trace_ids.dedup();
    assert_eq!(trace_ids.len(), 6, "a trace id repeats across the restart");
    assert_eq!(engine.shutdown().engine_restarts, 1);
}

#[test]
fn overload_burst_is_rejected_at_the_door_and_admitted_work_resolves() {
    let (store, ids) = stocks(8);
    let capacity = 16usize;
    let cfg = EngineConfig::default()
        .with_seed(3)
        .with_queue_capacity(capacity)
        .with_max_pending_queries(2 * capacity)
        .with_paper_costs(); // ~7 ms per query: the burst far outruns service
    let engine = Engine::start(store, cfg);
    let handle = engine.handle();

    // Several times capacity, submitted as fast as the CPU allows.
    let mut admitted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..(scaled(4, 10) * capacity) {
        match handle.submit_query(QueryOp::Lookup(ids[i % 8]), qc()) {
            Ok(t) => admitted.push(t),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(SubmitError::EngineDown) => panic!("engine must stay up under load"),
        }
    }
    assert!(rejected > 0, "the burst must hit the admission limit");
    assert!(
        admitted.len() >= capacity,
        "at least one channel's worth must be admitted"
    );

    // Every admitted query resolves with an answer (lifetimes here are
    // effectively unbounded, so nothing sheds).
    for t in &admitted {
        t.recv_timeout(Duration::from_secs(30))
            .expect("admitted work resolves");
    }

    let stats = engine.shutdown();
    assert_eq!(stats.queue_full_rejections, rejected);
    assert_eq!(stats.aggregates.submitted, admitted.len() as u64);
    assert_eq!(stats.aggregates.committed, admitted.len() as u64);
    assert_invariants(&stats, Some(0));
}

#[test]
fn expired_queries_shed_with_zero_profit() {
    let (store, ids) = stocks(2);
    let cfg = EngineConfig {
        synthetic_query_cost: Some(Duration::from_millis(8)),
        ..EngineConfig::default().with_seed(4)
    };
    let engine = Engine::start(store, cfg);

    // Short-lived queries that each take 8 ms to serve: the first may
    // execute in time, the tail expires in the queue behind it.
    let n = scaled(6, 10) as u64;
    let tickets: Vec<_> = (0..n as usize)
        .map(|i| {
            engine
                .submit_query(QueryOp::Lookup(ids[i % 2]), qc().with_lifetime_ms(10.0))
                .expect("admitted")
        })
        .collect();

    let mut answered_profit = 0.0;
    let mut answered = 0u64;
    let mut shed = 0u64;
    for t in &tickets {
        match t.recv_timeout(Duration::from_secs(10)) {
            Ok(reply) => {
                answered += 1;
                answered_profit += reply.profit();
            }
            Err(QueryError::Expired) => shed += 1,
            Err(e) => panic!("unexpected outcome {e:?}"),
        }
    }
    assert_eq!(answered + shed, n, "every ticket resolves exactly once");
    assert!(shed > 0, "the tail must expire behind the first query");

    let stats = engine.shutdown();
    assert_eq!(stats.shed_expired, shed);
    assert_eq!(stats.aggregates.committed, answered);
    assert_eq!(
        stats.aggregates.submitted, n,
        "shed queries still count as submitted"
    );
    // Shed queries earn exactly nothing: the ledger holds only the
    // answered queries' profit.
    let ledger = stats.aggregates.qos_gained + stats.aggregates.qod_gained;
    assert!(
        (ledger - answered_profit).abs() < 1e-9,
        "ledger {ledger} vs replies {answered_profit}"
    );
    assert_invariants(&stats, Some(0));
}

#[test]
fn dropped_replies_become_clean_errors_not_hangs() {
    let (store, ids) = stocks(4);
    let cfg = EngineConfig::default()
        .with_seed(5)
        .with_fault_plan(FaultPlan::default().drop_reply_every(2));
    let engine = Engine::start(store, cfg);

    let n = scaled(6, 10) as u64;
    let tickets: Vec<_> = (0..n as usize)
        .map(|i| {
            engine
                .submit_query(QueryOp::Lookup(ids[i % 4]), qc())
                .expect("admitted")
        })
        .collect();

    let mut ok = 0u64;
    let mut dropped = 0u64;
    for t in &tickets {
        match t.recv_timeout(Duration::from_secs(10)) {
            Ok(_) => ok += 1,
            Err(QueryError::EngineDown) => dropped += 1,
            Err(e) => panic!("unexpected outcome {e:?}"),
        }
    }
    assert_eq!(ok + dropped, n);
    assert_eq!(dropped, n / 2, "every second reply is dropped by the plan");

    // The engine executed everything even though half the replies
    // vanished on the way out.
    let stats = engine.shutdown();
    assert_eq!(stats.aggregates.committed, n);
    assert_invariants(&stats, Some(0));
}

#[test]
fn update_floods_hit_the_high_water_mark_but_memory_stays_bounded() {
    let (store, ids) = stocks(64);
    // Each update takes 1 ms to apply, so a burst of them backs up.
    let cfg = EngineConfig {
        synthetic_update_cost: Some(Duration::from_millis(1)),
        ..EngineConfig::default()
            .with_seed(6)
            .with_max_pending_updates(8)
    };
    let engine = Engine::start(store, cfg);

    // Bursts of 20 updates to distinct stocks, each burst followed by a
    // query; the engine must keep answering throughout.
    let mut arrived = 0u64;
    for i in 0..scaled(12, 30) as u32 {
        for k in 0..20u32 {
            let trade = Trade {
                stock: ids[((i * 20 + k) % 64) as usize],
                price: f64::from(k + 1),
                volume: 1,
                trade_time_ms: 0,
            };
            if engine.submit_update(trade).is_ok() {
                arrived += 1;
            }
        }
        let reply = engine
            .submit_query(QueryOp::Lookup(ids[(i % 64) as usize]), qc())
            .expect("admitted")
            .recv_timeout(Duration::from_secs(10));
        assert_settled(&reply);
        reply.expect("answered under flood");
    }

    let stats = engine.shutdown();
    assert!(
        stats.updates_dropped_overload > 0,
        "bursts of distinct items must overflow an 8-entry backlog"
    );
    // Conservation: every admitted update was applied, collapsed by the
    // register table, or dropped at the high-water mark.
    assert!(stats.updates_applied > 0, "the backlog still drains");
    assert_invariants(&stats, Some(arrived));
}

#[test]
fn poisoned_engine_leaves_a_parseable_flight_recorder_dump() {
    let dir = std::env::temp_dir().join(format!("quts-flightrec-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (store, ids) = stocks(4);
    // Tracing + flight recorder + an injected panic with no restart
    // budget: the supervisor must poison the engine AND flush the
    // recorder's last-events window to disk on its way down.
    let cfg = EngineConfig::default()
        .with_seed(11)
        .with_trace(TraceConfig::full())
        .with_flight_recorder(&dir)
        .with_fault_plan(FaultPlan::default().panic_after(6));
    let engine = Engine::start(store, cfg);
    let handle = engine.handle();

    let mut tickets = Vec::new();
    for i in 0..scaled(10, 24) as u32 {
        match handle.submit_query(QueryOp::Lookup(ids[(i % 4) as usize]), qc()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::EngineDown) => break,
            Err(SubmitError::QueueFull) => panic!("capacity is ample here"),
        }
    }
    for t in &tickets {
        assert_settled(&t.recv_timeout(Duration::from_secs(10)));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.state() == EngineState::Running {
        assert!(std::time::Instant::now() < deadline, "never poisoned");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.state(), EngineState::Poisoned);

    // Exactly one dump file, named flightrec-<ts>.jsonl.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("flightrec-") && name.ends_with(".jsonl")
        })
        .collect();
    assert_eq!(dumps.len(), 1, "one crash dump expected, got {dumps:?}");

    // Every line is one JSON object tagged event or series, and the
    // event window covers activity from before the injected fault (the
    // plan panics at transaction 6, so at least the first transactions'
    // dispatch/ingest events precede it).
    let body = std::fs::read_to_string(&dumps[0]).unwrap();
    let mut events = 0usize;
    for line in body.lines() {
        assert!(
            line.starts_with("{\"rec\":\"event\",") || line.starts_with("{\"rec\":\"series\","),
            "unparseable flight-recorder line: {line}"
        );
        assert!(line.ends_with('}'), "truncated line: {line}");
        if line.starts_with("{\"rec\":\"event\",") {
            events += 1;
        }
    }
    assert!(
        events >= 5,
        "dump should hold the events preceding the fault, got {events}"
    );

    // The decision ring survives poisoning too, and its span causality
    // holds right up to the crash.
    let records = handle.trace_snapshot().expect("tracing at Full");
    let dropped = handle.trace_dropped().unwrap();
    trace_causality(&records, dropped).expect("span causality across the crash");

    let stats = engine.shutdown();
    assert_eq!(stats.engine_restarts, 0);
    assert_invariants(&stats, Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_with_inflight_queries_resolves_every_ticket() {
    let (store, ids) = stocks(4);
    let cfg = EngineConfig::default().with_seed(7).with_paper_costs();
    let engine = Engine::start(store, cfg);

    // A backlog the scheduler cannot possibly have finished when the
    // shutdown lands.
    let n = scaled(16, 50);
    let tickets: Vec<_> = (0..n)
        .map(|i| {
            engine
                .submit_query(QueryOp::Lookup(ids[i % 4]), qc())
                .expect("admitted")
        })
        .collect();
    let stats = engine.shutdown();

    // Shutdown drains: every in-flight query was answered, none hang.
    for t in &tickets {
        match t.try_recv() {
            Some(outcome) => assert_settled(&outcome),
            None => panic!("ticket unresolved after shutdown"),
        }
    }
    assert_eq!(stats.aggregates.committed, n as u64);
    assert_invariants(&stats, Some(0));
}
