//! Shard-failure containment: one shard's crash is that shard's
//! problem.
//!
//! Each test arms a [`FaultPlan`] on a *single* shard of a
//! [`ShardedEngine`] (via `try_start_with`) and verifies the blast
//! radius: the victim poisons or restarts **alone**, every sibling
//! keeps admitting and committing throughout, accounting stays exact
//! per shard, and the conservation/band invariants hold on every
//! shard's final statistics.

use quts::engine::{ShardConfig, ShardMap, ShardedEngine, TraceConfig};
use quts::prelude::*;
use quts_conformance::{check_run, Observation};
use std::time::Duration;

fn qc() -> QualityContract {
    QualityContract::step(5.0, 1000.0, 5.0, 1)
}

/// `QUTS_TEST_ITERS=full` (CI) runs the original counts; the default is
/// reduced so `cargo test -q` stays fast. Reduced counts still cross
/// every trigger threshold (the injected fault index in particular).
fn scaled(quick: usize, full: usize) -> usize {
    match std::env::var("QUTS_TEST_ITERS").as_deref() {
        Ok("full") => full,
        _ => quick,
    }
}

/// Every shard, victim included, must satisfy the conservation/band
/// invariants on its final accounting.
fn assert_shard_invariants(shard: u32, stats: &quts::engine::LiveStats, updates_arrived: u64) {
    let violations = check_run(&Observation::from_live_stats(stats, Some(updates_arrived)));
    assert!(
        violations.is_empty(),
        "shard {shard} invariant violations: {violations:?}"
    );
}

/// Deadline-bounded poll, no fixed sleeps.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn panicking_shard_poisons_alone_while_siblings_commit() {
    let shards = 4u32;
    let num_stocks = 16u32;
    let map = ShardMap::new(num_stocks, shards);
    let victim = map.shard_of(StockId(0));
    assert!(
        (0..shards).all(|k| !map.members(k).is_empty()),
        "every shard must own stocks for this test's traffic plan"
    );

    // No restart budget anywhere; the victim draws an injected panic.
    let config = ShardConfig::new(shards).with_engine(EngineConfig::default().with_seed(90));
    let engine = ShardedEngine::try_start_with(
        Store::with_synthetic_stocks(num_stocks),
        config,
        |k, cfg| {
            if k == victim {
                cfg.with_fault_plan(FaultPlan::default().panic_after(2))
            } else {
                cfg
            }
        },
    )
    .expect("no durability configured");
    let handle = engine.handle();

    // Trip the victim: only its own stocks see traffic, so the fault
    // cannot fire anywhere else.
    let victim_stock = map.members(victim)[0];
    let mut victim_admitted = 0u64;
    let mut tickets = Vec::new();
    for _ in 0..scaled(6, 16) {
        match handle.submit_query(QueryOp::Lookup(victim_stock), qc()) {
            Ok(t) => {
                victim_admitted += 1;
                tickets.push(t);
            }
            Err(SubmitError::EngineDown) => {} // already poisoned
            Err(SubmitError::QueueFull) => panic!("capacity is ample here"),
        }
    }
    // Every admitted ticket resolves — an answer or a clean error,
    // never a caller-side timeout.
    for t in &tickets {
        let outcome = t.recv_timeout(Duration::from_secs(10));
        assert!(
            !matches!(outcome, Err(QueryError::Timeout)),
            "ticket hung across the shard panic"
        );
    }
    wait_until("victim shard never poisoned", || {
        handle.shard_states()[victim as usize] == EngineState::Poisoned
    });

    // Containment: the victim is down, every sibling is untouched and
    // still commits fresh work — queries *and* updates.
    let mut sibling_queries = vec![0u64; shards as usize];
    let mut sibling_updates = vec![0u64; shards as usize];
    for round in 0..scaled(3, 8) as u64 {
        for k in (0..shards).filter(|&k| k != victim) {
            assert_eq!(
                handle.shard_states()[k as usize],
                EngineState::Running,
                "sibling {k} must stay up"
            );
            let stock = map.members(k)[0];
            handle
                .submit_update(Trade {
                    stock,
                    price: 200.0 + round as f64,
                    volume: 1,
                    trade_time_ms: round,
                })
                .expect("sibling admits updates");
            sibling_updates[k as usize] += 1;
            let reply = handle
                .submit_query(QueryOp::Lookup(stock), qc())
                .expect("sibling admits queries")
                .recv_timeout(Duration::from_secs(10))
                .expect("sibling answers while the victim is poisoned");
            sibling_queries[k as usize] += 1;
            // The sibling's store is live: it serves either the update
            // it has already applied or the pre-update price (the
            // legitimate staleness tradeoff) — never garbage.
            match reply.result {
                QueryResult::Price(p) => assert!((100.0..=200.0 + round as f64).contains(&p)),
                other => panic!("lookup returned {other:?}"),
            }
        }
    }
    assert!(matches!(
        handle.submit_query(QueryOp::Lookup(victim_stock), qc()),
        Err(SubmitError::EngineDown)
    ));
    assert!(matches!(
        handle.submit_update(Trade {
            stock: victim_stock,
            price: 1.0,
            volume: 1,
            trade_time_ms: 0
        }),
        Err(SubmitError::EngineDown)
    ));

    // Exact per-shard accounting, invariants green on every shard.
    let stats = engine.shutdown();
    for (k, s) in stats.iter().enumerate() {
        assert_eq!(s.engine_restarts, 0, "no restart budget anywhere");
        if k as u32 == victim {
            assert_eq!(s.aggregates.submitted, victim_admitted);
            assert_eq!(
                s.aggregates.committed + s.shed_expired + s.shed_on_restart_queries,
                victim_admitted,
                "every admitted victim query resolves exactly once"
            );
            assert_shard_invariants(k as u32, s, 0);
        } else {
            assert_eq!(s.aggregates.submitted, sibling_queries[k]);
            assert_eq!(
                s.aggregates.committed, sibling_queries[k],
                "siblings commit everything they admitted"
            );
            assert_eq!(
                s.updates_applied + s.updates_invalidated,
                sibling_updates[k],
                "every sibling update is applied or register-collapsed"
            );
            assert_shard_invariants(k as u32, s, sibling_updates[k]);
        }
    }
    // Global conservation: the sums over shards equal what the test fed.
    let submitted: u64 = stats.iter().map(|s| s.aggregates.submitted).sum();
    assert_eq!(
        submitted,
        victim_admitted + sibling_queries.iter().sum::<u64>()
    );
}

#[test]
fn a_panicking_shard_dumps_under_its_own_directory() {
    let dir = std::env::temp_dir().join(format!("quts-flightrec-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = 2u32;
    let num_stocks = 8u32;
    let map = ShardMap::new(num_stocks, shards);
    let config = ShardConfig::new(shards).with_engine(
        EngineConfig::default()
            .with_seed(92)
            .with_trace(TraceConfig::full())
            .with_flight_recorder(&dir),
    );
    let engine = ShardedEngine::try_start_with(
        Store::with_synthetic_stocks(num_stocks),
        config,
        |k, cfg| {
            if k == 1 {
                cfg.with_fault_plan(FaultPlan::default().panic_after(2))
            } else {
                cfg
            }
        },
    )
    .expect("no durability configured");
    let handle = engine.handle();

    // Both shards see traffic; only shard 1 draws the panic.
    for k in 0..shards {
        let stock = map.members(k)[0];
        for _ in 0..4 {
            if let Ok(t) = handle.submit_query(QueryOp::Lookup(stock), qc()) {
                let _ = t.recv_timeout(Duration::from_secs(10));
            }
        }
    }
    wait_until("shard 1 never poisoned", || {
        handle.shard_states()[1] == EngineState::Poisoned
    });
    assert_eq!(handle.shard_states()[0], EngineState::Running);

    let dumps = |sub: &str| -> Vec<std::path::PathBuf> {
        std::fs::read_dir(dir.join(sub))
            .map(|entries| {
                entries
                    .map(|e| e.expect("dir entry").path())
                    .filter(|p| {
                        let name = p.file_name().unwrap().to_string_lossy().into_owned();
                        name.starts_with("flightrec-") && name.ends_with(".jsonl")
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    assert_eq!(dumps("shard1").len(), 1, "the crashed shard's own dump");
    assert!(
        dumps("shard0").is_empty(),
        "the healthy shard wrote no dump"
    );
    assert!(
        dumps("").is_empty(),
        "no dump outside the shard directories"
    );

    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_shard_restarts_alone_and_resumes_over_surviving_state() {
    let shards = 2u32;
    let num_stocks = 8u32;
    let map = ShardMap::new(num_stocks, shards);
    let victim = map.shard_of(StockId(0));
    let sibling = 1 - victim;
    assert!(!map.members(sibling).is_empty());

    let config = ShardConfig::new(shards).with_engine(EngineConfig::default().with_seed(91));
    let engine = ShardedEngine::try_start_with(
        Store::with_synthetic_stocks(num_stocks),
        config,
        |k, cfg| {
            if k == victim {
                cfg.with_restart_on_panic(3)
                    .with_restart_backoff(Duration::from_millis(1))
                    .with_fault_plan(FaultPlan::default().panic_after(2))
            } else {
                cfg
            }
        },
    )
    .expect("no durability configured");
    let handle = engine.handle();
    let victim_stock = map.members(victim)[0];
    let sibling_stock = map.members(sibling)[0];

    // Transaction 1 on the victim: an applied update, mutating its store.
    handle
        .submit_update(Trade {
            stock: victim_stock,
            price: 77.0,
            volume: 1,
            trade_time_ms: 0,
        })
        .expect("admitted");
    wait_until("victim never applied the update", || {
        handle.shard_stats()[victim as usize].updates_applied >= 1
    });

    // Transaction 2 draws the injected panic; the in-flight ticket
    // resolves cleanly and the victim's supervisor restarts it.
    let crashed = handle
        .submit_query(QueryOp::Lookup(victim_stock), qc())
        .expect("admitted");
    let outcome = crashed.recv_timeout(Duration::from_secs(10));
    assert!(!matches!(outcome, Err(QueryError::Timeout)), "ticket hung");

    // The restarted victim serves the pre-crash store: the applied
    // update survived and the staleness tracker knows it is fresh.
    let reply = handle
        .submit_query(QueryOp::Lookup(victim_stock), qc())
        .expect("victim is running again")
        .recv_timeout(Duration::from_secs(10))
        .expect("answered after restart");
    assert_eq!(reply.result, QueryResult::Price(77.0));
    assert_eq!(reply.staleness, 0.0, "tracker survived the restart");

    // The sibling never noticed: still running, zero restarts, commits.
    assert_eq!(
        handle.shard_states()[sibling as usize],
        EngineState::Running
    );
    let n = scaled(4, 10) as u64;
    for i in 0..n {
        handle
            .submit_query(QueryOp::Lookup(sibling_stock), qc())
            .expect("sibling admits")
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("sibling answer {i}: {e:?}"));
    }

    let stats = engine.shutdown();
    assert_eq!(
        stats[victim as usize].engine_restarts, 1,
        "victim restarted once"
    );
    assert_eq!(
        stats[sibling as usize].engine_restarts, 0,
        "sibling never restarted"
    );
    assert_eq!(stats[victim as usize].updates_applied, 1);
    assert_eq!(stats[sibling as usize].aggregates.committed, n);
    assert_shard_invariants(victim, &stats[victim as usize], 1);
    assert_shard_invariants(sibling, &stats[sibling as usize], 0);
}
