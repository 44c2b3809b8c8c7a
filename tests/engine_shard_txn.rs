//! Cross-shard 2PL: consistent snapshots and deadlock freedom under
//! contention.
//!
//! The coordinator acquires shards in ascending shard-id order (a total
//! order over every lock set, so no hold-and-wait cycle can form) and
//! each shard freezes between grant and release — so a spanning
//! aggregate reads the committed state of *one instant* at which all
//! its shards are simultaneously held. These tests drive both claims
//! end to end with concurrent writers; every wait is a deadline-bounded
//! poll or a `recv_timeout`, never a fixed sleep.

use quts::engine::{ShardConfig, ShardMap, ShardedEngine};
use quts::prelude::*;
use quts_conformance::{check_run, Observation};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

fn qc() -> QualityContract {
    QualityContract::step(5.0, 1000.0, 5.0, 1).with_lifetime_ms(30_000.0)
}

fn scaled(quick: usize, full: usize) -> usize {
    match std::env::var("QUTS_TEST_ITERS").as_deref() {
        Ok("full") => full,
        _ => quick,
    }
}

/// Deadline-bounded poll, no fixed sleeps.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

/// One stock from each shard, so aggregates over the set span all of
/// them.
fn one_per_shard(map: &ShardMap) -> Vec<StockId> {
    (0..map.shards()).map(|k| map.members(k)[0]).collect()
}

#[test]
fn cross_shard_reads_are_untorn_and_monotone_under_writes() {
    let shards = 2u32;
    let num_stocks = 8u32;
    let map = ShardMap::new(num_stocks, shards);
    // Two stocks per shard: the spanning Compare watches all four.
    let mut watch: Vec<StockId> = Vec::new();
    for k in 0..shards {
        let members = map.members(k);
        assert!(members.len() >= 2, "need two stocks per shard");
        watch.extend_from_slice(&members[..2]);
    }

    let engine = ShardedEngine::start(
        Store::with_synthetic_stocks(num_stocks),
        ShardConfig::new(shards).with_engine(EngineConfig::default().with_seed(70)),
    );
    let handle = engine.handle();
    let rounds = scaled(10, 40) as u64;
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Writer: every watched stock moves to 100+r, and the round
        // only advances once *all* of them are applied — so the set of
        // committed prices at any single instant spans at most two
        // adjacent versions.
        s.spawn(|| {
            for r in 1..=rounds {
                let v = 100.0 + r as f64;
                for &stock in &watch {
                    handle
                        .submit_update(Trade {
                            stock,
                            price: v,
                            volume: 1,
                            trade_time_ms: r,
                        })
                        .expect("update admitted");
                }
                for &stock in &watch {
                    wait_until("round price never applied", || {
                        matches!(
                            handle
                                .submit_query(QueryOp::Lookup(stock), qc())
                                .expect("lookup admitted")
                                .recv_timeout(Duration::from_secs(10)),
                            Ok(reply) if reply.result == QueryResult::Price(v)
                        )
                    });
                }
            }
            writer_done.store(true, Ordering::Release);
        });

        // Reader: spanning Compare over both shards, concurrent with
        // the writer. A consistent cut can only ever see two adjacent
        // versions (spread ≤ 1); a torn or stale read would exceed it.
        // Freezing + monotone writes also make the observed minimum
        // monotone across successive reads.
        s.spawn(|| {
            let mut last_min = f64::NEG_INFINITY;
            let mut observed = 0u64;
            while !writer_done.load(Ordering::Acquire) || observed == 0 {
                let reply = handle
                    .submit_query(QueryOp::Compare(watch.clone()), qc())
                    .expect("cross-shard query admitted")
                    .recv_timeout(Duration::from_secs(20))
                    .expect("cross-shard query resolves");
                let QueryResult::Spread { min, max, spread } = reply.result else {
                    panic!("compare returned {:?}", reply.result);
                };
                assert!(
                    spread <= 1.0 + 1e-9,
                    "torn read: saw non-adjacent versions min={min} max={max}"
                );
                assert!((100.0..=100.0 + rounds as f64).contains(&min));
                assert!((100.0..=100.0 + rounds as f64).contains(&max));
                assert!(
                    min >= last_min,
                    "non-monotone read: min went {last_min} -> {min}"
                );
                last_min = min;
                observed += 1;
            }
            assert!(observed > 0);
        });
    });

    let cross = handle.cross_shard_stats();
    assert!(cross.submitted > 0, "the reader exercised the coordinator");
    assert_eq!(
        cross.committed + cross.expired + cross.failed,
        cross.submitted,
        "every cross-shard query resolves exactly once"
    );
    let stats = engine.shutdown();
    let locks: u64 = stats.iter().map(|s| s.cross_shard_locks).sum();
    assert_eq!(
        locks,
        cross.submitted * shards as u64,
        "each spanning read locked both shards"
    );
    assert_eq!(
        stats
            .iter()
            .map(|s| s.cross_shard_lock_timeouts)
            .sum::<u64>(),
        0,
        "no coordinator ever abandoned a grant"
    );
}

#[test]
fn contending_cross_shard_txns_never_deadlock() {
    let shards = 4u32;
    let num_stocks = 16u32;
    let map = ShardMap::new(num_stocks, shards);
    assert!((0..shards).all(|k| !map.members(k).is_empty()));
    let span_all = one_per_shard(&map);

    let engine = ShardedEngine::start(
        Store::with_synthetic_stocks(num_stocks),
        ShardConfig::new(shards).with_engine(EngineConfig::default().with_seed(71)),
    );
    let handle = engine.handle();

    let readers = 4usize;
    let per_reader = scaled(8, 40);
    let committed = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let updates_per_shard: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let writers_done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Readers submit overlapping spanning portfolios — all four
        // shards, plus rotating two-shard pairs whose *item* order
        // differs per thread (the coordinator's shard-id ordering, not
        // submission order, is what prevents deadlock).
        for r in 0..readers {
            let span_all = &span_all;
            let (handle, committed, expired, failed) = (&handle, &committed, &expired, &failed);
            s.spawn(move || {
                for i in 0..per_reader {
                    let op = if i % 2 == 0 {
                        QueryOp::Portfolio(span_all.iter().map(|&id| (id, 1.0)).collect())
                    } else {
                        // A two-shard pair, rotated and reversed by
                        // thread so lock sets overlap in every order.
                        let a = span_all[(r + i) % span_all.len()];
                        let b = span_all[(r + i + 1) % span_all.len()];
                        QueryOp::Portfolio(vec![(b, 1.0), (a, 1.0)])
                    };
                    let ticket = loop {
                        match handle.submit_query(op.clone(), qc()) {
                            Ok(t) => break t,
                            Err(SubmitError::QueueFull) => std::thread::yield_now(),
                            Err(SubmitError::EngineDown) => panic!("engine must stay up"),
                        }
                    };
                    // Deadlock-freedom is the assertion: every txn
                    // resolves well inside the bound.
                    match ticket.recv_timeout(Duration::from_secs(30)) {
                        Ok(_) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(QueryError::Expired) => {
                            expired.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(QueryError::EngineDown) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(QueryError::Timeout) => panic!("cross-shard txn hung: deadlock"),
                    }
                    // Read while the other coordinators count: a copy
                    // never shows more outcomes than submissions.
                    let cross = handle.cross_shard_stats();
                    assert!(
                        cross.committed + cross.expired + cross.failed <= cross.submitted,
                        "{cross:?}"
                    );
                }
            });
        }
        // Writers keep every shard's scheduler busy so lock grants
        // genuinely contend with update application.
        for w in 0..2usize {
            let map = &map;
            let (handle, updates_per_shard, writers_done) =
                (&handle, &updates_per_shard, &writers_done);
            s.spawn(move || {
                for i in 0..scaled(40, 400) {
                    let stock = StockId(((w * 7 + i * 3) % num_stocks as usize) as u32);
                    match handle.submit_update(Trade {
                        stock,
                        price: 50.0 + i as f64,
                        volume: 1,
                        trade_time_ms: i as u64,
                    }) {
                        Ok(()) => {
                            updates_per_shard[map.shard_of(stock) as usize]
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Err(SubmitError::QueueFull) => std::thread::yield_now(),
                        Err(SubmitError::EngineDown) => panic!("engine must stay up"),
                    }
                }
                writers_done.store(true, Ordering::Release);
            });
        }
    });

    // Exact resolution accounting, observer side vs coordinator side.
    let total = (readers * per_reader) as u64;
    let cross = handle.cross_shard_stats();
    assert_eq!(cross.submitted, total);
    assert_eq!(cross.committed, committed.load(Ordering::Relaxed));
    assert_eq!(cross.expired, expired.load(Ordering::Relaxed));
    assert_eq!(cross.failed, failed.load(Ordering::Relaxed));
    assert_eq!(cross.committed + cross.expired + cross.failed, total);
    assert!(
        cross.committed > 0,
        "contention must not starve every txn: {cross:?}"
    );

    // Every shard survived the contention, and its own accounting still
    // satisfies the invariant suite.
    let states = handle.shard_states();
    assert!(
        states.iter().all(|s| *s == EngineState::Running),
        "{states:?}"
    );
    let stats = engine.shutdown();
    for (k, s) in stats.iter().enumerate() {
        let arrived = updates_per_shard[k].load(Ordering::Relaxed);
        let violations = check_run(&Observation::from_live_stats(s, Some(arrived)));
        assert!(violations.is_empty(), "shard {k}: {violations:?}");
    }
    // A committed 4-span txn locked 4 shards; pairs locked 2; aborted
    // acquisitions may hold fewer. Lower-bound sanity on the lock flow.
    let locks: u64 = stats.iter().map(|s| s.cross_shard_locks).sum();
    assert!(
        locks >= cross.committed * 2,
        "committed spanning txns must have held their shards ({locks} locks, {cross:?})"
    );
}
