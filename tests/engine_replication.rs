//! Replication, failover and routed-read tests.
//!
//! The claims under test:
//!
//! 1. A replica converges to the primary's store through the shipped
//!    WAL stream, and its own log is a byte-identical prefix of the
//!    primary's (same LSNs, same payloads, same CRCs).
//! 2. Link faults — drops, duplicates, delays, mid-frame disconnects —
//!    cost retries, never correctness: the resume-from-ack protocol
//!    re-ships exactly what is missing.
//! 3. Killing the primary mid-stream and promoting the most caught-up
//!    replica loses nothing the replica acked as durable.
//! 4. The read router degrades *replica → primary → `ERR busy`* and
//!    never serves a replica read whose dispatch-time staleness bound
//!    violates the contract's qodmax.

use quts::db::{snapshot, wal};
use quts::engine::repl::ReplicaStats;
use quts::engine::{update_trace_id, TraceConfig, TraceEvent, QUERY_WAIT};
use quts::metrics::{RouteTarget, SPAN_APPLY, SPAN_SHIP};
use quts::prelude::*;
use quts_conformance::{
    no_acked_loss_across_failover, replica_consistent, router_respects_qod, trace_causality,
    wal_contiguous_after_snapshot,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Iteration scale: `QUTS_TEST_ITERS=full` (CI) runs the full volume,
/// anything else the quick default.
fn iters(quick: usize, full: usize) -> usize {
    match std::env::var("QUTS_TEST_ITERS").as_deref() {
        Ok("full") => full,
        _ => quick,
    }
}

/// Unique scratch directory, removed on drop (even on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("quts-repl-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn trade(stock: u32, price: f64) -> Trade {
    Trade {
        stock: StockId(stock),
        price,
        volume: 10,
        trade_time_ms: 1_000 + u64::from(stock),
    }
}

/// A durable primary over `dir`: fsync-always so every append is
/// immediately visible to the shipper's tailer.
fn primary_config(dir: &Path) -> EngineConfig {
    EngineConfig::default()
        .with_durability(DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Always))
}

fn replica_config(name: &str, dir: PathBuf) -> ReplicaConfig {
    ReplicaConfig::new(name, dir)
        .with_ack_every(4)
        .with_backoff(Duration::from_millis(1), Duration::from_millis(20))
}

/// Polls until the replica reports `lsn` applied.
fn await_applied(replica: &Replica, lsn: u64) -> ReplicaStats {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = replica.stats();
        if stats.applied_lsn >= lsn {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "replica stuck at applied={} wanting {lsn} (stats: {stats:?})",
            stats.applied_lsn
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Polls until the replica reports `lsn` durable (fsync'd to its own
/// WAL). Deferred (group) appends only reach the file at the covering
/// sync, so on-disk comparisons must wait for this, not `applied_lsn`.
fn await_durable(replica: &Replica, lsn: u64) -> ReplicaStats {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = replica.stats();
        if stats.durable_lsn >= lsn {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "replica stuck at durable={} wanting {lsn} (stats: {stats:?})",
            stats.durable_lsn
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Reads every price via the replica's local store.
fn replica_price(replica: &Replica, stock: u32) -> f64 {
    match replica
        .handle()
        .execute(&QueryOp::Lookup(StockId(stock)))
        .expect("replica has a store")
    {
        QueryResult::Price(p) => p,
        other => panic!("expected a price, got {other:?}"),
    }
}

/// Concatenated decoded (lsn, payload) records of every frame in a WAL
/// directory with `lsn <= upto`, in LSN order.
fn wal_records(dir: &Path, upto: u64) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    for (_, path) in wal::segment_files(dir).unwrap() {
        let buf = std::fs::read(&path).unwrap();
        let mut offset = wal::SEGMENT_MAGIC.len();
        while let Ok(Some((frame, next))) = wal::decode_frame(&buf, offset) {
            if frame.lsn <= upto {
                out.push((frame.lsn, frame.payload));
            }
            offset = next;
        }
    }
    out.sort_by_key(|(lsn, _)| *lsn);
    out.dedup_by_key(|(lsn, _)| *lsn);
    out
}

#[test]
fn replica_converges_and_wal_is_byte_identical_prefix() {
    let tmp = TempDir::new("converge");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(8),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();

    let n = iters(64, 512) as u32;
    for i in 0..n {
        engine
            .submit_update(trade(i % 8, 10.0 + f64::from(i)))
            .unwrap();
    }
    let stats = await_applied(&replica, u64::from(n));
    assert!(stats.ready);
    assert_eq!(stats.applied_lsn, u64::from(n));
    assert_eq!(stats.bootstraps, 1, "one snapshot bootstrap at join");
    replica_consistent(&stats).expect("replica accounting");
    wal_contiguous_after_snapshot(&tmp.sub("replica")).expect("replica WAL contiguity");

    // The replica store shows the last write per stock.
    for s in 0..8u32 {
        let last = (0..n).filter(|i| i % 8 == s).max().unwrap();
        assert_eq!(replica_price(&replica, s), 10.0 + f64::from(last));
    }

    // Byte-for-byte: the replica's log holds the same records the
    // primary's does, at the same LSNs, for everything it applied.
    // (Checked before shutdown — the graceful seal publishes a covering
    // snapshot, which collects the very segments under comparison —
    // and only after the acks' covering sync lands the deferred tail.)
    await_durable(&replica, u64::from(n));
    let primary_records = wal_records(&tmp.sub("primary"), u64::from(n));
    let replica_records = wal_records(&tmp.sub("replica"), u64::from(n));
    assert!(!replica_records.is_empty());
    // The replica joined from a snapshot, so its log starts at the
    // bootstrap point; every record from there on must match exactly.
    let first = replica_records[0].0;
    let tail: Vec<_> = primary_records
        .into_iter()
        .filter(|(lsn, _)| *lsn >= first)
        .collect();
    assert_eq!(replica_records, tail, "replica WAL diverged from primary");

    let final_stats = replica.shutdown();
    assert_eq!(
        final_stats.durable_lsn,
        u64::from(n),
        "shutdown seals the tail"
    );
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn link_faults_cost_retries_never_correctness() {
    let tmp = TempDir::new("linkfaults");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(4),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    // Aggressive faults: drop every 7th frame, duplicate every 5th,
    // hard-disconnect mid-frame every 23rd.
    let faults = LinkFaultPlan::default()
        .drop_frame_every(7)
        .duplicate_frame_every(5)
        .disconnect_mid_frame_every(23);
    let ship =
        ShipListener::start(&engine.handle(), ShipConfig::default().with_fault(faults)).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();

    let n = iters(96, 1024) as u32;
    for i in 0..n {
        engine
            .submit_update(trade(i % 4, 50.0 + f64::from(i)))
            .unwrap();
    }
    let stats = await_applied(&replica, u64::from(n));
    // The faults actually fired: gaps (drops) and duplicates were seen,
    // and the link was re-established at least once.
    assert!(stats.gaps > 0, "dropped frames should surface as gaps");
    assert!(stats.frames_duplicate > 0, "duplicates should be skipped");
    assert!(
        stats.reconnects() > 0,
        "disconnects should force reconnects"
    );
    replica_consistent(&stats).expect("replica accounting under faults");
    wal_contiguous_after_snapshot(&tmp.sub("replica")).expect("faulted replica WAL contiguity");

    // And none of it corrupted anything.
    for s in 0..4u32 {
        let last = (0..n).filter(|i| i % 4 == s).max().unwrap();
        assert_eq!(replica_price(&replica, s), 50.0 + f64::from(last));
    }
    let final_stats = replica.shutdown();
    assert_eq!(final_stats.applied_lsn, u64::from(n));
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn replica_crash_restart_resumes_from_its_own_wal() {
    let tmp = TempDir::new("crashrestart");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(4),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();

    for i in 0..40u32 {
        engine
            .submit_update(trade(i % 4, 10.0 + f64::from(i)))
            .unwrap();
    }
    let stats = await_applied(&replica, 40);
    let killed = replica.kill();
    assert!(killed.applied_lsn >= stats.applied_lsn);

    // More history lands while the replica is down.
    for i in 40..80u32 {
        engine
            .submit_update(trade(i % 4, 10.0 + f64::from(i)))
            .unwrap();
    }

    // The restarted replica recovers locally and resumes the stream
    // from its own applied position — no fresh bootstrap.
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();
    let stats = await_applied(&replica, 80);
    assert_eq!(stats.bootstraps, 0, "restart must resume, not re-bootstrap");
    for s in 0..4u32 {
        let last = (0..80u32).filter(|i| i % 4 == s).max().unwrap();
        assert_eq!(replica_price(&replica, s), 10.0 + f64::from(last));
    }
    replica.shutdown();
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn resume_after_snapshot_gc_rebootstraps() {
    let tmp = TempDir::new("gc-bootstrap");
    // Tight snapshot cadence: the primary GCs covered segments fast.
    let cfg = EngineConfig::default().with_durability(
        DurabilityConfig::new(tmp.sub("primary"))
            .with_fsync(FsyncPolicy::Always)
            .with_snapshot_every(16)
            .with_segment_bytes(1024),
    );
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();
    for i in 0..20u32 {
        engine
            .submit_update(trade(i % 4, 5.0 + f64::from(i)))
            .unwrap();
    }
    await_applied(&replica, 20);
    let killed = replica.kill();

    // While the replica is down, enough history flows (and is
    // snapshotted away) that its resume point no longer exists.
    for i in 20..200u32 {
        engine
            .submit_update(trade(i % 4, 5.0 + f64::from(i)))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let oldest = wal::segment_files(&tmp.sub("primary"))
            .unwrap()
            .first()
            .map(|(lsn, _)| *lsn)
            .unwrap_or(0);
        if oldest > killed.applied_lsn + 1 {
            break;
        }
        assert!(Instant::now() < deadline, "primary never GC'd old segments");
        std::thread::sleep(Duration::from_millis(5));
    }

    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();
    let stats = await_applied(&replica, 200);
    assert_eq!(stats.bootstraps, 1, "GC'd resume point forces a bootstrap");
    for s in 0..4u32 {
        let last = (0..200u32).filter(|i| i % 4 == s).max().unwrap();
        assert_eq!(replica_price(&replica, s), 5.0 + f64::from(last));
    }
    replica.shutdown();
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn a_connected_replica_is_bootstrapped_once_across_snapshots() {
    let tmp = TempDir::new("snapshots-connected");
    // Every snapshot rotates the WAL and collects the segment before
    // it. A slowed link keeps the shipper inside that segment when it
    // goes, and the shipper finishes it anyway.
    let cfg = EngineConfig::default().with_durability(
        DurabilityConfig::new(tmp.sub("primary"))
            .with_fsync(FsyncPolicy::Always)
            .with_snapshot_every(64),
    );
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    let slow = LinkFaultPlan::default().delay_per_frame(Duration::from_micros(200));
    let ship =
        ShipListener::start(&engine.handle(), ShipConfig::default().with_fault(slow)).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();
    // Rounds of one cadence each (a burst ingested whole would snapshot
    // once), each shipped before the next: the shipper is inside the
    // round's segment when its snapshot collects it, never a whole
    // segment behind.
    let mut n = 0u32;
    while engine.stats().snapshots_written < 5 {
        assert!(n < 64 * 50, "no snapshot cadence: {:?}", engine.stats());
        for _ in 0..64 {
            engine
                .submit_update(trade(n % 4, 5.0 + f64::from(n)))
                .unwrap();
            n += 1;
        }
        await_applied(&replica, u64::from(n));
    }
    let stats = await_applied(&replica, u64::from(n));
    assert_eq!(stats.bootstraps, 1, "only the join bootstraps: {stats:?}");
    assert_eq!(stats.reconnects(), 0, "{stats:?}");
    replica.shutdown();
    ship.shutdown();
    engine.shutdown();
}

/// The replica's snapshot cadence belongs to its log writer, not to one
/// session: a link that resets every few hundred frames must not keep
/// the replica from ever snapshotting (its WAL, and so its restart
/// replay, would grow without bound).
#[test]
fn a_replica_whose_link_keeps_resetting_still_snapshots_on_cadence() {
    let tmp = TempDir::new("cadence-resets");
    // The primary never snapshots past its baseline, so it collects no
    // segment: every reconnect resumes and none bootstraps.
    let cfg = EngineConfig::default().with_durability(
        DurabilityConfig::new(tmp.sub("primary"))
            .with_fsync(FsyncPolicy::Always)
            .with_snapshot_every(u64::MAX),
    );
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    // Each session loses its 1000th frame and ends at the gap the next
    // one shows, so no session applies 1000 frames.
    let faults = LinkFaultPlan::default().drop_frame_every(1000);
    let ship =
        ShipListener::start(&engine.handle(), ShipConfig::default().with_fault(faults)).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();
    let n = 5_000u32;
    for i in 0..n {
        // The primary's inbox is bounded; a full one is retried.
        while engine
            .submit_update(trade(i % 4, 1.0 + f64::from(i)))
            .is_err()
        {
            std::thread::yield_now();
        }
    }
    let stats = await_applied(&replica, u64::from(n));
    assert!(
        stats.reconnects() >= 5,
        "the link kept resetting: {stats:?}"
    );
    assert_eq!(stats.bootstraps, 1, "only the join bootstraps: {stats:?}");
    assert!(
        stats.snapshots_written >= 1,
        "no cadence snapshot before shutdown: {stats:?}"
    );
    wal_contiguous_after_snapshot(&tmp.sub("replica")).expect("replica WAL contiguity");
    replica.shutdown();
    ship.shutdown();
    engine.shutdown();
}

/// The term floor only vouches for a survivor exactly one term behind.
/// Two replicas stop with identical prefixes; one "follows" the
/// intervening term (its MANIFEST reaches term 1), the other misses it
/// entirely. Against a term-2 listener whose floor sits *above* both
/// resume points, the one-term-behind survivor resumes in place, but
/// the two-terms-behind one must re-bootstrap — its history could have
/// split anywhere in the missed term, and the floor says nothing about
/// where.
#[test]
fn survivor_terms_behind_rebootstraps_even_below_the_floor() {
    let tmp = TempDir::new("multiterm");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(4),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    // Term 0: both replicas converge on the same 16-frame prefix and
    // stop cleanly.
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let r1 = Replica::start(ship.addr(), replica_config("r1", tmp.sub("r1"))).unwrap();
    let r2 = Replica::start(ship.addr(), replica_config("r2", tmp.sub("r2"))).unwrap();
    for i in 0..16u32 {
        engine
            .submit_update(trade(i % 4, 10.0 + f64::from(i)))
            .unwrap();
    }
    await_applied(&r1, 16);
    await_applied(&r2, 16);
    assert_eq!(r1.shutdown().applied_lsn, 16);
    assert_eq!(r2.shutdown().applied_lsn, 16);
    ship.shutdown();

    // History runs on to LSN 32 while both are down. The primary's
    // directory moves two terms ahead, the second at LSN 24, which its
    // MANIFEST records as term 2's floor; r1's separately reaches term
    // 1 (it followed the intervening primary), r2 stays at term 0.
    let write_through = |to: u32| {
        let from = engine.stats().wal_last_lsn as u32;
        for i in from..to {
            engine
                .submit_update(trade(i % 4, 10.0 + f64::from(i)))
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while engine.stats().wal_last_lsn < u64::from(to) {
            assert!(Instant::now() < deadline, "primary WAL stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    write_through(24);
    snapshot::bump_term(tmp.sub("primary"), 2).unwrap();
    write_through(32);
    snapshot::bump_term(tmp.sub("r1"), 1).unwrap();

    // Term-2 listener with its floor at 24: both resume points (16)
    // sit below it.
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    assert_eq!(ship.registry().totals().term, 2);
    assert_eq!(snapshot::manifest_term_floor(&tmp.sub("primary")), (2, 24));

    // One term behind: everything below the floor is history shared
    // with the predecessor this primary extends — resume in place.
    let r1 = Replica::start(ship.addr(), replica_config("r1", tmp.sub("r1"))).unwrap();
    let s1 = await_applied(&r1, 32);
    assert_eq!(s1.bootstraps, 0, "one term behind, below the floor: resume");
    assert_eq!(s1.term, 2, "caught-up survivor adopts the serving term");

    // Two terms behind: same resume point, but the floor cannot vouch
    // for where its history split — it must re-bootstrap.
    let r2 = Replica::start(ship.addr(), replica_config("r2", tmp.sub("r2"))).unwrap();
    let s2 = await_applied(&r2, 32);
    assert_eq!(
        s2.bootstraps, 1,
        "two terms behind must re-bootstrap, floor or not"
    );
    assert_eq!(s2.term, 2);

    for s in 0..4u32 {
        let last = (0..32u32).filter(|i| i % 4 == s).max().unwrap();
        assert_eq!(replica_price(&r1, s), 10.0 + f64::from(last));
        assert_eq!(replica_price(&r2, s), 10.0 + f64::from(last));
    }
    r1.shutdown();
    r2.shutdown();
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn failover_promotes_highest_replica_and_loses_no_acked_update() {
    let tmp = TempDir::new("failover");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(8),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    // One clean link, one lossy link: the replicas advance unevenly.
    let faults = LinkFaultPlan::default()
        .drop_frame_every(3)
        .disconnect_mid_frame_every(17)
        .delay_per_frame(Duration::from_micros(200));
    let ship_clean = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let ship_lossy =
        ShipListener::start(&engine.handle(), ShipConfig::default().with_fault(faults)).unwrap();
    let r1 = Replica::start(ship_clean.addr(), replica_config("r1", tmp.sub("r1"))).unwrap();
    let r2 = Replica::start(ship_lossy.addr(), replica_config("r2", tmp.sub("r2"))).unwrap();

    let n = iters(128, 1024) as u32;
    for i in 0..n {
        engine
            .submit_update(trade(i % 8, 10.0 + f64::from(i)))
            .unwrap();
    }
    // Wait for the clean replica to catch up fully; the lossy one may
    // still be mid-recovery. Then kill the primary mid-stream.
    await_applied(&r1, u64::from(n));
    drop(engine); // primary "crashes": its engine is simply gone
    ship_clean.shutdown();
    ship_lossy.shutdown();

    // Record what each replica claims durable *before* promotion, and
    // check both survivors' accounting while the primary is dead.
    replica_consistent(&r1.stats()).expect("r1 accounting");
    replica_consistent(&r2.stats()).expect("r2 accounting");
    let durable_floor = r1.stats().durable_lsn.max(r2.stats().durable_lsn);
    // Promote the most durable replica (the election itself is
    // `failover::elect`'s table test).
    let (winner, rest) = if r1.stats().durable_lsn >= r2.stats().durable_lsn {
        (r1, r2)
    } else {
        (r2, r1)
    };
    let promoted = promote_at_term(winner, EngineConfig::default(), 1).unwrap();
    rest.kill();

    // No acked update lost: the promoted engine's recovered log covers
    // every LSN any replica reported durable.
    let stats = promoted.stats();
    no_acked_loss_across_failover(
        durable_floor,
        stats.wal_last_lsn.max(stats.snapshot_last_lsn),
    )
    .expect("promoted engine covers the acked-durable floor");
    assert_eq!(stats.wal_truncated_bytes, 0, "sealed tail replays cleanly");

    // The survivor serves every write the clean replica applied.
    let reply = |s: u32| {
        promoted
            .submit_query(
                QueryOp::Lookup(StockId(s)),
                QualityContract::step(5.0, 1000.0, 5.0, 1),
            )
            .unwrap()
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
    };
    for s in 0..8u32 {
        let last = (0..n).filter(|i| i % 8 == s).max().unwrap();
        match reply(s).result {
            QueryResult::Price(p) => assert_eq!(p, 10.0 + f64::from(last)),
            other => panic!("expected a price, got {other:?}"),
        }
    }

    // And it is a real primary: it accepts and applies new writes.
    promoted.submit_update(trade(0, 999.0)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let QueryResult::Price(p) = reply(0).result {
            if p == 999.0 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "promoted engine never applied");
        std::thread::sleep(Duration::from_millis(2));
    }
    promoted.shutdown();

    // After the dust settles, every surviving directory still replays
    // as a gap-free LSN sequence past its newest snapshot.
    wal_contiguous_after_snapshot(&tmp.sub("r1")).expect("r1 WAL contiguity");
    wal_contiguous_after_snapshot(&tmp.sub("r2")).expect("r2 WAL contiguity");
}

#[test]
fn router_degrades_replica_primary_busy_without_qod_violations() {
    let tmp = TempDir::new("router");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(4),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();
    for i in 0..32u32 {
        engine
            .submit_update(trade(i % 4, 20.0 + f64::from(i)))
            .unwrap();
    }
    await_applied(&replica, 32);

    let router = Router::new(engine.handle());
    router.set_replicas(vec![replica.handle()]);

    // A staleness-tolerant contract routes to the replica (it is caught
    // up, so its bound qualifies).
    let tolerant = QualityContract::step(5.0, 1000.0, 5.0, 64);
    let reply = router
        .dispatch(QueryOp::Lookup(StockId(0)), tolerant.clone())
        .unwrap()
        .recv_timeout(QUERY_WAIT)
        .unwrap();
    assert!(matches!(reply.result, QueryResult::Price(_)));
    assert_eq!(router.stats().routed_replica, 1);
    assert_eq!(reply.qod, tolerant.qodmax(), "replica read earns full QoD");

    // Strand the replica: kill it and keep writing. Its bound now
    // exceeds any fresh contract's tolerance → primary fallback.
    let killed = replica.kill();
    for i in 32..64u32 {
        engine
            .submit_update(trade(i % 4, 20.0 + f64::from(i)))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().wal_last_lsn < 64 {
        assert!(Instant::now() < deadline, "primary never logged the writes");
        std::thread::sleep(Duration::from_millis(2));
    }
    let fresh = QualityContract::step(5.0, 1000.0, 5.0, 1);
    let lag = engine.stats().wal_last_lsn - killed.applied_lsn;
    assert!(lag > 1, "test setup: the dead replica must actually lag");
    let reply = router
        .dispatch(QueryOp::Lookup(StockId(1)), fresh.clone())
        .unwrap()
        .recv_timeout(QUERY_WAIT)
        .unwrap();
    assert!(matches!(reply.result, QueryResult::Price(_)));
    assert_eq!(router.stats().routed_primary, 1, "stale replica skipped");

    // Shut the primary's scheduler admission off by filling the queue:
    // stop the engine entirely and observe the final rung instead —
    // EngineDown is the deeper failure; Busy needs a full queue, which
    // is driven in the server-level tests. Here we assert the ladder's
    // order: a qualifying replica would still have served.
    router_respects_qod(&router.stats()).expect("dispatch-time qod holds");
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn router_sheds_busy_when_no_replica_qualifies_and_primary_is_full() {
    let tmp = TempDir::new("router-busy");
    // A tiny admission queue and 100 ms queries: unawaited submissions
    // pile up and overflow fast.
    let cfg = EngineConfig {
        synthetic_query_cost: Some(Duration::from_millis(100)),
        ..primary_config(&tmp.sub("primary")).with_queue_capacity(4)
    };
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    let router = Router::new(engine.handle());

    // No replicas at all: every read needs the primary. Saturate the
    // queue with tickets nobody waits on, then observe the bounded shed.
    let fresh = QualityContract::step(5.0, 1000.0, 5.0, 1);
    let mut tickets = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    let shed = loop {
        match engine.submit_query(QueryOp::Lookup(StockId(0)), fresh.clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull) => {
                match router.dispatch(QueryOp::Lookup(StockId(0)), fresh.clone()) {
                    Ok(t) => tickets.push(t),
                    Err(e) => break e,
                }
            }
            Err(SubmitError::EngineDown) => panic!("engine died during the test"),
        }
        assert!(Instant::now() < deadline, "queue never overflowed");
    };
    assert_eq!(
        shed,
        SubmitError::QueueFull,
        "the ladder's last rung is a full primary queue"
    );
    assert!(router.stats().shed_busy >= 1);
    router_respects_qod(&router.stats()).expect("shedding never breaks qod");
    drop(tickets);
    engine.shutdown();
}

#[test]
fn a_replica_read_past_its_lifetime_is_expired_like_a_primary_read() {
    let tmp = TempDir::new("router-expired");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(4),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();
    for i in 0..8u32 {
        engine
            .submit_update(trade(i % 4, 20.0 + f64::from(i)))
            .unwrap();
    }
    await_applied(&replica, 8);
    let router = Router::new(engine.handle());
    router.set_replicas(vec![replica.handle()]);

    // Tolerant enough for the caught-up replica to qualify, with the
    // shortest lifetime a contract accepts (it must be positive): any
    // read answers at or past it.
    let expiring = QualityContract::step(5.0, 1000.0, 5.0, 64).with_lifetime_ms(f64::MIN_POSITIVE);
    let answer = router
        .dispatch(QueryOp::Lookup(StockId(0)), expiring)
        .unwrap()
        .recv_timeout(QUERY_WAIT);
    assert_eq!(router.stats().routed_replica, 1, "the replica served it");
    assert_eq!(answer.map(|r| r.profit()), Err(QueryError::Expired));
    router_respects_qod(&router.stats()).expect("dispatch-time qod holds");
    replica.shutdown();
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn trace_chain_spans_router_primary_ship_and_replica_apply() {
    let tmp = TempDir::new("tracechain");
    let seed = 0xFEED_F00D;
    let cfg = primary_config(&tmp.sub("primary"))
        .with_seed(seed)
        .with_trace(TraceConfig::full().with_ring_capacity(16_384));
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let replica = Replica::start(
        ship.addr(),
        replica_config("r1", tmp.sub("replica")).with_trace(16_384),
    )
    .unwrap();

    let n = 48u32;
    for i in 0..n {
        engine
            .submit_update(trade(i % 4, 10.0 + f64::from(i)))
            .unwrap();
    }
    await_applied(&replica, u64::from(n));

    // A routed read opens its own chain (route_decision → ingest).
    let router = Router::new(engine.handle());
    router.set_replicas(vec![replica.handle()]);
    router
        .dispatch(
            QueryOp::Lookup(StockId(0)),
            QualityContract::step(5.0, 1000.0, 5.0, 64),
        )
        .unwrap()
        .recv_timeout(QUERY_WAIT)
        .unwrap();

    let primary = engine.handle().trace_snapshot().expect("tracing at Full");
    let primary_dropped = engine.handle().trace_dropped().unwrap();
    let (replica_recs, replica_dropped) = replica.handle().trace_records().expect("traced replica");
    assert_eq!(primary_dropped + replica_dropped, 0, "rings must not wrap");

    // One update's chain, followed by its single trace id across both
    // processes: ingest (primary, root) → ship_frame (primary) →
    // replica_apply (replica).
    let lsn = 10u64;
    let id = update_trace_id(seed, lsn);
    assert!(
        primary.iter().any(|r| matches!(
            r.event,
            TraceEvent::Ingest { ctx, .. } if ctx.trace_id == id && ctx.parent == 0
        )),
        "update lsn {lsn} missing its root ingest span"
    );
    assert!(
        primary.iter().any(|r| matches!(
            r.event,
            TraceEvent::ShipFrame { ctx, lsn: l } if ctx.trace_id == id && l == lsn
                && ctx.span == SPAN_SHIP
        )),
        "update lsn {lsn} missing its ship_frame span"
    );
    assert!(
        replica_recs.iter().any(|r| matches!(
            r.event,
            TraceEvent::ReplicaApply { ctx, lsn: l } if ctx.trace_id == id && l == lsn
                && ctx.span == SPAN_APPLY
        )),
        "update lsn {lsn} missing its replica_apply span"
    );

    // The routed read's decision is in the ring and names the replica.
    assert!(
        primary.iter().any(|r| matches!(
            r.event,
            TraceEvent::RouteDecision {
                target: RouteTarget::Replica,
                ..
            }
        )),
        "routed read left no route_decision event"
    );

    // Causality over the merged (upstream-first) record sets: every
    // child span's parent precedes it.
    let mut merged = primary.clone();
    merged.extend(replica_recs.iter().cloned());
    trace_causality(&merged, 0).expect("cross-process span causality");

    replica.shutdown();
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn same_seed_replica_trace_jsonl_is_byte_identical() {
    // Replica apply events are stamped with logical time (the LSN), so
    // two replicas fed the same seeded stream export byte-identical
    // trace JSONL even though wall-clock shipping differed — including
    // the trace ids both sides derive from the shipped seed.
    let seed = 0xA11C_E5ED;
    let jsonl = |tag: &str| {
        let tmp = TempDir::new(&format!("tracedet-{tag}"));
        let cfg = primary_config(&tmp.sub("primary"))
            .with_seed(seed)
            .with_trace(TraceConfig::full().with_ring_capacity(4_096));
        let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
        let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
        let replica = Replica::start(
            ship.addr(),
            replica_config("r1", tmp.sub("replica")).with_trace(4_096),
        )
        .unwrap();
        for i in 0..32u32 {
            engine
                .submit_update(trade(i % 4, 10.0 + f64::from(i)))
                .unwrap();
        }
        await_applied(&replica, 32);
        let out = replica.handle().trace_to_jsonl().expect("traced replica");
        replica.shutdown();
        ship.shutdown();
        engine.shutdown();
        out
    };
    let a = jsonl("a");
    assert_eq!(a.lines().count(), 32, "one replica_apply per frame");
    assert!(
        a.lines().all(|l| l.contains("\"trace_id\":")),
        "apply events must carry the shipped-seed trace ids: {a}"
    );
    assert_eq!(a, jsonl("b"), "same-seed replica trace JSONL diverged");
}

#[test]
fn group_shipped_replica_survives_mid_group_disconnects() {
    let tmp = TempDir::new("gc-disconnect");
    // The primary batches its WAL appends under group commit, so the
    // shipper tails and ships frames in bursts; the link hard-drops
    // mid-frame every 5th frame — right inside shipped groups.
    let cfg = EngineConfig::default().with_durability(
        DurabilityConfig::new(tmp.sub("primary"))
            .with_fsync(FsyncPolicy::Always)
            .with_group_commit(
                GroupCommitConfig::default()
                    .with_max_batch(8)
                    .with_max_delay_us(200),
            ),
    );
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    let faults = LinkFaultPlan::default().disconnect_mid_frame_every(5);
    let ship =
        ShipListener::start(&engine.handle(), ShipConfig::default().with_fault(faults)).unwrap();
    let replica = Replica::start(ship.addr(), replica_config("r1", tmp.sub("replica"))).unwrap();

    let n = iters(64, 512) as u32;
    for i in 0..n {
        engine
            .submit_update(trade(i % 4, 40.0 + f64::from(i)))
            .unwrap();
    }
    let stats = await_applied(&replica, u64::from(n));
    assert!(
        stats.reconnects() > 0,
        "mid-frame disconnects must force reconnects"
    );
    assert!(
        engine.stats().group_commits > 0,
        "the primary must actually be group-committing"
    );
    replica_consistent(&stats).expect("replica accounting under group shipping");

    // Crash-stop the replica: no seal, no final sync — its deferred
    // (unsynced) tail is at the OS's mercy. The durability contract is
    // about `durable_lsn` only: every ack was preceded by the covering
    // fsync, so offline recovery of the replica's own directory must
    // reach at least that LSN.
    let killed = replica.kill();
    assert!(killed.durable_lsn <= killed.applied_lsn);
    assert!(killed.durable_lsn > 0, "acks must have advanced durability");
    let rec = snapshot::recover(tmp.sub("replica")).expect("killed replica dir recovers");
    let recovered_lsn = rec.next_lsn - 1;
    assert!(
        recovered_lsn >= killed.durable_lsn,
        "acked durable_lsn {} lost: offline replay only reaches {recovered_lsn}",
        killed.durable_lsn
    );
    wal_contiguous_after_snapshot(&tmp.sub("replica")).expect("killed replica WAL contiguity");
    ship.shutdown();
    engine.shutdown();
}

#[test]
fn a_live_replica_snapshot_is_never_torn() {
    let tmp = TempDir::new("untorn");
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(8),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
    let registry = ship.registry();
    // An ack, and so a `durable_lsn` move, after every applied frame:
    // the most chances for a reader to catch the two marks apart.
    let config = replica_config("r1", tmp.sub("replica")).with_ack_every(1);
    let replica = Replica::start(ship.addr(), config).unwrap();
    let n = 5_000u32;
    let done = std::sync::atomic::AtomicBool::new(false);
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reads = 0u64;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let stats = replica.stats();
                replica_consistent(&stats).expect("a replica snapshot is consistent");
                assert!(stats.durable_lsn <= stats.applied_lsn, "{stats:?}");
                for peer in registry.peers() {
                    assert!(peer.durable_lsn <= peer.applied_lsn, "{peer:?}");
                }
                reads += 1;
            }
            reads
        });
        for i in 0..n {
            // The primary's inbox is bounded; a full one is retried.
            while engine
                .submit_update(trade(i % 8, 10.0 + f64::from(i)))
                .is_err()
            {
                std::thread::yield_now();
            }
        }
        await_applied(&replica, u64::from(n));
        done.store(true, std::sync::atomic::Ordering::Release);
        reader
            .join()
            .expect("the reader saw only consistent snapshots")
    });
    assert!(reads > 0);
    replica.shutdown();
    ship.shutdown();
    engine.shutdown();
}

// --- Property: arbitrary disconnect points never corrupt the prefix ---

/// Proptest volume, scaled by `QUTS_TEST_ITERS`.
fn prop_cases() -> u32 {
    match std::env::var("QUTS_TEST_ITERS").as_deref() {
        Ok("full") => 24,
        _ => 8,
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases()))]

    /// Under an arbitrary mix of mid-frame disconnects, drops and
    /// duplicates, the replica's `applied_lsn` is monotone, its WAL is
    /// byte-identical to the primary's prefix, and its final store
    /// equals offline sequential application of that same prefix.
    #[test]
    fn shipped_prefix_survives_arbitrary_disconnect_points(
        n in 24u32..96,
        disconnect in 3u64..24,
        drop_raw in 0u64..12,
        dup_raw in 0u64..12,
    ) {
        let tmp = TempDir::new("prop");
        let engine = Engine::try_start(
            Store::with_synthetic_stocks(4),
            primary_config(&tmp.sub("primary")),
        )
        .unwrap();
        // Raw values under 3 disable that fault (a poor man's
        // `Option` strategy; the vendored proptest has no `option::of`).
        let mut faults = LinkFaultPlan::default().disconnect_mid_frame_every(disconnect);
        if drop_raw >= 3 {
            faults = faults.drop_frame_every(drop_raw);
        }
        if dup_raw >= 3 {
            faults = faults.duplicate_frame_every(dup_raw);
        }
        let ship = ShipListener::start(
            &engine.handle(),
            ShipConfig::default().with_fault(faults),
        )
        .unwrap();
        let replica = Replica::start(
            ship.addr(),
            replica_config("r1", tmp.sub("replica")).with_ack_every(2),
        )
        .unwrap();
        for i in 0..n {
            engine.submit_update(trade(i % 4, 30.0 + f64::from(i))).unwrap();
        }

        // Await convergence, asserting monotonicity at every sample.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut last_seen = 0u64;
        loop {
            let applied = replica.stats().applied_lsn;
            prop_assert!(
                applied >= last_seen,
                "applied_lsn went backwards: {last_seen} -> {applied}"
            );
            last_seen = applied;
            if applied >= u64::from(n) {
                break;
            }
            prop_assert!(
                Instant::now() < deadline,
                "replica stuck at {applied}/{n}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // The replica bootstrapped at LSN 0, so its log must equal the
        // primary's full prefix — byte for byte, before the shutdown
        // seal collects it into a snapshot, and only once the acks'
        // covering sync has landed the deferred tail on disk.
        await_durable(&replica, u64::from(n));
        let primary_records = wal_records(&tmp.sub("primary"), u64::from(n));
        let replica_records = wal_records(&tmp.sub("replica"), u64::from(n));
        prop_assert_eq!(primary_records.len(), n as usize);
        prop_assert!(
            replica_records == primary_records,
            "replica WAL diverged from the primary prefix"
        );

        // Offline sequential application of the primary's prefix over
        // its baseline snapshot...
        let (base_lsn, base_path) = snapshot::snapshot_files(&tmp.sub("primary"))
            .unwrap()
            .into_iter()
            .last()
            .expect("baseline snapshot exists");
        prop_assert_eq!(base_lsn, 0, "the oldest snapshot is the LSN-0 baseline");
        let mut offline = snapshot::decode_snapshot(&std::fs::read(base_path).unwrap())
            .unwrap()
            .store;
        for (_, payload) in &primary_records {
            offline.apply_update(&wal::decode_trade(payload).expect("trade payload"));
        }

        // ...equals the store the replica's graceful shutdown seals.
        let final_stats = replica.shutdown();
        prop_assert_eq!(final_stats.applied_lsn, u64::from(n));
        prop_assert_eq!(final_stats.durable_lsn, u64::from(n));
        let (seal_lsn, seal_path) = snapshot::snapshot_files(&tmp.sub("replica"))
            .unwrap()
            .into_iter()
            .next()
            .expect("seal snapshot exists");
        prop_assert_eq!(seal_lsn, u64::from(n));
        let sealed = snapshot::decode_snapshot(&std::fs::read(seal_path).unwrap())
            .unwrap()
            .store;
        let a = snapshot::encode_snapshot(&sealed, &[], &[], 0);
        let b = snapshot::encode_snapshot(&offline, &[], &[], 0);
        prop_assert!(a == b, "sealed replica store != offline sequential application");

        ship.shutdown();
        engine.shutdown();
    }
}
