//! Autopilot-failover chaos matrix: kill, partition, zombie.
//!
//! The claims under test:
//!
//! 1. **Kill**: when the primary's scheduler dies in-process, the
//!    controller notices via the engine's lifecycle state, promotes the
//!    most-durable replica at a bumped term, re-points the router, and
//!    nothing any replica acked durable is lost.
//! 2. **Partition**: when the shipping links go dark while the primary
//!    stays alive, the detector distinguishes this from a crash (the
//!    verdict is `Partition` once the freshest heartbeat is older than
//!    the deadline) and fails over; the demoted zombie is fenced by the
//!    term, not by luck.
//! 3. **Zombie**: a resurrected old-term primary cannot feed a replica
//!    that has adopted the newer term — the session is refused with no
//!    state mutation — and a newer-term replica knocking on the
//!    zombie's listener is fenced there too. At most one primary per
//!    term, in both directions.
//! 4. The fencing term in a MANIFEST is monotone under arbitrary
//!    bump/publish/recover schedules (property test).

use quts::db::snapshot;
use quts::engine::QUERY_WAIT;
use quts::prelude::*;
use quts_conformance::{
    at_most_one_primary_per_term, no_acked_loss_across_failover, replica_consistent,
    wal_contiguous_after_snapshot,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Iteration scale: `QUTS_TEST_ITERS=full` (CI) runs the full volume.
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
        let dir =
            std::env::temp_dir().join(format!("quts-failover-test-{}-{tag}", std::process::id()));
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

fn primary_config(dir: &Path) -> EngineConfig {
    EngineConfig::default()
        .with_durability(DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Always))
}

fn replica_config(name: &str, dir: PathBuf) -> ReplicaConfig {
    ReplicaConfig::new(name, dir)
        .with_ack_every(1)
        .with_backoff(Duration::from_millis(1), Duration::from_millis(20))
}

/// The test controller's heartbeat deadline (polled every 18 ms).
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(180);

/// A controller tuned for test time, armed to fail over on its own.
fn fast_controller() -> ControllerConfig {
    ControllerConfig::default()
        .with_heartbeat_timeout(HEARTBEAT_TIMEOUT)
        .with_auto_failover(true)
}

/// Builds a two-replica cluster over `tmp`, optionally injecting a
/// scheduler fault into the founding primary and a link fault into its
/// shipper. Returns the cluster; the router is reachable through it.
/// The promoted engines and listeners do not inherit the injected
/// faults: `launch` clears them from its failover templates.
fn build_cluster(
    tmp: &TempDir,
    primary_fault: Option<FaultPlan>,
    link_fault: Option<LinkFaultPlan>,
) -> Cluster {
    let mut engine_cfg = primary_config(&tmp.sub("primary"));
    if let Some(f) = primary_fault {
        engine_cfg = engine_cfg.with_fault_plan(f);
    }
    let mut ship_cfg = ShipConfig::default().with_heartbeat(Duration::from_millis(10));
    if let Some(f) = link_fault {
        ship_cfg = ship_cfg.with_fault(f);
    }
    let replicas = vec![
        replica_config("r1", tmp.sub("r1")),
        replica_config("r2", tmp.sub("r2")),
    ];
    Cluster::launch(
        Store::with_synthetic_stocks(8),
        &engine_cfg,
        Some(ship_cfg),
        replicas,
        fast_controller(),
    )
    .unwrap()
}

/// Durably writes `n` phase-1 trades to stocks `0..4` through the
/// cluster's primary and waits until every replica has fsync'd all of
/// them. Returns the replica-acked durable floor (== `n`).
fn replicate_baseline(cluster: &Cluster, n: u32) -> u64 {
    for i in 0..n {
        cluster
            .primary()
            .submit_update_durable(trade(i % 4, 100.0 + f64::from(i)))
            .unwrap()
            .recv()
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = cluster.router().replica_stats();
        if stats.len() == 2 && stats.iter().all(|s| s.durable_lsn >= u64::from(n)) {
            return u64::from(n);
        }
        assert!(
            Instant::now() < deadline,
            "replicas never replicated the baseline: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Waits for the controller to complete its first failover.
fn await_failover(cluster: &Cluster) -> FailoverReport {
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster.stats().failovers == 0 {
        assert!(
            Instant::now() < deadline,
            "controller never failed over: {:?}",
            cluster.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.reports().remove(0)
}

/// Reads one stock through the router under a strict one-update
/// staleness bound.
fn routed_price(cluster: &Cluster, stock: u32) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let answer = cluster
            .router()
            .dispatch(
                QueryOp::Lookup(StockId(stock)),
                QualityContract::step(5.0, 1_000.0, 5.0, 1),
            )
            .map(|ticket| ticket.recv_timeout(QUERY_WAIT));
        match answer {
            Ok(Ok(reply)) => match reply.result {
                QueryResult::Price(p) => return p,
                other => panic!("expected a price, got {other:?}"),
            },
            // Racing the re-point: in-flight reads may land on a dead
            // or busy handle — as an error, never a stale answer.
            Err(SubmitError::EngineDown | SubmitError::QueueFull)
            | Ok(Err(QueryError::EngineDown | QueryError::Timeout)) => {
                assert!(Instant::now() < deadline, "router never recovered");
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(Err(e)) => panic!("routed read failed: {e:?}"),
        }
    }
}

/// Shared epilogue: acked-floor coverage, baseline values intact, term
/// log clean, router audit clean, survivor reconverged.
fn assert_recovered(cluster: &Cluster, report: &FailoverReport, floor: u64, baseline: u32) {
    // Zero acked-durable loss: the promoted WAL covers the floor...
    let promoted_stats = cluster.primary().stats();
    no_acked_loss_across_failover(
        floor,
        promoted_stats
            .wal_last_lsn
            .max(promoted_stats.snapshot_last_lsn),
    )
    .expect("acked-durable floor covered");
    // ...and the acked *values* re-read exactly through the new regime
    // (phase-2 noise went to stocks 4..8 only).
    for s in 0..4u32 {
        let last = (0..baseline).filter(|i| i % 4 == s).max().unwrap();
        assert_eq!(
            routed_price(cluster, s),
            100.0 + f64::from(last),
            "stock {s}: replica-acked write lost across failover"
        );
    }

    // Exactly one promotion, at term 1, and the log is per-term unique.
    let stats = cluster.stats();
    assert_eq!(stats.failovers, 1, "{stats:?}");
    assert_eq!(stats.term, 1);
    assert_eq!(report.term, 1);
    let promotions: Vec<(u64, String)> = cluster
        .reports()
        .into_iter()
        .map(|r| (r.term, r.promoted))
        .collect();
    assert_eq!(promotions.len(), 1);
    at_most_one_primary_per_term(&promotions).expect("term uniqueness");
    assert!(report.mttr_us >= report.promote_us + report.repoint_us);

    // The router swapped primaries exactly once and its dispatch-time
    // QoD audit stayed clean through the swap.
    let r = cluster.router().stats();
    assert_eq!(r.repoints, 1, "{r:?}");
    assert_eq!(r.qod_violations, 0, "{r:?}");

    // The new primary is a real primary: it accepts durable writes...
    let new_lsn = cluster
        .primary()
        .submit_update_durable(trade(0, 9_999.0))
        .unwrap()
        .recv()
        .unwrap();
    // ...and the restarted survivor reconverges onto the new history.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = cluster.router().replica_stats();
        if stats.iter().any(|s| s.applied_lsn >= new_lsn) {
            for s in &stats {
                replica_consistent(s).expect("survivor accounting");
            }
            break;
        }
        assert!(
            Instant::now() < deadline,
            "survivor never reconverged: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn crash_is_detected_and_failover_loses_no_acked_update() {
    let tmp = TempDir::new("kill");
    let baseline = iters(32, 256) as u32;
    // The scheduler panics mid-phase-2; restarts are disabled, so the
    // engine poisons and the detector gets a Crash verdict.
    let fault = FaultPlan::default().panic_after(u64::from(baseline) + 8);
    let cluster = build_cluster(&tmp, Some(fault), None);
    let floor = replicate_baseline(&cluster, baseline);

    // Phase 2: live fire-and-forget load on stocks 4..8 until the
    // primary dies under it. No durability claim is made for these.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut i = 0u32;
    while cluster.stats().failovers == 0 {
        let _ = cluster
            .primary()
            .submit_update(trade(4 + (i % 4), 500.0 + f64::from(i)));
        i += 1;
        assert!(Instant::now() < deadline, "primary never died");
        std::thread::sleep(Duration::from_millis(1));
    }

    let report = await_failover(&cluster);
    assert_eq!(report.verdict, FailureVerdict::Crash, "{report:?}");
    assert_recovered(&cluster, &report, floor, baseline);
    cluster.shutdown();

    // Every surviving directory still replays as a gap-free sequence.
    wal_contiguous_after_snapshot(&tmp.sub("r1")).expect("r1 WAL contiguity");
    wal_contiguous_after_snapshot(&tmp.sub("r2")).expect("r2 WAL contiguity");
}

#[test]
fn partition_is_distinguished_from_crash_and_failed_over() {
    let tmp = TempDir::new("partition");
    let baseline = iters(32, 256) as u32;
    // After `baseline + 8` shipped frames each link goes dark — frames
    // and heartbeats stop but the TCP sessions stay up and the engine
    // keeps running: a partition, not a crash.
    let fault = LinkFaultPlan::default().partition_after(u64::from(baseline) + 8);
    let cluster = build_cluster(&tmp, None, Some(fault));
    let floor = replicate_baseline(&cluster, baseline);

    // Live load pushes the links past the partition point. The zombie
    // primary happily keeps applying — none of this is replica-acked.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut i = 0u32;
    while cluster.stats().failovers == 0 {
        let _ = cluster
            .primary()
            .submit_update(trade(4 + (i % 4), 500.0 + f64::from(i)));
        i += 1;
        assert!(Instant::now() < deadline, "partition never detected");
        std::thread::sleep(Duration::from_millis(1));
    }

    let report = await_failover(&cluster);
    assert_eq!(report.verdict, FailureVerdict::Partition, "{report:?}");
    // `detect_us` is how long the links had been dark at the verdict:
    // the freshest heartbeat age, past the deadline.
    assert!(
        report.detect_us >= HEARTBEAT_TIMEOUT.as_micros() as u64,
        "{report:?}"
    );
    assert_recovered(&cluster, &report, floor, baseline);
    cluster.shutdown();
}

#[test]
fn zombie_primary_is_fenced_in_both_directions() {
    let tmp = TempDir::new("zombie");
    let n = iters(24, 128) as u32;

    // A hand-wired term-0 cluster: primary A shipping to r1 and r2.
    let engine_a = Engine::try_start(
        Store::with_synthetic_stocks(8),
        primary_config(&tmp.sub("primary")),
    )
    .unwrap();
    let ship_a = ShipListener::start(
        &engine_a.handle(),
        ShipConfig::default().with_heartbeat(Duration::from_millis(10)),
    )
    .unwrap();
    let r1 = Replica::start(ship_a.addr(), replica_config("r1", tmp.sub("r1"))).unwrap();
    let r2 = Replica::start(ship_a.addr(), replica_config("r2", tmp.sub("r2"))).unwrap();
    for i in 0..n {
        engine_a
            .submit_update_durable(trade(i % 4, 100.0 + f64::from(i)))
            .unwrap()
            .recv()
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while r1.stats().durable_lsn < u64::from(n) || r2.stats().durable_lsn < u64::from(n) {
        assert!(Instant::now() < deadline, "replicas never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Promote r2 at term 1 while A keeps running — the operator lost
    // contact with A, but A does not know it has been deposed.
    let floor = r2.stats().durable_lsn;
    let promoted = promote_at_term(r2, EngineConfig::default(), 1).expect("promotion at term 1");
    no_acked_loss_across_failover(floor, promoted.stats().wal_last_lsn)
        .expect("promotion covers the acked floor");
    assert_eq!(snapshot::manifest_term(&tmp.sub("r2")), 1);

    // Direction 1: the zombie cannot feed a fenced replica. Re-point
    // r1's *directory* at term 1 first (what rejoining the new primary
    // does), then start a replica over it against the zombie listener:
    // the hello advertises term 1, the term-0 listener refuses it (and
    // counts the fence), and no state crosses the wire.
    let r1_frozen = r1.shutdown();
    snapshot::bump_term(tmp.sub("r1"), 1).expect("r1 adopts term 1");
    let r1_zombie_side =
        Replica::start(ship_a.addr(), replica_config("r1", tmp.sub("r1"))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while ship_a.fenced_total() == 0 {
        assert!(
            Instant::now() < deadline,
            "the zombie listener never fenced the newer-term hello: {:?}",
            r1_zombie_side.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = r1_zombie_side.shutdown();
    assert_eq!(
        after.applied_lsn, r1_frozen.applied_lsn,
        "a fenced session must not mutate replica state"
    );
    assert_eq!(after.frames_applied, 0, "no frame crossed the fence");
    assert_eq!(after.term, 1, "the adopted term survives the refusal");

    // Direction 2: a misbehaving stale primary that *accepts* the hello
    // and announces its old term is fenced by the replica itself — the
    // preamble is rejected before any byte of it is trusted, with no
    // state mutation. (The fake listener below speaks just enough of
    // the wire protocol: swallow the hello, announce TAG_TERM ‖ 0.)
    let fake = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap();
    let stale_primary = std::thread::spawn(move || {
        use std::io::{Read, Write};
        // Serve a handful of sessions; the replica reconnects with
        // backoff and fences each one.
        for _ in 0..64 {
            let Ok((mut s, _)) = fake.accept() else {
                return;
            };
            let mut hello = [0u8; 10];
            if s.read_exact(&mut hello).is_err() {
                continue;
            }
            let name_len = u16::from_le_bytes([hello[8], hello[9]]) as usize;
            let mut rest = vec![0u8; name_len + 16];
            if s.read_exact(&mut rest).is_err() {
                continue;
            }
            // TAG_TERM (6) followed by term 0: a stale announcement.
            let mut preamble = [0u8; 9];
            preamble[0] = 6;
            let _ = s.write_all(&preamble);
            // Hold the socket open until the replica hangs up.
            let mut sink = [0u8; 64];
            while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
        }
    });
    let r1_fake_side = Replica::start(fake_addr, replica_config("r1", tmp.sub("r1"))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while r1_fake_side.stats().fenced == 0 {
        assert!(
            Instant::now() < deadline,
            "replica never fenced the stale-term preamble: {:?}",
            r1_fake_side.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let after_fake = r1_fake_side.shutdown();
    assert_eq!(
        after_fake.applied_lsn, r1_frozen.applied_lsn,
        "a fenced preamble must not mutate replica state"
    );
    assert_eq!(after_fake.frames_applied, 0, "no frame crossed the fence");
    assert_eq!(
        after_fake.term, 1,
        "the persisted term survives the refusal"
    );
    drop(stale_primary); // detached: dies with its listener socket

    // The zombie can still apply its own writes — but nothing it does
    // can reach a fenced replica, so "durable at term 1" is a claim
    // only the promoted primary can make.
    engine_a.submit_update(trade(0, 666.0)).unwrap();

    // At most one primary per term: re-promoting r1's directory at the
    // same term must refuse.
    let r1_again = Replica::start(ship_a.addr(), replica_config("r1", tmp.sub("r1"))).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    match promote_at_term(r1_again, EngineConfig::default(), 1) {
        Err(PromoteError::StaleTerm { current, requested }) => {
            assert_eq!((current, requested), (1, 1));
        }
        Err(other) => panic!("expected StaleTerm, got {other:?}"),
        Ok(_) => panic!("a second primary was minted at term 1"),
    }
    at_most_one_primary_per_term(&[(1, "r2".into())]).expect("single promotion log");

    promoted.shutdown();
    ship_a.shutdown();
    engine_a.shutdown();
}

/// A failover with nothing to promote must refuse *before* touching
/// the old regime: `failover_now` against a replica-less cluster
/// returns `NoCandidate` and the healthy primary keeps serving —
/// listener up, term unchanged, durable writes accepted.
#[test]
fn failover_with_no_candidate_leaves_the_primary_serving() {
    let tmp = TempDir::new("no-candidate");
    let cluster = Cluster::launch(
        Store::with_synthetic_stocks(4),
        &primary_config(&tmp.sub("primary")),
        Some(ShipConfig::default()),
        Vec::new(),
        ControllerConfig::default(),
    )
    .unwrap();
    cluster
        .primary()
        .submit_update_durable(trade(0, 42.0))
        .unwrap()
        .recv()
        .unwrap();

    match cluster.failover_now() {
        Err(PromoteError::NoCandidate) => {}
        other => panic!("expected NoCandidate, got {other:?}"),
    }

    let stats = cluster.stats();
    assert_eq!(stats.failovers, 0, "{stats:?}");
    assert_eq!(
        stats.failed_failovers, 0,
        "a refusal before demotion is not a failed failover"
    );
    assert_eq!(stats.term, 0);
    assert!(
        cluster.ship_addr().is_some(),
        "listener survived the refusal"
    );
    cluster
        .primary()
        .submit_update_durable(trade(1, 43.0))
        .unwrap()
        .recv()
        .unwrap();
    cluster.shutdown();
}

/// A refused failover leaves no failover step in the primary's flight
/// ring: `confirmed` is recorded only once the election has passed, so
/// a primary with nothing to promote does not log a failover that never
/// happened (under `auto_failover` it would log one every poll).
#[test]
fn a_refused_failover_records_no_failover_step() {
    use quts::engine::{TraceConfig, TraceEvent};
    let tmp = TempDir::new("refused-trace");
    let cluster = Cluster::launch(
        Store::with_synthetic_stocks(4),
        &primary_config(&tmp.sub("primary")).with_trace(TraceConfig::full()),
        Some(ShipConfig::default()),
        Vec::new(),
        ControllerConfig::default(),
    )
    .unwrap();

    match cluster.failover_now() {
        Err(PromoteError::NoCandidate) => {}
        other => panic!("expected NoCandidate, got {other:?}"),
    }
    let records = cluster.primary().trace_snapshot().expect("tracing at Full");
    let steps: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Failover { .. }))
        .collect();
    assert!(
        steps.is_empty(),
        "a refused failover was recorded: {steps:?}"
    );
    cluster.shutdown();
}

/// Survivors are matched back to their start configs by name, so a
/// duplicate name could silently restart the wrong replica at
/// failover. The launch refuses the wiring outright, before the
/// primary starts.
#[test]
#[should_panic(expected = "replica names must be unique")]
fn duplicate_replica_names_are_refused_at_cluster_start() {
    let tmp = TempDir::new("dup-names");
    let a_cfg = replica_config("r1", tmp.sub("a"));
    let b_cfg = replica_config("r1", tmp.sub("b"));
    let _ = Cluster::launch(
        Store::with_synthetic_stocks(4),
        &primary_config(&tmp.sub("primary")),
        Some(ShipConfig::default()),
        vec![a_cfg, b_cfg],
        ControllerConfig::default(),
    );
}

// --- Property: MANIFEST terms are monotone under any schedule ---

fn prop_cases() -> u32 {
    match std::env::var("QUTS_TEST_ITERS").as_deref() {
        Ok("full") => 48,
        _ => 12,
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases()))]

    /// Across an arbitrary schedule of term bumps (promotions and
    /// adoptions), re-publishes (snapshot GC and bootstrap rewrite the
    /// MANIFEST) and offline recoveries (crash + rejoin), the persisted
    /// term never decreases, and every refused bump leaves it intact.
    #[test]
    fn manifest_term_is_monotone_across_crash_promote_rejoin(
        ops in proptest::collection::vec((0u8..3, 1u64..12), 1..24),
    ) {
        let tmp = TempDir::new("prop-term");
        let dir = tmp.sub("node");
        std::fs::create_dir_all(&dir).unwrap();
        // Seed a publishable baseline the way a replica bootstrap does.
        let store = Store::with_synthetic_stocks(2);
        snapshot::publish(&dir, &store, &[], &[], 0).unwrap();

        let mut highest = 0u64;
        for (op, arg) in ops {
            let before = snapshot::manifest_term(&dir);
            prop_assert_eq!(before, highest, "term drifted outside the API");
            match op {
                // A promotion or adoption: bump_term is monotone — a
                // stale bump is a silent no-op, never a regression.
                0 => {
                    let after = snapshot::bump_term(&dir, arg).unwrap();
                    prop_assert_eq!(after, highest.max(arg));
                    highest = highest.max(arg);
                }
                // A snapshot re-publish (what GC and bootstrap do)
                // must carry the term forward, not reset it.
                1 => {
                    snapshot::publish(&dir, &store, &[], &[], arg).unwrap();
                }
                // Crash + offline recovery: the manifest read back
                // from disk still carries the term.
                _ => {
                    let rec = snapshot::recover(&dir).unwrap();
                    prop_assert!(rec.next_lsn >= 1);
                }
            }
            prop_assert_eq!(snapshot::manifest_term(&dir), highest);
        }
    }
}
