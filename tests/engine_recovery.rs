//! Crash-consistency tests for the durable engine.
//!
//! The claim under test: with durability enabled, a crash never makes
//! the engine *lie about QoD*. Updates the engine accepted are either
//! applied, pending (and counted in `#uu`), or — when the log itself
//! was torn or corrupted — visibly truncated and counted, never
//! silently served as fresh data.

use quts::db::{snapshot, wal};
use quts::prelude::*;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Unique scratch directory, removed on drop (even on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("quts-recovery-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
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

fn qc() -> QualityContract {
    QualityContract::step(5.0, 1000.0, 5.0, 1)
}

fn price_of(engine: &Engine, stock: u32) -> f64 {
    let reply = engine
        .submit_query(QueryOp::Lookup(StockId(stock)), qc())
        .expect("engine accepts the query")
        .recv_timeout(Duration::from_secs(10))
        .expect("query answered");
    match reply.result {
        QueryResult::Price(p) => p,
        other => panic!("expected a price, got {other:?}"),
    }
}

/// Polls until `stock` reads `expected` (updates apply asynchronously).
fn await_price(engine: &Engine, stock: u32, expected: f64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if price_of(engine, stock) == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "stock {stock} never reached price {expected}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A durable engine config over `dir` at the default knobs.
fn durable(dir: &Path) -> EngineConfig {
    EngineConfig::default().with_durability(DurabilityConfig::new(dir))
}

/// Every file in `dir`, by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn await_restarts(engine: &Engine, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().engine_restarts < n {
        assert!(Instant::now() < deadline, "supervisor never restarted");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn clean_shutdown_then_recover_is_fresh_and_complete() {
    let tmp = TempDir::new("clean");
    let cfg = EngineConfig::default()
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..4u32 {
        engine
            .submit_update(trade(i, 11.0 * f64::from(i + 1)))
            .unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!(stats.updates_applied, 4, "shutdown drains the backlog");

    // A clean shutdown snapshots everything: recovery replays nothing,
    // owes nothing, and serves the applied prices as fresh.
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.recovery_replayed_updates, 0);
    assert_eq!(stats.pending_updates, 0);
    assert_eq!(stats.wal_truncated_bytes, 0);
    assert_eq!(stats.snapshot_last_lsn, 4);
    for i in 0..4u32 {
        assert_eq!(price_of(&engine, i), 11.0 * f64::from(i + 1));
    }
    engine.shutdown();
}

#[test]
fn crash_mid_stream_loses_nothing_at_fsync_always() {
    let tmp = TempDir::new("crash-always");
    let cfg = EngineConfig::default()
        .with_seed(11)
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always))
        .with_restart_on_panic(1)
        .with_restart_backoff(Duration::from_millis(1))
        .with_fault_plan(FaultPlan::default().panic_after(3));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..5u32 {
        engine.submit_update(trade(i, 10.0 + f64::from(i))).unwrap();
    }

    // The injected panic kills the scheduler mid-stream; the supervisor
    // rebuilds store + pending queue from snapshot + WAL tail. Every
    // accepted update was logged before enqueue, so none is lost.
    await_restarts(&engine, 1);
    for i in 0..5u32 {
        await_price(&engine, i, 10.0 + f64::from(i));
    }
    let stats = engine.shutdown();
    assert!(
        stats.recovery_replayed_updates >= 3,
        "the WAL tail was replayed (got {})",
        stats.recovery_replayed_updates
    );
    assert_eq!(stats.wal_truncated_bytes, 0);
}

#[test]
fn torn_append_truncates_and_loses_only_that_update() {
    let tmp = TempDir::new("torn");
    let cfg = EngineConfig::default()
        .with_seed(12)
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always))
        .with_restart_on_panic(1)
        .with_restart_backoff(Duration::from_millis(1))
        .with_fault_plan(FaultPlan::default().wal_torn_append(3));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..5u32 {
        engine
            .submit_update(trade(i, 200.0 + f64::from(i)))
            .unwrap();
    }

    // The third append is torn mid-frame (fail-stop panic); recovery
    // truncates the torn bytes and replays the intact prefix. Updates
    // still queued in the submission channel survive and are re-logged
    // by the restarted scheduler — only the torn update is lost.
    await_restarts(&engine, 1);
    for i in [0u32, 1, 3, 4] {
        await_price(&engine, i, 200.0 + f64::from(i));
    }
    assert_eq!(price_of(&engine, 2), 100.0, "the torn update never applies");
    let stats = engine.shutdown();
    assert_eq!(
        stats.wal_truncated_bytes,
        wal::FRAME_HEADER as u64,
        "exactly the torn frame prefix was cut"
    );
    assert!(stats.wal_io_errors >= 1);
}

#[test]
fn corrupt_record_is_detected_and_cut_never_served() {
    let tmp = TempDir::new("corrupt");
    let cfg = EngineConfig::default()
        .with_seed(13)
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always))
        .with_restart_on_panic(1)
        .with_restart_backoff(Duration::from_millis(1))
        // The corruption itself is silent (that is the point); a later
        // injected panic forces the recovery that discovers it.
        .with_fault_plan(FaultPlan::default().wal_corrupt_append(2).panic_after(3));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..3u32 {
        engine
            .submit_update(trade(i, 300.0 + f64::from(i)))
            .unwrap();
    }

    // Replay stops at the corrupt record: the first update survives,
    // the corrupted one and everything logged after it are truncated —
    // detected and counted, never served as valid data.
    await_restarts(&engine, 1);
    await_price(&engine, 0, 300.0);
    assert_eq!(price_of(&engine, 1), 100.0, "corrupt record never applies");
    assert_eq!(
        price_of(&engine, 2),
        100.0,
        "records after the cut are gone"
    );
    let stats = engine.shutdown();
    assert!(stats.wal_truncated_bytes > 0);
}

#[test]
fn hard_append_failure_poisons_then_offline_recovery_restores() {
    let tmp = TempDir::new("hard-fail");
    let cfg = EngineConfig::default()
        .with_seed(14)
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always))
        .with_fault_plan(FaultPlan::default().wal_fail_append(4));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..5u32 {
        engine
            .submit_update(trade(i, 400.0 + f64::from(i)))
            .unwrap();
    }

    // The fourth append fails hard. Without a restart budget the engine
    // poisons itself rather than running on with a durability hole.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.state() == EngineState::Running {
        assert!(Instant::now() < deadline, "never poisoned");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(engine.state(), EngineState::Poisoned);
    engine.shutdown();

    // Offline, db-level recovery sees exactly the three logged updates:
    // baseline store, three pending trades, one missed count each. This
    // is the reference replay the engine-level recovery must match.
    let rec = snapshot::recover(tmp.path()).unwrap();
    assert_eq!(rec.replayed, 3);
    assert_eq!(rec.next_lsn, 4);
    assert_eq!(rec.pending.len(), 3);
    for (i, t) in rec.pending.iter().enumerate() {
        assert_eq!(t.stock, StockId(i as u32));
        assert_eq!(t.price, 400.0 + i as f64);
    }
    for i in 0..5usize {
        assert_eq!(
            rec.store.record(StockId(i as u32)).price(),
            100.0,
            "tail updates stay pending, not applied"
        );
        let want = u64::from(i < 3);
        assert_eq!(rec.tracker.missed_counts()[i], want, "#uu for stock {i}");
    }

    // Engine-level recovery over the same directory owes the same three
    // updates and applies them.
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    assert_eq!(engine.stats().recovery_replayed_updates, 3);
    for i in 0..3u32 {
        await_price(&engine, i, 400.0 + f64::from(i));
    }
    assert_eq!(price_of(&engine, 3), 100.0, "the failed append is lost");
    assert_eq!(price_of(&engine, 4), 100.0, "poison discards queued work");
    engine.shutdown();

    // After the clean shutdown, a fresh recovery replays nothing: the
    // final snapshot covers everything.
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    assert_eq!(engine.stats().recovery_replayed_updates, 0);
    for i in 0..3u32 {
        assert_eq!(price_of(&engine, i), 400.0 + f64::from(i));
    }
    engine.shutdown();
}

#[test]
fn fsync_error_is_fail_stop_and_recovery_keeps_the_record() {
    let tmp = TempDir::new("fsync-fail");
    let cfg = EngineConfig::default()
        .with_seed(15)
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always))
        .with_restart_on_panic(1)
        .with_restart_backoff(Duration::from_millis(1))
        .with_fault_plan(FaultPlan::default().wal_fsync_fail(2));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..3u32 {
        engine
            .submit_update(trade(i, 500.0 + f64::from(i)))
            .unwrap();
    }

    // An fsync error is fail-stop (the PostgreSQL lesson: retrying a
    // failed fsync can silently drop the write). The record *was*
    // appended, so in-process recovery replays it — nothing is lost.
    await_restarts(&engine, 1);
    for i in 0..3u32 {
        await_price(&engine, i, 500.0 + f64::from(i));
    }
    let stats = engine.shutdown();
    assert!(stats.wal_io_errors >= 1);
    assert_eq!(stats.engine_restarts, 1);
}

#[test]
fn restart_without_durability_counts_shed_work_honestly() {
    // No durability: a panic-restart loses pending work. The satellite
    // guarantee is that the loss is *counted*, per class, not silent.
    let cfg = EngineConfig::default()
        .with_seed(16)
        .with_restart_on_panic(1)
        .with_restart_backoff(Duration::from_millis(1))
        .with_fault_plan(
            FaultPlan::default()
                .panic_after(2)
                .stall_per_txn(Duration::from_millis(150)),
        );
    let engine = Engine::start(Store::with_synthetic_stocks(8), cfg);

    // Transaction 1: one update, applied (slowly — the stall holds the
    // scheduler while we pile up doomed work behind it). Wait until the
    // scheduler has *ingested* the update (the depth gauge is refreshed
    // on the ingest path) — it is then alone in transaction 1, sitting
    // in the 150 ms stall, and everything submitted below lands behind
    // it, doomed to transaction 2's injected panic.
    engine.submit_update(trade(0, 600.0)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let s = engine.stats();
        if s.pending_updates >= 1 || s.updates_applied >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "update never ingested"
        );
        std::thread::yield_now();
    }
    let mut tickets = Vec::new();
    for i in 0..2u32 {
        tickets.push(
            engine
                .submit_query(QueryOp::Lookup(StockId(i)), qc())
                .expect("admitted during the stall"),
        );
    }
    for i in 1..6u32 {
        engine
            .submit_update(trade(i, 600.0 + f64::from(i)))
            .unwrap();
    }

    // Transaction 2 panics before touching any of it. Every pending
    // query resolves with a clean error; every pending update is gone.
    await_restarts(&engine, 1);
    for t in &tickets {
        assert!(
            !matches!(
                t.recv_timeout(Duration::from_secs(10)),
                Err(QueryError::Timeout)
            ),
            "ticket hung across the restart"
        );
    }
    await_price(&engine, 0, 600.0); // applied before the crash: survives
    for i in 1..6u32 {
        assert_eq!(price_of(&engine, i), 100.0, "unlogged update is lost");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.shed_on_restart_updates, 5, "lost updates are counted");
    assert_eq!(stats.shed_on_restart_queries, 2, "lost queries are counted");
    assert_eq!(stats.pending_updates, 0, "no ghost backlog after restart");
}

#[test]
fn power_loss_respects_the_fsync_window() {
    // db-level: EveryN(4) bounds the loss to the unsynced window;
    // Always loses nothing. `truncate_to_synced` is the power plug.
    for (fsync, expect) in [(FsyncPolicy::EveryN(4), 8u64), (FsyncPolicy::Always, 10)] {
        let tmp = TempDir::new(&format!("power-{expect}"));
        snapshot::open(tmp.path(), Store::with_synthetic_stocks(16)).unwrap();
        let mut w = wal::Wal::create(tmp.path(), fsync, 1 << 20, 1).unwrap();
        for i in 0..10u32 {
            w.append(&wal::encode_trade(&trade(i, f64::from(i))))
                .unwrap();
        }
        w.truncate_to_synced().unwrap();
        drop(w);
        let rec = snapshot::recover(tmp.path()).unwrap();
        assert_eq!(rec.replayed, expect, "fsync {fsync:?}");
        assert_eq!(rec.pending.len(), expect as usize);
        assert_eq!(rec.next_lsn, expect + 1);
    }
}

#[test]
fn init_and_recover_error_paths() {
    let tmp = TempDir::new("errors");
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), durable(tmp.path())).unwrap();
    assert_eq!(engine.submit_update(trade(1, 41.0)), Ok(()));
    engine.shutdown();

    // Starting over an initialised directory recovers it: it is never
    // initialised over, so the history it holds is what serves.
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), durable(tmp.path())).unwrap();
    assert_eq!(price_of(&engine, 1), 41.0);
    engine.shutdown();

    // A directory that was never initialised is initialised, even one
    // nested below a missing parent.
    let missing = tmp.path().join("never").join("initialised");
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), durable(&missing)).unwrap();
    assert_eq!(engine.stats().wal_last_lsn, 0);
    engine.shutdown();
    assert!(missing.join(snapshot::MANIFEST_NAME).exists());
}

/// The benchmark creates an empty directory before it starts a
/// durable server; a missing one is created. Both are initialised from
/// the given store and owe nothing.
#[test]
fn a_missing_or_empty_directory_is_initialised() {
    let tmp = TempDir::new("fresh");
    for dir in [tmp.path().to_path_buf(), tmp.path().join("missing")] {
        let mut store = Store::with_synthetic_stocks(4);
        store.apply_update(&trade(2, 7.0));
        let engine = Engine::try_start(store, durable(&dir)).unwrap();
        let stats = engine.stats();
        assert_eq!(
            (
                stats.wal_last_lsn,
                stats.snapshot_last_lsn,
                stats.pending_updates
            ),
            (0, 0, 0)
        );
        assert_eq!(stats.recovery_replayed_updates, 0);
        assert_eq!(price_of(&engine, 2), 7.0, "the given store serves");
        engine.shutdown();
        let rec = snapshot::recover(&dir).unwrap();
        assert_eq!(rec.store.record(StockId(2)).price(), 7.0);
    }
}

/// A start over an initialised directory owes exactly what the stopped
/// engine owed: its prices, its pending queue and every item's `#uu`.
#[test]
fn an_initialised_directory_restarts_with_its_prices_uu_and_pending_queue() {
    let tmp = TempDir::new("restart");
    // Two updates applied and snapshotted at a clean shutdown...
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    engine.submit_update(trade(5, 55.0)).unwrap();
    engine.submit_update(trade(6, 66.0)).unwrap();
    engine.shutdown();
    // ...then three logged updates that never apply: the fourth append
    // fails, and the engine poisons before a snapshot covers them.
    let cfg = durable(tmp.path()).with_fault_plan(FaultPlan::default().wal_fail_append(4));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..4u32 {
        engine
            .submit_update(trade(i, 700.0 + f64::from(i)))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.state() == EngineState::Running {
        assert!(Instant::now() < deadline, "never poisoned");
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.shutdown();

    // The restart runs queries ahead of updates and stalls before each
    // transaction, so the queue it recovered is still whole when it is
    // read, and a query on the last pending item runs before its update.
    let cfg = durable(tmp.path())
        .with_policy(quts::engine::LivePolicy::QueryHigh)
        .with_fault_plan(FaultPlan::default().stall_per_txn(Duration::from_millis(100)));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.recovery_replayed_updates, 3);
    assert_eq!(stats.pending_updates, 3);
    assert_eq!((stats.snapshot_last_lsn, stats.wal_last_lsn), (2, 5));
    let reply = engine
        .submit_query(QueryOp::Lookup(StockId(2)), qc())
        .unwrap()
        .recv_timeout(Duration::from_secs(10))
        .unwrap();
    assert_eq!(reply.result, QueryResult::Price(100.0), "still pending");
    assert_eq!(reply.staleness, 1.0, "its #uu came back with it");
    for i in 0..3u32 {
        await_price(&engine, i, 700.0 + f64::from(i));
    }
    assert_eq!(price_of(&engine, 3), 100.0, "the failed append is lost");
    assert_eq!(price_of(&engine, 5), 55.0);
    assert_eq!(price_of(&engine, 6), 66.0);
    let stats = engine.shutdown();
    assert_eq!(stats.updates_applied, 3);
}

/// The given store names the universe the directory must hold; another
/// one of the same size is refused before a byte changes.
#[test]
fn a_directory_of_other_symbols_is_refused_and_left_as_it_was() {
    let tmp = TempDir::new("universe");
    let engine = Engine::try_start(Store::with_synthetic_stocks(3), durable(tmp.path())).unwrap();
    engine.submit_update(trade(0, 12.5)).unwrap();
    engine.shutdown();
    let before = dir_bytes(tmp.path());
    let mut other = Store::new();
    for symbol in ["IBM", "AOL", "GE"] {
        other.insert(symbol, 100.0);
    }
    let err = Engine::try_start(other, durable(tmp.path()))
        .err()
        .expect("another universe is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(dir_bytes(tmp.path()), before);
}

/// A MANIFEST with no decodable snapshot is an initialised directory
/// that cannot be read: an error, never a fresh start over its WAL.
#[test]
fn a_manifest_without_a_decodable_snapshot_is_never_initialised_over() {
    let tmp = TempDir::new("undecodable");
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), durable(tmp.path())).unwrap();
    engine.submit_update(trade(0, 12.5)).unwrap();
    engine.shutdown();
    for (_, path) in snapshot::snapshot_files(tmp.path()).unwrap() {
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }
    let before = dir_bytes(tmp.path());
    let err = Engine::try_start(Store::with_synthetic_stocks(4), durable(tmp.path()))
        .err()
        .expect("an unreadable directory is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    assert_eq!(dir_bytes(tmp.path()), before);
}

/// A running engine holds its directory: a second start over it is
/// refused without touching a file, and succeeds once the first stops.
#[test]
fn a_live_directory_has_one_writer() {
    let tmp = TempDir::new("lock");
    let cfg = EngineConfig::default()
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always));
    let first = Engine::try_start(Store::with_synthetic_stocks(4), cfg.clone()).unwrap();
    first
        .submit_update_durable(trade(3, 33.0))
        .unwrap()
        .recv()
        .unwrap();
    let before = dir_bytes(tmp.path());
    let err = Engine::try_start(Store::with_synthetic_stocks(4), cfg.clone())
        .err()
        .expect("a second writer is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    assert_eq!(dir_bytes(tmp.path()), before);
    assert_eq!(first.state(), EngineState::Running);
    await_price(&first, 3, 33.0);
    first.shutdown();

    let second = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    assert_eq!(price_of(&second, 3), 33.0);
    second.shutdown();
}

#[test]
fn enospc_is_fail_stop_and_recovery_survives_it() {
    let tmp = TempDir::new("enospc");
    let cfg = EngineConfig::default()
        .with_seed(14)
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always))
        .with_restart_on_panic(1)
        .with_restart_backoff(Duration::from_millis(1))
        .with_fault_plan(FaultPlan::default().wal_enospc(3));
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..5u32 {
        engine
            .submit_update(trade(i, 400.0 + f64::from(i)))
            .unwrap();
    }

    // The third append hits a full disk before a single byte lands.
    // The update cannot be made durable, so the engine must fail-stop
    // (never ack-and-hope) and let the supervisor rebuild from
    // snapshot + WAL tail. Updates still queued in the submission
    // channel survive the restart; only the ENOSPC'd one is lost.
    await_restarts(&engine, 1);
    for i in [0u32, 1, 3, 4] {
        await_price(&engine, i, 400.0 + f64::from(i));
    }
    assert_eq!(
        price_of(&engine, 2),
        100.0,
        "the ENOSPC'd update must never apply — it was not durable"
    );
    let stats = engine.shutdown();
    assert!(stats.wal_io_errors >= 1, "the failed append was counted");
    assert_eq!(
        stats.wal_truncated_bytes, 0,
        "ENOSPC wrote nothing, so recovery truncates nothing"
    );
    assert_eq!(stats.engine_restarts, 1);
}
