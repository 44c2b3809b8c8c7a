//! Crash-consistency tests for the durable engine.
//!
//! The claim under test: with durability enabled, a crash never makes
//! the engine *lie about QoD*. Updates the engine accepted are either
//! applied, pending (and counted in `#uu`), or — when the log itself
//! was torn or corrupted — visibly truncated and counted, never
//! silently served as fresh data.
//!
//! IO faults are injected at the file: the durability directory is
//! written through a `SimDir` that breaks its N-th write, file sync or
//! directory sync. A start over a fresh directory first publishes the
//! baseline snapshot (write and file sync 1) and its MANIFEST (write and
//! file sync 2, then directory sync 1). With `FsyncPolicy::Always` and
//! no group commit, write 3 is then the first segment's magic header
//! (directory sync 2), and each update is one write and one file sync
//! after it. A start over an initialised directory writes no baseline:
//! its first write is the new segment's header.

use quts::db::simdir::{SimDir, WriteFault};
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

/// A fault plan that writes the WAL through `sim`.
fn disk(sim: SimDir) -> FaultPlan {
    FaultPlan::default().disk(sim)
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
        .with_fault_plan(disk(
            SimDir::default().fault_write(6, WriteFault::Tear(wal::FRAME_HEADER)),
        ));
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
        // The corruption itself is silent (that is the point); a later
        // injected panic forces the recovery that discovers it.
        .with_fault_plan(
            disk(SimDir::default().fault_write(5, WriteFault::Corrupt(usize::MAX))).panic_after(3),
        );
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
        .with_fault_plan(disk(SimDir::default().fault_write(7, WriteFault::Fail)));
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
        .with_fault_plan(disk(SimDir::default().fail_sync_data(4)));
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

/// Every fsync covers an unsynced append: a snapshot's rotation after an
/// acked update and the shutdown syncs nothing, so ten acked updates
/// under `Always` cost ten fsyncs, cadence snapshots and shutdown
/// included.
#[test]
fn acked_updates_cost_one_fsync_each_across_snapshots_and_shutdown() {
    let tmp = TempDir::new("fsync-count");
    let durability = DurabilityConfig::new(tmp.path())
        .with_fsync(FsyncPolicy::Always)
        .with_snapshot_every(4);
    let cfg = EngineConfig::default().with_durability(durability);
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    for i in 0..10u32 {
        let ticket = engine
            .submit_update_durable(trade(i % 8, f64::from(i)))
            .unwrap();
        assert_eq!(ticket.recv(), Ok(u64::from(i) + 1));
    }
    let stats = engine.shutdown();
    assert_eq!(stats.snapshots_written, 3, "at LSNs 4 and 8, and the seal");
    assert_eq!(stats.wal_fsyncs, 10);
}

#[test]
fn restart_without_durability_counts_shed_work_honestly() {
    // No durability: a panic-restart loses pending work. The satellite
    // guarantee is that the loss is *counted*, per class, not silent.
    let cfg = EngineConfig {
        synthetic_update_cost: Some(Duration::from_millis(150)),
        ..EngineConfig::default()
            .with_seed(16)
            .with_restart_on_panic(1)
            .with_fault_plan(FaultPlan::default().panic_after(2))
    };
    let engine = Engine::start(Store::with_synthetic_stocks(8), cfg);

    // Transaction 1: one update, applied (slowly — its 150 ms service
    // holds the scheduler while we pile up doomed work behind it). Wait
    // until the scheduler has *ingested* the update (the depth gauge is
    // refreshed on the ingest path) — it is then alone in transaction 1,
    // and everything submitted below lands behind it, doomed to
    // transaction 2's injected panic.
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
                .expect("admitted during the slow update"),
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
    // Always loses nothing. `SimDir::power_cut` is the power plug.
    for (fsync, expect) in [(FsyncPolicy::EveryN(4), 8u64), (FsyncPolicy::Always, 10)] {
        let tmp = TempDir::new(&format!("power-{expect}"));
        snapshot::open(tmp.path(), Store::with_synthetic_stocks(16)).unwrap();
        let sim = SimDir::default();
        let mut w = wal::Wal::create(sim.dir(tmp.path()), fsync, 1 << 20, 1).unwrap();
        for i in 0..10u32 {
            w.append(&wal::encode_trade(&trade(i, f64::from(i))))
                .unwrap();
        }
        drop(w);
        sim.power_cut().unwrap();
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
    // Under `Always` each append is its own write, so the fourth is
    // write 5 (write 1 is the new segment's magic header).
    let cfg = always_through(
        DurabilityConfig::new(tmp.path()),
        SimDir::default().fault_write(5, WriteFault::Fail),
    );
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

    // The restart runs queries ahead of updates, and the first recovered
    // update takes 100 ms to apply, so the queue it recovered is still
    // whole when it is read, and a query on the last pending item runs
    // before its update.
    let cfg = EngineConfig {
        synthetic_update_cost: Some(Duration::from_millis(100)),
        ..durable(tmp.path()).with_policy(quts::engine::LivePolicy::QueryHigh)
    };
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

/// A QUTS knob the scheduler would panic on is refused at the start,
/// before the durability directory exists: an engine that started on
/// it would be down at its first query, its directory locked.
#[test]
fn a_quts_knob_the_scheduler_refuses_fails_the_start() {
    let tmp = TempDir::new("knobs");
    let dir = tmp.path().join("data");
    let knob = |set: fn(&mut EngineConfig)| {
        let mut cfg = EngineConfig::default().with_durability(DurabilityConfig::new(&dir));
        set(&mut cfg);
        cfg
    };
    for (bad, why) in [
        (knob(|c| c.quts.alpha = 0.0), "alpha"),
        (knob(|c| c.quts.initial_rho = 2.0), "rho"),
        (knob(|c| c.quts.tau = SimDuration::ZERO), "atom time"),
        (knob(|c| c.quts.omega = SimDuration::ZERO), "adaptation"),
    ] {
        let err = Engine::try_start(Store::with_synthetic_stocks(4), bad)
            .err()
            .unwrap_or_else(|| panic!("a bad {why} knob started"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(why), "{err}");
        assert!(!dir.exists(), "the {why} refusal created the directory");
    }
    // A fixed-priority engine has no atoms and no ρ: QUTS's knobs are
    // not its own.
    let uh = knob(|c| c.quts.alpha = 0.0).with_policy(quts::engine::LivePolicy::UpdateHigh);
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), uh).unwrap();
    engine.shutdown();
}

#[test]
fn enospc_is_fail_stop_and_recovery_survives_it() {
    let tmp = TempDir::new("enospc");
    let cfg = EngineConfig::default()
        .with_seed(14)
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always))
        .with_restart_on_panic(1)
        .with_fault_plan(disk(SimDir::default().fault_write(6, WriteFault::Enospc)));
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

/// Submits `trades` one at a time, each waiting for its durable ack;
/// returns the ones acked.
fn submit_acked(engine: &Engine, trades: impl IntoIterator<Item = Trade>) -> Vec<Trade> {
    trades
        .into_iter()
        .filter(|&t| {
            engine
                .submit_update_durable(t)
                .is_ok_and(|ticket| ticket.recv_timeout(Duration::from_secs(10)).is_ok())
        })
        .collect()
}

/// An engine config over `dcfg` under `FsyncPolicy::Always`, its WAL
/// written through `sim`.
fn always_through(dcfg: DurabilityConfig, sim: SimDir) -> EngineConfig {
    EngineConfig::default()
        .with_durability(dcfg.with_fsync(FsyncPolicy::Always))
        .with_fault_plan(disk(sim))
}

/// The writer's first directory sync (the start's second, after the
/// MANIFEST's) is the one that makes its first segment's name durable:
/// when it fails, the start fails.
#[test]
fn a_failed_directory_sync_in_wal_create_fails_the_start() {
    let tmp = TempDir::new("create-dir-sync");
    let cfg = always_through(
        DurabilityConfig::new(tmp.path()),
        SimDir::default().fail_sync_dir(2),
    );
    let err = Engine::try_start(Store::with_synthetic_stocks(4), cfg)
        .err()
        .expect("the start returns the sync's error");
    assert!(err.to_string().contains("directory sync"), "{err}");
    // Nothing was acked over the directory; a later start opens it.
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), durable(tmp.path())).unwrap();
    assert_eq!(engine.stats().wal_last_lsn, 0);
    engine.shutdown();
}

/// A segment fills after three frames, so the fourth append rotates,
/// and that rotation's directory sync (the writer's second, the start's
/// third) fails: the
/// append fail-stops, the restart recovers, and every acked update
/// reads back, then and after a restart.
#[test]
fn a_failed_size_rotation_is_fail_stop_and_keeps_every_acked_lsn() {
    let tmp = TempDir::new("size-rotation");
    let three_frames = wal::SEGMENT_MAGIC.len() + 3 * (wal::FRAME_HEADER + wal::TRADE_PAYLOAD);
    let cfg = always_through(
        DurabilityConfig::new(tmp.path()).with_segment_bytes(three_frames as u64),
        SimDir::default().fail_sync_dir(3),
    )
    .with_restart_on_panic(1);
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    let acked = submit_acked(&engine, (0..6u32).map(|i| trade(i, 900.0 + f64::from(i))));
    assert_eq!(
        acked.iter().map(|t| t.stock.0).collect::<Vec<_>>(),
        [0, 1, 2, 4, 5],
        "only the update whose append rotated went unacked"
    );
    for t in &acked {
        await_price(&engine, t.stock.0, t.price);
    }
    let stats = engine.shutdown();
    assert_eq!(
        stats.engine_restarts, 1,
        "the failed rotation was fail-stop"
    );
    assert!(stats.wal_io_errors >= 1);

    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    for t in &acked {
        assert_eq!(price_of(&engine, t.stock.0), t.price);
    }
    assert_eq!(price_of(&engine, 3), 100.0, "the unacked update is lost");
    engine.shutdown();
}

/// Every rotation of the first run fails at its directory sync, the
/// first at the first snapshot (directory syncs 1 and 2 are the
/// baseline MANIFEST's and the first segment's). That rotation is
/// fail-stop. Were it
/// counted and run on, the run would ack records into the old segment
/// past the name of the segment the rotation left behind; the next
/// start cuts the log at that stale segment, and the start after it
/// deletes what the second run acked.
#[test]
fn a_failed_snapshot_rotation_is_fail_stop_and_keeps_every_acked_lsn() {
    let tmp = TempDir::new("snapshot-rotation");
    let every_rotation = (3..=17).fold(SimDir::default(), SimDir::fail_sync_dir);
    let cfg = always_through(
        DurabilityConfig::new(tmp.path()).with_snapshot_every(2),
        every_rotation,
    );
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    let mut acked = submit_acked(&engine, (0..4u32).map(|i| trade(i, 800.0 + f64::from(i))));
    engine.shutdown();

    // A second run crashes before any snapshot: its third append (write
    // 4, after the new segment's magic header) fails.
    let sim = SimDir::default().fault_write(4, WriteFault::Fail);
    let cfg = always_through(DurabilityConfig::new(tmp.path()), sim);
    let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
    acked.extend(submit_acked(
        &engine,
        (4..8u32).map(|i| trade(i, 800.0 + f64::from(i))),
    ));
    assert_eq!(engine.shutdown().wal_io_errors, 1);

    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    for t in &acked {
        await_price(&engine, t.stock.0, t.price);
    }
    engine.shutdown();
    // The first run acked the two appends before its first snapshot was
    // due, and a third when it reached the inbox before the cadence
    // check; never a fourth. The second run acked the two before its
    // failed write.
    let stocks: Vec<u32> = acked.iter().map(|t| t.stock.0).collect();
    assert!(
        stocks == [0, 1, 4, 5] || stocks == [0, 1, 2, 4, 5],
        "{stocks:?}"
    );
}

#[test]
fn a_failed_write_sheds_its_group_and_a_failed_sync_sheds_none() {
    // One acked update per group: writes 1 and 2 are the baseline
    // snapshot and MANIFEST (file syncs 1 and 2), write 3 the magic
    // header, then each group is one write and one `sync_data`, so index
    // 5 / 4 breaks the second update's group. A failed write drops the
    // group's frame; a failed sync leaves it written, and replay owes it.
    let cases = [
        (
            "write",
            SimDir::default().fault_write(5, WriteFault::Fail),
            1,
        ),
        ("sync", SimDir::default().fail_sync_data(4), 0),
    ];
    for (tag, sim, shed) in cases {
        let tmp = TempDir::new(&format!("shed-{tag}"));
        let dcfg =
            DurabilityConfig::new(tmp.path()).with_group_commit(GroupCommitConfig::default());
        let cfg = always_through(dcfg, sim).with_restart_on_panic(1);
        let engine = Engine::try_start(Store::with_synthetic_stocks(8), cfg).unwrap();
        let acked = submit_acked(&engine, (0..3u32).map(|i| trade(i, 700.0 + f64::from(i))));
        assert_eq!(acked.len(), 2, "{tag}: the broken group is never acked");
        let stats = engine.shutdown();
        assert_eq!(stats.engine_restarts, 1, "{tag}");
        assert_eq!(stats.shed_on_restart_updates, shed, "{tag}");
        assert_eq!(stats.group_buffered, 0, "{tag}");
    }
}

/// Runs an engine that snapshots after every update, its first cadence
/// snapshot's publish broken by `sim`: the error is counted, not
/// fail-stop, the engine serves on, and a restart reads back every
/// acked update. Nothing is submitted until the failure shows, so no
/// append's sync moves the armed index.
fn a_failed_publish_is_counted_and_served_on(tag: &str, sim: SimDir) {
    let tmp = TempDir::new(tag);
    let dcfg = DurabilityConfig::new(tmp.path()).with_snapshot_every(1);
    let engine =
        Engine::try_start(Store::with_synthetic_stocks(8), always_through(dcfg, sim)).unwrap();
    let mut acked = submit_acked(&engine, [trade(0, 950.0)]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().wal_io_errors == 0 {
        assert!(Instant::now() < deadline, "{tag}: the publish never failed");
        std::thread::sleep(Duration::from_millis(5));
    }
    acked.extend(submit_acked(
        &engine,
        (1..4u32).map(|i| trade(i, 950.0 + f64::from(i))),
    ));
    assert_eq!(acked.len(), 4, "{tag}: every update is acked");
    for t in &acked {
        await_price(&engine, t.stock.0, t.price);
    }
    let stats = engine.shutdown();
    assert_eq!(
        stats.wal_io_errors, 1,
        "{tag}: the failed publish is counted"
    );
    assert_eq!(stats.engine_restarts, 0, "{tag}: and is not fail-stop");
    assert!(
        stats.snapshots_written >= 1,
        "{tag}: later snapshots publish"
    );

    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    for t in &acked {
        assert_eq!(price_of(&engine, t.stock.0), t.price, "{tag}");
    }
    engine.shutdown();
}

/// Directory syncs 1 and 2 are the baseline MANIFEST's and the first
/// segment's; the first cadence snapshot's rotation makes 3, and its
/// MANIFEST's rename 4.
#[test]
fn a_failed_manifest_directory_sync_in_a_snapshot_is_counted_and_served_on() {
    a_failed_publish_is_counted_and_served_on(
        "manifest-dir-sync",
        SimDir::default().fail_sync_dir(4),
    );
}

/// File syncs 1 and 2 are the baseline snapshot's and MANIFEST's, 3 the
/// first update's; the first cadence snapshot's rotation finds nothing
/// unsynced in the old segment, so the new snapshot file's sync is 4.
#[test]
fn a_failed_snapshot_file_sync_is_counted_and_served_on() {
    a_failed_publish_is_counted_and_served_on("snapshot-sync", SimDir::default().fail_sync_data(4));
}

/// A start that finds a torn tail truncates it and syncs the cut before
/// it serves; when that sync fails, the start returns the error. A later
/// start reads back every acked update.
#[test]
fn a_failed_truncation_sync_in_replay_fails_the_start() {
    let tmp = TempDir::new("replay-sync");
    // The third update's write (write 6) tears; without a restart budget
    // the engine poisons and leaves the torn frame on disk.
    let torn = SimDir::default().fault_write(6, WriteFault::Tear(wal::FRAME_HEADER));
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(8),
        always_through(DurabilityConfig::new(tmp.path()), torn),
    )
    .unwrap();
    let acked = submit_acked(&engine, (0..3u32).map(|i| trade(i, 980.0 + f64::from(i))));
    assert_eq!(acked.len(), 2, "the torn update is never acked");
    engine.shutdown();

    // Over an initialised directory the replay's cut is file sync 1.
    let cfg = always_through(
        DurabilityConfig::new(tmp.path()),
        SimDir::default().fail_sync_data(1),
    );
    let err = Engine::try_start(Store::with_synthetic_stocks(8), cfg)
        .err()
        .expect("the start returns the sync's error");
    assert!(err.to_string().contains("sync_data"), "{err}");

    let engine = Engine::try_start(Store::with_synthetic_stocks(8), durable(tmp.path())).unwrap();
    for t in &acked {
        await_price(&engine, t.stock.0, t.price);
    }
    assert_eq!(price_of(&engine, 2), 100.0, "the torn update is lost");
    engine.shutdown();
}
