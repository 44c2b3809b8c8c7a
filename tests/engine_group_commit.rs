//! Multi-submitter group-commit chaos: concurrent durable submitters
//! park on tickets while the scheduler batches their WAL appends under
//! one covering fsync — with IO faults injected at every pipeline stage
//! (write failure, disk full, torn write, failed group fsync) by the
//! `SimDir` the durability directory is written through. Each group
//! reaches the file as one write and one `sync_data`, after the
//! baseline snapshot and MANIFEST (writes and file syncs 1 and 2) and
//! the segment's magic header (write 3); four submitters that each
//! wait for their ack make groups of at most four, so the reduced run
//! still makes ~30 of them.
//!
//! The contract under test:
//!
//! - **No hang** — every ticket resolves with a durable LSN or a clean
//!   error, never a caller-side timeout.
//! - **No torn acks** — a mid-batch IO error poisons the whole group
//!   before any ticket releases, so an `Ok(lsn)` is always covered by a
//!   completed fsync and survives the recovery that follows.
//! - **Strict prefix** — after every restart the surviving WAL replays
//!   gap-free ([`wal_contiguous_after_snapshot`]) and the conservation
//!   invariants balance over the final accounting.

use quts::db::simdir::{SimDir, WriteFault};
use quts::db::wal::FRAME_HEADER;
use quts::engine::{GroupCommitConfig, UpdateError};
use quts::prelude::*;
use quts_conformance::{check_run, wal_contiguous_after_snapshot, Observation};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Iteration scale: `QUTS_TEST_ITERS=full` (CI) runs the original
/// counts; the default is reduced so `cargo test -q` stays fast. Every
/// reduced count still crosses the injected fault index.
fn scaled(quick: usize, full: usize) -> usize {
    match std::env::var("QUTS_TEST_ITERS").as_deref() {
        Ok("full") => full,
        _ => quick,
    }
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("quts-gc-chaos-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gc_engine(dir: &std::path::Path, fault: FaultPlan, seed: u64) -> Engine {
    let store = Store::with_synthetic_stocks(16);
    let cfg = EngineConfig::default()
        .with_seed(seed)
        .with_restart_on_panic(5)
        .with_fault_plan(fault)
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(
                    GroupCommitConfig::default()
                        .with_max_batch(8)
                        .with_max_delay_us(200),
                ),
        );
    Engine::start(store, cfg)
}

/// Drives `submitters` concurrent durable submitters against an engine
/// with `fault` injected, then checks the whole contract: no hang, every
/// acked LSN unique and within the final WAL watermark, restarts
/// happened when expected, invariants balance, and the surviving log is
/// a gap-free prefix.
fn run_fault_case(tag: &str, fault: FaultPlan, expect_restart: bool, seed: u64) {
    let tmp = TempDir::new(tag);
    let engine = gc_engine(&tmp.0, fault, seed);
    let handle = engine.handle();

    let submitters = 4u32;
    let per_thread = scaled(30, 300);
    let accepted = Arc::new(AtomicU64::new(0));
    let acked: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let workers: Vec<_> = (0..submitters)
        .map(|w| {
            let h = handle.clone();
            let accepted = Arc::clone(&accepted);
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                for i in 0..per_thread as u32 {
                    let trade = Trade {
                        stock: StockId((w * 7 + i) % 16),
                        price: 100.0 + f64::from(i),
                        volume: u64::from(w) + 1,
                        trade_time_ms: u64::from(i),
                    };
                    let ticket = loop {
                        match h.submit_update_durable(trade) {
                            Ok(t) => break Some(t),
                            Err(SubmitError::QueueFull) => std::thread::yield_now(),
                            // Poisoned/stopped: nothing was accepted.
                            Err(SubmitError::EngineDown) => break None,
                        }
                    };
                    let Some(ticket) = ticket else { continue };
                    accepted.fetch_add(1, Ordering::AcqRel);
                    match ticket.recv_timeout(Duration::from_secs(10)) {
                        Ok(lsn) => acked.lock().unwrap().push(lsn),
                        // The group died with the incarnation before its
                        // fsync — a clean refusal, never a torn ack.
                        Err(UpdateError::EngineDown) => {}
                        Err(UpdateError::UnknownStock) => {
                            panic!("all stocks exist in this test")
                        }
                        Err(UpdateError::Timeout) => {
                            panic!("ticket hung: ack channel never resolved")
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("submitter thread");
    }

    let stats = engine.shutdown();
    let acked = acked.lock().unwrap().clone();
    let accepted = accepted.load(Ordering::Acquire);

    // Acked LSNs are unique, non-zero, and inside the final watermark.
    let distinct: HashSet<u64> = acked.iter().copied().collect();
    assert_eq!(distinct.len(), acked.len(), "duplicate acked LSN");
    assert!(!distinct.contains(&0), "durable acks carry real LSNs");
    if let Some(&max) = distinct.iter().max() {
        assert!(
            max <= stats.wal_last_lsn,
            "acked LSN {max} beyond watermark {}",
            stats.wal_last_lsn
        );
    }
    assert!(
        acked.len() as u64 <= stats.wal_appended,
        "more acks than WAL appends"
    );
    if expect_restart {
        assert!(
            stats.engine_restarts >= 1,
            "injected fault never fired (appends: {})",
            stats.wal_appended
        );
    }
    // Conservation over everything the engine admitted, and a gap-free
    // surviving log anchored at the shutdown snapshot. After a restart
    // the arrival total is unknowable: recovery rolls the store back to
    // the snapshot and re-applies the replayed WAL tail, so records
    // already counted applied pre-crash are (correctly) applied again —
    // the monotonic counters can't balance against one arrival count.
    // `None` skips exactly the update-conservation check and keeps the
    // rest of the invariant suite, same as the chaos tests do for
    // fault-generated arrivals.
    let arrived = if expect_restart { None } else { Some(accepted) };
    let violations = check_run(&Observation::from_live_stats(&stats, arrived));
    assert!(
        violations.is_empty(),
        "invariant violations: {violations:?}"
    );
    wal_contiguous_after_snapshot(&tmp.0).expect("surviving WAL is a gap-free prefix");
}

#[test]
fn concurrent_durable_submitters_clean_run() {
    run_fault_case("clean", FaultPlan::default(), false, 101);
}

#[test]
fn group_poisoned_by_append_failure_never_acks_partially() {
    let disk = SimDir::default().fault_write(12, WriteFault::Fail);
    run_fault_case("fail", FaultPlan::default().disk(disk), true, 102);
}

#[test]
fn group_poisoned_by_disk_full_never_acks_partially() {
    let disk = SimDir::default().fault_write(12, WriteFault::Enospc);
    run_fault_case("enospc", FaultPlan::default().disk(disk), true, 103);
}

#[test]
fn group_poisoned_by_torn_append_never_acks_partially() {
    let disk = SimDir::default().fault_write(12, WriteFault::Tear(FRAME_HEADER));
    run_fault_case("torn", FaultPlan::default().disk(disk), true, 104);
}

#[test]
fn group_poisoned_by_fsync_failure_never_acks_partially() {
    let disk = SimDir::default().fail_sync_data(12);
    run_fault_case("fsync", FaultPlan::default().disk(disk), true, 105);
}

/// Back-to-back injected faults: the supervisor burns restart budget
/// while submitters keep arriving; every ticket still settles and the
/// accounting still balances.
#[test]
fn repeated_faults_under_concurrency_still_settle() {
    run_fault_case(
        "repeat",
        FaultPlan::default().disk(
            SimDir::default()
                .fail_sync_data(10)
                .fault_write(18, WriteFault::Enospc),
        ),
        true,
        106,
    );
}
