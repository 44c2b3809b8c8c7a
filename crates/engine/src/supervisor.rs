//! Panic supervision for the scheduler thread.
//!
//! The engine thread runs the [`Runtime`](crate::runtime) inside
//! `catch_unwind`. On a panic the supervisor either restarts the
//! scheduler over the surviving [`Store`] (capped exponential backoff,
//! bounded restart budget) or poisons the engine: queued work is
//! refused, every in-flight reply channel resolves with a disconnect,
//! and all future submissions fail fast with
//! [`SubmitError::EngineDown`](crate::SubmitError). In both cases the
//! invariant clients rely on holds: **every submitted query either gets
//! an answer or a clean error — never a hang.**
//!
//! What survives a restart: the store (all applied updates), the
//! staleness tracker, and the arrival counters trace ids derive from
//! (the flight ring survives too, so an id must not repeat in it).
//! Without durability, pending queries and pending
//! updates die with the crashed incarnation — both are now *counted*
//! (`shed_on_restart_*`), never silently vanished. With durability
//! enabled, the restart path instead rebuilds store, tracker **and**
//! the pending update queue from `snapshot + WAL tail`, so a restarted
//! engine owes exactly the updates it owed before the panic. Pending
//! queries are shed either way: their reply channels disconnected in
//! the unwind, so re-executing them would answer nobody.

use crate::config::EngineConfig;
use crate::durability::Durable;
use crate::retry::delay_for;
use crate::runtime::{Msg, Runtime};
use crate::shared::EngineShared;
use crossbeam::channel::Receiver;
use quts_db::{Recovered, StalenessTracker, Store, Trade};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Lifecycle of the engine, readable through
/// [`EngineHandle::state`](crate::EngineHandle::state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineState {
    /// The scheduler thread is accepting and executing work.
    Running,
    /// The scheduler panicked beyond its restart budget; submissions
    /// fail with [`SubmitError::EngineDown`](crate::SubmitError).
    Poisoned,
    /// The engine shut down cleanly.
    Stopped,
}

/// Restart attempt `n` (1-based) waits `RESTART_BASE` × 2ⁿ⁻¹, capped at
/// `RESTART_CAP`.
const RESTART_BASE: Duration = Duration::from_millis(1);
const RESTART_CAP: Duration = Duration::from_secs(1);

/// Everything one scheduler incarnation starts from. The supervisor
/// owns it across restarts; a durable engine's start builds one from
/// its directory.
pub(crate) struct EngineSeed {
    pub(crate) store: Store,
    pub(crate) tracker: StalenessTracker,
    /// Pending updates to re-enqueue (register-collapsed, arrival
    /// order) — recovered from the WAL, not re-logged.
    pub(crate) pending: Vec<Trade>,
    /// WAL + snapshot state; kept outside the `catch_unwind` so it
    /// survives incarnations.
    pub(crate) durable: Option<Durable>,
    /// The next merged arrival sequence number, and the next update's
    /// trace label. They outlive an incarnation because the trace ids
    /// derived from them land in the flight ring, which does too.
    pub(crate) next_seq: u64,
    pub(crate) next_update_id: u64,
}

impl EngineSeed {
    /// A first incarnation's seed over what its start read: both
    /// counters at zero.
    pub(crate) fn new(rec: Recovered, durable: Option<Durable>) -> EngineSeed {
        EngineSeed {
            store: rec.store,
            tracker: rec.tracker,
            pending: rec.pending,
            durable,
            next_seq: 0,
            next_update_id: 0,
        }
    }
}

/// Terminal-state epilogue: write `state` (poisoned or stopped), then
/// empty the inbox and *count* what it held.
///
/// Every submit path holds the lifecycle's read guard across its
/// state check + send, so the write guard taken here is a barrier: all
/// sends that saw `Running` have landed, and every later submitter
/// observes the terminal state and fails fast without sending. The
/// drain below, under the same guard, is therefore the complete set of
/// accepted-but-never-ingested messages — fold them into the
/// conservation ledger (`submitted` + shed for queries, shed for
/// updates) instead of letting them vanish with the channel. Their
/// reply/ack channels disconnect on drop, so waiting tickets still
/// resolve with a clean error, never a hang.
fn stop_and_account(state: EngineState, rx: &Receiver<Msg>, shared: &EngineShared) {
    let mut lifecycle = shared.lifecycle.write();
    *lifecycle = state;
    while let Ok(msg) = rx.try_recv() {
        match msg {
            Msg::Query { qc, .. } => {
                let mut s = shared.stats.lock();
                s.aggregates.submit(&qc);
                s.shed_on_restart_queries += 1;
            }
            Msg::Update { .. } => {
                shared.stats.lock().shed_on_restart_updates += 1;
            }
            // A dropped lock request disconnects its grant channel; the
            // coordinator counts the failure on its side.
            Msg::Lock { .. } | Msg::Shutdown => {}
        }
    }
}

/// Body of the engine thread: run the scheduler, absorb its panics.
pub(crate) fn supervise(
    mut seed: EngineSeed,
    config: EngineConfig,
    rx: Receiver<Msg>,
    shared: Arc<EngineShared>,
) {
    let stats = &shared.stats;
    let mut restarts = 0u32;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let clock = crate::clock::EngineClock::real();
            Runtime::new(&mut seed, &config, rx.clone(), Arc::clone(&shared), clock).run()
        }));
        match outcome {
            Ok(()) => {
                stop_and_account(EngineState::Stopped, &rx, &shared);
                return;
            }
            Err(_panic) => {
                // First thing after any panic — scheduler bug, injected
                // chaos, or a WAL fail-stop — flush the flight recorder
                // so the moments before the fault survive it. Poison
                // paths below return without another flush; restart
                // paths keep recording into it from the next
                // incarnation.
                shared.trace.dump_flight();
                // The crashed incarnation's pending queries resolved
                // their reply channels by dropping them in the unwind —
                // count them as shed, don't let them vanish silently.
                // Pending updates are shed too unless durability can
                // resurrect them below.
                {
                    let mut s = stats.lock();
                    s.shed_on_restart_queries += s.pending_queries;
                    s.pending_queries = 0;
                    if seed.durable.is_none() {
                        s.shed_on_restart_updates += s.pending_updates;
                        s.pending_updates = 0;
                    }
                    // Updates parked in the commit buffer died with the
                    // incarnation before reaching the WAL — they were
                    // never acked (their tickets disconnect in the
                    // unwind), so shedding them breaks no promise, but
                    // conservation must still count them. The scheduler
                    // already subtracted any appended-and-replayable
                    // prefix from this gauge before panicking.
                    s.shed_on_restart_updates += s.group_buffered;
                    s.group_buffered = 0;
                }
                if restarts >= config.max_restarts {
                    // Out of budget: poison, then refuse everything
                    // queued. New submissions fail fast on the state;
                    // what was sent before it changed is drained under
                    // the write guard and counted as shed — its reply
                    // channels disconnect on drop.
                    stop_and_account(EngineState::Poisoned, &rx, &shared);
                    return;
                }
                restarts += 1;
                stats.lock().engine_restarts += 1;
                // With durability, the restart is a real recovery: the
                // crashed incarnation's in-memory queue is untrusted, so
                // rebuild store + tracker + pending from snapshot + WAL
                // tail (same-process page cache preserves even unsynced
                // appends, so nothing logged is lost here). The crashed
                // incarnation's writer and directory lock go first.
                if seed.durable.take().is_some() {
                    match Durable::recover(&config) {
                        Ok((d, rec)) => {
                            let mut s = stats.lock();
                            s.recovery_replayed_updates += rec.replayed;
                            s.wal_truncated_bytes += rec.truncated_bytes;
                            s.snapshot_last_lsn = rec.snapshot_lsn;
                            s.pending_updates = rec.pending.len() as u64;
                            // The counters carry over: trace ids must not
                            // repeat in the flight ring.
                            seed = EngineSeed {
                                next_seq: seed.next_seq,
                                next_update_id: seed.next_update_id,
                                ..EngineSeed::new(rec, Some(d))
                            };
                        }
                        Err(_) => {
                            // Recovery itself failed: running on without
                            // durable state would lie about QoD. Poison.
                            stats.lock().wal_io_errors += 1;
                            stop_and_account(EngineState::Poisoned, &rx, &shared);
                            return;
                        }
                    }
                }
                std::thread::sleep(delay_for(RESTART_BASE, RESTART_CAP, restarts));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let restart = |attempt| delay_for(RESTART_BASE, RESTART_CAP, attempt);
        assert_eq!(restart(1), Duration::from_millis(1));
        assert_eq!(restart(2), Duration::from_millis(2));
        assert_eq!(restart(3), Duration::from_millis(4));
        assert_eq!(restart(30), Duration::from_secs(1));
    }
}
