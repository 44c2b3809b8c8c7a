//! Deterministic fault injection for the live engine.
//!
//! A [`FaultPlan`] rides on [`EngineConfig`](crate::EngineConfig) and
//! lets tests provoke the failure modes the engine must survive:
//! scheduler panics, per-transaction stalls, self-inflicted update-feed
//! bursts, and dropped reply channels. The plan is pure configuration;
//! the mutable progress counters live in [`FaultState`] so they survive
//! supervisor restarts (a "panic after N transactions" fault fires once
//! per engine, not once per incarnation).
//!
//! Production engines run with the default (empty) plan, which injects
//! nothing and costs one relaxed atomic increment per transaction.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A self-inflicted burst of synthetic updates, emulating a hot feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateBurst {
    /// Inject a burst every this many executed transactions.
    pub every_txns: u64,
    /// Number of synthetic updates per burst.
    pub size: u32,
}

/// Replication-link fault injection, applied by the primary's WAL
/// shipper to each outbound frame. Unlike the one-shot WAL faults these
/// are *periodic* — a flaky link stays flaky — and the counters are
/// per-connection (kept by the shipper), so every reconnect faces the
/// same link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultPlan {
    /// Silently drop every `k`-th shipped frame. The receiver sees an
    /// LSN gap and must reconnect with resume-from-LSN. A dropped frame
    /// that no later frame follows has no gap to show; the link resets
    /// at the next heartbeat instead, with the same resume.
    pub drop_frame_every: Option<u64>,
    /// Ship every `k`-th frame twice. The receiver must deduplicate by
    /// LSN, never double-apply.
    pub duplicate_frame_every: Option<u64>,
    /// Sleep this long before every shipped frame (link latency; drives
    /// replica lag and demotion).
    pub delay_per_frame: Option<Duration>,
    /// On every `k`-th frame, write only half the frame and drop the
    /// connection — a mid-frame disconnect the receiver must survive.
    pub disconnect_mid_frame_every: Option<u64>,
    /// After the `n`-th frame the link goes dark: every later frame is
    /// silently dropped **and heartbeats stop**, while the TCP
    /// connection stays open — a network partition, not a crash. The
    /// receiver sees silence (no gap, no reset) and the failure
    /// detector must tell this apart from a dead primary.
    pub partition_after: Option<u64>,
}

impl LinkFaultPlan {
    /// Builder: drop every `k`-th shipped frame.
    pub fn drop_frame_every(mut self, k: u64) -> Self {
        assert!(k > 0, "drop_frame_every(0) is meaningless");
        self.drop_frame_every = Some(k);
        self
    }

    /// Builder: duplicate every `k`-th shipped frame.
    pub fn duplicate_frame_every(mut self, k: u64) -> Self {
        assert!(k > 0, "duplicate_frame_every(0) is meaningless");
        self.duplicate_frame_every = Some(k);
        self
    }

    /// Builder: delay every shipped frame.
    pub fn delay_per_frame(mut self, delay: Duration) -> Self {
        self.delay_per_frame = Some(delay);
        self
    }

    /// Builder: disconnect mid-frame on every `k`-th frame.
    pub fn disconnect_mid_frame_every(mut self, k: u64) -> Self {
        assert!(k > 0, "disconnect_mid_frame_every(0) is meaningless");
        self.disconnect_mid_frame_every = Some(k);
        self
    }

    /// Builder: black-hole the link (frames and heartbeats) after the
    /// `n`-th frame while keeping the connection open.
    pub fn partition_after(mut self, n: u64) -> Self {
        self.partition_after = Some(n);
        self
    }
}

/// What to break, and when. The default plan breaks nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Panic the scheduler thread once, right before executing the N-th
    /// transaction.
    pub panic_after_txns: Option<u64>,
    /// Busy-spin this long before every transaction (emulates a slow
    /// operator or a stalled page).
    pub stall_per_txn: Option<Duration>,
    /// Drop (never send) every k-th query reply, leaving the client with
    /// a disconnected channel instead of an answer.
    pub drop_reply_every: Option<u64>,
    /// Periodically flood the update queue with synthetic trades.
    pub update_burst: Option<UpdateBurst>,

    // --- WAL IO faults (meaningful only with durability enabled) ---
    /// Fail the N-th WAL append outright (nothing written). The engine
    /// fail-stops: the scheduler panics and recovery takes over.
    pub wal_fail_append: Option<u64>,
    /// Short-write the N-th WAL append (header lands, payload does
    /// not) — the residue of a crash mid-write. Fail-stop.
    pub wal_torn_append: Option<u64>,
    /// Corrupt the N-th appended record on disk *silently* — the engine
    /// carries on; only replay's CRC detects it.
    pub wal_corrupt_append: Option<u64>,
    /// Fail the fsync of the N-th WAL append. Durability of the record
    /// is unknown, so the engine fail-stops (PANIC-on-fsync).
    pub wal_fsync_fail: Option<u64>,
    /// Report the disk full (ENOSPC) on the N-th WAL append: nothing is
    /// written, the error is permanent-looking, and the engine must
    /// fail-stop rather than ack an update it cannot make durable.
    pub wal_enospc: Option<u64>,
}

/// Which injected WAL fault fires on an append (one-shot each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalFault {
    /// Append fails before writing.
    Fail,
    /// Append short-writes the frame.
    Torn,
    /// Append writes a corrupted record and reports success.
    Corrupt,
    /// Append lands but its fsync fails.
    FsyncFail,
    /// The disk is full: nothing written, nothing durable.
    Enospc,
}

impl FaultPlan {
    /// Builder: panic once before the `n`-th transaction.
    pub fn panic_after(mut self, n: u64) -> Self {
        self.panic_after_txns = Some(n);
        self
    }

    /// Builder: stall before every transaction.
    pub fn stall_per_txn(mut self, stall: Duration) -> Self {
        self.stall_per_txn = Some(stall);
        self
    }

    /// Builder: drop every `k`-th query reply.
    pub fn drop_reply_every(mut self, k: u64) -> Self {
        assert!(k > 0, "drop_reply_every(0) is meaningless");
        self.drop_reply_every = Some(k);
        self
    }

    /// Builder: inject `size` synthetic updates every `every_txns`
    /// transactions.
    pub fn update_burst(mut self, every_txns: u64, size: u32) -> Self {
        assert!(every_txns > 0, "update_burst period must be positive");
        self.update_burst = Some(UpdateBurst { every_txns, size });
        self
    }

    /// Builder: fail the `n`-th WAL append outright.
    pub fn wal_fail_append(mut self, n: u64) -> Self {
        assert!(n > 0, "WAL appends are 1-based");
        self.wal_fail_append = Some(n);
        self
    }

    /// Builder: short-write the `n`-th WAL append.
    pub fn wal_torn_append(mut self, n: u64) -> Self {
        assert!(n > 0, "WAL appends are 1-based");
        self.wal_torn_append = Some(n);
        self
    }

    /// Builder: silently corrupt the `n`-th appended record.
    pub fn wal_corrupt_append(mut self, n: u64) -> Self {
        assert!(n > 0, "WAL appends are 1-based");
        self.wal_corrupt_append = Some(n);
        self
    }

    /// Builder: fail the fsync of the `n`-th WAL append.
    pub fn wal_fsync_fail(mut self, n: u64) -> Self {
        assert!(n > 0, "WAL appends are 1-based");
        self.wal_fsync_fail = Some(n);
        self
    }

    /// Builder: report ENOSPC (disk full) on the `n`-th WAL append.
    pub fn wal_enospc(mut self, n: u64) -> Self {
        assert!(n > 0, "WAL appends are 1-based");
        self.wal_enospc = Some(n);
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_noop(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// Mutable fault progress, shared across supervisor restarts.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Transactions executed over the engine's whole life.
    txns: AtomicU64,
    /// Whether the one-shot injected panic already fired.
    panic_fired: AtomicBool,
    /// Query replies produced over the engine's whole life.
    replies: AtomicU64,
    /// WAL appends attempted over the engine's whole life.
    wal_appends: AtomicU64,
    /// One-shot flags, one per WAL fault kind.
    wal_fail_fired: AtomicBool,
    wal_torn_fired: AtomicBool,
    wal_corrupt_fired: AtomicBool,
    wal_fsync_fired: AtomicBool,
    wal_enospc_fired: AtomicBool,
}

impl FaultState {
    /// Counts one transaction; returns its 1-based global index.
    pub(crate) fn next_txn(&self) -> u64 {
        self.txns.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether the one-shot panic should fire for transaction `txn`
    /// under `plan` (true exactly once per engine).
    pub(crate) fn should_panic(&self, plan: &FaultPlan, txn: u64) -> bool {
        match plan.panic_after_txns {
            Some(at) if txn >= at => !self.panic_fired.swap(true, Ordering::Relaxed),
            _ => false,
        }
    }

    /// Counts one reply; true when `plan` says this one must be dropped.
    pub(crate) fn should_drop_reply(&self, plan: &FaultPlan) -> bool {
        match plan.drop_reply_every {
            Some(k) => (self.replies.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(k),
            None => false,
        }
    }

    /// Counts one WAL append; returns its 1-based global index (the
    /// counter survives restarts, so "fault the N-th append" fires once
    /// per engine).
    pub(crate) fn next_wal_append(&self) -> u64 {
        self.wal_appends.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The injected WAL fault for append number `n`, if any fires now.
    /// Each fault kind is one-shot; on a tie the most destructive wins
    /// (enospc > fail > torn > fsync > corrupt).
    pub(crate) fn wal_fault(&self, plan: &FaultPlan, n: u64) -> Option<WalFault> {
        let fire = |at: Option<u64>, flag: &AtomicBool| match at {
            Some(at) if n >= at => !flag.swap(true, Ordering::Relaxed),
            _ => false,
        };
        if fire(plan.wal_enospc, &self.wal_enospc_fired) {
            Some(WalFault::Enospc)
        } else if fire(plan.wal_fail_append, &self.wal_fail_fired) {
            Some(WalFault::Fail)
        } else if fire(plan.wal_torn_append, &self.wal_torn_fired) {
            Some(WalFault::Torn)
        } else if fire(plan.wal_fsync_fail, &self.wal_fsync_fired) {
            Some(WalFault::FsyncFail)
        } else if fire(plan.wal_corrupt_append, &self.wal_corrupt_fired) {
            Some(WalFault::Corrupt)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        assert!(FaultPlan::default().is_noop());
        assert!(!FaultPlan::default().panic_after(3).is_noop());
    }

    #[test]
    fn panic_fires_exactly_once() {
        let plan = FaultPlan::default().panic_after(3);
        let state = FaultState::default();
        assert!(!state.should_panic(&plan, 1));
        assert!(!state.should_panic(&plan, 2));
        assert!(state.should_panic(&plan, 3));
        assert!(!state.should_panic(&plan, 4), "one-shot");
    }

    #[test]
    fn reply_drops_follow_the_period() {
        let plan = FaultPlan::default().drop_reply_every(3);
        let state = FaultState::default();
        let drops: Vec<bool> = (0..6).map(|_| state.should_drop_reply(&plan)).collect();
        assert_eq!(drops, [false, false, true, false, false, true]);
    }

    #[test]
    fn txn_counter_is_monotonic() {
        let state = FaultState::default();
        assert_eq!(state.next_txn(), 1);
        assert_eq!(state.next_txn(), 2);
    }

    #[test]
    fn wal_faults_fire_once_at_their_append() {
        let plan = FaultPlan::default()
            .wal_fail_append(2)
            .wal_corrupt_append(4);
        let state = FaultState::default();
        assert_eq!(state.next_wal_append(), 1);
        assert_eq!(state.wal_fault(&plan, 1), None);
        assert_eq!(state.wal_fault(&plan, 2), Some(WalFault::Fail));
        assert_eq!(state.wal_fault(&plan, 3), None, "fail is one-shot");
        assert_eq!(state.wal_fault(&plan, 4), Some(WalFault::Corrupt));
        assert_eq!(state.wal_fault(&plan, 5), None);
        assert!(!plan.is_noop());
    }

    #[test]
    fn wal_fault_builders() {
        let plan = FaultPlan::default().wal_torn_append(1).wal_fsync_fail(7);
        assert_eq!(plan.wal_torn_append, Some(1));
        assert_eq!(plan.wal_fsync_fail, Some(7));
        let state = FaultState::default();
        assert_eq!(state.wal_fault(&plan, 1), Some(WalFault::Torn));
        assert_eq!(state.wal_fault(&plan, 7), Some(WalFault::FsyncFail));
    }

    #[test]
    fn enospc_fires_once_and_outranks_other_faults() {
        let plan = FaultPlan::default().wal_enospc(2).wal_fail_append(2);
        let state = FaultState::default();
        assert_eq!(state.wal_fault(&plan, 1), None);
        assert_eq!(state.wal_fault(&plan, 2), Some(WalFault::Enospc));
        // The suppressed Fail fires on the next append (both were armed).
        assert_eq!(state.wal_fault(&plan, 3), Some(WalFault::Fail));
        assert_eq!(state.wal_fault(&plan, 4), None, "both one-shot");
        assert!(!plan.is_noop());
    }

    #[test]
    fn link_fault_builders() {
        let link = LinkFaultPlan::default()
            .drop_frame_every(5)
            .duplicate_frame_every(3)
            .delay_per_frame(Duration::from_millis(1))
            .disconnect_mid_frame_every(11)
            .partition_after(40);
        assert_eq!(link.drop_frame_every, Some(5));
        assert_eq!(link.duplicate_frame_every, Some(3));
        assert_eq!(link.delay_per_frame, Some(Duration::from_millis(1)));
        assert_eq!(link.disconnect_mid_frame_every, Some(11));
        assert_eq!(link.partition_after, Some(40));
    }
}
