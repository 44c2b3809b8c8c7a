//! Deterministic fault injection for the live engine.
//!
//! A [`FaultPlan`] rides on [`EngineConfig`](crate::EngineConfig) and
//! lets tests provoke the failure modes the engine must survive and a
//! test cannot cause from outside it: a scheduler panic, a dropped reply
//! channel, and durability IO faults (through a [`SimDir`] under the
//! durability directory). Load is not a fault: a test slows the engine
//! with its modelled service costs (`EngineConfig::synthetic_query_cost`
//! and `synthetic_update_cost`) and floods it through `submit_update`.
//! The plan is pure configuration; the mutable progress counters live in
//! [`FaultState`] (and in the `SimDir`) so they survive supervisor
//! restarts (a "panic after N transactions" fault fires once per engine,
//! not once per incarnation).
//!
//! Production engines run with the default (empty) plan, which injects
//! nothing and costs one relaxed atomic increment per transaction.

use quts_db::simdir::SimDir;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Replication-link fault injection, applied by the primary's WAL
/// shipper to each outbound frame. Unlike a [`SimDir`]'s one-shot WAL
/// faults these are *periodic* — a flaky link stays flaky — and the
/// counters are per-connection (kept by the shipper), so every
/// reconnect faces the same link.
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
    /// Drop (never send) every k-th query reply, leaving the client with
    /// a disconnected channel instead of an answer.
    pub drop_reply_every: Option<u64>,
    /// Writes the durability directory through this double instead of
    /// `std::fs`, so the write and sync faults it arms (and its sync
    /// delay) hit the engine's appends, group syncs, segment rotations,
    /// snapshot publishes and recovery repairs. Meaningful only with
    /// durability.
    pub disk: Option<SimDir>,
}

impl FaultPlan {
    /// Builder: panic once before the `n`-th transaction.
    pub fn panic_after(mut self, n: u64) -> Self {
        self.panic_after_txns = Some(n);
        self
    }

    /// Builder: drop every `k`-th query reply.
    pub fn drop_reply_every(mut self, k: u64) -> Self {
        assert!(k > 0, "drop_reply_every(0) is meaningless");
        self.drop_reply_every = Some(k);
        self
    }

    /// Builder: writes the durability directory through `sim` (see the
    /// `disk` field).
    pub fn disk(mut self, sim: SimDir) -> Self {
        self.disk = Some(sim);
        self
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        let plan = FaultPlan::default();
        assert_eq!(
            (plan.panic_after_txns, plan.drop_reply_every, plan.disk),
            (None, None, None)
        );
        assert_ne!(FaultPlan::default().panic_after(3), FaultPlan::default());
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
    fn the_disk_builder_installs_the_double() {
        let sim = SimDir::default();
        let plan = FaultPlan::default().disk(sim.clone());
        assert_eq!(plan.disk, Some(sim));
        assert_ne!(
            plan.disk,
            Some(SimDir::default()),
            "a double equals its clones"
        );
        assert_ne!(plan, FaultPlan::default());
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
