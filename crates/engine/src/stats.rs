//! Live engine statistics, shared between the scheduler thread and
//! clients.

use quts_metrics::{LifecycleSpans, LogHistogram, OnlineStats};
use quts_qc::QcAggregates;

/// How many trailing ρ values [`LiveStats::rho_history`] retains. Older
/// entries are discarded (counted in
/// [`LiveStats::rho_history_truncated`]) so a long-lived engine holds a
/// bounded snapshot instead of one f64 per adaptation period forever.
pub const RHO_HISTORY_CAP: usize = 256;

/// A snapshot of the engine's accounting, readable at any time through
/// [`EngineHandle::stats`](crate::EngineHandle::stats).
#[derive(Debug, Clone, Default)]
pub struct LiveStats {
    /// Submitted maxima and gained profit (Table 1 symbols).
    pub aggregates: QcAggregates,
    /// Staleness (`#uu`) observed by answered queries.
    pub staleness: OnlineStats,
    /// Updates applied to the store.
    pub updates_applied: u64,
    /// Updates dropped by register-table invalidation.
    pub updates_invalidated: u64,
    /// The scheduler's current ρ.
    pub rho: f64,
    /// Adaptation periods completed.
    pub adaptations: u64,
    /// ρ after each adaptation period, oldest first — the last
    /// [`RHO_HISTORY_CAP`] values only (Figure 9d live).
    pub rho_history: Vec<f64>,
    /// ρ values discarded from the front of [`rho_history`]
    /// (`adaptations - rho_history.len()`, kept explicit for clients).
    ///
    /// [`rho_history`]: LiveStats::rho_history
    pub rho_history_truncated: u64,

    // --- Queue-depth gauges (refreshed on the scheduler's stat paths) ---
    /// Queries admitted but not yet executed or shed.
    pub pending_queries: u64,
    /// Distinct pending updates (register-table entries).
    pub pending_updates: u64,

    /// Lifecycle-span histograms (queue wait, service, response,
    /// staleness, update delay) plus the shed breakdown. Populated only
    /// when [`EngineConfig::trace`](crate::EngineConfig) is at level
    /// `Spans` or `Full`; empty otherwise.
    pub spans: LifecycleSpans,

    // --- Overload & robustness counters ---
    /// Submissions refused because the admission queue was full.
    pub queue_full_rejections: u64,
    /// Queries aborted unexecuted because their contract lifetime ran
    /// out while queued (zero profit).
    pub shed_expired: u64,
    /// Pending updates dropped at the backlog high-water mark.
    pub updates_dropped_overload: u64,
    /// Scheduler restarts after panics.
    pub engine_restarts: u64,
    /// Pending queries lost to a panic restart (their reply channels
    /// disconnected in the unwind; clients see `EngineDown`).
    pub shed_on_restart_queries: u64,
    /// Pending updates lost to a panic restart. Stays zero with
    /// durability enabled — recovery re-enqueues them from the WAL.
    pub shed_on_restart_updates: u64,

    // --- Durability & recovery ---
    /// Updates appended to the WAL (before enqueue).
    pub wal_appended: u64,
    /// LSN of the most recent WAL append (0: nothing appended yet).
    /// Replication lag is measured against this watermark.
    pub wal_last_lsn: u64,
    /// WAL/snapshot IO errors absorbed (fail-stop appends, failed
    /// shutdown snapshots).
    pub wal_io_errors: u64,
    /// Snapshots published (periodic cadence + clean shutdown).
    pub snapshots_written: u64,
    /// LSN covered by the most recent snapshot.
    pub snapshot_last_lsn: u64,
    /// Updates replayed from the WAL tail across all recoveries.
    pub recovery_replayed_updates: u64,
    /// Torn/corrupt WAL bytes truncated during recoveries.
    pub wal_truncated_bytes: u64,

    // --- Group commit ---
    /// WAL fsyncs issued across all incarnations; with group commit one
    /// fsync covers a whole batch, so `wal_appended / wal_fsyncs` is the
    /// realized amortization factor.
    pub wal_fsyncs: u64,
    /// Groups committed (each: one batched append + at most one fsync).
    pub group_commits: u64,
    /// Updates parked in the commit buffer, not yet durable or acked. A
    /// panic before the group's fsync sheds them (never acked, so no
    /// promise is broken); the supervisor folds this gauge into
    /// [`shed_on_restart_updates`](LiveStats::shed_on_restart_updates).
    pub group_buffered: u64,
    /// Committed group sizes (records per fsync).
    pub group_commit_batch: LogHistogram,
    /// Per-update wait from buffer entry to covering fsync return, µs.
    pub group_commit_wait_us: LogHistogram,

    // --- Cross-shard transactions (sharded engines only) ---
    /// Cross-shard lock grants this shard served (each froze the shard
    /// from grant to release).
    pub cross_shard_locks: u64,
    /// Lock grants whose release never arrived: the shard resumed at the
    /// coordinator's deadline instead of hanging.
    pub cross_shard_lock_timeouts: u64,
}

impl LiveStats {
    /// Total gained profit over the submitted maximum.
    pub fn total_pct(&self) -> f64 {
        self.aggregates.total_pct()
    }

    /// Appends one adaptation's ρ, discarding the oldest entry once the
    /// history holds [`RHO_HISTORY_CAP`] values.
    pub(crate) fn push_rho(&mut self, rho: f64) {
        if self.rho_history.len() >= RHO_HISTORY_CAP {
            self.rho_history.remove(0);
            self.rho_history_truncated += 1;
        }
        self.rho_history.push(rho);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_snapshot() {
        let s = LiveStats::default();
        assert_eq!(s.total_pct(), 0.0);
        assert_eq!(s.updates_applied, 0);
        assert_eq!(s.rho, 0.0);
        assert_eq!(s.queue_full_rejections, 0);
        assert_eq!(s.shed_expired, 0);
        assert_eq!(s.updates_dropped_overload, 0);
        assert_eq!(s.engine_restarts, 0);
        assert_eq!(s.pending_queries, 0);
        assert_eq!(s.pending_updates, 0);
        assert_eq!(s.rho_history_truncated, 0);
        assert_eq!(s.spans.committed, 0);
        assert_eq!(s.shed_on_restart_queries, 0);
        assert_eq!(s.shed_on_restart_updates, 0);
        assert_eq!(s.wal_appended, 0);
        assert_eq!(s.wal_last_lsn, 0);
        assert_eq!(s.wal_io_errors, 0);
        assert_eq!(s.snapshots_written, 0);
        assert_eq!(s.snapshot_last_lsn, 0);
        assert_eq!(s.recovery_replayed_updates, 0);
        assert_eq!(s.wal_truncated_bytes, 0);
        assert_eq!(s.wal_fsyncs, 0);
        assert_eq!(s.group_commits, 0);
        assert_eq!(s.group_buffered, 0);
        assert_eq!(s.group_commit_batch.count(), 0);
        assert_eq!(s.group_commit_wait_us.count(), 0);
        assert_eq!(s.cross_shard_locks, 0);
        assert_eq!(s.cross_shard_lock_timeouts, 0);
    }

    #[test]
    fn rho_history_is_capped_with_truncation_count() {
        let mut s = LiveStats::default();
        for i in 0..(RHO_HISTORY_CAP + 10) {
            s.push_rho(i as f64);
        }
        assert_eq!(s.rho_history.len(), RHO_HISTORY_CAP);
        assert_eq!(s.rho_history_truncated, 10);
        // The window keeps the most recent values, oldest first.
        assert_eq!(s.rho_history[0], 10.0);
        assert_eq!(*s.rho_history.last().unwrap(), (RHO_HISTORY_CAP + 9) as f64);
    }
}
