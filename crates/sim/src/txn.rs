//! Transaction specifications (the trace) and their runtime state.

use crate::time::{SimDuration, SimTime};
use quts_db::{QueryOp, Trade};
use quts_qc::QualityContract;

/// Index of a query in the run's query trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

/// Index of an update in the run's update trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UpdateId(pub u32);

impl QueryId {
    /// The id as a flat-vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl UpdateId {
    /// The id as a flat-vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One read-only user query as it appears in the trace.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Arrival time.
    pub arrival: SimTime,
    /// What the query computes (also defines its read-lock set).
    pub op: QueryOp,
    /// CPU service demand (5–9 ms in the paper's trace).
    pub cost: SimDuration,
    /// The user's Quality Contract.
    pub qc: QualityContract,
}

/// One blind write-only update as it appears in the trace.
#[derive(Debug, Clone)]
pub struct UpdateSpec {
    /// Arrival time.
    pub arrival: SimTime,
    /// The trade to apply (stock, price, volume).
    pub trade: Trade,
    /// CPU service demand (1–5 ms in the paper's trace).
    pub cost: SimDuration,
}

/// Lifecycle of a transaction inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnStatus {
    /// Not yet arrived.
    NotArrived,
    /// In a scheduler queue, holding no locks, full remaining cost.
    Queued,
    /// On the CPU.
    Running,
    /// Preempted mid-execution: back in a scheduler queue but still
    /// holding its locks and partial progress.
    Paused,
    /// Query committed / update applied.
    Committed,
    /// Query exceeded its lifetime and was aborted.
    Expired,
    /// Update superseded by a newer update on the same item and dropped.
    Invalidated,
}

/// Mutable per-query simulation state.
#[derive(Debug, Clone)]
pub(crate) struct QueryState {
    /// Lifecycle position.
    pub status: TxnStatus,
    /// CPU time still needed to commit.
    pub remaining: SimDuration,
    /// Absolute deadline after which the query earns nothing and is
    /// aborted (arrival + lifetime).
    pub expiry: SimTime,
    /// How many times 2PL-HP restarted this query.
    pub restarts: u32,
    /// Whether the query currently holds its read locks.
    pub holds_locks: bool,
}

/// Mutable per-update simulation state.
#[derive(Debug, Clone)]
pub(crate) struct UpdateState {
    /// Lifecycle position.
    pub status: TxnStatus,
    /// CPU time still needed to apply.
    pub remaining: SimDuration,
    /// How many times 2PL-HP restarted this update.
    pub restarts: u32,
    /// Whether the update currently holds its write lock.
    pub holds_locks: bool,
}

impl QueryState {
    /// Initial state for a query with the given cost and expiry.
    pub fn new(cost: SimDuration, expiry: SimTime) -> Self {
        QueryState {
            status: TxnStatus::NotArrived,
            remaining: cost,
            expiry,
            restarts: 0,
            holds_locks: false,
        }
    }
}

impl UpdateState {
    /// Initial state for an update with the given cost.
    pub fn new(cost: SimDuration) -> Self {
        UpdateState {
            status: TxnStatus::NotArrived,
            remaining: cost,
            restarts: 0,
            holds_locks: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_states() {
        let q = QueryState::new(SimDuration::from_ms(7), SimTime::from_ms(100));
        assert_eq!(q.status, TxnStatus::NotArrived);
        assert_eq!(q.remaining, SimDuration::from_ms(7));
        assert_eq!(q.restarts, 0);
        assert!(!q.holds_locks);
        let u = UpdateState::new(SimDuration::from_ms(3));
        assert_eq!(u.remaining, SimDuration::from_ms(3));
    }
}
