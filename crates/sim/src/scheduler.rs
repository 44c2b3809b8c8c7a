//! The scheduler interface every policy implements.
//!
//! The simulator owns the clock, the CPU, the locks and the database; a
//! [`Scheduler`] owns only the *queues* and the policy for ordering them.
//! The engine calls:
//!
//! * [`Scheduler::admit_query`] / [`Scheduler::admit_update`] on arrival,
//! * [`Scheduler::drop_update`] when the register table invalidates a
//!   queued update,
//! * [`Scheduler::shed_update`] when a backlog high-water mark is hit
//!   (the live runtime only; the simulator never sheds),
//! * [`Scheduler::pop_next`] when the CPU is idle,
//! * [`Scheduler::requeue`] when a running transaction is paused and
//!   returns to the queue (keeping its locks and progress),
//! * [`Scheduler::should_preempt`] after every event, to ask whether the
//!   running transaction must yield,
//! * [`Scheduler::next_timer`] / [`Scheduler::on_timer`] for policies with
//!   time-driven state (QUTS atoms and adaptation periods).

use crate::time::{SimDuration, SimTime};
use crate::txn::{QueryId, UpdateId};
use quts_db::StockId;
use quts_metrics::SchedDecision;
use quts_qc::QualityContract;

/// Transaction class: the two sides of the scheduling trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Read-only user query (drives QoS, observes QoD).
    Query,
    /// Write-only blind update (drives QoD).
    Update,
}

impl Class {
    /// The opposite class.
    pub fn other(self) -> Class {
        match self {
            Class::Query => Class::Update,
            Class::Update => Class::Query,
        }
    }
}

/// A reference to a transaction of either class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnRef {
    /// A query by trace index.
    Query(QueryId),
    /// An update by trace index.
    Update(UpdateId),
}

impl TxnRef {
    /// The transaction's class.
    pub fn class(self) -> Class {
        match self {
            TxnRef::Query(_) => Class::Query,
            TxnRef::Update(_) => Class::Update,
        }
    }
}

/// Immutable facts about a query that priority policies may use,
/// precomputed by the engine from the spec and its Quality Contract.
#[derive(Debug, Clone, Copy)]
pub struct QueryInfo {
    /// Arrival time.
    pub arrival: SimTime,
    /// Arrival order among queries (FIFO tie-break).
    pub seq: u64,
    /// CPU service demand.
    pub cost: SimDuration,
    /// `qosmax` of the contract.
    pub qosmax: f64,
    /// `qodmax` of the contract.
    pub qodmax: f64,
    /// Relative deadline (`rtmax`) in milliseconds, if any.
    pub rtmax_ms: Option<f64>,
    /// Precomputed VRD priority `(qosmax + qodmax) / rtmax`.
    pub vrd: f64,
    /// Absolute expiry (arrival + lifetime).
    pub expiry: SimTime,
}

impl QueryInfo {
    /// The admission record of a query under contract `qc`, arriving at
    /// `arrival` as the `seq`-th arrival with service demand `cost`: its
    /// contract's maxima, VRD priority and expiry deadline
    /// (`arrival + lifetime`). Both drivers admit queries through this.
    pub fn new(qc: &QualityContract, arrival: SimTime, seq: u64, cost: SimDuration) -> QueryInfo {
        QueryInfo {
            arrival,
            seq,
            cost,
            qosmax: qc.qosmax(),
            qodmax: qc.qodmax(),
            rtmax_ms: qc.rtmax_ms(),
            vrd: qc.vrd_priority(),
            expiry: arrival + SimDuration::from_ms_f64(qc.default_lifetime_ms()),
        }
    }
}

/// Immutable facts about an update that priority policies may use.
#[derive(Debug, Clone, Copy)]
pub struct UpdateInfo {
    /// Arrival time.
    pub arrival: SimTime,
    /// Arrival order among updates (FIFO key).
    pub seq: u64,
    /// CPU service demand.
    pub cost: SimDuration,
    /// The data item the update writes.
    pub stock: StockId,
}

/// A scheduling policy over a query queue and an update queue.
///
/// Implementations must be deterministic given their construction-time
/// seed; the engine never exposes nondeterministic state to them.
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &'static str;

    /// A query arrived and enters the queue.
    fn admit_query(&mut self, id: QueryId, info: &QueryInfo, now: SimTime);

    /// An update arrived and enters the queue.
    fn admit_update(&mut self, id: UpdateId, info: &UpdateInfo, now: SimTime);

    /// A queued (or paused) update was invalidated by a newer arrival on
    /// the same item and must leave the queue.
    fn drop_update(&mut self, id: UpdateId);

    /// Overload shedding: removes the oldest queued update *without
    /// running it* and returns its id, or `None` when no update is
    /// queued. The shed update is terminal — no [`Scheduler::finish`]
    /// follows. Required of every policy: a driver that sheds at a
    /// backlog high-water mark must never be handed a policy that
    /// silently keeps the backlog.
    fn shed_update(&mut self) -> Option<UpdateId>;

    /// A transaction reached a terminal state — committed, applied,
    /// expired or aborted — and will never be re-queued. Policies that
    /// memoise per-transaction state (priority keys, FIFO positions)
    /// evict it here; otherwise a long-running engine leaks one entry
    /// per transaction forever. Default: no-op.
    fn finish(&mut self, txn: TxnRef) {
        let _ = txn;
    }

    /// Removes and returns the transaction the CPU should run next, or
    /// `None` when both queues are empty.
    fn pop_next(&mut self, now: SimTime) -> Option<TxnRef>;

    /// A transaction that was running returns to the queue (paused with
    /// partial progress, still holding locks). It must be eligible to be
    /// popped again later under the policy's normal ordering.
    fn requeue(&mut self, txn: TxnRef, now: SimTime);

    /// Whether the running transaction must be paused in favour of some
    /// queued one. Called after every event; must be cheap.
    fn should_preempt(&mut self, now: SimTime, running: TxnRef) -> bool;

    /// The next instant at which the policy's internal state changes
    /// (QUTS atom/adaptation boundaries), if any.
    fn next_timer(&mut self, now: SimTime) -> Option<SimTime> {
        let _ = now;
        None
    }

    /// The timer returned by [`Scheduler::next_timer`] fired.
    fn on_timer(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Whether any transaction is queued.
    fn has_pending(&self) -> bool;

    /// The recorded history of the query-CPU-share ρ, for policies that
    /// adapt it (Figure 9d). Other policies return `None`.
    fn rho_history(&self) -> Option<&[(SimTime, f64)]> {
        None
    }

    /// Enables or disables decision tracing. While enabled, the policy
    /// buffers its internal decisions (atom draws, ρ adaptations) as
    /// [`SchedDecision`]s for the engine to collect via
    /// [`Scheduler::drain_decisions`]. Default: no-op — policies without
    /// internal decision state have nothing to record, and the disabled
    /// path stays free.
    fn set_decision_trace(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Moves any buffered decisions into `sink` (in decision order).
    /// Called by the engine after every scheduling round while tracing;
    /// policies that never buffer leave `sink` untouched.
    fn drain_decisions(&mut self, sink: &mut Vec<SchedDecision>) {
        let _ = sink;
    }

    /// Current `(queries, updates)` queue depths, for trace events and
    /// metrics gauges. Policies that cannot split by class may report
    /// `(0, 0)` (the default).
    fn queue_depths(&self) -> (usize, usize) {
        (0, 0)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn admit_query(&mut self, id: QueryId, info: &QueryInfo, now: SimTime) {
        (**self).admit_query(id, info, now)
    }
    fn admit_update(&mut self, id: UpdateId, info: &UpdateInfo, now: SimTime) {
        (**self).admit_update(id, info, now)
    }
    fn drop_update(&mut self, id: UpdateId) {
        (**self).drop_update(id)
    }
    fn shed_update(&mut self) -> Option<UpdateId> {
        (**self).shed_update()
    }
    fn finish(&mut self, txn: TxnRef) {
        (**self).finish(txn)
    }
    fn pop_next(&mut self, now: SimTime) -> Option<TxnRef> {
        (**self).pop_next(now)
    }
    fn requeue(&mut self, txn: TxnRef, now: SimTime) {
        (**self).requeue(txn, now)
    }
    fn should_preempt(&mut self, now: SimTime, running: TxnRef) -> bool {
        (**self).should_preempt(now, running)
    }
    fn next_timer(&mut self, now: SimTime) -> Option<SimTime> {
        (**self).next_timer(now)
    }
    fn on_timer(&mut self, now: SimTime) {
        (**self).on_timer(now)
    }
    fn has_pending(&self) -> bool {
        (**self).has_pending()
    }
    fn rho_history(&self) -> Option<&[(SimTime, f64)]> {
        (**self).rho_history()
    }
    fn set_decision_trace(&mut self, enabled: bool) {
        (**self).set_decision_trace(enabled)
    }
    fn drain_decisions(&mut self, sink: &mut Vec<SchedDecision>) {
        (**self).drain_decisions(sink)
    }
    fn queue_depths(&self) -> (usize, usize) {
        (**self).queue_depths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_other() {
        assert_eq!(Class::Query.other(), Class::Update);
        assert_eq!(Class::Update.other(), Class::Query);
    }

    #[test]
    fn txn_ref_class() {
        assert_eq!(TxnRef::Query(QueryId(0)).class(), Class::Query);
        assert_eq!(TxnRef::Update(UpdateId(0)).class(), Class::Update);
    }
}
