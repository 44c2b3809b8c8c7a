//! The single-priority-queue baseline: global FIFO.
//!
//! Section 3.1 of the paper argues that FIFO is the only reasonable
//! single-queue policy — query priorities (time + profit) and update
//! priorities (staleness + profit) are fundamentally incomparable, so no
//! global priority scheme can use the full QC information. FIFO simply
//! interleaves queries and updates by arrival and never preempts.
//!
//! Ordering uses the engine's global arrival sequence numbers, so an
//! update that replaces an invalidated one (register-table swap) keeps
//! the old queue position.

use crate::policy::{QueryOrder, QueryQueue, UpdateQueue};
use quts_sim::{QueryId, QueryInfo, Scheduler, SimTime, TxnRef, UpdateId, UpdateInfo};

/// Non-preemptive FIFO over the merged arrival stream of both classes:
/// the two per-class queues the other policies use (queries in arrival
/// order), popped by comparing the heads' arrival sequence numbers.
#[derive(Debug)]
pub struct GlobalFifo {
    queries: QueryQueue,
    updates: UpdateQueue,
}

impl Default for GlobalFifo {
    fn default() -> Self {
        GlobalFifo::new()
    }
}

impl GlobalFifo {
    /// An empty global FIFO.
    pub fn new() -> Self {
        GlobalFifo {
            queries: QueryQueue::new(QueryOrder::Fifo),
            updates: UpdateQueue::new(),
        }
    }
}

impl Scheduler for GlobalFifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn admit_query(&mut self, id: QueryId, info: &QueryInfo, _now: SimTime) {
        self.queries.admit(id, info);
    }

    fn admit_update(&mut self, id: UpdateId, info: &UpdateInfo, _now: SimTime) {
        self.updates.admit(id, info);
    }

    fn drop_update(&mut self, id: UpdateId) {
        self.updates.drop_update(id);
    }

    fn shed_update(&mut self) -> Option<UpdateId> {
        self.updates.shed()
    }

    fn finish(&mut self, txn: TxnRef) {
        match txn {
            TxnRef::Query(q) => self.queries.finish(q),
            TxnRef::Update(u) => self.updates.finish(u),
        }
    }

    fn pop_next(&mut self, _now: SimTime) -> Option<TxnRef> {
        // The engine numbers both classes from one counter, so the heads
        // never tie; `<=` only fixes an order for hand-built inputs.
        let query_first = match (self.queries.peek_seq(), self.updates.peek_seq()) {
            (Some(q), Some(u)) => q <= u,
            (q, _) => q.is_some(),
        };
        if query_first {
            self.queries.pop().map(TxnRef::Query)
        } else {
            self.updates.pop().map(TxnRef::Update)
        }
    }

    fn requeue(&mut self, txn: TxnRef, _now: SimTime) {
        match txn {
            TxnRef::Query(q) => self.queries.requeue(q),
            TxnRef::Update(u) => self.updates.requeue(u),
        }
    }

    fn should_preempt(&mut self, _now: SimTime, _running: TxnRef) -> bool {
        false
    }

    fn has_pending(&self) -> bool {
        !self.queries.is_empty() || !self.updates.is_empty()
    }

    fn queue_depths(&self) -> (usize, usize) {
        (self.queries.len(), self.updates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{qinfo, uinfo};

    #[test]
    fn arrival_order_is_preserved() {
        let mut s = GlobalFifo::new();
        let now = SimTime::ZERO;
        s.admit_update(UpdateId(0), &uinfo(0, 0), now);
        s.admit_query(QueryId(0), &qinfo(1, 10.0, 10.0, 50.0), now);
        s.admit_update(UpdateId(1), &uinfo(2, 1), now);
        assert!(s.has_pending());
        assert_eq!(s.pop_next(now), Some(TxnRef::Update(UpdateId(0))));
        assert_eq!(s.pop_next(now), Some(TxnRef::Query(QueryId(0))));
        assert_eq!(s.pop_next(now), Some(TxnRef::Update(UpdateId(1))));
        assert_eq!(s.pop_next(now), None);
        assert!(!s.has_pending());
    }

    #[test]
    fn never_preempts() {
        let mut s = GlobalFifo::new();
        let now = SimTime::ZERO;
        s.admit_query(QueryId(0), &qinfo(0, 10.0, 10.0, 50.0), now);
        assert!(!s.should_preempt(now, TxnRef::Update(UpdateId(9))));
        assert!(!s.should_preempt(now, TxnRef::Query(QueryId(9))));
    }

    #[test]
    fn dropped_update_is_skipped_and_uncounted() {
        let mut s = GlobalFifo::new();
        let now = SimTime::ZERO;
        s.admit_update(UpdateId(0), &uinfo(0, 0), now);
        s.admit_update(UpdateId(1), &uinfo(1, 0), now);
        s.drop_update(UpdateId(0));
        s.drop_update(UpdateId(0)); // idempotent
        assert!(s.has_pending());
        assert_eq!(s.pop_next(now), Some(TxnRef::Update(UpdateId(1))));
        assert!(!s.has_pending());
    }

    #[test]
    fn replacement_update_inherits_position() {
        let mut s = GlobalFifo::new();
        let now = SimTime::ZERO;
        s.admit_update(UpdateId(0), &uinfo(5, 0), now);
        s.admit_query(QueryId(0), &qinfo(6, 1.0, 1.0, 50.0), now);
        // Update 1 replaces update 0, carrying the old seq 5 (the engine
        // passes the inherited value in `info.seq`).
        s.drop_update(UpdateId(0));
        s.admit_update(UpdateId(1), &uinfo(5, 0), now);
        // It still precedes the query that arrived after the original.
        assert_eq!(s.pop_next(now), Some(TxnRef::Update(UpdateId(1))));
        assert_eq!(s.pop_next(now), Some(TxnRef::Query(QueryId(0))));
    }

    #[test]
    fn requeue_restores_position() {
        let mut s = GlobalFifo::new();
        let now = SimTime::ZERO;
        s.admit_query(QueryId(0), &qinfo(0, 1.0, 1.0, 50.0), now);
        s.admit_query(QueryId(1), &qinfo(1, 1.0, 1.0, 50.0), now);
        let first = s.pop_next(now).unwrap();
        s.requeue(first, now);
        assert_eq!(s.pop_next(now), Some(first));
        assert_eq!(s.pop_next(now), Some(TxnRef::Query(QueryId(1))));
    }
}
