//! Dual-priority-queue baselines with a fixed class priority.
//!
//! Section 3.2 of the paper: with two queues, queries and updates each
//! keep their own priority scheme and only the *queues* are compared.
//! Update-High (UH) lets the update queue preempt the query queue —
//! guaranteeing zero staleness but starving queries under update surges;
//! Query-High (QH) is the mirror image. Both order queries by VRD and
//! updates by FIFO. The intro's naive FIFO-UH / FIFO-QH variants
//! (Figure 1) differ only in ordering queries by FIFO.
//!
//! Their shared deficiency — and QUTS' motivation — is the *fixed*
//! priority between the classes: each always favours one quality
//! dimension, whatever the users' contracts say.

use crate::policy::{QueryOrder, QueryQueue, UpdateQueue};
use quts_sim::{Class, QueryId, QueryInfo, Scheduler, SimTime, TxnRef, UpdateId, UpdateInfo};

/// A preemptive dual-queue scheduler with a fixed high-priority class.
#[derive(Debug)]
pub struct DualQueue {
    name: &'static str,
    high: Class,
    queries: QueryQueue,
    updates: UpdateQueue,
}

impl DualQueue {
    /// Update-High: the paper's UH baseline (VRD queries, FIFO updates).
    pub fn uh() -> Self {
        DualQueue {
            name: "UH",
            high: Class::Update,
            queries: QueryQueue::new(QueryOrder::Vrd),
            updates: UpdateQueue::new(),
        }
    }

    /// Query-High: the paper's QH baseline (VRD queries, FIFO updates).
    pub fn qh() -> Self {
        DualQueue {
            name: "QH",
            high: Class::Query,
            queries: QueryQueue::new(QueryOrder::Vrd),
            updates: UpdateQueue::new(),
        }
    }

    /// The intro's naive FIFO-UH (FIFO queries, FIFO updates).
    pub fn fifo_uh() -> Self {
        DualQueue {
            name: "FIFO-UH",
            high: Class::Update,
            queries: QueryQueue::new(QueryOrder::Fifo),
            updates: UpdateQueue::new(),
        }
    }

    /// The intro's naive FIFO-QH (FIFO queries, FIFO updates).
    pub fn fifo_qh() -> Self {
        DualQueue {
            name: "FIFO-QH",
            high: Class::Query,
            queries: QueryQueue::new(QueryOrder::Fifo),
            updates: UpdateQueue::new(),
        }
    }

    fn queue_nonempty(&self, class: Class) -> bool {
        match class {
            Class::Query => !self.queries.is_empty(),
            Class::Update => !self.updates.is_empty(),
        }
    }

    fn pop_class(&mut self, class: Class) -> Option<TxnRef> {
        match class {
            Class::Query => self.queries.pop().map(TxnRef::Query),
            Class::Update => self.updates.pop().map(TxnRef::Update),
        }
    }
}

impl Scheduler for DualQueue {
    fn name(&self) -> &'static str {
        self.name
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
        self.pop_class(self.high)
            .or_else(|| self.pop_class(self.high.other()))
    }

    fn requeue(&mut self, txn: TxnRef, _now: SimTime) {
        match txn {
            TxnRef::Query(q) => self.queries.requeue(q),
            TxnRef::Update(u) => self.updates.requeue(u),
        }
    }

    fn should_preempt(&mut self, _now: SimTime, running: TxnRef) -> bool {
        // The high queue preempts a running low-class transaction; within
        // a class execution is non-preemptive.
        running.class() != self.high && self.queue_nonempty(self.high)
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

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn uh_serves_updates_first() {
        let mut s = DualQueue::uh();
        s.admit_query(QueryId(0), &qinfo(0, 99.0, 99.0, 10.0), NOW);
        s.admit_update(UpdateId(0), &uinfo(1, 0), NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(0))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
    }

    #[test]
    fn qh_serves_queries_first() {
        let mut s = DualQueue::qh();
        s.admit_update(UpdateId(0), &uinfo(0, 0), NOW);
        s.admit_query(QueryId(0), &qinfo(1, 1.0, 1.0, 100.0), NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(0))));
    }

    #[test]
    fn uh_preempts_running_query_on_update_arrival() {
        let mut s = DualQueue::uh();
        assert!(!s.should_preempt(NOW, TxnRef::Query(QueryId(0))));
        s.admit_update(UpdateId(0), &uinfo(0, 0), NOW);
        assert!(s.should_preempt(NOW, TxnRef::Query(QueryId(0))));
        // A running update is never preempted.
        assert!(!s.should_preempt(NOW, TxnRef::Update(UpdateId(1))));
    }

    #[test]
    fn qh_preempts_running_update_on_query_arrival() {
        let mut s = DualQueue::qh();
        s.admit_query(QueryId(0), &qinfo(0, 1.0, 1.0, 50.0), NOW);
        assert!(s.should_preempt(NOW, TxnRef::Update(UpdateId(0))));
        assert!(!s.should_preempt(NOW, TxnRef::Query(QueryId(1))));
    }

    #[test]
    fn uh_orders_queries_by_vrd() {
        let mut s = DualQueue::uh();
        s.admit_query(QueryId(0), &qinfo(0, 10.0, 0.0, 100.0), NOW); // vrd .1
        s.admit_query(QueryId(1), &qinfo(1, 90.0, 0.0, 100.0), NOW); // vrd .9
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(1))));
    }

    #[test]
    fn fifo_variants_order_queries_by_arrival() {
        let mut s = DualQueue::fifo_qh();
        s.admit_query(QueryId(0), &qinfo(0, 1.0, 0.0, 100.0), NOW);
        s.admit_query(QueryId(1), &qinfo(1, 99.0, 0.0, 10.0), NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
    }

    #[test]
    fn requeue_both_classes() {
        let mut s = DualQueue::qh();
        s.admit_query(QueryId(0), &qinfo(0, 1.0, 1.0, 50.0), NOW);
        s.admit_update(UpdateId(0), &uinfo(1, 0), NOW);
        let q = s.pop_next(NOW).unwrap();
        let u = s.pop_next(NOW).unwrap();
        s.requeue(u, NOW);
        s.requeue(q, NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(0))));
        assert!(!s.has_pending());
    }

    #[test]
    fn drop_update_clears_preemption_pressure() {
        let mut s = DualQueue::uh();
        s.admit_update(UpdateId(0), &uinfo(0, 0), NOW);
        assert!(s.should_preempt(NOW, TxnRef::Query(QueryId(0))));
        s.drop_update(UpdateId(0));
        assert!(!s.should_preempt(NOW, TxnRef::Query(QueryId(0))));
        assert!(!s.has_pending());
    }
}
