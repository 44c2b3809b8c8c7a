//! A single *priority* queue over both classes — the strawman Section 3.1
//! of the paper argues cannot work.
//!
//! Query priorities live on a profit-per-deadline scale (VRD); update
//! priorities live on a staleness-pressure scale. To merge them into one
//! queue you must pick an *exchange rate* between the two scales.
//! [`GlobalGreedy`] does exactly that: queries are ranked by VRD, updates
//! by a flat `exchange_rate`, and the queue pops the maximum.
//!
//! The paper's claim — reproduced by the `ablations` experiment — is that
//! no fixed exchange rate is right: a low rate degenerates to Query-High
//! (updates starve whenever queries wait), a high rate to Update-High
//! (queries starve under update surges), and every intermediate value is
//! merely a blend that some workload mix defeats. The information needed
//! to set the rate correctly *is* the users' QoS/QoD preference mix, and
//! reacting to it per-period is precisely what QUTS' two-level design
//! does instead.

use crate::policy::UpdateQueue;
use quts_sim::{QueryId, QueryInfo, Scheduler, SimTime, TxnRef, UpdateId, UpdateInfo};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

#[derive(Debug, Clone, Copy)]
struct Entry {
    priority: f64,
    seq: u64,
    txn: TxnRef,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A placeholder update id used on heap *slots* — a slot entry only says
/// "an update won this pop"; the shadow FIFO picks which one.
const UPDATE_SLOT: TxnRef = TxnRef::Update(UpdateId(u32::MAX));

/// Non-preemptive greedy policy over one merged priority queue:
/// `priority(query) = VRD`, `priority(update) = exchange_rate`.
///
/// Updates are represented in the heap by interchangeable *slots* at the
/// exchange rate; when a slot wins, the FIFO-correct update (with
/// register-table position inheritance) is the one served. Invalidation
/// can leave surplus slots behind; they die silently when popped.
#[derive(Debug)]
pub struct GlobalGreedy {
    exchange_rate: f64,
    heap: BinaryHeap<Entry>,
    /// Per-query `(priority, seq, queued-copies)`; copies > 1 after a
    /// requeue, dead heap duplicates are skipped at pop.
    queries: HashMap<QueryId, (f64, u64, u32)>,
    live_queries: usize,
    /// FIFO among updates, preserving register-table position
    /// inheritance.
    update_order: UpdateQueue,
}

impl GlobalGreedy {
    /// A greedy merger valuing every queued update at `exchange_rate`
    /// (on the same scale as query VRD: dollars per millisecond of
    /// relative deadline).
    ///
    /// # Panics
    /// Panics unless the rate is finite and non-negative.
    pub fn new(exchange_rate: f64) -> Self {
        assert!(
            exchange_rate.is_finite() && exchange_rate >= 0.0,
            "exchange rate must be finite and non-negative"
        );
        GlobalGreedy {
            exchange_rate,
            heap: BinaryHeap::new(),
            queries: HashMap::new(),
            live_queries: 0,
            update_order: UpdateQueue::new(),
        }
    }

    /// The configured exchange rate.
    pub fn exchange_rate(&self) -> f64 {
        self.exchange_rate
    }

    fn push_update_slot(&mut self, seq: u64) {
        self.heap.push(Entry {
            priority: self.exchange_rate,
            seq,
            txn: UPDATE_SLOT,
        });
    }
}

impl Scheduler for GlobalGreedy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn admit_query(&mut self, id: QueryId, info: &QueryInfo, _now: SimTime) {
        self.queries.insert(id, (info.vrd, info.seq, 1));
        self.heap.push(Entry {
            priority: info.vrd,
            seq: info.seq,
            txn: TxnRef::Query(id),
        });
        self.live_queries += 1;
    }

    fn admit_update(&mut self, id: UpdateId, info: &UpdateInfo, _now: SimTime) {
        self.update_order.admit(id, info);
        self.push_update_slot(info.seq);
    }

    fn drop_update(&mut self, id: UpdateId) {
        // The matching slot becomes surplus and dies when popped.
        self.update_order.drop_update(id);
    }

    fn shed_update(&mut self) -> Option<UpdateId> {
        // As above: the shed update's slot is surplus from here on.
        self.update_order.shed()
    }

    fn finish(&mut self, txn: TxnRef) {
        match txn {
            // Any dead heap duplicates left behind die at pop (missing
            // memo reads as a skip).
            TxnRef::Query(q) => {
                self.queries.remove(&q);
            }
            TxnRef::Update(u) => self.update_order.finish(u),
        }
    }

    fn pop_next(&mut self, _now: SimTime) -> Option<TxnRef> {
        while let Some(entry) = self.heap.pop() {
            match entry.txn {
                TxnRef::Query(q) => {
                    let Some(memo) = self.queries.get_mut(&q) else {
                        continue;
                    };
                    if memo.2 == 0 {
                        continue; // dead duplicate from a requeue cycle
                    }
                    memo.2 -= 1;
                    self.live_queries -= 1;
                    return Some(TxnRef::Query(q));
                }
                TxnRef::Update(_) => {
                    // A slot won; serve the FIFO-correct update.
                    match self.update_order.pop() {
                        Some(u) => return Some(TxnRef::Update(u)),
                        None => continue, // surplus slot after invalidation
                    }
                }
            }
        }
        None
    }

    fn requeue(&mut self, txn: TxnRef, _now: SimTime) {
        match txn {
            TxnRef::Query(q) => {
                let memo = self
                    .queries
                    .get_mut(&q)
                    .expect("requeued query was never admitted");
                memo.2 += 1;
                let (priority, seq, _) = *memo;
                self.heap.push(Entry { priority, seq, txn });
                self.live_queries += 1;
            }
            TxnRef::Update(u) => {
                self.update_order.requeue(u);
                self.push_update_slot(0);
            }
        }
    }

    fn should_preempt(&mut self, _now: SimTime, _running: TxnRef) -> bool {
        false
    }

    fn has_pending(&self) -> bool {
        self.live_queries > 0 || !self.update_order.is_empty()
    }

    fn queue_depths(&self) -> (usize, usize) {
        (self.live_queries, self.update_order.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{qinfo, uinfo};

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn zero_rate_serves_updates_last() {
        let mut s = GlobalGreedy::new(0.0);
        s.admit_update(UpdateId(0), &uinfo(0, 0), NOW);
        s.admit_query(QueryId(0), &qinfo(1, 10.0, 10.0, 100.0), NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(0))));
        assert_eq!(s.pop_next(NOW), None);
    }

    #[test]
    fn huge_rate_serves_updates_first() {
        let mut s = GlobalGreedy::new(1e9);
        s.admit_query(QueryId(0), &qinfo(0, 99.0, 99.0, 10.0), NOW);
        s.admit_update(UpdateId(0), &uinfo(1, 0), NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(0))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
    }

    #[test]
    fn intermediate_rate_splits_by_vrd() {
        // Rate 0.5: queries above VRD 0.5 beat updates, others lose.
        let mut s = GlobalGreedy::new(0.5);
        s.admit_query(QueryId(0), &qinfo(0, 10.0, 10.0, 100.0), NOW); // vrd 0.2
        s.admit_update(UpdateId(0), &uinfo(1, 0), NOW);
        s.admit_query(QueryId(1), &qinfo(2, 90.0, 0.0, 100.0), NOW); // vrd 0.9
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(1))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(0))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
    }

    #[test]
    fn updates_stay_fifo_among_themselves() {
        let mut s = GlobalGreedy::new(1.0);
        s.admit_update(UpdateId(5), &uinfo(10, 0), NOW);
        s.admit_update(UpdateId(2), &uinfo(11, 1), NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(5))));
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(2))));
    }

    #[test]
    fn dropped_updates_are_skipped() {
        let mut s = GlobalGreedy::new(1.0);
        s.admit_update(UpdateId(0), &uinfo(0, 0), NOW);
        s.admit_update(UpdateId(1), &uinfo(1, 0), NOW);
        s.drop_update(UpdateId(0));
        assert!(s.has_pending());
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(1))));
        assert_eq!(s.pop_next(NOW), None);
        assert!(!s.has_pending());
    }

    #[test]
    fn requeue_round_trips() {
        let mut s = GlobalGreedy::new(0.5);
        s.admit_query(QueryId(0), &qinfo(0, 90.0, 0.0, 100.0), NOW);
        s.admit_update(UpdateId(0), &uinfo(1, 0), NOW);
        let first = s.pop_next(NOW).unwrap();
        assert_eq!(first, TxnRef::Query(QueryId(0)));
        s.requeue(first, NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Query(QueryId(0))));
        let u = s.pop_next(NOW).unwrap();
        s.requeue(u, NOW);
        assert_eq!(s.pop_next(NOW), Some(TxnRef::Update(UpdateId(0))));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rate_rejected() {
        let _ = GlobalGreedy::new(-1.0);
    }
}
