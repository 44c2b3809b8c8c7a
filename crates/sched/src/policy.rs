//! Low-level (per-class) queue orderings.
//!
//! The two-level design deliberately leaves the per-class policy open:
//! "QUTS can utilize any priority scheme that considers both time and
//! profit constraints for queries and staleness and profit constraints
//! for updates" (Section 4). The paper — and our default — uses VRD for
//! queries and FIFO for updates; the alternatives here feed the ablation
//! benches.

use crate::idmap::IdMap;
use quts_sim::{QueryId, QueryInfo, UpdateId, UpdateInfo};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Priority rule for the query queue. All rules earn a higher priority
/// for "more profit sooner".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryOrder {
    /// Value over Relative Deadline: `(qosmax + qodmax) / rtmax`
    /// (Haritsa et al.; the paper's choice).
    #[default]
    Vrd,
    /// Arrival order.
    Fifo,
    /// Earliest absolute deadline (`arrival + rtmax`) first.
    Edf,
    /// Profit per unit of CPU demand: `(qosmax + qodmax) / cost`.
    ProfitDensity,
}

/// A query priority key; larger keys run first.
///
/// Real-valued policies (VRD, profit density) compare as `f64`s;
/// time-based policies (FIFO, EDF) compare on exact integer sequence
/// numbers / microseconds. Keeping the integers out of `f64` matters on
/// long-running live engines: past 2^53 events a cast loses low bits and
/// FIFO order silently degrades to "roughly FIFO".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKey {
    /// A real-valued priority; larger is better.
    Real(f64),
    /// An integer instant (sequence number or deadline in µs); *smaller*
    /// is better — earliest first.
    Earliest(u64),
}

impl QueryKey {
    /// Total order with "runs first" = `Ordering::Greater`. Variants never
    /// mix within one queue (a queue has one [`QueryOrder`]); across
    /// variants, `Real` arbitrarily sorts above `Earliest`.
    fn priority_cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (QueryKey::Real(a), QueryKey::Real(b)) => a.total_cmp(b),
            (QueryKey::Earliest(a), QueryKey::Earliest(b)) => b.cmp(a),
            (QueryKey::Real(_), QueryKey::Earliest(_)) => Ordering::Greater,
            (QueryKey::Earliest(_), QueryKey::Real(_)) => Ordering::Less,
        }
    }
}

impl QueryOrder {
    /// The priority key for a query.
    pub fn key(self, info: &QueryInfo) -> QueryKey {
        match self {
            QueryOrder::Vrd => QueryKey::Real(info.vrd),
            QueryOrder::Fifo => QueryKey::Earliest(info.seq),
            QueryOrder::Edf => {
                let rtmax_us = info.rtmax_ms.map(|ms| (ms * 1000.0) as u64).unwrap_or(
                    info.expiry
                        .as_micros()
                        .saturating_sub(info.arrival.as_micros()),
                );
                QueryKey::Earliest(info.arrival.as_micros() + rtmax_us)
            }
            QueryOrder::ProfitDensity => {
                QueryKey::Real((info.qosmax + info.qodmax) / info.cost.as_ms_f64().max(1e-9))
            }
        }
    }

    /// Short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            QueryOrder::Vrd => "VRD",
            QueryOrder::Fifo => "FIFO",
            QueryOrder::Edf => "EDF",
            QueryOrder::ProfitDensity => "PD",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct QEntry {
    key: QueryKey,
    seq: u64,
    id: QueryId,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QEntry {}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first; ties broken by earlier arrival.
        self.key
            .priority_cmp(&other.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue of queries under a [`QueryOrder`].
#[derive(Debug)]
pub(crate) struct QueryQueue {
    order: QueryOrder,
    heap: BinaryHeap<QEntry>,
    // Key/seq memo so a paused query can be re-inserted without its info.
    // Evicted by `finish` once the query reaches a terminal state.
    memo: IdMap<QueryId, (QueryKey, u64)>,
}

impl QueryQueue {
    /// An empty queue with the given ordering.
    pub fn new(order: QueryOrder) -> Self {
        QueryQueue {
            order,
            heap: BinaryHeap::new(),
            memo: IdMap::default(),
        }
    }

    /// Admits a newly arrived query.
    pub fn admit(&mut self, id: QueryId, info: &QueryInfo) {
        let key = self.order.key(info);
        self.memo.insert(id, (key, info.seq));
        self.heap.push(QEntry {
            key,
            seq: info.seq,
            id,
        });
    }

    /// Re-inserts a paused (previously popped) query under its original
    /// priority. The memo survives popping, so pausing needs no
    /// re-computation.
    ///
    /// # Panics
    /// Panics if the query was never admitted (or already finished).
    pub fn requeue(&mut self, id: QueryId) {
        let &(key, seq) = self
            .memo
            .get(&id)
            .expect("requeued query was never admitted");
        self.heap.push(QEntry { key, seq, id });
    }

    /// Removes and returns the highest-priority query.
    pub fn pop(&mut self) -> Option<QueryId> {
        self.heap.pop().map(|e| e.id)
    }

    /// Arrival sequence number of the highest-priority query. Lets a
    /// global-FIFO front end compare the query head against the update
    /// head without popping either.
    pub(crate) fn peek_seq(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.seq)
    }

    /// Evicts the priority memo of a query that reached a terminal state
    /// (committed or expired). Without this a long-running live engine
    /// retains one memo entry per query forever. Must only be called for
    /// queries no longer in the queue (popped, or never re-queued).
    pub fn finish(&mut self, id: QueryId) {
        self.memo.remove(&id);
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of queued queries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Deque id marking an invalidated (dropped) queue entry.
const DEAD: u32 = u32::MAX;
/// Memo value of an id with no retained sequence number.
const NO_SEQ: u64 = u64::MAX;

/// A FIFO queue of updates with O(1) admit/pop and lazy removal of
/// invalidated entries.
///
/// The queue proper is a `VecDeque` of `(seq, id)` pairs kept sorted by
/// arrival sequence. Invalidating a queued update overwrites its id with
/// [`DEAD`] and leaves the entry where it is; a replacement admitted
/// under the invalidated update's sequence number takes the entry over —
/// that is how `InheritPosition` re-entry keeps the queue position.
/// Popping skips dead entries lazily. The fresh-arrival path (monotone
/// sequence numbers, no invalidation) is one array write and one
/// `push_back`: no hashing, no slot indirection.
#[derive(Debug, Default)]
pub(crate) struct UpdateQueue {
    deque: VecDeque<(u64, u32)>,
    // id → seq, dense: update ids are trace indices (simulator) or item
    // indices (live runtime). Survives popping so a paused update can be
    // re-queued; reset to `NO_SEQ` by `finish`/`drop_update`.
    seqs: Vec<u64>,
    live: usize,
}

impl UpdateQueue {
    /// An empty update queue.
    pub fn new() -> Self {
        UpdateQueue::default()
    }

    fn remember(&mut self, id: UpdateId, seq: u64) {
        debug_assert_ne!(id.0, DEAD, "update id collides with the dead marker");
        let i = id.index();
        if i >= self.seqs.len() {
            self.seqs.resize(i + 1, NO_SEQ);
        }
        self.seqs[i] = seq;
    }

    fn forget(&mut self, id: UpdateId) -> Option<u64> {
        let memo = self.seqs.get_mut(id.index()).filter(|s| **s != NO_SEQ)?;
        Some(std::mem::replace(memo, NO_SEQ))
    }

    /// Admits a newly arrived update (FIFO position by arrival order). An
    /// update admitted with the sequence number of a just-invalidated one
    /// inherits its queue position.
    pub fn admit(&mut self, id: UpdateId, info: &UpdateInfo) {
        let seq = info.seq;
        self.remember(id, seq);
        self.live += 1;
        match self.deque.back() {
            Some(&(back_seq, _)) if seq <= back_seq => {
                // Not a fresh arrival: an inherited position. Take over
                // the invalidated entry if it is still queued; if it was
                // already skipped, restore sortedness. Cold path — fresh
                // sequence numbers are monotone.
                let pos = self.deque.partition_point(|&(s, _)| s <= seq);
                if pos > 0 && self.deque[pos - 1] == (seq, DEAD) {
                    self.deque[pos - 1].1 = id.0;
                } else {
                    self.deque.insert(pos, (seq, id.0));
                }
            }
            _ => self.deque.push_back((seq, id.0)),
        }
    }

    /// Re-inserts a paused (previously popped) update at its original
    /// FIFO position.
    ///
    /// # Panics
    /// Panics if the update was never admitted (or already finished).
    pub fn requeue(&mut self, id: UpdateId) {
        let seq = match self.seqs.get(id.index()) {
            Some(&seq) if seq != NO_SEQ => seq,
            _ => panic!("requeued update was never admitted"),
        };
        self.live += 1;
        // Under the single-CPU model the paused update was the oldest
        // live entry, so this is a front insertion.
        let pos = self.deque.partition_point(|&(s, _)| s < seq);
        self.deque.insert(pos, (seq, id.0));
    }

    /// Marks a *queued* update invalidated; it will be skipped when its
    /// queue position is reached (or taken over by a replacement).
    /// Idempotent; also evicts the update's re-queue memo.
    pub fn drop_update(&mut self, id: UpdateId) {
        let Some(seq) = self.forget(id) else {
            return;
        };
        let first = self.deque.partition_point(|&(s, _)| s < seq);
        let entry = self
            .deque
            .range_mut(first..)
            .take_while(|e| e.0 == seq)
            .find(|e| e.1 == id.0);
        if let Some(entry) = entry {
            entry.1 = DEAD;
            self.live -= 1;
        }
    }

    /// Removes and returns the oldest live update.
    pub fn pop(&mut self) -> Option<UpdateId> {
        while let Some((_, raw)) = self.deque.pop_front() {
            if raw != DEAD {
                self.live -= 1;
                return Some(UpdateId(raw));
            }
        }
        None
    }

    /// Removes the oldest live update *without running it* (overload
    /// shedding): popped and its memo evicted in one step.
    pub fn shed(&mut self) -> Option<UpdateId> {
        let id = self.pop()?;
        self.finish(id);
        Some(id)
    }

    /// Arrival sequence number of the oldest live update, the update-side
    /// counterpart of [`QueryQueue::peek_seq`]. Discards dead entries at
    /// the head on the way (a replacement inheriting one of them then
    /// re-enters in sequence order, which is the head again).
    pub(crate) fn peek_seq(&mut self) -> Option<u64> {
        while let Some(&(seq, raw)) = self.deque.front() {
            if raw != DEAD {
                return Some(seq);
            }
            self.deque.pop_front();
        }
        None
    }

    /// Evicts the re-queue memo of an update that reached a terminal
    /// state (applied or aborted). Must only be called for updates no
    /// longer in the queue (popped, or never re-queued).
    pub fn finish(&mut self, id: UpdateId) {
        self.forget(id);
    }

    /// Whether no live updates are queued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live updates queued.
    pub fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use quts_db::StockId;
    use quts_sim::{SimDuration, SimTime};

    /// Re-queue memos `u` retains: bounded by live updates when
    /// `finish`/`drop_update` are called correctly.
    pub(crate) fn update_memos(u: &UpdateQueue) -> usize {
        u.seqs.iter().filter(|&&seq| seq != NO_SEQ).count()
    }

    /// A QueryInfo with the given arrival order, profits and deadline.
    pub fn qinfo(seq: u64, qosmax: f64, qodmax: f64, rtmax_ms: f64) -> QueryInfo {
        let arrival = SimTime::from_ms(seq);
        QueryInfo {
            arrival,
            seq,
            cost: SimDuration::from_ms(7),
            qosmax,
            qodmax,
            rtmax_ms: Some(rtmax_ms),
            vrd: (qosmax + qodmax) / rtmax_ms,
            expiry: arrival + SimDuration::from_ms(1000),
        }
    }

    /// An UpdateInfo with the given arrival order.
    pub fn uinfo(seq: u64, stock: u32) -> UpdateInfo {
        UpdateInfo {
            arrival: SimTime::from_ms(seq),
            seq,
            cost: SimDuration::from_ms(3),
            stock: StockId(stock),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn vrd_orders_by_profit_over_deadline() {
        let mut q = QueryQueue::new(QueryOrder::Vrd);
        q.admit(QueryId(0), &qinfo(0, 10.0, 10.0, 100.0)); // vrd 0.2
        q.admit(QueryId(1), &qinfo(1, 40.0, 40.0, 100.0)); // vrd 0.8
        q.admit(QueryId(2), &qinfo(2, 30.0, 0.0, 50.0)); // vrd 0.6
        assert_eq!(q.pop(), Some(QueryId(1)));
        assert_eq!(q.pop(), Some(QueryId(2)));
        assert_eq!(q.pop(), Some(QueryId(0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let mut q = QueryQueue::new(QueryOrder::Fifo);
        q.admit(QueryId(5), &qinfo(5, 99.0, 99.0, 10.0));
        q.admit(QueryId(6), &qinfo(6, 1.0, 1.0, 999.0));
        assert_eq!(q.pop(), Some(QueryId(5)));
        assert_eq!(q.pop(), Some(QueryId(6)));
    }

    #[test]
    fn peek_seq_matches_pop_without_consuming() {
        let mut q = QueryQueue::new(QueryOrder::Vrd);
        assert_eq!(q.peek_seq(), None);
        q.admit(QueryId(0), &qinfo(3, 10.0, 10.0, 100.0));
        q.admit(QueryId(1), &qinfo(4, 40.0, 40.0, 100.0));
        assert_eq!(q.peek_seq(), Some(4));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(QueryId(1)));
        assert_eq!(q.peek_seq(), Some(3));
    }

    #[test]
    fn fifo_key_is_exact_past_f64_precision() {
        // Consecutive sequence numbers beyond 2^53 collapse to the same
        // f64; the integer key must still order them strictly.
        let mut q = QueryQueue::new(QueryOrder::Fifo);
        let base = (1u64 << 53) + 4;
        assert_eq!(base as f64, (base + 1) as f64, "test premise");
        q.admit(QueryId(1), &qinfo(base + 1, 1.0, 1.0, 100.0));
        q.admit(QueryId(0), &qinfo(base, 1.0, 1.0, 100.0));
        assert_eq!(q.pop(), Some(QueryId(0)));
        assert_eq!(q.pop(), Some(QueryId(1)));
    }

    #[test]
    fn edf_prefers_earliest_deadline() {
        let mut q = QueryQueue::new(QueryOrder::Edf);
        q.admit(QueryId(0), &qinfo(0, 1.0, 1.0, 500.0)); // deadline 500
        q.admit(QueryId(1), &qinfo(1, 1.0, 1.0, 50.0)); // deadline 51
        assert_eq!(q.pop(), Some(QueryId(1)));
    }

    #[test]
    fn profit_density_prefers_cheap_profit() {
        let mut q = QueryQueue::new(QueryOrder::ProfitDensity);
        q.admit(QueryId(0), &qinfo(0, 10.0, 0.0, 100.0));
        q.admit(QueryId(1), &qinfo(1, 50.0, 0.0, 100.0)); // same cost, more profit
        assert_eq!(q.pop(), Some(QueryId(1)));
    }

    #[test]
    fn vrd_ties_break_by_arrival() {
        let mut q = QueryQueue::new(QueryOrder::Vrd);
        q.admit(QueryId(0), &qinfo(0, 10.0, 10.0, 100.0));
        q.admit(QueryId(1), &qinfo(1, 10.0, 10.0, 100.0));
        assert_eq!(q.pop(), Some(QueryId(0)));
        assert_eq!(q.pop(), Some(QueryId(1)));
    }

    #[test]
    fn requeue_restores_priority() {
        let mut q = QueryQueue::new(QueryOrder::Vrd);
        q.admit(QueryId(0), &qinfo(0, 40.0, 40.0, 100.0));
        q.admit(QueryId(1), &qinfo(1, 10.0, 10.0, 100.0));
        let popped = q.pop().unwrap();
        assert_eq!(popped, QueryId(0));
        // Pause: it must come back ahead of the low-priority one.
        q.requeue(popped);
        assert_eq!(q.pop(), Some(QueryId(0)));
        assert_eq!(q.pop(), Some(QueryId(1)));
    }

    #[test]
    #[should_panic(expected = "never admitted")]
    fn requeue_unknown_query_panics() {
        let mut q = QueryQueue::new(QueryOrder::Vrd);
        q.requeue(QueryId(3));
    }

    #[test]
    fn finish_evicts_query_memo() {
        let mut q = QueryQueue::new(QueryOrder::Vrd);
        for i in 0..10u32 {
            q.admit(QueryId(i), &qinfo(i as u64, 10.0, 10.0, 100.0));
        }
        assert_eq!(q.memo.len(), 10);
        while let Some(id) = q.pop() {
            q.finish(id);
        }
        assert_eq!(q.memo.len(), 0);
    }

    #[test]
    #[should_panic(expected = "never admitted")]
    fn requeue_after_finish_panics() {
        let mut q = QueryQueue::new(QueryOrder::Vrd);
        q.admit(QueryId(0), &qinfo(0, 10.0, 10.0, 100.0));
        let id = q.pop().unwrap();
        q.finish(id);
        q.requeue(id);
    }

    #[test]
    fn update_queue_is_fifo() {
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.admit(UpdateId(1), &uinfo(1, 1));
        u.admit(UpdateId(2), &uinfo(2, 2));
        assert_eq!(u.len(), 3);
        assert_eq!(u.pop(), Some(UpdateId(0)));
        assert_eq!(u.pop(), Some(UpdateId(1)));
        assert_eq!(u.pop(), Some(UpdateId(2)));
        assert!(u.is_empty());
    }

    #[test]
    fn dropped_updates_are_skipped() {
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.admit(UpdateId(1), &uinfo(1, 0));
        u.drop_update(UpdateId(0));
        assert_eq!(u.len(), 1);
        assert_eq!(u.pop(), Some(UpdateId(1)));
        assert!(u.is_empty());
        assert_eq!(u.pop(), None);
    }

    #[test]
    fn double_drop_is_idempotent() {
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.drop_update(UpdateId(0));
        u.drop_update(UpdateId(0));
        assert!(u.is_empty());
    }

    #[test]
    fn update_requeue_keeps_fifo_position() {
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.admit(UpdateId(1), &uinfo(1, 1));
        let first = u.pop().unwrap();
        assert_eq!(first, UpdateId(0));
        // Paused update 0 returns: must still precede update 1.
        u.requeue(first);
        assert_eq!(u.pop(), Some(UpdateId(0)));
        assert_eq!(u.pop(), Some(UpdateId(1)));
    }

    #[test]
    fn replacement_inherits_dropped_position() {
        // The InheritPosition re-entry policy: the engine drops the
        // invalidated update and admits the replacement under the *same*
        // sequence number; it must pop in the old update's position.
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.admit(UpdateId(1), &uinfo(1, 1));
        u.admit(UpdateId(2), &uinfo(2, 2));
        u.drop_update(UpdateId(1));
        u.admit(UpdateId(3), &uinfo(1, 1)); // replacement, inherited seq 1
        assert_eq!(u.pop(), Some(UpdateId(0)));
        assert_eq!(u.pop(), Some(UpdateId(3)));
        assert_eq!(u.pop(), Some(UpdateId(2)));
        assert!(u.is_empty());
    }

    #[test]
    fn inherited_admit_after_position_was_skipped() {
        // If the invalidated entry's position already drained past, a
        // late inherited admit still lands in sequence order.
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.admit(UpdateId(1), &uinfo(1, 1));
        u.admit(UpdateId(2), &uinfo(2, 2));
        u.drop_update(UpdateId(0));
        assert_eq!(u.pop(), Some(UpdateId(1))); // skips seq 0's hole
        u.admit(UpdateId(3), &uinfo(0, 0)); // inherited seq 0, hole gone
        assert_eq!(u.pop(), Some(UpdateId(3)));
        assert_eq!(u.pop(), Some(UpdateId(2)));
    }

    #[test]
    fn update_peek_seq_skips_invalidated_heads() {
        let mut u = UpdateQueue::new();
        assert_eq!(u.peek_seq(), None);
        u.admit(UpdateId(0), &uinfo(4, 0));
        u.admit(UpdateId(1), &uinfo(7, 1));
        assert_eq!(u.peek_seq(), Some(4));
        u.drop_update(UpdateId(0));
        assert_eq!(u.peek_seq(), Some(7));
        assert_eq!(u.len(), 1);
        // The skipped head's replacement re-enters at the head.
        u.admit(UpdateId(2), &uinfo(4, 0));
        assert_eq!(u.peek_seq(), Some(4));
        assert_eq!(u.pop(), Some(UpdateId(2)));
        assert_eq!(u.pop(), Some(UpdateId(1)));
        assert_eq!(u.peek_seq(), None);
    }

    #[test]
    fn shed_pops_and_evicts_the_memo() {
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.admit(UpdateId(1), &uinfo(1, 1));
        u.drop_update(UpdateId(0));
        assert_eq!(u.shed(), Some(UpdateId(1)));
        assert_eq!(update_memos(&u), 0);
        assert!(u.is_empty());
        assert_eq!(u.shed(), None);
    }

    #[test]
    fn finish_evicts_update_memo() {
        let mut u = UpdateQueue::new();
        u.admit(UpdateId(0), &uinfo(0, 0));
        u.admit(UpdateId(1), &uinfo(1, 1));
        u.drop_update(UpdateId(0));
        let id = u.pop().unwrap();
        u.finish(id);
        assert_eq!(update_memos(&u), 0);
        assert_eq!(u.pop(), None);
    }

    #[test]
    fn drop_then_pop_leaves_no_state() {
        let mut u = UpdateQueue::new();
        for i in 0..8u32 {
            u.admit(UpdateId(i), &uinfo(i as u64, i));
        }
        for i in 0..8u32 {
            u.drop_update(UpdateId(i));
        }
        assert!(u.is_empty());
        assert_eq!(u.pop(), None);
        assert_eq!(update_memos(&u), 0);
        assert!(u.deque.is_empty(), "invalidated entries must drain");
    }
}

#[cfg(test)]
mod proptests {
    use super::testutil::*;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the order, every admitted query pops exactly once.
        #[test]
        fn conservation(
            n in 1u32..100,
            order_pick in 0usize..4,
        ) {
            let order = [QueryOrder::Vrd, QueryOrder::Fifo, QueryOrder::Edf, QueryOrder::ProfitDensity][order_pick];
            let mut q = QueryQueue::new(order);
            for i in 0..n {
                q.admit(QueryId(i), &qinfo(i as u64, (i % 7) as f64 + 1.0, (i % 3) as f64, 50.0 + i as f64));
            }
            let mut seen = std::collections::HashSet::new();
            while let Some(id) = q.pop() {
                prop_assert!(seen.insert(id));
            }
            prop_assert_eq!(seen.len(), n as usize);
        }

        /// VRD pops in non-increasing key order.
        #[test]
        fn vrd_is_sorted(profits in proptest::collection::vec((1.0..100.0f64, 1.0..100.0f64, 10.0..200.0f64), 1..60)) {
            let mut q = QueryQueue::new(QueryOrder::Vrd);
            let mut keys = std::collections::HashMap::new();
            for (i, &(qos, qod, rt)) in profits.iter().enumerate() {
                let info = qinfo(i as u64, qos, qod, rt);
                keys.insert(QueryId(i as u32), info.vrd);
                q.admit(QueryId(i as u32), &info);
            }
            let mut last = f64::INFINITY;
            while let Some(id) = q.pop() {
                let k = keys[&id];
                prop_assert!(k <= last + 1e-12);
                last = k;
            }
        }

        /// Update queue: pops are in arrival order and never include
        /// dropped ids.
        #[test]
        fn update_queue_fifo_with_drops(drops in proptest::collection::hash_set(0u32..50, 0..20)) {
            let mut u = UpdateQueue::new();
            for i in 0..50u32 {
                u.admit(UpdateId(i), &uinfo(i as u64, 0));
            }
            for &d in &drops {
                u.drop_update(UpdateId(d));
            }
            let mut last = None;
            let mut count = 0;
            while let Some(id) = u.pop() {
                prop_assert!(!drops.contains(&id.0));
                if let Some(prev) = last {
                    prop_assert!(id.0 > prev);
                }
                last = Some(id.0);
                count += 1;
            }
            prop_assert_eq!(count, 50 - drops.len());
        }

        /// Drop/inherit/pop interleavings preserve sequence order among
        /// live updates, and finishing everything drains all memos.
        #[test]
        fn update_queue_inheritance_order(
            ops in proptest::collection::vec((0u8..4, 0u32..24), 1..200)
        ) {
            let mut u = UpdateQueue::new();
            let mut next_seq = 0u64;
            let mut next_id = 0u32;
            let mut queued: Vec<(u64, u32)> = Vec::new(); // (seq, id), sorted by seq
            for (op, pick) in ops {
                match op {
                    0 => {
                        // Fresh admit.
                        let (seq, id) = (next_seq, next_id);
                        next_seq += 1;
                        next_id += 1;
                        u.admit(UpdateId(id), &uinfo(seq, 0));
                        queued.push((seq, id));
                        queued.sort_unstable();
                    }
                    1 => {
                        // Invalidate a random queued update and admit a
                        // replacement that inherits its position.
                        if queued.is_empty() { continue; }
                        let idx = pick as usize % queued.len();
                        let (seq, old) = queued[idx];
                        u.drop_update(UpdateId(old));
                        let id = next_id;
                        next_id += 1;
                        u.admit(UpdateId(id), &uinfo(seq, 0));
                        queued[idx] = (seq, id);
                    }
                    2 => {
                        // Invalidate without replacement.
                        if queued.is_empty() { continue; }
                        let idx = pick as usize % queued.len();
                        let (_, old) = queued.remove(idx);
                        u.drop_update(UpdateId(old));
                    }
                    _ => {
                        // Pop: must be the minimum live seq.
                        let popped = u.pop();
                        if queued.is_empty() {
                            prop_assert_eq!(popped, None);
                        } else {
                            let (_, id) = queued.remove(0);
                            prop_assert_eq!(popped, Some(UpdateId(id)));
                            u.finish(UpdateId(id));
                        }
                    }
                }
                prop_assert_eq!(u.len(), queued.len());
            }
            while let Some(id) = u.pop() {
                u.finish(id);
            }
            prop_assert_eq!(update_memos(&u), 0);
        }
    }
}
