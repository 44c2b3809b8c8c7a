//! The simulator's event queue.
//!
//! Events are ordered by `(time, sequence)` — the sequence number breaks
//! simultaneous-event ties deterministically in insertion order, so a run
//! is a pure function of its inputs. Completion events carry a *run
//! token*: pausing or aborting the transaction bumps the CPU's token,
//! turning the stale completion into a no-op when it surfaces.

use crate::time::SimTime;
use crate::txn::{QueryId, UpdateId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Something scheduled to happen at a future instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The transaction on the CPU finishes, if the token still matches.
    Completion {
        /// Which transaction.
        txn: TxnEvent,
        /// CPU dispatch token at scheduling time.
        run_token: u64,
    },
    /// A scheduler timer (QUTS atom / adaptation boundary) fires.
    Timer,
}

/// The transaction a completion event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnEvent {
    /// A query commit.
    Query(QueryId),
    /// An update application.
    Update(UpdateId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// The time of the earliest scheduled event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(30), Event::Timer);
        q.push(SimTime::from_ms(10), Event::Timer);
        q.push(SimTime::from_ms(20), Event::Timer);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(times, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(5);
        q.push(
            t,
            Event::Completion {
                txn: TxnEvent::Query(QueryId(1)),
                run_token: 0,
            },
        );
        q.push(
            t,
            Event::Completion {
                txn: TxnEvent::Update(UpdateId(2)),
                run_token: 0,
            },
        );
        q.push(t, Event::Timer);
        let events: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert!(matches!(
            events[0],
            Event::Completion {
                txn: TxnEvent::Query(QueryId(1)),
                ..
            }
        ));
        assert!(matches!(
            events[1],
            Event::Completion {
                txn: TxnEvent::Update(UpdateId(2)),
                ..
            }
        ));
        assert_eq!(events[2], Event::Timer);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ms(7), Event::Timer);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(7)));
        assert_eq!(q.heap.len(), 1);
        q.pop();
        assert!(q.heap.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn always_nondecreasing(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime(t), Event::Timer);
            }
            let mut last = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t.as_micros() >= last);
                last = t.as_micros();
            }
        }
    }
}
