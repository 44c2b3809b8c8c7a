//! # Schedulers for queries and updates under Quality Contracts
//!
//! The policies evaluated in the QUTS paper:
//!
//! * [`GlobalFifo`] — one queue for both classes, ordered by arrival
//!   (Section 3.1; the only sensible single-queue policy, since QoS and
//!   QoD priorities are incomparable).
//! * [`GlobalGreedy`] — the single-*priority*-queue strawman of Section
//!   3.1, merging the two incomparable scales with a fixed exchange
//!   rate; exists to demonstrate empirically why it cannot win.
//! * [`DualQueue`] — preemptive dual priority queues with a *fixed*
//!   class priority: Update-High / Query-High, with VRD or FIFO query
//!   ordering ([`DualQueue::uh`], [`DualQueue::qh`], and the intro's
//!   naive [`DualQueue::fifo_uh`] / [`DualQueue::fifo_qh`]).
//! * [`Quts`] — the paper's contribution: a two-level scheduler whose
//!   high level hands the CPU to the query queue with probability ρ
//!   (re-drawn every atom time τ) and adapts ρ every adaptation period ω
//!   from the submitted Quality Contracts; the low level orders each
//!   queue independently ([`QueryOrder`] for queries, FIFO for updates).
//!
//! The ρ model itself — `Q ≈ QOSmax·ρ + QODmax·ρ·(1−ρ)` and its closed-
//! form maximiser — lives in [`rho`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dual;
pub mod fifo;
pub mod greedy;
pub mod idmap;
pub mod nonpreemptive;
pub mod policy;
pub mod quts;
pub mod rho;

pub use dual::DualQueue;
pub use fifo::GlobalFifo;
pub use greedy::GlobalGreedy;
pub use idmap::IdMap;
pub use nonpreemptive::NonPreemptive;
pub use policy::QueryOrder;
pub use quts::{Quts, QutsConfig, RHO_HISTORY_CAP};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{qinfo, uinfo};
    use quts_sim::{QueryId, Scheduler, SimTime, TxnRef, UpdateId};

    const NOW: SimTime = SimTime::ZERO;

    /// `shed_update` under every policy: the oldest *live* update goes,
    /// unexecuted; invalidated entries are skipped; the books stay right;
    /// and a replacement that later inherits a skipped position still
    /// lands in sequence order.
    #[test]
    fn every_policy_sheds_the_oldest_live_update() {
        let policies: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Quts::with_defaults()),
            Box::new(DualQueue::uh()),
            Box::new(DualQueue::qh()),
            Box::new(GlobalFifo::new()),
            Box::new(GlobalGreedy::new(0.5)),
            Box::new(NonPreemptive(Quts::with_defaults())),
        ];
        for mut s in policies {
            let name = s.name();
            assert_eq!(s.shed_update(), None, "{name}: nothing to shed");
            s.admit_update(UpdateId(0), &uinfo(0, 0), NOW);
            s.admit_update(UpdateId(1), &uinfo(1, 1), NOW);
            s.admit_update(UpdateId(2), &uinfo(2, 2), NOW);
            s.admit_query(QueryId(0), &qinfo(3, 10.0, 10.0, 100.0), NOW);
            // Update 0 is invalidated: the oldest live update is 1.
            s.drop_update(UpdateId(0));
            s.finish(TxnRef::Update(UpdateId(0)));
            assert_eq!(s.shed_update(), Some(UpdateId(1)), "{name}");
            assert!(s.has_pending(), "{name}");
            assert_eq!(s.queue_depths(), (1, 1), "{name}: one query, update 2");
            // The invalidated update's replacement arrives only now, under
            // the inherited sequence number 0: it must still precede 2.
            s.admit_update(UpdateId(3), &uinfo(0, 0), NOW);
            assert_eq!(s.queue_depths(), (1, 2), "{name}");
            let mut updates = Vec::new();
            while let Some(txn) = s.pop_next(NOW) {
                if let TxnRef::Update(u) = txn {
                    updates.push(u);
                }
                s.finish(txn);
            }
            assert_eq!(updates, [UpdateId(3), UpdateId(2)], "{name}");
            assert!(!s.has_pending(), "{name}");
            assert_eq!(s.queue_depths(), (0, 0), "{name}");
            assert_eq!(s.shed_update(), None, "{name}: drained");
        }
    }
}
