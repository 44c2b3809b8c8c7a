//! The update register table.
//!
//! "Users are only interested in the most recent value, thus we do not
//! need to process all updates. The arrival of a new update automatically
//! invalidates any pending update on the same data item. This is done by
//! maintaining an update register table where each entry has hash-based
//! access on the data item and an update identifier." (Section 2.1)
//!
//! The register maps each item to its *single* pending (arrived but
//! unapplied) update; registering a newer update returns the invalidated
//! one so the caller can drop it from the queue without violating
//! consistency.
//!
//! What a slot holds is the driver's choice: the simulator keeps the
//! update's trace index ([`UpdateId`], the default), the live runtime its
//! trace label, queue position and payload.
//!
//! `StockId`s are dense `0..num_stocks` indices, so the "hash-based
//! access" of the paper degenerates to a direct `Vec` index here — one
//! slot per item, grown on demand, no hashing on the update-arrival path.

use crate::store::StockId;

/// Opaque update identifier assigned by the caller (the simulator uses
/// its arrival sequence number).
pub type UpdateId = u64;

/// Tracks, per data item, the one pending update worth applying.
#[derive(Debug, Clone)]
pub struct UpdateRegister<T = UpdateId> {
    pending: Vec<Option<T>>,
    live: usize,
    invalidated: u64,
}

impl<T> Default for UpdateRegister<T> {
    fn default() -> Self {
        UpdateRegister {
            pending: Vec::new(),
            live: 0,
            invalidated: 0,
        }
    }
}

impl<T> UpdateRegister<T> {
    /// An empty register.
    pub fn new() -> Self {
        UpdateRegister::default()
    }

    /// Registers a newly arrived update for `item`. If an older update was
    /// pending on the same item it is returned — the caller must drop it
    /// (its work is subsumed by the new value).
    pub fn register(&mut self, item: StockId, update: T) -> Option<T> {
        let idx = item.index();
        if idx >= self.pending.len() {
            self.pending.resize_with(idx + 1, || None);
        }
        let old = self.pending[idx].replace(update);
        match old {
            Some(_) => self.invalidated += 1,
            None => self.live += 1,
        }
        old
    }

    /// Marks the update pending on `item` applied (or shed): clears the
    /// slot and returns what it held, or `None` when nothing was pending.
    /// An invalidated update left the table when it was replaced, so this
    /// only ever returns the current one.
    pub fn complete(&mut self, item: StockId) -> Option<T> {
        let done = self.pending.get_mut(item.index())?.take()?;
        self.live -= 1;
        Some(done)
    }

    /// The currently pending update on `item`, if any.
    pub fn pending(&self, item: StockId) -> Option<&T> {
        self.pending.get(item.index())?.as_ref()
    }

    /// Number of items with a pending update.
    pub fn pending_items(&self) -> usize {
        self.live
    }

    /// Total updates invalidated (dropped unapplied) so far — the work the
    /// register saved the CPU.
    pub fn invalidated_count(&self) -> u64 {
        self.invalidated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: StockId = StockId(7);

    #[test]
    fn first_registration_has_no_victim() {
        let mut r = UpdateRegister::new();
        assert_eq!(r.register(S, 1), None);
        assert_eq!(r.pending(S), Some(&1));
        assert_eq!(r.invalidated_count(), 0);
    }

    #[test]
    fn newer_update_invalidates_older() {
        let mut r = UpdateRegister::new();
        r.register(S, 1);
        assert_eq!(r.register(S, 2), Some(1));
        assert_eq!(r.pending(S), Some(&2));
        assert_eq!(r.invalidated_count(), 1);
    }

    #[test]
    fn complete_clears_only_current() {
        let mut r = UpdateRegister::new();
        r.register(S, 1);
        r.register(S, 2);
        // Update 1 was invalidated: completing the item yields update 2,
        // and the slot is then empty — never a resurrected update 1.
        assert_eq!(r.complete(S), Some(2));
        assert_eq!(r.pending(S), None);
        assert_eq!(r.complete(S), None);
    }

    #[test]
    fn items_are_independent() {
        let mut r = UpdateRegister::new();
        r.register(StockId(1), 10);
        r.register(StockId(2), 20);
        assert_eq!(r.pending_items(), 2);
        assert_eq!(r.register(StockId(1), 11), Some(10));
        assert_eq!(r.pending(StockId(2)), Some(&20));
    }

    #[test]
    fn complete_on_empty_is_noop() {
        let mut r = UpdateRegister::<UpdateId>::new();
        assert_eq!(r.complete(S), None);
        assert_eq!(r.pending_items(), 0);
    }

    #[test]
    fn pending_items_round_trips() {
        let mut r = UpdateRegister::new();
        r.register(StockId(0), 1);
        r.register(StockId(3), 2);
        r.register(StockId(3), 3);
        assert_eq!(r.pending_items(), 2);
        assert_eq!(r.complete(StockId(0)), Some(1));
        assert_eq!(r.complete(StockId(3)), Some(3));
        assert_eq!(r.pending_items(), 0);
    }

    #[test]
    fn a_slot_holds_any_payload() {
        // The live runtime's shape: (trace label, queue seq, price).
        let mut r = UpdateRegister::new();
        r.register(S, (1u64, 10u64, 42.0f64));
        let &(label, seq, _) = r.pending(S).unwrap();
        assert_eq!(r.register(S, (label, seq, 43.0)), Some((1, 10, 42.0)));
        assert_eq!(r.complete(S), Some((1, 10, 43.0)));
        assert_eq!(r.pending_items(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// At most one pending update per item, and it is always the
        /// most recently registered one.
        #[test]
        fn latest_wins(ops in proptest::collection::vec((0u32..8, 0u64..1000), 1..200)) {
            let mut r = UpdateRegister::new();
            let mut latest: std::collections::HashMap<u32, u64> = Default::default();
            let mut seq = 0u64;
            for (item, _) in ops {
                seq += 1;
                r.register(StockId(item), seq);
                latest.insert(item, seq);
            }
            for (item, id) in latest {
                prop_assert_eq!(r.pending(StockId(item)), Some(&id));
            }
        }

        /// register→complete round trips leave the register empty, and the
        /// invalidation count equals registrations minus distinct items.
        #[test]
        fn invalidation_accounting(items in proptest::collection::vec(0u32..16, 1..100)) {
            let mut r = UpdateRegister::new();
            for (i, &item) in items.iter().enumerate() {
                r.register(StockId(item), i as u64);
            }
            let distinct: std::collections::HashSet<u32> = items.iter().copied().collect();
            prop_assert_eq!(r.pending_items(), distinct.len());
            prop_assert_eq!(
                r.invalidated_count(),
                (items.len() - distinct.len()) as u64
            );
            for &item in &distinct {
                prop_assert!(r.complete(StockId(item)).is_some());
            }
            prop_assert_eq!(r.pending_items(), 0);
        }
    }
}
