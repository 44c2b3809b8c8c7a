//! A hash map for the workspace's own integer ids.
//!
//! Query ids, update ids and arrival sequence numbers are small
//! integers the program assigns itself, so the per-lookup SipHash of the
//! default hasher — there to blunt keys an adversary chose — buys
//! nothing on the scheduler's per-event path. [`IdHasher`] is one
//! multiply. Keep the default hasher for anything keyed by outside
//! input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a program-assigned integer id.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Fibonacci hashing: `id × 2⁶⁴/φ`. Consecutive ids land in distinct
/// buckets (the low bits of an odd multiple are a bijection) and the
/// high bits, which the table uses as its control tag, are well mixed.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reached by integer keys; correct for any other `Hash`.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(GOLDEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quts_sim::QueryId;

    #[test]
    fn behaves_as_a_map_over_sequential_and_wrapped_ids() {
        let mut map: IdMap<QueryId, u64> = IdMap::default();
        let ids = (0..10_000u32).chain(u32::MAX - 100..=u32::MAX);
        for id in ids.clone() {
            assert_eq!(map.insert(QueryId(id), u64::from(id) * 3), None);
        }
        assert_eq!(map.len(), 10_101);
        for id in ids {
            assert_eq!(map.remove(&QueryId(id)), Some(u64::from(id) * 3));
        }
        assert!(map.is_empty());
    }

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        // 1,024 consecutive ids must not pile into a few of 1,024
        // buckets: the low ten bits of the hash are all distinct.
        let mut seen = std::collections::HashSet::new();
        for id in 0..1024u64 {
            let mut h = IdHasher::default();
            h.write_u64(id);
            seen.insert(h.finish() & 1023);
        }
        assert_eq!(seen.len(), 1024);
    }
}
