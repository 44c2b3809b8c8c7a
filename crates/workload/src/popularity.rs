//! Item popularity: Zipf samplers and anti-correlated rankings.
//!
//! Figure 5c of the paper plots per-stock update frequency against query
//! frequency: both are heavily skewed (a few hot stocks dominate), most
//! points sit below the diagonal (more updates than queries), and "many
//! of the updates occur on the stocks with very few queries". We model
//! this with two Zipf distributions over *ranks* plus a configurable
//! anti-correlation between the query ranking and the update ranking of
//! each stock.
//!
//! # Sampling
//!
//! A rank is drawn by inverting the cumulative distribution at one
//! uniform `u`: the answer is the first rank whose cumulative mass
//! reaches `u`. [`InverseCdf`] finds it through a *guide table* (Chen &
//! Asau 1974): entry `j` of `k` holds the first rank whose cumulative
//! mass reaches `j / k`, so the search starts there and scans forward —
//! about one comparison per draw, where a binary search over 4,608 ranks
//! takes twelve. The scan stops at exactly the index
//! `cdf.partition_point(|&c| c < u)` stops at, so which rank a given `u`
//! maps to — and with it every generated trace — is unchanged; the
//! `reference` tests hold the two side by side.

use quts_db::StockId;
use rand::RngExt;

/// The inverse of a discrete cumulative distribution, answered from a
/// guide table instead of a binary search.
///
/// `edges` is the CDF with a leading `0.0` — outcome `i` owns the interval
/// `(edges[i], edges[i + 1]]` — and [`PROBE`] trailing `+∞`. `guide[j]`
/// is the first outcome whose upper edge reaches `j / k`, where `k =
/// guide.len()` is a power of two: `u * k` and `j / k` are then exact in
/// floating point, so `guide[floor(u * k)]` never overshoots the outcome
/// `u` falls in, and a forward scan from it ends where a binary search
/// over the whole CDF would.
#[derive(Debug, Clone)]
pub(crate) struct InverseCdf {
    edges: Vec<f64>,
    guide: Vec<u32>,
}

/// Upper edges the forward scan compares per step. Counting how many of
/// them lie below `u` takes no branch (the edges are sorted, so the count
/// is the distance to advance), and how far a draw scans is as random as
/// the draw — a branch per edge mispredicts about every other time.
const PROBE: usize = 4;

impl InverseCdf {
    /// Accumulates `weights` (finite, non-negative, positive in total)
    /// into a normalised CDF and builds its guide table in one linear
    /// walk.
    pub(crate) fn from_weights(weights: impl Iterator<Item = f64>) -> Self {
        let mut edges = vec![0.0];
        let mut acc = 0.0;
        edges.extend(weights.map(|w| {
            acc += w;
            acc
        }));
        let total = acc;
        for c in &mut edges[1..] {
            *c /= total;
        }
        debug_assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        let n = edges.len() - 1;
        assert!(
            n > 0 && u32::try_from(n).is_ok(),
            "outcome count out of range"
        );
        edges.extend([f64::INFINITY; PROBE]);

        let k = n.next_power_of_two();
        let mut guide = Vec::with_capacity(k);
        let mut i = 0;
        for j in 0..k {
            let reach = j as f64 / k as f64;
            while edges[i + 1] < reach {
                i += 1;
            }
            guide.push(i as u32);
        }
        InverseCdf { edges, guide }
    }

    /// Number of outcomes.
    pub(crate) fn len(&self) -> usize {
        self.edges.len() - 1 - PROBE
    }

    /// The outcome a unit draw `u` (in `[0, 1)`) falls in:
    /// `cdf.partition_point(|&c| c < u)`, clamped to the last outcome.
    #[inline]
    pub(crate) fn outcome(&self, u: f64) -> usize {
        let j = (u * self.guide.len() as f64) as usize;
        let mut i = self.guide[j] as usize;
        loop {
            let passed = self.edges[i + 1..i + 1 + PROBE]
                .iter()
                .filter(|&&c| c < u)
                .count();
            i += passed;
            if passed < PROBE {
                return i.min(self.len() - 1);
            }
        }
    }

    /// The interval `(lo, hi]` of cumulative mass outcome `i` owns.
    #[inline]
    pub(crate) fn interval(&self, i: usize) -> (f64, f64) {
        (self.edges[i], self.edges[i + 1])
    }
}

/// Samples ranks `0..n` with probability ∝ `1 / (rank+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    inv: InverseCdf,
}

impl ZipfSampler {
    /// A Zipf sampler over `n` ranks with exponent `s` (`s = 0` is
    /// uniform; larger `s` is more skewed).
    ///
    /// # Panics
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be >= 0");
        let weights = (0..n).map(|rank| 1.0 / ((rank + 1) as f64).powf(s));
        ZipfSampler {
            inv: InverseCdf::from_weights(weights),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.inv.len()
    }

    /// Whether the sampler is over zero ranks (never true — `new` rejects
    /// that), kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.inv.len() == 0
    }

    /// Draws a rank (0 = most popular).
    #[inline]
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> usize {
        self.inv.outcome(rng.random())
    }
}

/// Maps popularity *ranks* to stock ids for the two transaction classes.
///
/// Query ranks are assigned by a random permutation; update ranks blend
/// the query ranking with random noise under a signed correlation knob:
///
/// * `+1` — fully anti-correlated: the most-updated stock is the
///   least-queried one,
/// * `0` — independent rankings,
/// * `-1` — fully correlated: hot stocks are hot for both classes (the
///   usual shape of real market data, where heavily traded tickers are
///   also heavily watched).
#[derive(Debug, Clone)]
pub struct PopularityMap {
    query_rank_to_stock: Vec<StockId>,
    update_rank_to_stock: Vec<StockId>,
}

impl PopularityMap {
    /// Builds the two rankings over `n` stocks.
    ///
    /// # Panics
    /// Panics if `n` is zero or `anti_correlation` is outside `[-1, 1]`.
    pub fn new<R: RngExt + ?Sized>(rng: &mut R, n: u32, anti_correlation: f64) -> Self {
        assert!(n > 0, "need at least one stock");
        assert!(
            (-1.0..=1.0).contains(&anti_correlation),
            "anti-correlation must be in [-1, 1]"
        );
        // Query ranking: random permutation of the stocks.
        let mut query_rank_to_stock: Vec<StockId> = (0..n).map(StockId).collect();
        shuffle(rng, &mut query_rank_to_stock);

        // Stock → its query rank.
        let mut query_rank_of = vec![0usize; n as usize];
        for (rank, &s) in query_rank_to_stock.iter().enumerate() {
            query_rank_of[s.index()] = rank;
        }

        // Update ranking: order stocks by a score that grows with their
        // query *coldness* (positive knob) or *hotness* (negative knob),
        // blended with uniform noise.
        let strength = anti_correlation.abs();
        let mut scored: Vec<(f64, u32)> = (0..n)
            .map(|s| {
                let coldness = query_rank_of[s as usize] as f64 / n as f64;
                let signal = if anti_correlation >= 0.0 {
                    coldness
                } else {
                    1.0 - coldness
                };
                let noise: f64 = rng.random();
                (strength * signal + (1.0 - strength) * noise, s)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let update_rank_to_stock = scored.into_iter().map(|(_, s)| StockId(s)).collect();

        PopularityMap {
            query_rank_to_stock,
            update_rank_to_stock,
        }
    }

    /// The stock at a given query-popularity rank (0 = hottest).
    pub fn query_stock(&self, rank: usize) -> StockId {
        self.query_rank_to_stock[rank]
    }

    /// The stock at a given update-popularity rank (0 = hottest).
    pub fn update_stock(&self, rank: usize) -> StockId {
        self.update_rank_to_stock[rank]
    }

    /// Number of stocks.
    pub fn len(&self) -> usize {
        self.query_rank_to_stock.len()
    }

    /// Always false (construction rejects zero stocks).
    pub fn is_empty(&self) -> bool {
        self.query_rank_to_stock.is_empty()
    }
}

/// Fisher–Yates shuffle (avoids depending on rand's `SliceRandom`
/// across version churn).
fn shuffle<R: RngExt + ?Sized, T>(rng: &mut R, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// The sampler as it stood before guide tables — a normalised CDF and
/// `partition_point` — kept as the oracle the new one is held against.
#[cfg(test)]
mod reference {
    use rand::RngExt;

    pub(super) struct ZipfSampler {
        cdf: Vec<f64>,
    }

    impl ZipfSampler {
        pub(super) fn new(n: usize, s: f64) -> Self {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for rank in 0..n {
                acc += 1.0 / ((rank + 1) as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            ZipfSampler { cdf }
        }

        pub(super) fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> usize {
            let u: f64 = rng.random();
            self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
        }

        pub(super) fn mass(&self, rank: usize) -> f64 {
            let prev = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
            self.cdf[rank] - prev
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The probability mass of a rank: the width of its CDF interval.
    pub(super) fn mass(z: &ZipfSampler, rank: usize) -> f64 {
        let (lo, hi) = z.inv.interval(rank);
        hi - lo
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn zipf_masses_sum_to_one() {
        let z = ZipfSampler::new(100, 1.0);
        let total: f64 = (0..100).map(|r| mass(&z, r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank0_dominates() {
        let z = ZipfSampler::new(1000, 1.0);
        assert!(mass(&z, 0) > mass(&z, 1));
        assert!(mass(&z, 1) > mass(&z, 10));
        assert!(mass(&z, 10) > mass(&z, 500));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((mass(&z, r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_empirical_skew() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = rng();
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 carries ~1/H(100) ≈ 19% of the mass.
        assert!(counts[0] > 8_000, "rank 0 sampled {}", counts[0]);
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
    }

    #[test]
    fn popularity_map_is_a_bijection() {
        let m = PopularityMap::new(&mut rng(), 50, 0.5);
        let mut q: Vec<u32> = (0..50).map(|r| m.query_stock(r).0).collect();
        let mut u: Vec<u32> = (0..50).map(|r| m.update_stock(r).0).collect();
        q.sort_unstable();
        u.sort_unstable();
        assert_eq!(q, (0..50).collect::<Vec<_>>());
        assert_eq!(u, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn full_anti_correlation_reverses_ranking() {
        let m = PopularityMap::new(&mut rng(), 20, 1.0);
        for rank in 0..20 {
            assert_eq!(m.update_stock(rank), m.query_stock(19 - rank));
        }
    }

    #[test]
    fn full_correlation_matches_rankings() {
        let m = PopularityMap::new(&mut rng(), 20, -1.0);
        for rank in 0..20 {
            assert_eq!(m.update_stock(rank), m.query_stock(rank));
        }
    }

    #[test]
    fn zero_anti_correlation_is_independent_ish() {
        // Not a strict statistical test: just check it is not the exact
        // reversal and the map is still a bijection.
        let m = PopularityMap::new(&mut rng(), 200, 0.0);
        let reversed = (0..200).all(|r| m.update_stock(r) == m.query_stock(199 - r));
        assert!(!reversed);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PopularityMap::new(&mut StdRng::seed_from_u64(5), 64, 0.7);
        let b = PopularityMap::new(&mut StdRng::seed_from_u64(5), 64, 0.7);
        assert_eq!(a.query_rank_to_stock, b.query_rank_to_stock);
        assert_eq!(a.update_rank_to_stock, b.update_rank_to_stock);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::mass;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn zipf_samples_in_range(n in 1usize..500, s in 0.0..3.0f64, seed in 0u64..100) {
            let z = ZipfSampler::new(n, s);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        #[test]
        fn zipf_matches_reference_draw_for_draw(
            n in 1usize..700,
            s in prop_oneof![Just(0.0), 0.0..3.0f64],
            seed in 0u64..1000,
        ) {
            let new = ZipfSampler::new(n, s);
            let old = reference::ZipfSampler::new(n, s);
            for rank in 0..n {
                prop_assert_eq!(mass(&new, rank).to_bits(), old.mass(rank).to_bits());
            }
            let mut rng_new = StdRng::seed_from_u64(seed);
            let mut rng_old = rng_new.clone();
            for _ in 0..300 {
                prop_assert_eq!(new.sample(&mut rng_new), old.sample(&mut rng_old));
            }
            prop_assert_eq!(format!("{rng_new:?}"), format!("{rng_old:?}"));
        }

        /// `outcome(u)` is `partition_point(|c| c < u)` for every `u`, not
        /// only those an RNG happens to produce: exactly on an edge, one
        /// ulp either side of it, zero, and across zero-weight runs.
        #[test]
        fn outcome_is_partition_point(
            weights in proptest::collection::vec(
                prop_oneof![Just(0.0), Just(0.0), Just(1.0), 0.0..4.0f64],
                1..90,
            ),
            anchor in 0usize..90,
            us in proptest::collection::vec(0.0..1.0f64, 0..60),
        ) {
            let mut weights = weights;
            let n = weights.len();
            weights[anchor % n] = 1.0; // a positive total
            let inv = InverseCdf::from_weights(weights.iter().copied());
            prop_assert_eq!(inv.len(), n);

            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            let cdf: Vec<f64> = weights
                .iter()
                .map(|&w| {
                    acc += w;
                    acc / total
                })
                .collect();
            for (i, &c) in cdf.iter().enumerate() {
                let lo = if i == 0 { 0.0 } else { cdf[i - 1] };
                prop_assert_eq!(inv.interval(i), (lo, c));
            }

            let probes = us
                .into_iter()
                .chain([0.0, 1.0 - f64::EPSILON / 2.0])
                .chain(cdf.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]))
                .filter(|u| (0.0..1.0).contains(u));
            for u in probes {
                let want = cdf.partition_point(|&c| c < u).min(n - 1);
                prop_assert_eq!(inv.outcome(u), want, "u = {:e}", u);
            }
        }

        #[test]
        fn map_is_always_bijective(n in 1u32..300, a in -1.0..=1.0f64, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = PopularityMap::new(&mut rng, n, a);
            let mut seen = std::collections::HashSet::new();
            for r in 0..n as usize {
                prop_assert!(seen.insert(m.update_stock(r)));
            }
            prop_assert_eq!(seen.len(), n as usize);
        }
    }
}
