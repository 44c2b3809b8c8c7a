//! Arrival-time generation.
//!
//! Both traces are modelled as non-homogeneous Poisson processes with a
//! prescribed *rate shape*. Because the paper publishes exact transaction
//! counts, [`arrivals_with_shape`] uses the order-statistics property of
//! Poisson processes: conditioned on N arrivals in the horizon, arrival
//! times are N sorted draws from the density proportional to the rate
//! shape — so the generated trace hits the published count exactly while
//! following the published shape.
//!
//! Each draw inverts the segment CDF at one uniform `u` through the guide
//! table of [`crate::popularity`] (start at the first segment reaching
//! `floor(u·k)/k`, scan forward) — the segment `partition_point` would
//! return, found in about one comparison instead of eleven for the
//! generator's 1,800 one-second segments. On a zero-weight segment (a
//! plateau of the CDF, reachable only when `u` sits exactly on it) the
//! position inside the segment still costs a second draw, as it always
//! did. The instants are then sorted with the standard unstable sort: a
//! counting sort by segment was measured and is slower at these sizes.

use crate::popularity::InverseCdf;
use quts_sim::SimTime;
use rand::RngExt;

/// Generates exactly `n` arrival times over `[0, horizon_s)` seconds
/// whose density follows the piecewise-constant `shape` (one weight per
/// equal-width segment; weights need not be normalised).
///
/// Returns times sorted ascending.
///
/// # Panics
/// Panics if `shape` is empty, has a non-positive total weight, or the
/// horizon is not positive.
pub fn arrivals_with_shape<R: RngExt + ?Sized>(
    rng: &mut R,
    n: usize,
    horizon_s: f64,
    shape: &[f64],
) -> Vec<SimTime> {
    assert!(!shape.is_empty(), "shape must have at least one segment");
    assert!(horizon_s > 0.0, "horizon must be positive");
    assert!(
        shape.iter().all(|&w| w >= 0.0 && w.is_finite()),
        "segment weights must be finite and non-negative"
    );
    let total: f64 = shape.iter().sum();
    assert!(total > 0.0, "shape must have positive total weight");

    let inv = InverseCdf::from_weights(shape.iter().copied());
    let seg_width = horizon_s / shape.len() as f64;

    let mut times: Vec<SimTime> = (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            // Segment via inverse CDF, then uniform within the segment.
            let seg = inv.outcome(u);
            let (prev, reach) = inv.interval(seg);
            let within = if reach > prev {
                (u - prev) / (reach - prev)
            } else {
                rng.random()
            };
            let t_s = (seg as f64 + within) * seg_width;
            SimTime((t_s * 1e6) as u64)
        })
        .collect();
    times.sort_unstable();
    times
}

/// Uniform-rate special case of [`arrivals_with_shape`].
pub fn uniform_arrivals<R: RngExt + ?Sized>(rng: &mut R, n: usize, horizon_s: f64) -> Vec<SimTime> {
    arrivals_with_shape(rng, n, horizon_s, &[1.0])
}

/// A rate shape that declines linearly from `start` to `end` relative
/// weight across `segments` segments — the paper's Figure 5b update
/// profile ("the intensity of the updates reduces during the second half
/// of the trace").
pub fn declining_shape(segments: usize, start: f64, end: f64) -> Vec<f64> {
    assert!(segments > 0);
    (0..segments)
        .map(|i| {
            let t = if segments == 1 {
                0.0
            } else {
                i as f64 / (segments - 1) as f64
            };
            start + (end - start) * t
        })
        .collect()
}

/// A near-flat shape with per-segment multiplicative jitter in
/// `[1-jitter, 1+jitter]` — the paper's Figure 5a query profile ("small
/// changes over time").
pub(crate) fn jittered_flat_shape<R: RngExt + ?Sized>(
    rng: &mut R,
    segments: usize,
    jitter: f64,
) -> Vec<f64> {
    assert!(segments > 0);
    assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
    (0..segments)
        .map(|_| 1.0 + jitter * (2.0 * rng.random::<f64>() - 1.0))
        .collect()
}

/// [`arrivals_with_shape`] as it stood before guide tables — a binary
/// search per draw — kept as the oracle the new one is held against.
#[cfg(test)]
mod reference {
    use quts_sim::SimTime;
    use rand::RngExt;

    pub(super) fn arrivals_with_shape<R: RngExt + ?Sized>(
        rng: &mut R,
        n: usize,
        horizon_s: f64,
        shape: &[f64],
    ) -> Vec<SimTime> {
        let total: f64 = shape.iter().sum();
        let mut cdf = Vec::with_capacity(shape.len());
        let mut acc = 0.0;
        for &w in shape {
            acc += w;
            cdf.push(acc / total);
        }
        let seg_width = horizon_s / shape.len() as f64;

        let mut times: Vec<u64> = (0..n)
            .map(|_| {
                let u: f64 = rng.random();
                let seg = cdf.partition_point(|&c| c < u).min(shape.len() - 1);
                let prev = if seg == 0 { 0.0 } else { cdf[seg - 1] };
                let within = if cdf[seg] > prev {
                    (u - prev) / (cdf[seg] - prev)
                } else {
                    rng.random()
                };
                let t_s = (seg as f64 + within) * seg_width;
                (t_s * 1e6) as u64
            })
            .collect();
        times.sort_unstable();
        times.into_iter().map(SimTime).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn exact_count_and_sorted() {
        let times = uniform_arrivals(&mut rng(), 1000, 60.0);
        assert_eq!(times.len(), 1000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|t| t.as_secs_f64() < 60.0));
    }

    #[test]
    fn declining_shape_declines() {
        let s = declining_shape(10, 2.0, 1.0);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(s[0], 2.0);
        assert_eq!(s[9], 1.0);
    }

    #[test]
    fn declining_arrivals_have_more_mass_early() {
        let shape = declining_shape(30, 3.0, 1.0);
        let times = arrivals_with_shape(&mut rng(), 20_000, 100.0, &shape);
        let first_half = times.iter().filter(|t| t.as_secs_f64() < 50.0).count();
        // 3:1 linear decline → mean rate 2.5 vs 1.5 → 62.5% of arrivals
        // in the first half.
        assert!(
            first_half > 12_000 && first_half < 13_000,
            "first half got {first_half}"
        );
    }

    #[test]
    fn jittered_shape_is_near_flat() {
        let s = jittered_flat_shape(&mut rng(), 30, 0.2);
        assert!(s.iter().all(|&w| (0.8..=1.2).contains(&w)));
    }

    #[test]
    fn zero_arrivals_is_fine() {
        assert!(uniform_arrivals(&mut rng(), 0, 10.0).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = uniform_arrivals(&mut StdRng::seed_from_u64(1), 100, 10.0);
        let b = uniform_arrivals(&mut StdRng::seed_from_u64(1), 100, 10.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn all_zero_shape_rejected() {
        let _ = arrivals_with_shape(&mut rng(), 10, 10.0, &[0.0, 0.0]);
    }

    /// An RNG that replays a script: draw `i` yields the unit float
    /// `script[i] / 2^53` exactly.
    struct Scripted {
        script: Vec<u64>,
        drawn: usize,
    }

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.drawn += 1;
            self.script[self.drawn - 1] << 11
        }
    }

    /// Draws no seeded RNG will produce on demand: `u` exactly on a CDF
    /// entry, one step above it, zero on a zero-weight first segment (the
    /// one case that costs a second draw), and the largest `u` there is.
    #[test]
    fn edge_draws_match_reference_and_consume_the_same_draws() {
        // Total 8, so every CDF entry is a dyadic fraction the RNG can hit.
        let shape = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0];
        let unit = 1u64 << 53;
        let script = vec![
            0,            // u = 0 on a zero-weight segment:
            unit / 3,     //   ... its position is this second draw
            unit / 8,     // exactly cdf[2] (= cdf[3] = cdf[4])
            unit / 8 + 1, // just past the plateau
            unit / 4,
            unit / 4 + 1,
            unit / 2,
            unit / 2 + 1,
            unit - 1,
            0, // zero again:
            0, //   ... and a zero second draw
            unit / 8 - 1,
        ];
        let n = 10;
        let mut new_rng = Scripted {
            script: script.clone(),
            drawn: 0,
        };
        let mut old_rng = Scripted { script, drawn: 0 };
        let new = arrivals_with_shape(&mut new_rng, n, 9.0, &shape);
        let old = reference::arrivals_with_shape(&mut old_rng, n, 9.0, &shape);
        assert_eq!(new, old);
        assert_eq!(new_rng.drawn, 12, "two draws landed on the plateau at 0");
        assert_eq!(new_rng.drawn, old_rng.drawn);
    }

    #[test]
    fn segment_with_zero_weight_gets_no_arrivals() {
        let times = arrivals_with_shape(&mut rng(), 5000, 10.0, &[1.0, 0.0]);
        assert!(times.iter().all(|t| t.as_secs_f64() < 5.0 + 1e-9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Same draws, same instants, same RNG afterwards — over shapes
        /// with zero-weight runs, a single segment, and no arrivals.
        #[test]
        fn matches_reference_draw_for_draw(
            shape in proptest::collection::vec(
                prop_oneof![Just(0.0), Just(0.0), Just(1.0), 0.0..5.0f64],
                1..120,
            ),
            anchor in 0usize..120,
            n in 0usize..400,
            horizon in 1.0..2000.0f64,
            seed in 0u64..1000,
        ) {
            let mut shape = shape;
            let segs = shape.len();
            shape[anchor % segs] = 1.0; // a positive total
            let mut rng_new = StdRng::seed_from_u64(seed);
            let mut rng_old = rng_new.clone();
            let new = arrivals_with_shape(&mut rng_new, n, horizon, &shape);
            let old = reference::arrivals_with_shape(&mut rng_old, n, horizon, &shape);
            prop_assert_eq!(new, old);
            prop_assert_eq!(format!("{rng_new:?}"), format!("{rng_old:?}"));
        }

        #[test]
        fn within_horizon_and_sorted(
            seed in 0u64..1000,
            n in 0usize..500,
            horizon in 1.0..1000.0f64,
            segs in 1usize..20,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape: Vec<f64> = (0..segs).map(|i| 1.0 + (i % 3) as f64).collect();
            let times = arrivals_with_shape(&mut rng, n, horizon, &shape);
            prop_assert_eq!(times.len(), n);
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(times.iter().all(|t| t.as_secs_f64() < horizon));
        }
    }
}
