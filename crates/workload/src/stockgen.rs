//! The calibrated Stock.com/NYSE-style trace generator.
//!
//! Produces a [`Trace`] matching the paper's Table 3 and Figure 5; see
//! the crate docs for the published-fact ↔ knob mapping. Scale the whole
//! workload down with [`StockWorkloadConfig::scaled`] for tests and
//! quick experiments — rates (and therefore the overload level, the key
//! driver of the scheduling results) are preserved.

use crate::arrivals::{arrivals_with_shape, declining_shape, jittered_flat_shape};
use crate::popularity::{PopularityMap, ZipfSampler};
use crate::trace::Trace;
use quts_db::{QueryOp, StockId, Trade};
use quts_qc::QualityContract;
use quts_sim::{QuerySpec, SimDuration, SimTime, UpdateSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generator knobs, defaulting to the paper's published workload.
///
/// ```
/// use quts_workload::StockWorkloadConfig;
///
/// // Two seconds of the paper's workload, same rates and overload level.
/// let trace = StockWorkloadConfig::paper_scaled_to(2.0).generate();
/// assert_eq!(trace.num_stocks, 4608); // the universe never shrinks
/// assert!(trace.queries.len() > 50);
/// assert!(trace.updates.len() > trace.queries.len()); // ~6x more updates
/// ```
#[derive(Debug, Clone)]
pub struct StockWorkloadConfig {
    /// Number of stocks (`Nd`); paper: 4,608.
    pub num_stocks: u32,
    /// Number of queries; paper: 82,129.
    pub num_queries: usize,
    /// Number of updates; paper: 496,892.
    pub num_updates: usize,
    /// Trace length in seconds; paper: 1,800 (9:30–10:00 am).
    pub horizon_s: f64,
    /// Query cost range in milliseconds; paper: 5–9 ms.
    pub query_cost_ms: (f64, f64),
    /// Update cost range in milliseconds; paper: 1–5 ms.
    pub update_cost_ms: (f64, f64),
    /// Zipf exponent of query popularity.
    pub query_zipf: f64,
    /// Zipf exponent of update popularity.
    pub update_zipf: f64,
    /// Signed rank correlation between update and query popularity:
    /// +1 = update-hot stocks avoid query-hot stocks, 0 = independent,
    /// -1 = the same stocks are hot in both classes (real market shape).
    pub anti_correlation: f64,
    /// End-of-trace update rate relative to the start (Fig 5b decline).
    pub update_rate_decline: f64,
    /// Query-rate jitter amplitude (Fig 5a "small changes").
    pub query_rate_jitter: f64,
    /// Probability of each query type: lookup, moving average, compare,
    /// portfolio (must sum to 1).
    pub query_mix: [f64; 4],
    /// Stocks accessed by compare/portfolio queries.
    pub multi_stock_range: (usize, usize),
    /// Second-scale flash crowds in the query stream ("the avalanche of
    /// queries from jittery investors").
    pub query_bursts: BurstModel,
    /// Second-scale trade surges in the update stream ("a tsunami of
    /// stock trades because of breaking news").
    pub update_bursts: BurstModel,
    /// Millisecond-scale clustering of trades on the same stock (one
    /// market order executing against several resting orders produces a
    /// run of near-simultaneous trades).
    pub trade_clustering: TradeClustering,
    /// Master RNG seed; the whole trace is a pure function of the config.
    pub seed: u64,
}

/// Random short-lived rate surges layered over the base arrival shape.
///
/// Web traffic is bursty at second scale; these transients are what make
/// the *fixed-priority* baselines fail — QH starves updates exactly while
/// most queries commit, UH starves queries during trade surges — and what
/// QUTS' probabilistic time-sharing rides out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstModel {
    /// Expected bursts per minute of trace.
    pub per_minute: f64,
    /// Burst duration range, in seconds.
    pub duration_s: (f64, f64),
    /// Rate multiplier range during a burst.
    pub intensity: (f64, f64),
}

/// Millisecond-scale same-stock trade clustering.
///
/// Real exchange feeds deliver runs of trades on one ticker within
/// milliseconds; all but the last collapse in the update register table
/// even under Update-High scheduling, which is what keeps the UH
/// baseline's effective update demand below CPU capacity (the paper's
/// FIFO-UH averages ~11.6 s query response times — a *bounded* backlog).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeClustering {
    /// Mean trades per cluster (≥ 1; 1 disables clustering).
    pub mean_size: f64,
    /// Gap between consecutive trades of a cluster, in milliseconds.
    pub gap_ms: (f64, f64),
}

impl TradeClustering {
    /// No clustering: every trade is independent.
    pub fn none() -> Self {
        TradeClustering {
            mean_size: 1.0,
            gap_ms: (1.0, 1.0),
        }
    }
}

impl BurstModel {
    /// No bursts at all (smooth Poisson arrivals).
    pub fn none() -> Self {
        BurstModel {
            per_minute: 0.0,
            duration_s: (1.0, 1.0),
            intensity: (1.0, 1.0),
        }
    }

    /// Multiplies a per-second rate profile by sampled bursts.
    fn apply<R: RngExt + ?Sized>(&self, rng: &mut R, per_second: &mut [f64]) {
        let horizon_s = per_second.len() as f64;
        let expected = self.per_minute * horizon_s / 60.0;
        // Deterministic-count approximation of a Poisson number of bursts.
        let count = expected.floor() as usize + usize::from(rng.random::<f64>() < expected.fract());
        for _ in 0..count {
            let start = rng.random_range(0.0..horizon_s);
            let duration = rng.random_range(self.duration_s.0..=self.duration_s.1);
            let intensity = rng.random_range(self.intensity.0..=self.intensity.1);
            let lo = start as usize;
            let hi = ((start + duration).ceil() as usize).min(per_second.len());
            for x in &mut per_second[lo..hi] {
                *x *= intensity;
            }
        }
    }
}

impl Default for StockWorkloadConfig {
    fn default() -> Self {
        StockWorkloadConfig {
            num_stocks: 4_608,
            num_queries: 82_129,
            num_updates: 496_892,
            horizon_s: 1_800.0,
            query_cost_ms: (5.0, 9.0),
            update_cost_ms: (1.0, 5.0),
            query_zipf: 0.8,
            update_zipf: 0.9,
            anti_correlation: 0.0,
            update_rate_decline: 0.4,
            query_rate_jitter: 0.25,
            query_mix: [0.60, 0.20, 0.15, 0.05],
            multi_stock_range: (2, 5),
            query_bursts: BurstModel {
                per_minute: 0.55,
                duration_s: (10.0, 20.0),
                intensity: (2.8, 3.9),
            },
            update_bursts: BurstModel {
                per_minute: 0.5,
                duration_s: (2.0, 10.0),
                intensity: (2.0, 4.0),
            },
            trade_clustering: TradeClustering {
                mean_size: 1.25,
                gap_ms: (0.2, 3.0),
            },
            seed: 20000424, // the trace date
        }
    }
}

impl StockWorkloadConfig {
    /// Divides counts and horizon by `factor`, keeping all *rates* (and
    /// the overload level) intact. The stock universe is deliberately NOT
    /// shrunk: pending updates are capped at one per stock, so fewer
    /// stocks would cap the update backlog and destroy the staleness
    /// dynamics the experiments measure.
    ///
    /// # Panics
    /// Panics if `factor` is zero or would empty the workload.
    pub fn scaled(&self, factor: u32) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        let cfg = StockWorkloadConfig {
            num_queries: self.num_queries / factor as usize,
            num_updates: self.num_updates / factor as usize,
            horizon_s: self.horizon_s / factor as f64,
            ..self.clone()
        };
        assert!(
            cfg.num_queries > 0 && cfg.num_updates > 0 && cfg.horizon_s > 0.0,
            "scale factor {factor} empties the workload"
        );
        cfg
    }

    /// Convenience: the paper-scale workload shrunk to roughly
    /// `seconds` of trace (useful default for experiments that sweep
    /// many configurations).
    pub fn paper_scaled_to(seconds: f64) -> Self {
        let base = StockWorkloadConfig::default();
        let factor = (base.horizon_s / seconds).round().max(1.0) as u32;
        base.scaled(factor)
    }

    /// Offered CPU load: total service demand over the horizon, using
    /// mean costs. The paper's workload is ~1.15 (overloaded), which is
    /// what makes the scheduling choice matter.
    pub fn offered_load(&self) -> f64 {
        let q = self.num_queries as f64 * (self.query_cost_ms.0 + self.query_cost_ms.1) / 2.0;
        let u = self.num_updates as f64 * (self.update_cost_ms.0 + self.update_cost_ms.1) / 2.0;
        (q + u) / (self.horizon_s * 1000.0)
    }

    /// Generates the trace. Deterministic per configuration.
    pub fn generate(&self) -> Trace {
        assert!(self.num_stocks > 0, "need at least one stock");
        assert!(
            (self.query_mix.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "query mix must sum to 1"
        );
        assert!(self.query_cost_ms.0 <= self.query_cost_ms.1);
        assert!(self.update_cost_ms.0 <= self.update_cost_ms.1);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let popularity = PopularityMap::new(&mut rng, self.num_stocks, self.anti_correlation);
        let query_zipf = ZipfSampler::new(self.num_stocks as usize, self.query_zipf);
        let update_zipf = ZipfSampler::new(self.num_stocks as usize, self.update_zipf);

        // Arrival processes: a coarse per-segment base shape (like the
        // per-minute plots of Fig 5) refined to per-second resolution and
        // overlaid with flash-crowd bursts.
        let segments = 30;
        let q_base = jittered_flat_shape(&mut rng, segments, self.query_rate_jitter);
        let u_base = declining_shape(segments, 1.0, self.update_rate_decline);
        let seconds = (self.horizon_s.ceil() as usize).max(1);
        let refine = |base: &[f64]| -> Vec<f64> {
            (0..seconds)
                .map(|s| {
                    let seg = (s * base.len()) / seconds;
                    base[seg.min(base.len() - 1)]
                })
                .collect()
        };
        let mut q_shape = refine(&q_base);
        let mut u_shape = refine(&u_base);
        self.query_bursts.apply(&mut rng, &mut q_shape);
        self.update_bursts.apply(&mut rng, &mut u_shape);
        let q_times = arrivals_with_shape(&mut rng, self.num_queries, self.horizon_s, &q_shape);

        // Updates: cluster heads from the arrival process, expanded into
        // millisecond-scale same-stock runs, then a price random walk in
        // time order.
        let mean_cluster = self.trade_clustering.mean_size.max(1.0);
        let continue_p = 1.0 - 1.0 / mean_cluster;
        let n_heads = ((self.num_updates as f64 / mean_cluster).ceil() as usize)
            .clamp(1, self.num_updates.max(1));
        let head_times = arrivals_with_shape(&mut rng, n_heads, self.horizon_s, &u_shape);
        let mut events: Vec<Event> = Vec::with_capacity(self.num_updates);
        'outer: for head in head_times {
            let stock = popularity.update_stock(update_zipf.sample(&mut rng));
            let mut t = head;
            loop {
                events.push((t, stock));
                if events.len() == self.num_updates {
                    break 'outer;
                }
                if rng.random::<f64>() >= continue_p {
                    break;
                }
                let gap_ms = rng
                    .random_range(self.trade_clustering.gap_ms.0..=self.trade_clustering.gap_ms.1);
                t += duration_from_ms(gap_ms);
            }
        }
        // Heads came sorted and a cluster trails its head by milliseconds:
        // the stream is in `(time, stock)` order but for neighbours.
        sort_nearly_sorted(&mut events);
        if events.len() < self.num_updates {
            // Pad with independent singletons so the count is exact.
            let extra = arrivals_with_shape(
                &mut rng,
                self.num_updates - events.len(),
                self.horizon_s,
                &u_shape,
            );
            let mut singles: Vec<Event> = extra
                .into_iter()
                .map(|t| (t, popularity.update_stock(update_zipf.sample(&mut rng))))
                .collect();
            // A handful, sorted by time; equal instants may disagree on
            // stock.
            singles.sort_unstable();
            merge_sorted_into(&mut events, &singles);
        }

        let mut prices = vec![100.0f64; self.num_stocks as usize];
        let updates: Vec<UpdateSpec> = events
            .into_iter()
            .map(|(arrival, stock)| {
                let p = &mut prices[stock.index()];
                // ±0.5% step, floored away from zero.
                *p = (*p * (1.0 + 0.005 * (2.0 * rng.random::<f64>() - 1.0))).max(0.01);
                UpdateSpec {
                    arrival,
                    trade: Trade {
                        stock,
                        price: *p,
                        volume: rng.random_range(100..10_000),
                        trade_time_ms: arrival.as_micros() / 1000,
                    },
                    cost: duration_from_ms(
                        rng.random_range(self.update_cost_ms.0..=self.update_cost_ms.1),
                    ),
                }
            })
            .collect();

        // Queries: type mix over Zipf-popular stocks. Contracts start as
        // balanced placeholders; experiments overwrite them via
        // `qcgen::assign_qcs`.
        let queries: Vec<QuerySpec> = q_times
            .into_iter()
            .map(|arrival| {
                let pick = |rng: &mut StdRng| popularity.query_stock(query_zipf.sample(rng));
                let kind: f64 = rng.random();
                let op = if kind < self.query_mix[0] {
                    QueryOp::Lookup(pick(&mut rng))
                } else if kind < self.query_mix[0] + self.query_mix[1] {
                    QueryOp::MovingAverage {
                        stock: pick(&mut rng),
                        window: rng.random_range(4..32),
                    }
                } else {
                    let n = rng
                        .random_range(self.multi_stock_range.0..=self.multi_stock_range.1)
                        .min(self.num_stocks as usize);
                    let mut stocks = Vec::with_capacity(n);
                    while stocks.len() < n {
                        let s = pick(&mut rng);
                        if !stocks.contains(&s) {
                            stocks.push(s);
                        }
                    }
                    if kind < self.query_mix[0] + self.query_mix[1] + self.query_mix[2] {
                        QueryOp::Compare(stocks)
                    } else {
                        QueryOp::Portfolio(
                            stocks
                                .into_iter()
                                .map(|s| (s, rng.random_range(1.0..100.0)))
                                .collect(),
                        )
                    }
                };
                QuerySpec {
                    arrival,
                    op,
                    cost: duration_from_ms(
                        rng.random_range(self.query_cost_ms.0..=self.query_cost_ms.1),
                    ),
                    qc: QualityContract::step(25.0, 75.0, 25.0, 1),
                }
            })
            .collect();

        Trace {
            num_stocks: self.num_stocks,
            queries,
            updates,
        }
    }
}

/// [`SimDuration::from_ms_f64`] without its call into libm's `round`,
/// which the generator would otherwise make once per transaction: below
/// 2^52 µs a float's fraction is exact, so truncating and comparing the
/// remainder with one half rounds half away from zero exactly as `round`
/// does. Anything else (huge, negative, NaN) takes the original.
#[inline]
fn duration_from_ms(ms: f64) -> SimDuration {
    let us = ms * 1_000.0;
    if !(0.0..4_503_599_627_370_496.0).contains(&us) {
        return SimDuration::from_ms_f64(ms);
    }
    let whole = us as i64;
    let rounded = SimDuration((whole + i64::from(us - whole as f64 >= 0.5)) as u64);
    debug_assert_eq!(rounded, SimDuration::from_ms_f64(ms));
    rounded
}

/// One update before its price walk: arrival and stock, ordered by both.
type Event = (SimTime, StockId);

/// Sorts `events` that are already in order but for short-range swaps,
/// by insertion: linear while every element sits within a few places of
/// its slot, which is what millisecond cluster gaps produce. Should the
/// displacements add up to more than a comparison sort would cost (a
/// configuration with long clusters and wide gaps), the standard sort
/// finishes the job — the order is total, so both give the same result.
fn sort_nearly_sorted(events: &mut [Event]) {
    let mut budget = 16 * events.len();
    for i in 1..events.len() {
        let e = events[i];
        let mut j = i;
        while j > 0 && events[j - 1] > e {
            events[j] = events[j - 1];
            j -= 1;
        }
        events[j] = e;
        if i - j > budget {
            events.sort_unstable();
            return;
        }
        budget -= i - j;
    }
}

/// Merges sorted `tail` into sorted `events`, from the back and in place;
/// stops as soon as `tail` is placed, leaving the untouched prefix alone.
fn merge_sorted_into(events: &mut Vec<Event>, tail: &[Event]) {
    let mut i = events.len();
    events.extend_from_slice(tail);
    let mut w = events.len();
    let mut j = tail.len();
    while j > 0 {
        w -= 1;
        if i > 0 && events[i - 1] > tail[j - 1] {
            events[w] = events[i - 1];
            i -= 1;
        } else {
            events[w] = tail[j - 1];
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StockWorkloadConfig {
        StockWorkloadConfig {
            num_stocks: 64,
            num_queries: 500,
            num_updates: 3000,
            horizon_s: 10.0,
            seed: 7,
            ..StockWorkloadConfig::default()
        }
    }

    #[test]
    fn counts_match_config() {
        let t = small().generate();
        assert_eq!(t.queries.len(), 500);
        assert_eq!(t.updates.len(), 3000);
        assert_eq!(t.num_stocks, 64);
    }

    #[test]
    fn traces_are_sorted_and_in_horizon() {
        let t = small().generate();
        assert!(t.queries.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(t.updates.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(t.horizon().as_secs_f64() < 10.0);
    }

    #[test]
    fn costs_are_in_published_ranges() {
        let t = small().generate();
        for q in &t.queries {
            let ms = q.cost.as_ms_f64();
            assert!((5.0..=9.0).contains(&ms), "query cost {ms}");
        }
        for u in &t.updates {
            let ms = u.cost.as_ms_f64();
            assert!((1.0..=5.0).contains(&ms), "update cost {ms}");
        }
    }

    #[test]
    fn stocks_are_in_range() {
        let t = small().generate();
        for q in &t.queries {
            for &s in q.op.accessed_items().iter() {
                assert!(s.index() < 64);
            }
        }
        for u in &t.updates {
            assert!(u.trade.stock.index() < 64);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small().generate();
        let b = small().generate();
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.op, y.op);
            assert_eq!(x.cost, y.cost);
        }
        assert_eq!(a.updates.len(), b.updates.len());
        for (x, y) in a.updates.iter().zip(&b.updates) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.trade.stock, y.trade.stock);
            assert_eq!(x.trade.price.to_bits(), y.trade.price.to_bits());
            assert_eq!(x.trade.volume, y.trade.volume);
            assert_eq!(x.trade.trade_time_ms, y.trade.trade_time_ms);
            assert_eq!(x.cost, y.cost);
        }
    }

    fn event(t: u64, s: u32) -> Event {
        (SimTime(t), StockId(s))
    }

    #[test]
    fn nearly_sorted_events_come_out_sorted() {
        // Clusters trailing their heads, equal instants with stocks out
        // of order, duplicates.
        let mut events = vec![
            event(10, 5),
            event(12, 5),
            event(11, 9),
            event(11, 2),
            event(11, 2),
            event(15, 1),
            event(14, 1),
            event(14, 0),
            event(20, 3),
        ];
        let mut want = events.clone();
        want.sort_unstable();
        sort_nearly_sorted(&mut events);
        assert_eq!(events, want);
        sort_nearly_sorted(&mut []);
    }

    #[test]
    fn far_from_sorted_events_fall_back_to_the_standard_sort() {
        // Reversed input: every element is as far from its slot as can
        // be, so the shift budget runs out and `sort_unstable` finishes.
        let mut events: Vec<Event> = (0..5_000u64).rev().map(|t| event(t, 0)).collect();
        sort_nearly_sorted(&mut events);
        assert!(events.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_places_the_tail_and_leaves_the_prefix() {
        let mut events = vec![event(1, 0), event(4, 2), event(4, 7), event(9, 1)];
        merge_sorted_into(
            &mut events,
            &[event(0, 3), event(4, 5), event(4, 7), event(12, 0)],
        );
        let want = vec![
            event(0, 3),
            event(1, 0),
            event(4, 2),
            event(4, 5),
            event(4, 7),
            event(4, 7),
            event(9, 1),
            event(12, 0),
        ];
        assert_eq!(events, want);
        merge_sorted_into(&mut events, &[]);
        assert_eq!(events, want);
        let mut empty = Vec::new();
        merge_sorted_into(&mut empty, &want);
        assert_eq!(empty, want);
    }

    #[test]
    fn long_clusters_with_wide_gaps_still_come_out_in_order() {
        // Displacements far beyond the insertion pass's budget.
        let t = StockWorkloadConfig {
            trade_clustering: TradeClustering {
                mean_size: 40.0,
                gap_ms: (20.0, 60.0),
            },
            ..small()
        }
        .generate();
        assert_eq!(t.updates.len(), 3000);
        assert!(t
            .updates
            .windows(2)
            .all(|w| (w[0].arrival, w[0].trade.stock) <= (w[1].arrival, w[1].trade.stock)));
    }

    #[test]
    fn duration_rounding_matches_sim_time() {
        let half_up: f64 = 0.000_5; // 0.5 µs
        for ms in [
            0.0,
            -0.0,
            half_up,
            half_up.next_down(),
            0.001_5,
            0.002_5,
            1.234_567_8,
            9.0,
            4.503_599_627_370_495e12,
            4.503_599_627_370_497e12,
            1e300,
        ] {
            assert_eq!(duration_from_ms(ms), SimDuration::from_ms_f64(ms), "{ms:e}");
        }
    }

    #[test]
    fn paper_default_is_overloaded() {
        let load = StockWorkloadConfig::default().offered_load();
        // 82129*7ms + 496892*3ms over 1800s ≈ 1.15.
        assert!(load > 1.05 && load < 1.25, "offered load {load}");
    }

    #[test]
    fn scaled_preserves_load() {
        let base = StockWorkloadConfig::default();
        let s = base.scaled(60);
        assert!((s.offered_load() - base.offered_load()).abs() < 0.02);
        assert_eq!(s.num_queries, base.num_queries / 60);
    }

    #[test]
    fn update_rate_declines_over_trace() {
        // Bursts and clustering off: this test checks the base shape.
        let t = StockWorkloadConfig {
            num_updates: 30_000,
            update_bursts: BurstModel::none(),
            trade_clustering: TradeClustering::none(),
            ..small()
        }
        .generate();
        let horizon = 10.0;
        let first: usize = t
            .updates
            .iter()
            .filter(|u| u.arrival.as_secs_f64() < horizon / 2.0)
            .count();
        let second = t.updates.len() - first;
        assert!(
            first as f64 > second as f64 * 1.15,
            "no decline: {first} vs {second}"
        );
    }

    #[test]
    fn query_popularity_is_skewed() {
        let t = StockWorkloadConfig {
            num_queries: 5000,
            ..small()
        }
        .generate();
        let mut counts = vec![0u32; 64];
        for q in &t.queries {
            for &s in q.op.accessed_items().iter() {
                counts[s.index()] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top8: u32 = counts[..8].iter().sum();
        let total: u32 = counts.iter().sum();
        // Zipf(1) over 64 ranks: top-8 carry ~57% of mass.
        assert!(
            top8 as f64 > 0.4 * total as f64,
            "top-8 stocks only got {top8}/{total}"
        );
    }

    #[test]
    fn prices_are_positive_and_walk() {
        let t = small().generate();
        assert!(t.updates.iter().all(|u| u.trade.price > 0.0));
        // The walk actually moves.
        let first = t.updates.first().unwrap().trade.price;
        assert!(t
            .updates
            .iter()
            .any(|u| (u.trade.price - first).abs() > 1e-9));
    }

    #[test]
    #[should_panic(expected = "empties the workload")]
    fn over_scaling_rejected() {
        let _ = small().scaled(1000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn events(raw: Vec<(u64, u32)>) -> Vec<Event> {
        raw.into_iter()
            .map(|(t, s)| (SimTime(t), StockId(s)))
            .collect()
    }

    proptest! {
        /// Insertion (or its fallback) and back-merge are the comparison
        /// sort they replaced, ties and duplicates included.
        #[test]
        fn ordering_helpers_agree_with_the_standard_sort(
            a in proptest::collection::vec((0u64..60, 0u32..4), 0..200),
            b in proptest::collection::vec((0u64..60, 0u32..4), 0..40),
        ) {
            let (mut a, mut b) = (events(a), events(b));
            let mut want = a.clone();
            want.sort_unstable();
            sort_nearly_sorted(&mut a);
            prop_assert_eq!(&a, &want);

            b.sort_unstable();
            want.extend_from_slice(&b);
            want.sort_unstable();
            merge_sorted_into(&mut a, &b);
            prop_assert_eq!(a, want);
        }
    }
}
