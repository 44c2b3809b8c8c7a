//! Chaos testing: the simulator's bookkeeping must survive *any* legal
//! scheduler, however erratic. The chaos scheduler preempts at random,
//! picks queues at random, and stalls at random — the engine invariants
//! (conservation, profit bounds, clock monotonicity, UH-style freshness
//! accounting) may not depend on scheduler sanity.

use proptest::prelude::*;
use quts::prelude::*;
use quts_db::{QueryOp, Trade};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// A scheduler that makes random (but legal and deterministic-per-seed)
/// decisions at every hook.
struct Chaos {
    rng: StdRng,
    queries: Vec<quts_sim::QueryId>,
    updates: Vec<quts_sim::UpdateId>,
    dropped: HashSet<quts_sim::UpdateId>,
}

impl Chaos {
    fn new(seed: u64) -> Self {
        Chaos {
            rng: StdRng::seed_from_u64(seed),
            queries: Vec::new(),
            updates: Vec::new(),
            dropped: HashSet::new(),
        }
    }
}

impl Scheduler for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn admit_query(&mut self, id: quts_sim::QueryId, _info: &quts_sim::QueryInfo, _now: SimTime) {
        // Insert at a random position.
        let at = self.rng.random_range(0..=self.queries.len());
        self.queries.insert(at, id);
    }
    fn admit_update(
        &mut self,
        id: quts_sim::UpdateId,
        _info: &quts_sim::UpdateInfo,
        _now: SimTime,
    ) {
        let at = self.rng.random_range(0..=self.updates.len());
        self.updates.insert(at, id);
    }
    fn drop_update(&mut self, id: quts_sim::UpdateId) {
        self.dropped.insert(id);
    }
    fn shed_update(&mut self) -> Option<quts_sim::UpdateId> {
        unimplemented!("the simulator never sheds")
    }
    fn pop_next(&mut self, _now: SimTime) -> Option<TxnRef> {
        self.updates.retain(|u| !self.dropped.contains(u));
        let pick_query =
            self.updates.is_empty() || (!self.queries.is_empty() && self.rng.random::<f64>() < 0.5);
        if pick_query && !self.queries.is_empty() {
            let at = self.rng.random_range(0..self.queries.len());
            return Some(TxnRef::Query(self.queries.remove(at)));
        }
        if !self.updates.is_empty() {
            let at = self.rng.random_range(0..self.updates.len());
            return Some(TxnRef::Update(self.updates.remove(at)));
        }
        None
    }
    fn requeue(&mut self, txn: TxnRef, _now: SimTime) {
        match txn {
            TxnRef::Query(q) => self.queries.push(q),
            TxnRef::Update(u) => self.updates.push(u),
        }
    }
    fn should_preempt(&mut self, _now: SimTime, _running: TxnRef) -> bool {
        // Preempt 20% of the time whenever anything is queued.
        (!self.queries.is_empty() || !self.updates.is_empty()) && self.rng.random::<f64>() < 0.2
    }
    fn next_timer(&mut self, now: SimTime) -> Option<SimTime> {
        // Random wakeups to exercise the timer machinery.
        if self.rng.random::<f64>() < 0.3 {
            Some(now + SimDuration::from_ms(self.rng.random_range(1..20)))
        } else {
            None
        }
    }
    fn has_pending(&self) -> bool {
        self.updates.iter().any(|u| !self.dropped.contains(u)) || !self.queries.is_empty()
    }
}

// A pair of TxnRef re-exports the test needs (not in prelude).
use quts_sim::TxnRef;

fn mini_workload(
    seed: u64,
    n_queries: usize,
    n_updates: usize,
) -> (Vec<QuerySpec>, Vec<UpdateSpec>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries: Vec<QuerySpec> = (0..n_queries)
        .map(|_| QuerySpec {
            arrival: SimTime::from_ms(rng.random_range(0..3_000)),
            op: QueryOp::Lookup(StockId(rng.random_range(0..8))),
            cost: SimDuration::from_ms(rng.random_range(1..10)),
            qc: QualityContract::step(
                rng.random_range(1.0..50.0),
                rng.random_range(20.0..150.0),
                rng.random_range(1.0..50.0),
                1,
            ),
        })
        .collect();
    queries.sort_by_key(|q| q.arrival);
    let mut updates: Vec<UpdateSpec> = (0..n_updates)
        .map(|_| {
            let ms = rng.random_range(0..3_000);
            UpdateSpec {
                arrival: SimTime::from_ms(ms),
                cost: SimDuration::from_ms(rng.random_range(1..5)),
                trade: Trade {
                    stock: StockId(rng.random_range(0..8)),
                    price: rng.random_range(1.0..500.0),
                    volume: 1,
                    trade_time_ms: ms,
                },
            }
        })
        .collect();
    updates.sort_by_key(|u| u.arrival);
    (queries, updates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chaos_preserves_all_invariants(seed in 0u64..10_000) {
        let (queries, updates) = mini_workload(seed, 30, 80);
        let r = Simulator::new(
            SimConfig::with_stocks(8),
            queries.clone(),
            updates.clone(),
            Chaos::new(seed),
        )
        .run();
        prop_assert_eq!(r.committed + r.expired, queries.len() as u64);
        prop_assert_eq!(
            r.updates_applied + r.updates_invalidated,
            updates.len() as u64
        );
        prop_assert!(r.total_pct() <= 1.0 + 1e-9);
        prop_assert!(r.cpu_busy.as_micros() <= r.end_time.as_micros());
        // Staleness can never be negative and the report must be finite.
        prop_assert!(r.avg_staleness() >= 0.0);
        prop_assert!(r.avg_response_time_ms().is_finite());
    }

    #[test]
    fn chaos_is_deterministic_per_seed(seed in 0u64..1_000) {
        let (queries, updates) = mini_workload(seed, 20, 50);
        let run = || {
            Simulator::new(
                SimConfig::with_stocks(8),
                queries.clone(),
                updates.clone(),
                Chaos::new(seed),
            )
            .run()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.aggregates, b.aggregates);
        prop_assert_eq!(a.cpu_busy, b.cpu_busy);
        prop_assert_eq!(a.end_time, b.end_time);
    }
}
