//! The simulation main loop.
//!
//! A single-CPU main-memory web-database: arrivals come from two
//! time-sorted traces, the pluggable [`Scheduler`] decides who runs, and
//! the engine enforces the system model of Section 2 of the paper —
//! 2PL-HP locking, update invalidation through the register table,
//! lifetime expiry for queries, and profit accounting under Quality
//! Contracts.
//!
//! ## Execution semantics
//!
//! * **Pause** (scheduler preemption): the running transaction keeps its
//!   progress *and its locks*, and returns to its queue.
//! * **Restart** (2PL-HP eviction): a conflicting dispatch takes the
//!   paused holder's lock; the victim loses all locks and all progress.
//! * **Invalidation**: a newly arrived update removes any queued, paused
//!   or running update on the same item — only the freshest value is ever
//!   applied.
//! * **Expiry**: a query dispatched after its lifetime deadline is
//!   aborted with zero profit; a query committing past the deadline earns
//!   nothing either.

use crate::event::{Event, EventQueue, TxnEvent};
use crate::report::{QueryOutcome, RunReport};
use crate::scheduler::{Class, QueryInfo, Scheduler, TxnRef, UpdateInfo};
use crate::time::{SimDuration, SimTime};
use crate::txn::{QueryId, QuerySpec, QueryState, TxnStatus, UpdateId, UpdateSpec, UpdateState};
use quts_db::{
    Acquisition, LockMode, LockTable, StalenessTracker, StockId, Store, TxnToken, UpdateRegister,
};
use quts_metrics::{
    LifecycleSpans, LogHistogram, OnlineStats, ProfitSeries, SchedDecision, TraceClass,
    TraceConfig, TraceEvent, TraceRing,
};
use quts_qc::{QcAggregates, StalenessAggregation};

/// Which of the paper's three staleness metrics (Section 2.1) feeds the
/// QoD profit functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StalenessMetric {
    /// Number of unapplied updates, `#uu` — the paper's default for
    /// systems that push every update as the master copy changes.
    #[default]
    UnappliedUpdates,
    /// Time differential `td`: milliseconds since the served value
    /// stopped being the freshest. Contracts must express `uumax`-style
    /// cutoffs in milliseconds.
    TimeDifferentialMs,
    /// Value distance `vd`: absolute difference between the served price
    /// and the freshest arrived price. Cutoffs are in price units.
    ValueDistance,
}

/// Where a replacement update enters the queue when it invalidates a
/// pending update on the same item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateReentry {
    /// The replacement inherits the invalidated update's queue position —
    /// the register-table entry persists, only its update identifier is
    /// swapped (Section 2.1 of the paper). Without this, frequently
    /// traded stocks are perpetually reborn at the queue tail and starve
    /// whenever the update queue is non-empty.
    #[default]
    InheritPosition,
    /// The replacement queues at the tail like a fresh arrival (ablation
    /// mode; demonstrates the hot-item starvation pathology).
    Tail,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of data items; all updates/queries must reference ids below
    /// this.
    pub num_stocks: u32,
    /// Which staleness metric feeds the QoD profit functions.
    pub staleness_metric: StalenessMetric,
    /// How per-item staleness combines for multi-item queries.
    pub staleness_agg: StalenessAggregation,
    /// Bin width of the profit time series (default 1 s).
    pub profit_bin: SimDuration,
    /// Collect a [`QueryOutcome`] per query (costs memory on big traces).
    pub collect_outcomes: bool,
    /// Actually execute query operators against the store (validates the
    /// data path; negligible cost next to the virtual service demand).
    pub execute_ops: bool,
    /// Queue-position semantics for updates that replace an invalidated
    /// one.
    pub update_reentry: UpdateReentry,
    /// CPU cost charged at every dispatch (context switch, cache warmup).
    /// Progress made during the switch window is lost if the transaction
    /// is preempted before the window ends. Default 50 µs — this is what
    /// makes very small atom times expensive (Figure 10b).
    pub switch_cost: SimDuration,
    /// Observability level: off (default), lifecycle spans, or spans
    /// plus the full decision ring. Event times use the virtual clock.
    pub trace: TraceConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_stocks: 0,
            staleness_metric: StalenessMetric::default(),
            staleness_agg: StalenessAggregation::Max,
            profit_bin: SimDuration::from_secs(1),
            collect_outcomes: false,
            execute_ops: true,
            update_reentry: UpdateReentry::InheritPosition,
            switch_cost: SimDuration(50),
            trace: TraceConfig::default(),
        }
    }
}

impl SimConfig {
    /// A configuration for `num_stocks` items with defaults otherwise.
    pub fn with_stocks(num_stocks: u32) -> Self {
        SimConfig {
            num_stocks,
            ..SimConfig::default()
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Running {
    txn: TxnRef,
    started: SimTime,
    remaining_at_start: SimDuration,
    /// Dispatch overhead charged before useful work begins.
    overhead: SimDuration,
}

/// The discrete-event simulator; generic over the scheduling policy.
///
/// ```
/// use quts_db::{QueryOp, StockId};
/// use quts_qc::QualityContract;
/// use quts_sim::{QuerySpec, SimConfig, SimDuration, SimTime, Simulator};
/// use quts_sched::GlobalFifo;
///
/// let queries = vec![QuerySpec {
///     arrival: SimTime::ZERO,
///     op: QueryOp::Lookup(StockId(0)),
///     cost: SimDuration::from_ms(5),
///     qc: QualityContract::step(10.0, 50.0, 10.0, 1),
/// }];
/// let report = Simulator::new(
///     SimConfig::with_stocks(1),
///     queries,
///     vec![], // no updates
///     GlobalFifo::new(),
/// )
/// .run();
/// assert_eq!(report.committed, 1);
/// assert_eq!(report.total_pct(), 1.0); // fast and fresh: full profit
/// ```
pub struct Simulator<S: Scheduler> {
    config: SimConfig,
    scheduler: S,
    store: Store,
    locks: LockTable,
    register: UpdateRegister,
    tracker: StalenessTracker,
    events: EventQueue,

    queries: Vec<QuerySpec>,
    query_infos: Vec<QueryInfo>,
    query_states: Vec<QueryState>,
    updates: Vec<UpdateSpec>,
    update_states: Vec<UpdateState>,

    clock: SimTime,
    running: Option<Running>,
    run_token: u64,
    dispatch_seq: u64,
    pending_timer: Option<SimTime>,
    /// Global arrival counter: queue-ordering sequence numbers for both
    /// classes, so FIFO policies see the merged arrival order.
    arrival_seq: u64,
    /// Queue-ordering seq per update (inherited on invalidation under
    /// [`UpdateReentry::InheritPosition`]).
    update_seqs: Vec<u64>,
    /// Freshest *arrived* price per stock (the master copy), for the
    /// value-distance staleness metric.
    master_price: Vec<f64>,
    /// Reusable item buffer for lock acquisition (dispatch hot path).
    scratch_items: Vec<StockId>,
    /// Reusable per-item staleness buffer (commit hot path).
    scratch_staleness: Vec<f64>,

    // Measurement.
    aggregates: QcAggregates,
    profit: ProfitSeries,
    response_time_ms: OnlineStats,
    rt_histogram_us: LogHistogram,
    staleness: OnlineStats,
    update_delay_ms: OnlineStats,
    committed: u64,
    expired: u64,
    updates_applied: u64,
    query_restarts: u64,
    update_restarts: u64,
    cpu_busy_query: SimDuration,
    cpu_busy_update: SimDuration,
    outcomes: Option<Vec<QueryOutcome>>,

    // Observability (all `None`/empty when the trace level is `Off`).
    ring: Option<TraceRing>,
    spans: Option<LifecycleSpans>,
    /// First dispatch time per query; allocated only when spans are on.
    first_dispatch: Vec<Option<SimTime>>,
    /// Reusable buffer for draining scheduler decisions into the ring.
    decision_buf: Vec<SchedDecision>,
}

fn trace_class(class: Class) -> TraceClass {
    match class {
        Class::Query => TraceClass::Query,
        Class::Update => TraceClass::Update,
    }
}

fn token_of(txn: TxnRef) -> TxnToken {
    match txn {
        TxnRef::Query(q) => TxnToken(q.0 as u64),
        TxnRef::Update(u) => TxnToken(1 << 63 | u.0 as u64),
    }
}

fn txn_of(token: TxnToken) -> TxnRef {
    if token.0 & (1 << 63) != 0 {
        TxnRef::Update(UpdateId((token.0 & !(1 << 63)) as u32))
    } else {
        TxnRef::Query(QueryId(token.0 as u32))
    }
}

impl<S: Scheduler> Simulator<S> {
    /// Builds a simulator over time-sorted query and update traces.
    ///
    /// # Panics
    /// Panics if a trace is not sorted by arrival time, or references a
    /// stock id at or above `config.num_stocks`.
    pub fn new(
        config: SimConfig,
        queries: Vec<QuerySpec>,
        updates: Vec<UpdateSpec>,
        scheduler: S,
    ) -> Self {
        assert!(
            queries.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "query trace must be sorted by arrival"
        );
        assert!(
            updates.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "update trace must be sorted by arrival"
        );
        for u in &updates {
            assert!(
                u.trade.stock.index() < config.num_stocks as usize,
                "update references stock {} outside the store",
                u.trade.stock
            );
        }
        for q in &queries {
            for &s in q.op.accessed_items().iter() {
                assert!(
                    s.index() < config.num_stocks as usize,
                    "query references stock {s} outside the store"
                );
            }
        }

        let query_infos: Vec<QueryInfo> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryInfo {
                arrival: q.arrival,
                seq: i as u64,
                cost: q.cost,
                qosmax: q.qc.qosmax(),
                qodmax: q.qc.qodmax(),
                rtmax_ms: q.qc.rtmax_ms(),
                vrd: q.qc.vrd_priority(),
                expiry: q.arrival + SimDuration::from_ms_f64(q.qc.default_lifetime_ms()),
            })
            .collect();
        let query_states: Vec<QueryState> = query_infos
            .iter()
            .zip(&queries)
            .map(|(info, q)| QueryState::new(q.cost, info.expiry))
            .collect();
        let update_states: Vec<UpdateState> =
            updates.iter().map(|u| UpdateState::new(u.cost)).collect();

        let outcomes = config.collect_outcomes.then(Vec::new);
        let profit_bin = config.profit_bin.as_micros();
        let num_stocks = config.num_stocks;
        let update_seqs = vec![0u64; updates.len()];
        // The synthetic store opens every stock at 100.0.
        let master_price = vec![100.0; num_stocks as usize];
        let ring = config
            .trace
            .level
            .events()
            .then(|| TraceRing::new(config.trace.ring_capacity));
        let spans = config.trace.level.spans().then(LifecycleSpans::new);
        let first_dispatch = if spans.is_some() {
            vec![None; queries.len()]
        } else {
            Vec::new()
        };
        let mut scheduler = scheduler;
        scheduler.set_decision_trace(ring.is_some());
        Simulator {
            config,
            scheduler,
            store: Store::with_synthetic_stocks(num_stocks),
            locks: LockTable::new(),
            register: UpdateRegister::new(),
            tracker: StalenessTracker::new(num_stocks as usize),
            events: EventQueue::new(),
            queries,
            query_infos,
            query_states,
            updates,
            update_states,
            clock: SimTime::ZERO,
            running: None,
            run_token: 0,
            dispatch_seq: 0,
            pending_timer: None,
            arrival_seq: 0,
            update_seqs,
            master_price,
            scratch_items: Vec::new(),
            scratch_staleness: Vec::new(),
            aggregates: QcAggregates::new(),
            profit: ProfitSeries::new(profit_bin),
            response_time_ms: OnlineStats::new(),
            rt_histogram_us: LogHistogram::new(),
            staleness: OnlineStats::new(),
            update_delay_ms: OnlineStats::new(),
            committed: 0,
            expired: 0,
            updates_applied: 0,
            query_restarts: 0,
            update_restarts: 0,
            cpu_busy_query: SimDuration::ZERO,
            cpu_busy_update: SimDuration::ZERO,
            outcomes,
            ring,
            spans,
            first_dispatch,
            decision_buf: Vec::new(),
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> RunReport {
        let mut next_query = 0usize;
        let mut next_update = 0usize;

        loop {
            // The next thing to happen: an arrival or a scheduled event.
            // Updates win exact ties with queries (the feed is upstream of
            // users); events at time t run before arrivals at time t
            // because they were scheduled first.
            let qa = self.queries.get(next_query).map(|q| q.arrival);
            let ua = self.updates.get(next_update).map(|u| u.arrival);
            let ea = self.events.peek_time();

            let arrival = match (qa, ua) {
                (Some(q), Some(u)) => Some(if u <= q {
                    (u, Class::Update)
                } else {
                    (q, Class::Query)
                }),
                (Some(q), None) => Some((q, Class::Query)),
                (None, Some(u)) => Some((u, Class::Update)),
                (None, None) => None,
            };

            enum Next {
                Arrival(Class),
                Event,
                Done,
            }
            let next = match (arrival, ea) {
                (None, None) => Next::Done,
                (Some((at, class)), None) => {
                    self.advance(at);
                    Next::Arrival(class)
                }
                (None, Some(et)) => {
                    self.advance(et);
                    Next::Event
                }
                (Some((at, class)), Some(et)) => {
                    if et <= at {
                        self.advance(et);
                        Next::Event
                    } else {
                        self.advance(at);
                        Next::Arrival(class)
                    }
                }
            };

            match next {
                Next::Done => break,
                Next::Arrival(Class::Query) => {
                    let id = QueryId(next_query as u32);
                    next_query += 1;
                    self.on_query_arrival(id);
                }
                Next::Arrival(Class::Update) => {
                    let id = UpdateId(next_update as u32);
                    next_update += 1;
                    self.on_update_arrival(id);
                }
                Next::Event => {
                    let (_, event) = self.events.pop().expect("peeked event vanished");
                    self.on_event(event);
                }
            }

            self.reschedule();
            self.maybe_schedule_timer();
            self.drain_sched_decisions();
        }

        debug_assert!(self.running.is_none(), "run ended with a busy CPU");
        debug_assert!(!self.scheduler.has_pending(), "run ended with queued work");
        self.validate_store();
        self.drain_sched_decisions();
        let trace_dropped = self.ring.as_ref().map_or(0, TraceRing::dropped);
        let trace = self.ring.take().map(|mut r| r.drain_ordered());

        RunReport {
            scheduler: self.scheduler.name(),
            aggregates: self.aggregates,
            profit: self.profit,
            response_time_ms: self.response_time_ms,
            rt_histogram_us: self.rt_histogram_us,
            staleness: self.staleness,
            update_delay_ms: self.update_delay_ms,
            committed: self.committed,
            expired: self.expired,
            updates_applied: self.updates_applied,
            updates_invalidated: self.register.invalidated_count(),
            query_restarts: self.query_restarts,
            update_restarts: self.update_restarts,
            dispatches: self.dispatch_seq,
            cpu_busy: self.cpu_busy_query + self.cpu_busy_update,
            cpu_busy_query: self.cpu_busy_query,
            cpu_busy_update: self.cpu_busy_update,
            end_time: self.clock,
            rho_history: self
                .scheduler
                .rho_history()
                .map(<[_]>::to_vec)
                .unwrap_or_default(),
            outcomes: self.outcomes,
            spans: self.spans,
            trace,
            trace_dropped,
        }
    }

    /// Moves decisions buffered inside the scheduler into the ring.
    /// One branch when tracing is off.
    fn drain_sched_decisions(&mut self) {
        if let Some(ring) = &mut self.ring {
            self.scheduler.drain_decisions(&mut self.decision_buf);
            ring.extend_decisions(&self.decision_buf);
            self.decision_buf.clear();
        }
    }

    /// End-of-run oracle: every stock's stored price must equal the price
    /// of the last update *applied* to it — whatever ordering, preemption,
    /// invalidation and restarts happened along the way.
    fn validate_store(&self) {
        let mut expected: Vec<Option<f64>> = vec![None; self.config.num_stocks as usize];
        for (u, state) in self.updates.iter().zip(&self.update_states) {
            if state.status == TxnStatus::Committed {
                // Updates apply in arrival order per stock (FIFO with
                // position inheritance), so the last committed one in
                // trace order holds the final value.
                expected[u.trade.stock.index()] = Some(u.trade.price);
            }
        }
        for (i, exp) in expected.iter().enumerate() {
            if let Some(price) = exp {
                let actual = self.store.record(quts_db::StockId(i as u32)).price();
                assert!(
                    (actual - price).abs() < 1e-12,
                    "stock {i}: store holds {actual}, last applied update says {price}"
                );
            }
        }
    }

    fn advance(&mut self, to: SimTime) {
        debug_assert!(to >= self.clock, "clock must not go backwards");
        self.clock = to;
    }

    fn next_seq(&mut self) -> u64 {
        self.arrival_seq += 1;
        self.arrival_seq
    }

    fn on_query_arrival(&mut self, id: QueryId) {
        let now = self.clock;
        let seq = self.next_seq();
        self.query_infos[id.index()].seq = seq;
        let spec = &self.queries[id.index()];
        self.aggregates.submit(&spec.qc);
        self.profit
            .submit(now.as_micros(), spec.qc.qosmax(), spec.qc.qodmax());
        self.query_states[id.index()].status = TxnStatus::Queued;
        let info = self.query_infos[id.index()];
        self.scheduler.admit_query(id, &info, now);
    }

    fn on_update_arrival(&mut self, id: UpdateId) {
        let now = self.clock;
        let stock = self.updates[id.index()].trade.stock;
        self.master_price[stock.index()] = self.updates[id.index()].trade.price;
        self.tracker.on_arrival(stock, now.as_micros());

        // The register invalidates any pending update on the same item.
        let mut inherited_seq = None;
        if let Some(old_raw) = self.register.register(stock, id.0 as u64) {
            let old = UpdateId(old_raw as u32);
            inherited_seq = Some(self.update_seqs[old.index()]);
            let old_state = &mut self.update_states[old.index()];
            match old_state.status {
                TxnStatus::Queued => {
                    self.scheduler.drop_update(old);
                }
                TxnStatus::Paused => {
                    self.locks.release_all(token_of(TxnRef::Update(old)));
                    old_state.holds_locks = false;
                    self.scheduler.drop_update(old);
                }
                TxnStatus::Running => {
                    // Abort mid-application: the work done is wasted.
                    self.locks.release_all(token_of(TxnRef::Update(old)));
                    old_state.holds_locks = false;
                    self.stop_cpu_charging();
                }
                other => unreachable!("pending update in state {other:?}"),
            }
            self.update_states[old.index()].status = TxnStatus::Invalidated;
            // Evict the invalidated update's scheduler memo; `drop_update`
            // only detaches the queue entry.
            self.scheduler.finish(TxnRef::Update(old));
            if let Some(ring) = &mut self.ring {
                ring.push(
                    now.as_micros(),
                    TraceEvent::UpdateInvalidate { id: old.0 as u64 },
                );
            }
        }

        // Under InheritPosition the register-table entry keeps its queue
        // position; only the update identifier was swapped.
        let seq = match (inherited_seq, self.config.update_reentry) {
            (Some(s), UpdateReentry::InheritPosition) => s,
            _ => self.next_seq(),
        };
        self.update_seqs[id.index()] = seq;

        self.update_states[id.index()].status = TxnStatus::Queued;
        let spec = &self.updates[id.index()];
        let info = UpdateInfo {
            arrival: spec.arrival,
            seq,
            cost: spec.cost,
            stock,
        };
        self.scheduler.admit_update(id, &info, now);
    }

    fn on_event(&mut self, event: Event) {
        match event {
            Event::Timer => {
                self.pending_timer = None;
                self.scheduler.on_timer(self.clock);
            }
            Event::Completion { txn, run_token } => {
                if run_token != self.run_token {
                    return; // stale: the transaction was paused or aborted
                }
                let running = self.running.expect("valid completion with idle CPU");
                debug_assert_eq!(
                    matches!(running.txn, TxnRef::Query(_)),
                    matches!(txn, TxnEvent::Query(_))
                );
                self.stop_cpu_charging();
                match txn {
                    TxnEvent::Query(q) => self.commit_query(q),
                    TxnEvent::Update(u) => self.apply_update(u),
                }
            }
        }
    }

    /// Takes the running transaction off the CPU, charging its busy time.
    fn stop_cpu_charging(&mut self) {
        let run = self.running.take().expect("CPU already idle");
        self.run_token += 1;
        let elapsed = self.clock - run.started;
        match run.txn.class() {
            Class::Query => self.cpu_busy_query += elapsed,
            Class::Update => self.cpu_busy_update += elapsed,
        }
    }

    fn commit_query(&mut self, id: QueryId) {
        let now = self.clock;
        let spec = &self.queries[id.index()];
        if self.config.execute_ops {
            let _ = spec.op.execute(&self.store);
        }
        let items = spec.op.accessed_items();
        match self.config.staleness_metric {
            StalenessMetric::UnappliedUpdates => self
                .tracker
                .unapplied_over_into(&items, &mut self.scratch_staleness),
            StalenessMetric::TimeDifferentialMs => {
                self.scratch_staleness.clear();
                self.scratch_staleness.extend(
                    items.iter().map(|&s| {
                        self.tracker.time_differential(s, now.as_micros()) as f64 / 1000.0
                    }),
                );
            }
            StalenessMetric::ValueDistance => {
                self.scratch_staleness.clear();
                self.scratch_staleness.extend(
                    items.iter().map(|&s| {
                        (self.master_price[s.index()] - self.store.record(s).price()).abs()
                    }),
                );
            }
        };
        let staleness = self.config.staleness_agg.aggregate(&self.scratch_staleness);
        let rt_ms = (now - spec.arrival).as_ms_f64();

        let late = rt_ms >= spec.qc.default_lifetime_ms();
        let (qos, qod) = spec.qc.profit_split(rt_ms, staleness);

        self.locks.release_all(token_of(TxnRef::Query(id)));
        let arrival = spec.arrival;
        let state = &mut self.query_states[id.index()];
        state.holds_locks = false;
        if late {
            state.status = TxnStatus::Expired;
            self.expired += 1;
            if let Some(spans) = &mut self.spans {
                spans.record_expiry(true);
            }
            if let Some(ring) = &mut self.ring {
                ring.push(
                    now.as_micros(),
                    TraceEvent::Expire {
                        id: id.0 as u64,
                        dispatched: true,
                    },
                );
            }
        } else {
            state.status = TxnStatus::Committed;
            self.committed += 1;
            self.aggregates.gain(qos, qod);
            self.profit.gain(now.as_micros(), qos, qod);
            self.response_time_ms.push(rt_ms);
            self.rt_histogram_us.record((now - arrival).as_micros());
            self.staleness.push(staleness);
            // Spans round staleness to the nearest integer of whatever
            // metric is configured (`#uu` is already integral).
            let staleness_int = staleness.round() as u64;
            if let Some(spans) = &mut self.spans {
                let first = self.first_dispatch[id.index()].unwrap_or(arrival);
                spans.record_commit(
                    arrival.as_micros(),
                    first.as_micros(),
                    now.as_micros(),
                    staleness_int,
                );
            }
            if let Some(ring) = &mut self.ring {
                ring.push(
                    now.as_micros(),
                    TraceEvent::Commit {
                        id: id.0 as u64,
                        response_us: (now - arrival).as_micros(),
                        staleness: staleness_int,
                    },
                );
            }
        }
        if let Some(outcomes) = &mut self.outcomes {
            outcomes.push(QueryOutcome {
                id,
                rt_ms,
                staleness,
                qos,
                qod,
                expired: late,
                finished_at: now,
            });
        }
        self.scheduler.finish(TxnRef::Query(id));
    }

    fn apply_update(&mut self, id: UpdateId) {
        let spec = &self.updates[id.index()];
        self.store.apply_update(&spec.trade);
        let delay_us = self
            .tracker
            .time_differential(spec.trade.stock, self.clock.as_micros());
        self.update_delay_ms.push(delay_us as f64 / 1000.0);
        self.tracker.on_apply(spec.trade.stock);
        let cleared = self.register.complete(spec.trade.stock, id.0 as u64);
        debug_assert!(cleared, "applied update was not the registered one");
        self.locks.release_all(token_of(TxnRef::Update(id)));
        let state = &mut self.update_states[id.index()];
        state.holds_locks = false;
        state.status = TxnStatus::Committed;
        self.updates_applied += 1;
        self.scheduler.finish(TxnRef::Update(id));
        if let Some(spans) = &mut self.spans {
            spans.record_update_apply(delay_us);
        }
        if let Some(ring) = &mut self.ring {
            ring.push(
                self.clock.as_micros(),
                TraceEvent::UpdateApply {
                    id: id.0 as u64,
                    delay_us,
                },
            );
        }
    }

    /// Runs the scheduling decision loop until the CPU has a stable
    /// occupant (or there is nothing to run).
    fn reschedule(&mut self) {
        loop {
            if let Some(run) = self.running {
                if self.scheduler.should_preempt(self.clock, run.txn) {
                    self.pause_running();
                    continue;
                }
                break;
            }
            let Some(txn) = self.scheduler.pop_next(self.clock) else {
                break;
            };
            if self.try_start(txn) {
                break;
            }
        }
    }

    fn pause_running(&mut self) {
        let run = self.running.expect("pausing an idle CPU");
        let elapsed = self.clock - run.started;
        self.stop_cpu_charging();
        // Work done during the switch window is overhead, not progress.
        let progress = elapsed.saturating_sub(run.overhead);
        let remaining = run.remaining_at_start.saturating_sub(progress);
        match run.txn {
            TxnRef::Query(q) => {
                let state = &mut self.query_states[q.index()];
                state.remaining = remaining;
                state.status = TxnStatus::Paused;
            }
            TxnRef::Update(u) => {
                let state = &mut self.update_states[u.index()];
                state.remaining = remaining;
                state.status = TxnStatus::Paused;
            }
        }
        self.scheduler.requeue(run.txn, self.clock);
    }

    /// Attempts to put `txn` on the CPU. Returns `false` when the
    /// transaction was discarded instead (expired query, invalidated
    /// update) and the caller should pop again.
    fn try_start(&mut self, txn: TxnRef) -> bool {
        let now = self.clock;
        let (remaining, mode) = match txn {
            TxnRef::Query(q) => {
                let state = &self.query_states[q.index()];
                debug_assert!(
                    matches!(state.status, TxnStatus::Queued | TxnStatus::Paused),
                    "popped query in state {:?}",
                    state.status
                );
                if now >= state.expiry {
                    // Lifetime exceeded: abort with zero profit.
                    if state.holds_locks {
                        self.locks.release_all(token_of(txn));
                    }
                    let state = &mut self.query_states[q.index()];
                    state.holds_locks = false;
                    state.status = TxnStatus::Expired;
                    self.expired += 1;
                    if let Some(outcomes) = &mut self.outcomes {
                        let spec = &self.queries[q.index()];
                        outcomes.push(QueryOutcome {
                            id: q,
                            rt_ms: (now - spec.arrival).as_ms_f64(),
                            staleness: 0.0,
                            qos: 0.0,
                            qod: 0.0,
                            expired: true,
                            finished_at: now,
                        });
                    }
                    let dispatched = self
                        .first_dispatch
                        .get(q.index())
                        .is_some_and(Option::is_some);
                    if let Some(spans) = &mut self.spans {
                        spans.record_expiry(dispatched);
                    }
                    if let Some(ring) = &mut self.ring {
                        ring.push(
                            now.as_micros(),
                            TraceEvent::Expire {
                                id: q.0 as u64,
                                dispatched,
                            },
                        );
                    }
                    self.scheduler.finish(txn);
                    return false;
                }
                (state.remaining, LockMode::Read)
            }
            TxnRef::Update(u) => {
                let state = &self.update_states[u.index()];
                if state.status == TxnStatus::Invalidated {
                    // Lazy tombstone from a scheduler that could not remove
                    // the entry eagerly.
                    self.scheduler.finish(txn);
                    return false;
                }
                debug_assert!(
                    matches!(state.status, TxnStatus::Queued | TxnStatus::Paused),
                    "popped update in state {:?}",
                    state.status
                );
                (state.remaining, LockMode::Write)
            }
        };

        // The accessed set goes through the reusable scratch buffer: the
        // lock loop needs `&mut self` for restart handling, which rules
        // out holding a borrow of the spec's item slice across it.
        let mut items = std::mem::take(&mut self.scratch_items);
        items.clear();
        match txn {
            TxnRef::Query(q) => {
                items.extend_from_slice(&self.queries[q.index()].op.accessed_items());
            }
            TxnRef::Update(u) => items.push(self.updates[u.index()].trade.stock),
        }

        // 2PL-HP acquisition: the dispatched transaction is by definition
        // the system's current pick, so it carries the highest priority
        // seen so far and evicts any paused conflicting holder.
        self.dispatch_seq += 1;
        let priority = self.dispatch_seq as f64;
        let me = token_of(txn);
        for &item in &items {
            match self.locks.acquire(me, priority, item, mode) {
                Acquisition::Granted { restarted } => {
                    for victim in restarted {
                        self.handle_restart(txn_of(victim));
                    }
                }
                Acquisition::Blocked { holder } => {
                    unreachable!("monotonic dispatch priorities cannot block (holder {holder:?})")
                }
            }
        }
        self.scratch_items = items;

        match txn {
            TxnRef::Query(q) => {
                let state = &mut self.query_states[q.index()];
                state.holds_locks = true;
                state.status = TxnStatus::Running;
            }
            TxnRef::Update(u) => {
                let state = &mut self.update_states[u.index()];
                state.holds_locks = true;
                state.status = TxnStatus::Running;
            }
        }
        let overhead = self.config.switch_cost;
        self.running = Some(Running {
            txn,
            started: now,
            remaining_at_start: remaining,
            overhead,
        });
        if !self.first_dispatch.is_empty() {
            if let TxnRef::Query(q) = txn {
                let slot = &mut self.first_dispatch[q.index()];
                if slot.is_none() {
                    *slot = Some(now);
                }
            }
        }
        if let Some(ring) = &mut self.ring {
            let id = match txn {
                TxnRef::Query(q) => q.0 as u64,
                TxnRef::Update(u) => u.0 as u64,
            };
            ring.push(
                now.as_micros(),
                TraceEvent::Dispatch {
                    class: trace_class(txn.class()),
                    id,
                },
            );
        }
        let txn_event = match txn {
            TxnRef::Query(q) => TxnEvent::Query(q),
            TxnRef::Update(u) => TxnEvent::Update(u),
        };
        self.events.push(
            now + overhead + remaining,
            Event::Completion {
                txn: txn_event,
                run_token: self.run_token,
            },
        );
        true
    }

    /// A paused transaction lost its locks to a higher-priority dispatch:
    /// it restarts from scratch (2PL-HP). It stays in the scheduler queue;
    /// only its simulator-side state changes.
    fn handle_restart(&mut self, victim: TxnRef) {
        match victim {
            TxnRef::Query(q) => {
                let state = &mut self.query_states[q.index()];
                debug_assert_eq!(state.status, TxnStatus::Paused, "victim must be paused");
                state.remaining = self.queries[q.index()].cost;
                state.status = TxnStatus::Queued;
                state.holds_locks = false;
                state.restarts += 1;
                self.query_restarts += 1;
            }
            TxnRef::Update(u) => {
                let state = &mut self.update_states[u.index()];
                debug_assert_eq!(state.status, TxnStatus::Paused, "victim must be paused");
                state.remaining = self.updates[u.index()].cost;
                state.status = TxnStatus::Queued;
                state.holds_locks = false;
                state.restarts += 1;
                self.update_restarts += 1;
            }
        }
    }

    fn maybe_schedule_timer(&mut self) {
        // Timers only matter while there is (or can be) work to reorder.
        if self.running.is_none() && !self.scheduler.has_pending() {
            return;
        }
        if let Some(t) = self.scheduler.next_timer(self.clock) {
            debug_assert!(t > self.clock, "timer must be in the future");
            if self.pending_timer.is_none_or(|p| t < p) {
                self.events.push(t, Event::Timer);
                self.pending_timer = Some(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quts_db::{QueryOp, StockId, Trade};
    use quts_qc::QualityContract;

    /// A minimal non-preemptive FIFO over both classes, used to test the
    /// engine mechanics in isolation from the real policies.
    struct TestFifo {
        queue: std::collections::VecDeque<TxnRef>,
        dropped: std::collections::HashSet<UpdateId>,
    }

    impl TestFifo {
        fn new() -> Self {
            TestFifo {
                queue: Default::default(),
                dropped: Default::default(),
            }
        }
    }

    impl Scheduler for TestFifo {
        fn name(&self) -> &'static str {
            "test-fifo"
        }
        fn admit_query(&mut self, id: QueryId, _info: &QueryInfo, _now: SimTime) {
            self.queue.push_back(TxnRef::Query(id));
        }
        fn admit_update(&mut self, id: UpdateId, _info: &UpdateInfo, _now: SimTime) {
            self.queue.push_back(TxnRef::Update(id));
        }
        fn drop_update(&mut self, id: UpdateId) {
            self.dropped.insert(id);
        }
        fn shed_update(&mut self) -> Option<UpdateId> {
            unimplemented!("the simulator never sheds")
        }
        fn pop_next(&mut self, _now: SimTime) -> Option<TxnRef> {
            while let Some(txn) = self.queue.pop_front() {
                if let TxnRef::Update(u) = txn {
                    if self.dropped.remove(&u) {
                        continue;
                    }
                }
                return Some(txn);
            }
            None
        }
        fn requeue(&mut self, txn: TxnRef, _now: SimTime) {
            self.queue.push_front(txn);
        }
        fn should_preempt(&mut self, _now: SimTime, _running: TxnRef) -> bool {
            false
        }
        fn has_pending(&self) -> bool {
            !self.queue.is_empty()
        }
    }

    fn query(arrival_ms: u64, stock: u32, cost_ms: u64) -> QuerySpec {
        QuerySpec {
            arrival: SimTime::from_ms(arrival_ms),
            op: QueryOp::Lookup(StockId(stock)),
            cost: SimDuration::from_ms(cost_ms),
            qc: QualityContract::step(10.0, 50.0, 10.0, 1),
        }
    }

    fn update(arrival_ms: u64, stock: u32, cost_ms: u64) -> UpdateSpec {
        UpdateSpec {
            arrival: SimTime::from_ms(arrival_ms),
            trade: Trade {
                stock: StockId(stock),
                price: 42.0,
                volume: 1,
                trade_time_ms: arrival_ms,
            },
            cost: SimDuration::from_ms(cost_ms),
        }
    }

    fn run_fifo(queries: Vec<QuerySpec>, updates: Vec<UpdateSpec>) -> RunReport {
        let cfg = SimConfig {
            collect_outcomes: true,
            // Zero switch cost keeps the expected arithmetic exact.
            switch_cost: SimDuration::ZERO,
            ..SimConfig::with_stocks(8)
        };
        Simulator::new(cfg, queries, updates, TestFifo::new()).run()
    }

    /// Updates always preempt queries — exercises pause, 2PL-HP eviction
    /// and the restart path deterministically.
    struct TestUpdateHigh(TestFifo);

    impl TestUpdateHigh {
        fn new() -> Self {
            TestUpdateHigh(TestFifo::new())
        }
        fn updates_pending(&self) -> bool {
            self.0
                .queue
                .iter()
                .any(|t| matches!(t, TxnRef::Update(u) if !self.0.dropped.contains(u)))
        }
    }

    impl Scheduler for TestUpdateHigh {
        fn name(&self) -> &'static str {
            "test-uh"
        }
        fn admit_query(&mut self, id: QueryId, info: &QueryInfo, now: SimTime) {
            self.0.admit_query(id, info, now);
        }
        fn admit_update(&mut self, id: UpdateId, info: &UpdateInfo, now: SimTime) {
            self.0.admit_update(id, info, now);
        }
        fn drop_update(&mut self, id: UpdateId) {
            self.0.drop_update(id);
        }
        fn shed_update(&mut self) -> Option<UpdateId> {
            self.0.shed_update()
        }
        fn pop_next(&mut self, now: SimTime) -> Option<TxnRef> {
            // Updates first, then FIFO.
            if let Some(pos) = self
                .0
                .queue
                .iter()
                .position(|t| matches!(t, TxnRef::Update(u) if !self.0.dropped.contains(u)))
            {
                return self.0.queue.remove(pos);
            }
            self.0.pop_next(now)
        }
        fn requeue(&mut self, txn: TxnRef, now: SimTime) {
            self.0.requeue(txn, now);
        }
        fn should_preempt(&mut self, _now: SimTime, running: TxnRef) -> bool {
            matches!(running, TxnRef::Query(_)) && self.updates_pending()
        }
        fn has_pending(&self) -> bool {
            self.0.has_pending()
        }
    }

    fn run_uh(queries: Vec<QuerySpec>, updates: Vec<UpdateSpec>) -> RunReport {
        let cfg = SimConfig {
            collect_outcomes: true,
            switch_cost: SimDuration::ZERO,
            ..SimConfig::with_stocks(8)
        };
        Simulator::new(cfg, queries, updates, TestUpdateHigh::new()).run()
    }

    #[test]
    fn conflicting_preemption_restarts_the_query() {
        // Query on stock 0 starts at t=0 (10 ms). An update on the SAME
        // stock arrives at t=2: preempt, evict the paused query's read
        // lock (2PL-HP restart), apply the update (2 ms), then rerun the
        // query from scratch: commit at 2 + 2 + 10 = 14 ms, fresh.
        let r = run_uh(vec![query(0, 0, 10)], vec![update(2, 0, 2)]);
        assert_eq!(r.query_restarts, 1);
        assert_eq!(r.update_restarts, 0);
        assert_eq!(r.committed, 1);
        assert!((r.avg_response_time_ms() - 14.0).abs() < 1e-9);
        assert_eq!(r.avg_staleness(), 0.0);
        // Wasted work is charged: 2 ms lost + 10 ms rerun + 2 ms update.
        assert_eq!(r.cpu_busy, SimDuration::from_ms(14));
        assert_eq!(r.end_time, SimTime::from_ms(14));
    }

    #[test]
    fn non_conflicting_preemption_keeps_progress() {
        // Same timing, but the update touches a different stock: the
        // paused query keeps its 2 ms of progress and resumes, committing
        // at 2 + 2 + 8 = 12 ms.
        let r = run_uh(vec![query(0, 0, 10)], vec![update(2, 1, 2)]);
        assert_eq!(r.query_restarts, 0);
        assert!((r.avg_response_time_ms() - 12.0).abs() < 1e-9);
        assert_eq!(r.cpu_busy, SimDuration::from_ms(12));
    }

    #[test]
    fn running_update_aborted_by_newer_arrival() {
        // An update is mid-application when a newer one on the same stock
        // arrives: the running one is aborted (work wasted), the newer
        // applies instead.
        let r = run_fifo(vec![], vec![update(0, 0, 5), update(2, 0, 5)]);
        assert_eq!(r.updates_applied, 1);
        assert_eq!(r.updates_invalidated, 1);
        // 2 ms wasted on the aborted one + 5 ms for the survivor.
        assert_eq!(r.cpu_busy, SimDuration::from_ms(7));
        assert_eq!(r.end_time, SimTime::from_ms(7));
    }

    #[test]
    fn paused_update_dropped_by_newer_arrival() {
        // A query preempts... no preemption in FIFO; instead use UH: an
        // update is paused mid-run by nothing here — simpler: a queued
        // update is replaced while an older query runs.
        let r = run_fifo(
            vec![query(0, 1, 10)],
            vec![update(1, 0, 3), update(2, 0, 3)],
        );
        assert_eq!(r.updates_applied, 1);
        assert_eq!(r.updates_invalidated, 1);
        // Query 10 ms + one update 3 ms.
        assert_eq!(r.cpu_busy, SimDuration::from_ms(13));
    }

    #[test]
    fn time_differential_metric() {
        // Update arrives at 1 ms and stays unapplied while a long query
        // holds the CPU; the query commits at 10 ms observing ~9 ms of td.
        let cfg = SimConfig {
            staleness_metric: StalenessMetric::TimeDifferentialMs,
            collect_outcomes: true,
            switch_cost: SimDuration::ZERO,
            ..SimConfig::with_stocks(8)
        };
        let mut q = query(0, 0, 10);
        // td cutoff in milliseconds: profit while fresher than 5 ms.
        q.qc = QualityContract::step(1.0, 1000.0, 1.0, 5);
        let r = Simulator::new(cfg, vec![q], vec![update(1, 0, 2)], TestFifo::new()).run();
        let out = &r.outcomes.unwrap()[0];
        assert!(
            (out.staleness - 9.0).abs() < 1e-9,
            "td was {}",
            out.staleness
        );
        assert_eq!(out.qod, 0.0, "9 ms of staleness exceeds the 5 ms cutoff");
        assert_eq!(out.qos, 1.0);
    }

    #[test]
    fn value_distance_metric() {
        let cfg = SimConfig {
            staleness_metric: StalenessMetric::ValueDistance,
            collect_outcomes: true,
            switch_cost: SimDuration::ZERO,
            ..SimConfig::with_stocks(8)
        };
        // The store opens at 100.0; an update to 142.0 arrives while the
        // query runs, so the served value is 42.0 away from the master.
        let mut q = query(0, 0, 10);
        q.qc = QualityContract::step(1.0, 1000.0, 1.0, 50); // vd cutoff 50
        let mut u = update(1, 0, 2);
        u.trade.price = 142.0;
        let r = Simulator::new(cfg, vec![q], vec![u], TestFifo::new()).run();
        let out = &r.outcomes.unwrap()[0];
        assert!(
            (out.staleness - 42.0).abs() < 1e-9,
            "vd was {}",
            out.staleness
        );
        assert_eq!(out.qod, 1.0, "42.0 distance is within the 50.0 cutoff");
    }

    #[test]
    fn fresh_data_is_fresh_under_every_metric() {
        for metric in [
            StalenessMetric::UnappliedUpdates,
            StalenessMetric::TimeDifferentialMs,
            StalenessMetric::ValueDistance,
        ] {
            let cfg = SimConfig {
                staleness_metric: metric,
                collect_outcomes: true,
                switch_cost: SimDuration::ZERO,
                ..SimConfig::with_stocks(8)
            };
            // Update fully applied before the query arrives.
            let r = Simulator::new(
                cfg,
                vec![query(10, 0, 5)],
                vec![update(0, 0, 2)],
                TestFifo::new(),
            )
            .run();
            assert_eq!(r.avg_staleness(), 0.0, "{metric:?}");
        }
    }

    #[test]
    fn switch_cost_is_charged_per_dispatch() {
        let cfg = SimConfig {
            switch_cost: SimDuration::from_ms(1),
            ..SimConfig::with_stocks(8)
        };
        let r = Simulator::new(
            cfg,
            vec![query(0, 0, 5), query(0, 1, 5)],
            vec![],
            TestFifo::new(),
        )
        .run();
        // Two dispatches, 1 ms overhead each: 5+1 and 5+1 of CPU.
        assert_eq!(r.cpu_busy, SimDuration::from_ms(12));
        assert_eq!(r.end_time, SimTime::from_ms(12));
        assert!((r.avg_response_time_ms() - (6.0 + 12.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = run_fifo(vec![], vec![]);
        assert_eq!(r.committed, 0);
        assert_eq!(r.end_time, SimTime::ZERO);
        assert_eq!(r.cpu_busy, SimDuration::ZERO);
    }

    #[test]
    fn single_query_commits_with_full_profit() {
        let r = run_fifo(vec![query(0, 0, 5)], vec![]);
        assert_eq!(r.committed, 1);
        assert_eq!(r.expired, 0);
        assert!((r.avg_response_time_ms() - 5.0).abs() < 1e-9);
        assert_eq!(r.avg_staleness(), 0.0);
        // Full QoS + QoD: 20 of 20.
        assert!((r.total_pct() - 1.0).abs() < 1e-12);
        assert_eq!(r.end_time, SimTime::from_ms(5));
        assert_eq!(r.cpu_busy_query, SimDuration::from_ms(5));
    }

    #[test]
    fn fifo_queues_back_to_back() {
        let r = run_fifo(vec![query(0, 0, 5), query(0, 1, 5)], vec![]);
        assert_eq!(r.committed, 2);
        // Second query waits for the first: rt 5 and 10.
        assert!((r.avg_response_time_ms() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn unapplied_update_makes_query_stale() {
        // Update arrives first but FIFO order is by arrival; update(0),
        // query(1): update runs first, so the query sees fresh data.
        let r = run_fifo(vec![query(1, 0, 5)], vec![update(0, 0, 2)]);
        assert_eq!(r.avg_staleness(), 0.0);
        assert_eq!(r.updates_applied, 1);

        // Query first, update arrives during its execution: staleness 1.
        let r = run_fifo(vec![query(0, 0, 5)], vec![update(1, 0, 2)]);
        assert_eq!(r.committed, 1);
        assert!((r.avg_staleness() - 1.0).abs() < 1e-12);
        // QoD profit lost (uumax = 1), QoS kept: 10 of 20.
        assert!((r.total_pct() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn newer_update_invalidates_queued_older() {
        // Two updates on the same stock arrive while a query runs; only
        // the newer is applied.
        let r = run_fifo(
            vec![query(0, 1, 10)],
            vec![update(1, 0, 2), update(2, 0, 2)],
        );
        assert_eq!(r.updates_applied, 1);
        assert_eq!(r.updates_invalidated, 1);
        // Total CPU: 10ms query + 2ms surviving update.
        assert_eq!(r.cpu_busy, SimDuration::from_ms(12));
    }

    #[test]
    fn query_expires_when_dispatched_too_late() {
        // A 2000ms-cost query blocks the CPU; the second query's explicit
        // 1000ms lifetime passes before it is dispatched.
        let mut q1 = query(0, 0, 2000);
        q1.qc = QualityContract::step(1.0, 10_000.0, 0.0, 1).with_lifetime_ms(100_000.0);
        let mut q2 = query(1, 1, 5);
        q2.qc = q2.qc.with_lifetime_ms(1000.0);
        let r = run_fifo(vec![q1, q2], vec![]);
        assert_eq!(r.committed, 1);
        assert_eq!(r.expired, 1);
        let outcomes = r.outcomes.unwrap();
        let late = outcomes.iter().find(|o| o.id == QueryId(1)).unwrap();
        assert!(late.expired);
        assert_eq!(late.qos + late.qod, 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let queries = vec![query(0, 0, 5), query(3, 1, 7), query(9, 0, 6)];
        let updates = vec![update(1, 0, 2), update(4, 1, 3), update(5, 0, 1)];
        let a = run_fifo(queries.clone(), updates.clone());
        let b = run_fifo(queries, updates);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aggregates, b.aggregates);
        assert_eq!(a.cpu_busy, b.cpu_busy);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let _ = run_fifo(vec![query(5, 0, 1), query(0, 0, 1)], vec![]);
    }

    #[test]
    #[should_panic(expected = "outside the store")]
    fn out_of_range_stock_rejected() {
        let _ = run_fifo(vec![query(0, 99, 1)], vec![]);
    }
}
