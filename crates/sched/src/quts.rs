//! QUTS: Query-Update Time-Sharing, the paper's two-level scheduler.
//!
//! **High level** (Table 2 of the paper): time is sliced into *atoms* of
//! length τ. At each atom boundary — or whenever the favoured queue runs
//! dry — a coin with bias ρ picks which queue holds the higher priority
//! for the next atom: the query queue with probability ρ, the update
//! queue otherwise. Every adaptation period ω, ρ is re-optimised from the
//! Quality Contracts submitted during the *previous* period (Eq. 5) and
//! smoothed with the aging factor α (Eq. 6).
//!
//! **Low level**: each queue keeps its own policy — VRD for queries and
//! FIFO for updates by default, any [`QueryOrder`] for ablations.
//!
//! The scheduler is work-conserving: when the favoured queue is empty the
//! other queue runs (with ρ = 1 updates still execute, but only when no
//! query is waiting — exactly the behaviour Figure 9d describes).

use crate::policy::{QueryOrder, QueryQueue, UpdateQueue};
use crate::rho::RhoController;
use quts_sim::{
    Class, QueryId, QueryInfo, SchedDecision, Scheduler, SimDuration, SimTime, TraceClass,
    TraceEvent, TxnRef, UpdateId, UpdateInfo,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// QUTS tuning knobs and their paper defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QutsConfig {
    /// Atom time τ: the minimal interval between high-level switches
    /// (default 10 ms; rule of thumb: at least the maximum query cost).
    pub tau: SimDuration,
    /// Adaptation period ω: how often ρ is re-optimised (default 1000 ms).
    pub omega: SimDuration,
    /// Aging factor α of Eq. 6 (default 0.2; "the exact α does not
    /// matter much").
    pub alpha: f64,
    /// ρ before the first adaptation (default 0.75, the midpoint of the
    /// feasible `[0.5, 1]` band).
    pub initial_rho: f64,
    /// Seed of the coin-flip RNG; runs are deterministic per seed.
    pub seed: u64,
    /// Low-level query queue policy (default VRD, as in the paper).
    pub query_order: QueryOrder,
    /// Whether ρ adapts at all. `false` freezes ρ at `initial_rho` —
    /// the static-allocation ablation that quantifies what the paper's
    /// adaptive feedback loop is worth.
    pub adaptive: bool,
}

impl Default for QutsConfig {
    fn default() -> Self {
        QutsConfig {
            tau: SimDuration::from_ms(10),
            omega: SimDuration::from_ms(1000),
            alpha: 0.2,
            initial_rho: 0.75,
            seed: 0x5157_5453, // "QUTS"
            query_order: QueryOrder::Vrd,
            adaptive: true,
        }
    }
}

impl QutsConfig {
    /// Builder: sets τ.
    pub fn with_tau(mut self, tau: SimDuration) -> Self {
        self.tau = tau;
        self
    }

    /// Builder: sets ω.
    pub fn with_omega(mut self, omega: SimDuration) -> Self {
        self.omega = omega;
        self
    }

    /// Builder: sets α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder: sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the low-level query policy.
    pub fn with_query_order(mut self, order: QueryOrder) -> Self {
        self.query_order = order;
        self
    }

    /// Builder: freezes ρ at `rho` — no adaptation ever happens.
    ///
    /// # Panics
    /// Panics if the result fails [`QutsConfig::check`] (`rho ∉ [0, 1]`).
    pub fn with_fixed_rho(mut self, rho: f64) -> Self {
        self.initial_rho = rho;
        self.adaptive = false;
        self.check().unwrap_or_else(|why| panic!("{why}"));
        self
    }

    /// The one rule on the knobs [`Quts`] runs with: τ and ω positive,
    /// `α ∈ (0, 1]`, `ρ₀ ∈ [0, 1]`. `Err` names the first knob that
    /// breaks it.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.tau.is_zero() {
            Err("atom time must be positive")
        } else if self.omega.is_zero() {
            Err("adaptation period must be positive")
        } else if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            Err("alpha must be in (0, 1]")
        } else if !(0.0..=1.0).contains(&self.initial_rho) {
            Err("rho must be in [0, 1]")
        } else {
            Ok(())
        }
    }
}

/// How many trailing adaptation periods [`Scheduler::rho_history`]
/// retains under [`Quts`]: far beyond any simulated run (the paper's
/// 30-minute trace at the smallest swept ω, 100 ms, is 18,000 periods),
/// so experiment reports are complete, while a server that adapts for
/// months stays at a megabyte.
pub const RHO_HISTORY_CAP: usize = 1 << 16;

/// The Query-Update Time-Sharing scheduler.
///
/// ```
/// use quts_sched::{Quts, QutsConfig};
/// use quts_sim::SimDuration;
///
/// // Paper defaults: tau = 10 ms, omega = 1 s, VRD queries, FIFO updates.
/// let quts = Quts::with_defaults();
/// assert_eq!(quts.rho(), 0.75); // before the first adaptation
///
/// // A half-second adaptation period and a frozen rho for ablations:
/// let tuned = Quts::new(
///     QutsConfig::default()
///         .with_omega(SimDuration::from_ms(500))
///         .with_fixed_rho(0.9),
/// );
/// assert_eq!(tuned.rho(), 0.9);
/// ```
#[derive(Debug)]
pub struct Quts {
    tau: SimDuration,
    omega: SimDuration,
    adaptive: bool,
    controller: RhoController,
    rng: StdRng,
    queries: QueryQueue,
    updates: UpdateQueue,
    /// Which class holds the higher priority in the current atom.
    state: Class,
    /// End of the current atom.
    state_until: SimTime,
    /// Next adaptation boundary.
    next_adapt: SimTime,
    /// `QOSmax` / `QODmax` submitted during the current period (Eq. 5
    /// consumes them at the boundary).
    acc_qos: f64,
    acc_qod: f64,
    /// `(boundary, ρ)` per adaptation period — Figure 9d. A window of
    /// the most recent [`RHO_HISTORY_CAP`] periods, so a policy inside a
    /// long-lived server holds bounded memory.
    history: Vec<(SimTime, f64)>,
    /// Buffer atom draws and adaptation steps as [`SchedDecision`]s for
    /// the host engine to drain. Off (and free) by default.
    trace_decisions: bool,
    decisions: Vec<SchedDecision>,
}

impl Quts {
    /// A QUTS scheduler with the given configuration, its atom and
    /// adaptation grids starting at time zero.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`QutsConfig::check`].
    pub fn new(cfg: QutsConfig) -> Self {
        Quts::starting_at(cfg, SimTime::ZERO)
    }

    /// As [`Quts::new`], with the grids anchored at `start`: the first
    /// atom ends at `start + τ`, the first adaptation lands at
    /// `start + ω`. A driver whose clock does not begin at zero — a
    /// runtime restarted an hour into its engine clock — must anchor
    /// here, or the first decision replays every boundary since zero.
    pub fn starting_at(cfg: QutsConfig, start: SimTime) -> Self {
        cfg.check().unwrap_or_else(|why| panic!("{why}"));
        let controller = RhoController::new(cfg.alpha, cfg.initial_rho);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let state = if rng.random::<f64>() < controller.rho() {
            Class::Query
        } else {
            Class::Update
        };
        Quts {
            tau: cfg.tau,
            omega: cfg.omega,
            adaptive: cfg.adaptive,
            controller,
            rng,
            queries: QueryQueue::new(cfg.query_order),
            updates: UpdateQueue::new(),
            state,
            state_until: start + cfg.tau,
            next_adapt: start + cfg.omega,
            acc_qos: 0.0,
            acc_qod: 0.0,
            history: Vec::new(),
            trace_decisions: false,
            decisions: Vec::new(),
        }
    }

    /// A QUTS scheduler with all paper defaults.
    pub fn with_defaults() -> Self {
        Quts::new(QutsConfig::default())
    }

    /// The current smoothed ρ.
    pub fn rho(&self) -> f64 {
        self.controller.rho()
    }

    fn draw_state(&mut self) -> Class {
        if self.rng.random::<f64>() < self.controller.rho() {
            Class::Query
        } else {
            Class::Update
        }
    }

    /// Records an atom-slice start while decision tracing is on.
    fn trace_atom(&mut self, at: SimTime) {
        if self.trace_decisions {
            self.decisions.push(SchedDecision {
                at_us: at.as_micros(),
                event: TraceEvent::AtomStart {
                    class: match self.state {
                        Class::Query => TraceClass::Query,
                        Class::Update => TraceClass::Update,
                    },
                    rho: self.controller.rho(),
                    queries_queued: self.queries.len() as u64,
                    updates_queued: self.updates.len() as u64,
                },
            });
        }
    }

    /// Processes every adaptation and atom boundary up to `now`.
    ///
    /// Boundaries settle in chronological order, an adaptation winning an
    /// exact tie with an atom boundary so the atom's coin draw sees the
    /// freshly adapted ρ. Chronological settling makes `refresh` call-
    /// pattern invariant: one lazy catch-up jump performs exactly the
    /// draws an eager boundary-by-boundary caller would, so the live
    /// engine (which refreshes at decision points) and the simulator
    /// (which refreshes at admissions and timers) stay bit-identical.
    fn refresh(&mut self, now: SimTime) {
        loop {
            let adapt_due = self.next_adapt <= now;
            let atom_due = self.state_until <= now;
            if adapt_due && self.next_adapt <= self.state_until {
                let old_rho = self.controller.rho();
                let rho = if self.adaptive {
                    self.controller.adapt(self.acc_qos, self.acc_qod)
                } else {
                    old_rho
                };
                if self.trace_decisions {
                    self.decisions.push(SchedDecision {
                        at_us: self.next_adapt.as_micros(),
                        event: TraceEvent::Adapt {
                            old_rho,
                            new_rho: rho,
                            qos_max: self.acc_qos,
                            qod_max: self.acc_qod,
                        },
                    });
                }
                self.acc_qos = 0.0;
                self.acc_qod = 0.0;
                if self.history.len() == RHO_HISTORY_CAP {
                    self.history.drain(..RHO_HISTORY_CAP / 2);
                }
                self.history.push((self.next_adapt, rho));
                self.next_adapt += self.omega;
            } else if atom_due {
                self.state = self.draw_state();
                let atom_start = self.state_until;
                self.state_until += self.tau;
                self.trace_atom(atom_start);
            } else {
                break;
            }
        }
    }

    fn queue_empty(&self, class: Class) -> bool {
        match class {
            Class::Query => self.queries.is_empty(),
            Class::Update => self.updates.is_empty(),
        }
    }
}

impl Scheduler for Quts {
    fn name(&self) -> &'static str {
        "QUTS"
    }

    fn admit_query(&mut self, id: QueryId, info: &QueryInfo, now: SimTime) {
        self.refresh(now);
        self.acc_qos += info.qosmax;
        self.acc_qod += info.qodmax;
        self.queries.admit(id, info);
    }

    fn admit_update(&mut self, id: UpdateId, info: &UpdateInfo, now: SimTime) {
        self.refresh(now);
        self.updates.admit(id, info);
    }

    fn drop_update(&mut self, id: UpdateId) {
        self.updates.drop_update(id);
    }

    fn shed_update(&mut self) -> Option<UpdateId> {
        self.updates.shed()
    }

    fn finish(&mut self, txn: TxnRef) {
        match txn {
            TxnRef::Query(q) => self.queries.finish(q),
            TxnRef::Update(u) => self.updates.finish(u),
        }
    }

    fn pop_next(&mut self, now: SimTime) -> Option<TxnRef> {
        self.refresh(now);
        // "A state change may happen every τ time, or if the picked queue
        // is empty at any instant of time" — re-draw when the favoured
        // queue ran dry while the other still has work.
        if self.queue_empty(self.state) && !self.queue_empty(self.state.other()) {
            self.state = self.draw_state();
            self.state_until = now + self.tau;
            self.trace_atom(now);
        }
        let class = if !self.queue_empty(self.state) {
            self.state
        } else {
            self.state.other()
        };
        match class {
            Class::Query => self.queries.pop().map(TxnRef::Query),
            Class::Update => self.updates.pop().map(TxnRef::Update),
        }
    }

    fn requeue(&mut self, txn: TxnRef, now: SimTime) {
        self.refresh(now);
        match txn {
            TxnRef::Query(q) => self.queries.requeue(q),
            TxnRef::Update(u) => self.updates.requeue(u),
        }
    }

    fn should_preempt(&mut self, now: SimTime, running: TxnRef) -> bool {
        self.refresh(now);
        running.class() != self.state && !self.queue_empty(self.state)
    }

    fn next_timer(&mut self, now: SimTime) -> Option<SimTime> {
        self.refresh(now);
        Some(self.state_until.min(self.next_adapt))
    }

    fn on_timer(&mut self, now: SimTime) {
        self.refresh(now);
    }

    fn has_pending(&self) -> bool {
        !self.queries.is_empty() || !self.updates.is_empty()
    }

    fn rho_history(&self) -> Option<&[(SimTime, f64)]> {
        Some(&self.history)
    }

    fn set_decision_trace(&mut self, enabled: bool) {
        self.trace_decisions = enabled;
        if !enabled {
            self.decisions.clear();
        }
    }

    fn drain_decisions(&mut self, sink: &mut Vec<SchedDecision>) {
        sink.append(&mut self.decisions);
    }

    fn queue_depths(&self) -> (usize, usize) {
        (self.queries.len(), self.updates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{qinfo, uinfo};

    impl Quts {
        /// The class currently holding the higher priority.
        fn current_state(&self) -> Class {
            self.state
        }
    }

    fn qos_only(seq: u64) -> quts_sim::QueryInfo {
        qinfo(seq, 50.0, 0.0, 100.0)
    }

    fn qod_only(seq: u64) -> quts_sim::QueryInfo {
        qinfo(seq, 0.0, 50.0, 100.0)
    }

    /// α = 1 makes ρ jump straight to each period's optimum.
    fn jumping_quts() -> Quts {
        Quts::new(QutsConfig::default().with_alpha(1.0))
    }

    #[test]
    fn qos_only_workload_drives_rho_to_one() {
        let mut s = jumping_quts();
        s.admit_query(QueryId(0), &qos_only(0), SimTime::from_ms(10));
        // Cross the first adaptation boundary.
        s.on_timer(SimTime::from_ms(1000));
        assert_eq!(s.rho(), 1.0);
        // With ρ = 1 the state is always Query.
        for i in 0..50 {
            s.on_timer(SimTime::from_ms(1000 + 10 * (i + 1)));
            assert_eq!(s.current_state(), Class::Query);
        }
    }

    #[test]
    fn qod_only_workload_drives_rho_to_half() {
        let mut s = jumping_quts();
        s.admit_query(QueryId(0), &qod_only(0), SimTime::from_ms(10));
        s.on_timer(SimTime::from_ms(1000));
        assert!((s.rho() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adaptation_uses_only_previous_period() {
        let mut s = jumping_quts();
        // Period 0: QoS-only → ρ = 1 at t=1000.
        s.admit_query(QueryId(0), &qos_only(0), SimTime::from_ms(100));
        s.on_timer(SimTime::from_ms(1000));
        assert_eq!(s.rho(), 1.0);
        // Period 1: QoD-only → ρ = 0.5 at t=2000; period-0 submissions
        // must not leak in.
        s.admit_query(QueryId(1), &qod_only(1), SimTime::from_ms(1100));
        s.on_timer(SimTime::from_ms(2000));
        assert!((s.rho() - 0.5).abs() < 1e-12);
        // Empty period 2 leaves ρ unchanged.
        s.on_timer(SimTime::from_ms(3000));
        assert!((s.rho() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn history_records_each_boundary() {
        let mut s = jumping_quts();
        s.admit_query(QueryId(0), &qos_only(0), SimTime::from_ms(5));
        s.on_timer(SimTime::from_ms(3500));
        let h = s.rho_history().unwrap();
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].0, SimTime::from_ms(1000));
        assert_eq!(h[1].0, SimTime::from_ms(2000));
        assert_eq!(h[2].0, SimTime::from_ms(3000));
        assert_eq!(h[0].1, 1.0);
    }

    #[test]
    fn favoured_empty_queue_redraws_and_serves_other() {
        let mut s = jumping_quts();
        // Force ρ = 1 → state Query forever.
        s.admit_query(QueryId(0), &qos_only(0), SimTime::ZERO);
        s.on_timer(SimTime::from_ms(1000));
        let _ = s.pop_next(SimTime::from_ms(1001)); // drain the query
                                                    // Only updates remain: work conservation must still serve them.
        s.admit_update(UpdateId(0), &uinfo(0, 0), SimTime::from_ms(1002));
        assert_eq!(
            s.pop_next(SimTime::from_ms(1003)),
            Some(TxnRef::Update(UpdateId(0)))
        );
    }

    #[test]
    fn rho_one_never_preempts_updates_for_nothing() {
        let mut s = jumping_quts();
        s.admit_query(QueryId(0), &qos_only(0), SimTime::ZERO);
        s.on_timer(SimTime::from_ms(1000));
        assert_eq!(s.rho(), 1.0);
        let _ = s.pop_next(SimTime::from_ms(1000)); // drain the query queue
                                                    // Update running, no queries waiting → keep running.
        assert!(!s.should_preempt(SimTime::from_ms(1001), TxnRef::Update(UpdateId(0))));
        // A query arrives → state is Query (ρ=1) → preempt the update.
        s.admit_query(QueryId(1), &qos_only(1), SimTime::from_ms(1002));
        assert!(s.should_preempt(SimTime::from_ms(1002), TxnRef::Update(UpdateId(0))));
    }

    #[test]
    fn next_timer_is_next_boundary() {
        let mut s = Quts::with_defaults();
        let t = s.next_timer(SimTime::from_ms(3)).unwrap();
        assert_eq!(t, SimTime::from_ms(10)); // first atom boundary
        let t = s.next_timer(SimTime::from_ms(995)).unwrap();
        assert_eq!(t, SimTime::from_ms(1000)); // adaptation boundary
    }

    #[test]
    fn timer_is_always_in_the_future() {
        let mut s = Quts::with_defaults();
        for ms in [0u64, 9, 10, 11, 999, 1000, 12345] {
            let now = SimTime::from_ms(ms);
            let t = s.next_timer(now).unwrap();
            assert!(t > now, "timer {t} not after {now}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut s = Quts::new(QutsConfig::default().with_seed(seed));
            let mut states = Vec::new();
            // Mixed workload keeps rho strictly between 0.5 and 1 so the
            // coin flips matter.
            s.admit_query(QueryId(0), &qinfo(0, 30.0, 60.0, 100.0), SimTime::ZERO);
            for i in 1..200u64 {
                s.on_timer(SimTime::from_ms(10 * i));
                states.push(s.current_state());
            }
            states
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds should flip differently");
    }

    #[test]
    fn low_level_is_vrd_by_default() {
        let mut s = Quts::with_defaults();
        let now = SimTime::ZERO;
        s.admit_query(QueryId(0), &qinfo(0, 10.0, 0.0, 100.0), now);
        s.admit_query(QueryId(1), &qinfo(1, 90.0, 0.0, 100.0), now);
        // Whatever the atom state, queries pop by VRD when the query
        // queue is served.
        let popped = s.pop_next(now).unwrap();
        assert_eq!(popped, TxnRef::Query(QueryId(1)));
    }

    #[test]
    fn fixed_rho_never_moves() {
        let mut s = Quts::new(QutsConfig::default().with_fixed_rho(0.8));
        // A QoS-only workload would normally drive rho to 1.
        s.admit_query(QueryId(0), &qos_only(0), SimTime::from_ms(10));
        for i in 1..=20 {
            s.on_timer(SimTime::from_ms(1000 * i));
            assert_eq!(s.rho(), 0.8);
        }
        let h = s.rho_history().unwrap();
        assert!(h.iter().all(|&(_, rho)| rho == 0.8));
    }

    #[test]
    fn grids_anchor_at_the_start_time() {
        // A driver restarted an hour into its clock: the first decision
        // must not replay 360,000 atoms and 3,600 empty adaptations.
        let start = SimTime::from_secs(3_600);
        let mut s = Quts::starting_at(QutsConfig::default(), start);
        s.set_decision_trace(true);
        assert_eq!(
            s.next_timer(start),
            Some(start + SimDuration::from_ms(10)),
            "first atom ends τ after the start"
        );
        s.admit_query(QueryId(0), &qos_only(0), start + SimDuration::from_ms(5));
        s.on_timer(start + SimDuration::from_ms(1_000));
        let h = s.rho_history().unwrap();
        assert_eq!(h.len(), 1, "no adaptation before start + ω");
        assert_eq!(h[0].0, start + SimDuration::from_ms(1_000));
        let mut sink = Vec::new();
        s.drain_decisions(&mut sink);
        let atoms = sink
            .iter()
            .filter(|d| matches!(d.event, TraceEvent::AtomStart { .. }))
            .count();
        assert_eq!(
            atoms, 100,
            "one draw per atom since the start, not since zero"
        );
        assert!(sink.iter().all(|d| d.at_us > start.as_micros()));
    }

    #[test]
    fn history_is_a_bounded_window_of_the_latest_periods() {
        let omega = SimDuration::from_ms(1);
        let mut s = Quts::new(QutsConfig::default().with_omega(omega));
        let periods = RHO_HISTORY_CAP as u64 + 1_000;
        s.on_timer(SimTime::from_ms(periods));
        let h = s.rho_history().unwrap();
        assert!(h.len() <= RHO_HISTORY_CAP, "{} entries retained", h.len());
        assert!(h.len() >= RHO_HISTORY_CAP / 2);
        assert_eq!(h.last().unwrap().0, SimTime::from_ms(periods));
        assert!(
            h.windows(2).all(|w| w[1].0 == w[0].0 + omega),
            "the window is contiguous up to the newest boundary"
        );
    }

    #[test]
    #[should_panic(expected = "atom time")]
    fn zero_tau_rejected() {
        let _ = Quts::new(QutsConfig::default().with_tau(SimDuration::ZERO));
    }

    #[test]
    fn lazy_refresh_matches_eager_refresh() {
        // The refresh-ordering lemma behind the conformance oracle: one
        // big catch-up jump must produce exactly the decision stream,
        // smoothed ρ, and current atom state of a caller that steps every
        // millisecond. Mixed contracts make ρ actually move, and 5005 ms
        // crosses five adaptation boundaries plus hundreds of atoms.
        let run = |eager: bool| {
            let mut s = Quts::new(QutsConfig::default().with_alpha(0.5).with_seed(9));
            s.set_decision_trace(true);
            s.admit_query(QueryId(0), &qinfo(0, 30.0, 60.0, 100.0), SimTime::ZERO);
            if eager {
                for ms in 1..=5005 {
                    s.on_timer(SimTime::from_ms(ms));
                }
            } else {
                s.on_timer(SimTime::from_ms(5005));
            }
            let mut sink = Vec::new();
            s.drain_decisions(&mut sink);
            let stream: Vec<(u64, &'static str, String)> = sink
                .iter()
                .map(|d| (d.at_us, d.event.kind(), format!("{:?}", d.event)))
                .collect();
            (stream, s.rho(), s.current_state())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn decision_trace_records_atoms_and_adaptations() {
        let mut s = jumping_quts();
        s.set_decision_trace(true);
        s.admit_query(QueryId(0), &qos_only(0), SimTime::from_ms(5));
        // Cross one adaptation boundary and many atom boundaries.
        s.on_timer(SimTime::from_ms(1005));
        let mut sink = Vec::new();
        s.drain_decisions(&mut sink);
        let adapts: Vec<_> = sink
            .iter()
            .filter(|d| matches!(d.event, TraceEvent::Adapt { .. }))
            .collect();
        assert_eq!(adapts.len(), 1);
        assert_eq!(adapts[0].at_us, 1_000_000);
        match adapts[0].event {
            TraceEvent::Adapt {
                old_rho,
                new_rho,
                qos_max,
                qod_max,
            } => {
                assert_eq!(old_rho, 0.75);
                assert_eq!(new_rho, 1.0); // α = 1 jumps to the optimum
                assert_eq!(qos_max, 50.0);
                assert_eq!(qod_max, 0.0);
            }
            _ => unreachable!(),
        }
        let atoms = sink
            .iter()
            .filter(|d| matches!(d.event, TraceEvent::AtomStart { .. }))
            .count();
        assert_eq!(atoms, 100, "one draw per 10 ms atom over 1005 ms");
        // Decisions are buffered in decision order; within one kind the
        // timestamps are non-decreasing. (A single `refresh` jump that
        // crosses both boundary kinds settles them chronologically,
        // adaptation first on an exact tie, exactly as an eager caller
        // stepping boundary by boundary would.)
        let atom_times: Vec<u64> = sink
            .iter()
            .filter(|d| matches!(d.event, TraceEvent::AtomStart { .. }))
            .map(|d| d.at_us)
            .collect();
        assert!(atom_times.windows(2).all(|w| w[0] <= w[1]));
        let mut again = Vec::new();
        s.drain_decisions(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn decision_trace_off_buffers_nothing() {
        let mut s = jumping_quts();
        s.admit_query(QueryId(0), &qos_only(0), SimTime::from_ms(5));
        s.on_timer(SimTime::from_ms(5005));
        let mut sink = Vec::new();
        s.drain_decisions(&mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn queue_depths_track_both_classes() {
        let mut s = Quts::with_defaults();
        assert_eq!(s.queue_depths(), (0, 0));
        s.admit_query(QueryId(0), &qos_only(0), SimTime::ZERO);
        s.admit_query(QueryId(1), &qos_only(1), SimTime::ZERO);
        s.admit_update(UpdateId(0), &uinfo(0, 0), SimTime::ZERO);
        assert_eq!(s.queue_depths(), (2, 1));
        let _ = s.pop_next(SimTime::ZERO);
        let (q, u) = s.queue_depths();
        assert_eq!(q + u, 2);
    }
}
