//! The equivalence envelope: the configuration corner in which the
//! simulator and the live engine are expected to make **identical**
//! scheduling decisions.
//!
//! The two engines share the policy crate (`quts-sched`: the live
//! runtime drives the very `Quts` / `DualQueue` / `GlobalFifo` the
//! simulator does, built by `EngineConfig` from a `LivePolicy`) and the
//! data layer (`quts-db`), but differ in everything around them —
//! threads vs an event loop, wall clock vs virtual clock, channels vs a
//! trace, run-to-completion vs preemption. The envelope pins every knob
//! that could legitimately make them differ:
//!
//! | knob | pinned to | why |
//! |------|-----------|-----|
//! | time | virtual µs on both sides | removes wall-clock jitter |
//! | query cost | one synthetic constant | the live engine's real operator cost is hardware-dependent |
//! | update cost | zero | the live engine has no synthetic update cost in virtual mode |
//! | switch cost | zero | the sim charges 50 µs by default; the live engine none |
//! | preemption | off (`NonPreemptive`) | the live engine never preempts a dispatched txn |
//! | staleness | `Max` aggregation over `#uu` | the only metric; both sides aggregate by `Max` |
//! | seed, τ, ω, α, ρ₀ | shared | the atom coin must flip identically |
//!
//! ω defaults to 100 ms here — a tenth of the paper's setting — so that
//! sub-second conformance traces still cross several adaptation
//! boundaries and exercise the ρ feedback loop. Both engines get the
//! same ω, so this changes coverage, not equivalence.
//!
//! The sim side's scheduler is built here, from the envelope
//! (`Envelope::quts_config`), not through the engine's constructor:
//! the comparison then also covers the engine's wiring of its knobs
//! into the policy.

use crate::trace::ConfTrace;
use quts_engine::{run_virtual, EngineConfig, TraceConfig, VirtualRunReport};
use quts_sched::{DualQueue, GlobalFifo, NonPreemptive, Quts, QutsConfig};
use quts_sim::{RunReport, SimConfig, SimDuration, Simulator};
use std::time::Duration;

/// Trace-ring size used on both sides; conformance traces are small, so
/// this comfortably holds every decision (the oracle still checks
/// nothing was dropped).
const RING_CAPACITY: usize = 1 << 16;

/// A scheduling policy both drivers run; the differential oracle
/// replays every trace under each of [`Policy::ALL`].
pub use quts_engine::LivePolicy as Policy;

/// Shared parameters of one differential comparison; see the module
/// docs for what is pinned and why.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Seed of the atom coin on both sides.
    pub seed: u64,
    /// Atom time τ.
    pub tau: SimDuration,
    /// Adaptation period ω (shrunk to 100 ms by default — see module
    /// docs).
    pub omega: SimDuration,
    /// ρ-smoothing factor α.
    pub alpha: f64,
    /// ρ before the first adaptation.
    pub initial_rho: f64,
    /// Synthetic service cost of every query, both sides.
    pub query_cost: SimDuration,
}

impl Envelope {
    /// The standard envelope for a given seed: QUTS's defaults but for
    /// ω.
    pub fn new(seed: u64) -> Self {
        let quts = QutsConfig::default();
        Envelope {
            seed,
            tau: quts.tau,
            omega: SimDuration::from_ms(100),
            alpha: quts.alpha,
            initial_rho: quts.initial_rho,
            query_cost: SimDuration::from_ms(7),
        }
    }

    /// The live engine's configuration under this envelope.
    fn engine_config(&self, policy: Policy) -> EngineConfig {
        let mut config = EngineConfig::default()
            .with_seed(self.seed)
            .with_policy(policy)
            .with_tau(Duration::from_micros(self.tau.as_micros()))
            .with_omega(Duration::from_micros(self.omega.as_micros()))
            // Admission caps far above any conformance trace: shedding
            // decisions must come from the scheduler, not the door.
            .with_max_pending_queries(1 << 20)
            .with_max_pending_updates(1 << 20)
            .with_trace(TraceConfig::full().with_ring_capacity(RING_CAPACITY));
        config.alpha = self.alpha;
        config.initial_rho = self.initial_rho;
        config.synthetic_query_cost = Some(Duration::from_micros(self.query_cost.as_micros()));
        config.synthetic_update_cost = None;
        config
    }

    /// The simulator's configuration under this envelope.
    fn sim_config(&self, num_stocks: u32) -> SimConfig {
        SimConfig {
            num_stocks,
            collect_outcomes: true,
            switch_cost: SimDuration::ZERO,
            trace: TraceConfig::full().with_ring_capacity(RING_CAPACITY),
            ..SimConfig::default()
        }
    }

    /// The simulator's QUTS configuration (the knobs the live config
    /// shares).
    fn quts_config(&self) -> QutsConfig {
        QutsConfig {
            initial_rho: self.initial_rho,
            ..QutsConfig::default()
        }
        .with_tau(self.tau)
        .with_omega(self.omega)
        .with_alpha(self.alpha)
        .with_seed(self.seed)
    }

    /// Replays `trace` through the simulator under `policy`.
    pub fn run_sim(&self, policy: Policy, trace: &ConfTrace) -> RunReport {
        let (queries, updates) = trace.to_specs(self.query_cost);
        let config = self.sim_config(trace.num_stocks);
        match policy {
            Policy::Fifo => {
                Simulator::new(config, queries, updates, NonPreemptive(GlobalFifo::new())).run()
            }
            Policy::UpdateHigh => {
                Simulator::new(config, queries, updates, NonPreemptive(DualQueue::uh())).run()
            }
            Policy::QueryHigh => {
                Simulator::new(config, queries, updates, NonPreemptive(DualQueue::qh())).run()
            }
            Policy::Quts => Simulator::new(
                config,
                queries,
                updates,
                NonPreemptive(Quts::new(self.quts_config())),
            )
            .run(),
        }
    }

    /// Replays `trace` through the live engine's scheduler in virtual
    /// time.
    pub fn run_live(&self, policy: Policy, trace: &ConfTrace) -> VirtualRunReport {
        let (queries, updates) = trace.to_specs(self.query_cost);
        run_virtual(
            trace.num_stocks,
            &queries,
            &updates,
            &self.engine_config(policy),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quts_qc::StalenessAggregation;

    #[test]
    fn envelope_pins_both_sides_to_the_same_knobs() {
        // The standard envelope, and one whose shared knobs are all off
        // their defaults: a knob only one side reads passes the first by
        // coincidence.
        let off_default = Envelope {
            tau: SimDuration::from_ms(3),
            omega: SimDuration::from_ms(70),
            alpha: 0.45,
            initial_rho: 0.6,
            ..Envelope::new(7)
        };
        for env in [Envelope::new(42), off_default] {
            let ec = env.engine_config(Policy::Quts);
            let qc = env.quts_config();
            assert_eq!(ec.seed, qc.seed);
            assert_eq!(ec.tau.as_micros() as u64, qc.tau.as_micros());
            assert_eq!(ec.omega.as_micros() as u64, qc.omega.as_micros());
            assert_eq!(ec.alpha, qc.alpha);
            assert_eq!(ec.initial_rho, qc.initial_rho);
            assert_eq!(qc.initial_rho, env.initial_rho);
            let sc = env.sim_config(4);
            assert_eq!(sc.switch_cost, SimDuration::ZERO);
            assert_eq!(sc.staleness_agg, StalenessAggregation::Max);
            assert!(sc.collect_outcomes);
        }
    }
}
