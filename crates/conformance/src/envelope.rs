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
//! | QUTS's knobs | one `QutsConfig`, both sides | the atom coin must flip identically |
//!
//! ω defaults to 100 ms here — a tenth of the paper's setting — so that
//! sub-second conformance traces still cross several adaptation
//! boundaries and exercise the ρ feedback loop. Both engines get the
//! same ω, so this changes coverage, not equivalence.
//!
//! The sim side's scheduler is built here, from the envelope's
//! `quts`, not through the engine's constructor: the comparison then
//! also covers the engine's wiring of that one `QutsConfig` into the
//! policy.

use crate::trace::ConfTrace;
use quts_engine::{run_virtual, EngineConfig, LivePolicy, TraceConfig, VirtualRunReport};
use quts_sched::{DualQueue, GlobalFifo, NonPreemptive, Quts, QutsConfig};
use quts_sim::{RunReport, SimConfig, SimDuration, Simulator};
use std::time::Duration;

/// Trace-ring size used on both sides; conformance traces are small, so
/// this comfortably holds every decision (the oracle still checks
/// nothing was dropped).
const RING_CAPACITY: usize = 1 << 16;

/// Shared parameters of one differential comparison; see the module
/// docs for what is pinned and why.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// QUTS's knobs, read as they are by both sides (ω shrunk to
    /// 100 ms by default — see module docs).
    pub quts: QutsConfig,
    /// Synthetic service cost of every query, both sides.
    pub query_cost: SimDuration,
}

impl Envelope {
    /// The standard envelope for a given seed: QUTS's defaults but for
    /// ω.
    pub fn new(seed: u64) -> Self {
        Envelope {
            quts: QutsConfig::default()
                .with_seed(seed)
                .with_omega(SimDuration::from_ms(100)),
            query_cost: SimDuration::from_ms(7),
        }
    }

    /// The live engine's configuration under this envelope.
    fn engine_config(&self, policy: LivePolicy) -> EngineConfig {
        EngineConfig {
            quts: self.quts,
            synthetic_query_cost: Some(Duration::from_micros(self.query_cost.as_micros())),
            ..EngineConfig::default()
        }
        .with_policy(policy)
        // Admission caps far above any conformance trace: shedding
        // decisions must come from the scheduler, not the door.
        .with_max_pending_queries(1 << 20)
        .with_max_pending_updates(1 << 20)
        .with_trace(TraceConfig::full().with_ring_capacity(RING_CAPACITY))
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

    /// Replays `trace` through the simulator under `policy`.
    pub fn run_sim(&self, policy: LivePolicy, trace: &ConfTrace) -> RunReport {
        let (queries, updates) = trace.to_specs(self.query_cost);
        let config = self.sim_config(trace.num_stocks);
        match policy {
            LivePolicy::Fifo => {
                Simulator::new(config, queries, updates, NonPreemptive(GlobalFifo::new())).run()
            }
            LivePolicy::UpdateHigh => {
                Simulator::new(config, queries, updates, NonPreemptive(DualQueue::uh())).run()
            }
            LivePolicy::QueryHigh => {
                Simulator::new(config, queries, updates, NonPreemptive(DualQueue::qh())).run()
            }
            LivePolicy::Quts => Simulator::new(
                config,
                queries,
                updates,
                NonPreemptive(Quts::new(self.quts)),
            )
            .run(),
        }
    }

    /// Replays `trace` through the live engine's scheduler in virtual
    /// time.
    pub fn run_live(&self, policy: LivePolicy, trace: &ConfTrace) -> VirtualRunReport {
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
            quts: QutsConfig {
                tau: SimDuration::from_ms(3),
                omega: SimDuration::from_ms(70),
                alpha: 0.45,
                initial_rho: 0.6,
                ..Envelope::new(7).quts
            },
            ..Envelope::new(7)
        };
        for env in [Envelope::new(42), off_default] {
            assert_eq!(env.engine_config(LivePolicy::Quts).quts, env.quts);
            let sc = env.sim_config(4);
            assert_eq!(sc.switch_cost, SimDuration::ZERO);
            assert_eq!(sc.staleness_agg, StalenessAggregation::Max);
            assert!(sc.collect_outcomes);
        }
    }
}
