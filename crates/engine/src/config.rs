//! Engine configuration.

use crate::durability::DurabilityConfig;
use crate::fault::FaultPlan;
use quts_metrics::TraceConfig;
use quts_sched::{DualQueue, GlobalFifo, Quts, QutsConfig};
use quts_sim::{Scheduler, SimDuration, SimTime};
use std::path::PathBuf;
use std::time::Duration;

/// Which scheduling policy the live engine's single worker runs — each
/// names a `quts-sched` scheduler, the same implementation the simulator
/// runs (see [`EngineConfig::build_policy`]).
///
/// QUTS (the default) is the paper's contribution; the fixed-priority
/// baselines exist so the conformance oracle can differentially check
/// the live driver against the simulator under every policy. All of them
/// are non-preemptive in the live engine: a dispatched transaction
/// always finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LivePolicy {
    /// One global arrival order across both classes (updates win ties).
    Fifo,
    /// Updates strictly first; queries (VRD order) only when no update
    /// is pending.
    UpdateHigh,
    /// Queries (VRD order) strictly first; updates only when no query
    /// is pending.
    QueryHigh,
    /// The paper's two-level scheduler: ρ-biased atom draws with
    /// per-period ρ adaptation.
    #[default]
    Quts,
}

impl LivePolicy {
    /// All four policies, in the order reports list them.
    pub const ALL: [LivePolicy; 4] = [
        LivePolicy::Fifo,
        LivePolicy::UpdateHigh,
        LivePolicy::QueryHigh,
        LivePolicy::Quts,
    ];

    /// Stable lower-case label (used in reports and trace file names).
    pub fn label(&self) -> &'static str {
        match self {
            LivePolicy::Fifo => "fifo",
            LivePolicy::UpdateHigh => "uh",
            LivePolicy::QueryHigh => "qh",
            LivePolicy::Quts => "quts",
        }
    }
}

/// Tuning of the live engine; defaults mirror the paper's system
/// parameters (τ = 10 ms, ω = 1000 ms).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Atom time τ: minimal interval between class-priority re-draws.
    pub tau: Duration,
    /// Adaptation period ω: how often ρ is re-optimised.
    pub omega: Duration,
    /// Aging factor α of the ρ smoothing.
    pub alpha: f64,
    /// ρ before the first adaptation.
    pub initial_rho: f64,
    /// Seed for the atom coin flips.
    pub seed: u64,
    /// Scheduling policy of the single worker; [`LivePolicy::Quts`] by
    /// default. The fixed-priority baselines have no atoms and no ρ:
    /// τ, ω, α, `initial_rho` and `seed` are QUTS's knobs.
    pub policy: LivePolicy,
    /// Artificial per-transaction CPU cost added on top of the real
    /// operator execution (busy-spin), to emulate the paper's millisecond
    /// service times in demos. `None` runs at native speed.
    pub synthetic_query_cost: Option<Duration>,
    /// As above, for updates.
    pub synthetic_update_cost: Option<Duration>,

    // --- Admission control & load shedding ---
    /// Capacity of the submission channel. Submissions beyond it fail
    /// with [`SubmitError::QueueFull`](crate::SubmitError) instead of
    /// growing memory without bound.
    pub queue_capacity: usize,
    /// High-water mark on queries admitted but not yet executed. At the
    /// mark the scheduler stops draining the submission channel, so
    /// backpressure reaches submitters as `QueueFull`.
    pub max_pending_queries: usize,
    /// High-water mark on distinct pending updates (the register table
    /// already collapses same-item bursts). At the mark the oldest
    /// pending update is dropped — its payload is the least valuable in
    /// the queue, and its item correctly stays accounted stale.
    pub max_pending_updates: usize,

    // --- Panic supervision ---
    /// Restart budget: the scheduler restarts over the surviving store
    /// after each of this many panics, waiting 1 ms before the first
    /// and doubling up to 1 s; the panic past it poisons the engine.
    /// The default 0 poisons at the first panic.
    pub max_restarts: u32,

    // --- Durability ---
    /// Write-ahead logging + snapshots. `None` (the default) runs the
    /// engine purely in memory, as the paper does; `Some` appends every
    /// accepted update to a WAL before enqueue and publishes periodic
    /// snapshots, so a start over the same directory and the supervisor
    /// restart path can rebuild the store *and* the pending update
    /// queue — post-crash `#uu` never under-reports.
    pub durability: Option<DurabilityConfig>,

    /// Injected faults for chaos tests; the default plan injects
    /// nothing.
    pub fault: FaultPlan,

    /// Observability level: `Off` (default) records nothing, `Spans`
    /// feeds the lifecycle histograms in [`LiveStats`](crate::LiveStats),
    /// `Full` additionally keeps per-decision events in a bounded ring
    /// readable through
    /// [`EngineHandle::trace_snapshot`](crate::EngineHandle::trace_snapshot).
    pub trace: TraceConfig,

    /// Directory the supervisor dumps the flight recorder into, as
    /// `<dir>/flightrec-<ts>.jsonl`, on panic, poison or fail-stop. The
    /// recorder — the decision ring, sized by `trace.ring_capacity`, plus
    /// 1-second timeseries — exists only at trace level `Full`; below it,
    /// or with `None` (the default), a crash writes no dump.
    pub flight: Option<PathBuf>,
}

impl Default for EngineConfig {
    /// QUTS's knobs (τ, ω, α, ρ₀, seed) are [`QutsConfig::default`]'s.
    fn default() -> Self {
        let quts = QutsConfig::default();
        EngineConfig {
            tau: Duration::from_micros(quts.tau.as_micros()),
            omega: Duration::from_micros(quts.omega.as_micros()),
            alpha: quts.alpha,
            initial_rho: quts.initial_rho,
            seed: quts.seed,
            policy: LivePolicy::default(),
            synthetic_query_cost: None,
            synthetic_update_cost: None,
            queue_capacity: 1024,
            max_pending_queries: 4096,
            max_pending_updates: 16384,
            max_restarts: 0,
            durability: None,
            fault: FaultPlan::default(),
            trace: TraceConfig::default(),
            flight: None,
        }
    }
}

impl EngineConfig {
    /// The scheduler this configuration asks for, its time-driven state
    /// anchored at `start` on the engine clock — the one place a
    /// [`LivePolicy`] becomes a `quts-sched` object.
    pub(crate) fn build_policy(&self, start: SimTime) -> Box<dyn Scheduler> {
        match self.policy {
            LivePolicy::Fifo => Box::new(GlobalFifo::new()),
            LivePolicy::UpdateHigh => Box::new(DualQueue::uh()),
            LivePolicy::QueryHigh => Box::new(DualQueue::qh()),
            LivePolicy::Quts => Box::new(Quts::starting_at(self.quts_config(), start)),
        }
    }

    /// QUTS's knobs as `quts-sched` reads them: τ and ω in whole µs.
    fn quts_config(&self) -> QutsConfig {
        QutsConfig {
            tau: SimDuration(self.tau.as_micros() as u64),
            omega: SimDuration(self.omega.as_micros() as u64),
            alpha: self.alpha,
            initial_rho: self.initial_rho,
            seed: self.seed,
            ..QutsConfig::default()
        }
    }

    /// `InvalidInput` when the policy is QUTS and its knobs fail
    /// [`QutsConfig::check`] (a τ or ω under 1 µs is zero): the
    /// scheduler thread would panic on them at its first start.
    pub(crate) fn check(&self) -> std::io::Result<()> {
        match self.policy {
            LivePolicy::Quts => self.quts_config().check(),
            _ => Ok(()),
        }
        .map_err(|why| std::io::Error::new(std::io::ErrorKind::InvalidInput, why))
    }

    /// Builder: synthetic service costs emulating the paper's trace
    /// (query ≈ 7 ms, update ≈ 3 ms).
    pub fn with_paper_costs(mut self) -> Self {
        self.synthetic_query_cost = Some(Duration::from_millis(7));
        self.synthetic_update_cost = Some(Duration::from_millis(3));
        self
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the scheduling policy.
    pub fn with_policy(mut self, policy: LivePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder: sets τ.
    pub fn with_tau(mut self, tau: Duration) -> Self {
        self.tau = tau;
        self
    }

    /// Builder: sets ω.
    pub fn with_omega(mut self, omega: Duration) -> Self {
        self.omega = omega;
        self
    }

    /// Builder: sets the submission channel capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_capacity = cap;
        self
    }

    /// Builder: sets the pending-query high-water mark.
    pub fn with_max_pending_queries(mut self, cap: usize) -> Self {
        assert!(cap > 0, "pending-query cap must be positive");
        self.max_pending_queries = cap;
        self
    }

    /// Builder: sets the pending-update high-water mark.
    pub fn with_max_pending_updates(mut self, cap: usize) -> Self {
        assert!(cap > 0, "pending-update cap must be positive");
        self.max_pending_updates = cap;
        self
    }

    /// Builder: sets the restart budget (see
    /// [`max_restarts`](EngineConfig::max_restarts)).
    pub fn with_restart_on_panic(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Builder: enables durability (WAL + snapshots) over a directory.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Builder: installs a fault-injection plan.
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Builder: sets the observability level.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: sets the directory crash dumps go into (effective at
    /// trace level `Full`).
    pub fn with_flight_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.tau, Duration::from_millis(10));
        assert_eq!(c.omega, Duration::from_millis(1000));
        assert_eq!(c.alpha, 0.2);
        assert_eq!(c.initial_rho, 0.75);
        assert_eq!(c.seed, 0x5157_5453);
        assert!(c.synthetic_query_cost.is_none());
    }

    #[test]
    fn tracing_defaults_off_and_is_a_builder_knob() {
        use quts_metrics::TraceLevel;
        let c = EngineConfig::default();
        assert_eq!(c.trace.level, TraceLevel::Off);
        let c = c.with_trace(TraceConfig::full());
        assert_eq!(c.trace.level, TraceLevel::Full);
    }

    #[test]
    fn policy_knob_defaults_to_quts() {
        let c = EngineConfig::default();
        assert_eq!(c.policy, LivePolicy::Quts);
        assert_eq!(c.policy.label(), "quts");
        let c = c.with_policy(LivePolicy::UpdateHigh);
        assert_eq!(c.policy, LivePolicy::UpdateHigh);
        assert_eq!(
            [
                LivePolicy::Fifo.label(),
                LivePolicy::UpdateHigh.label(),
                LivePolicy::QueryHigh.label(),
            ],
            ["fifo", "uh", "qh"]
        );
    }

    #[test]
    fn defaults_are_hardened_but_fault_free() {
        let c = EngineConfig::default();
        assert!(c.queue_capacity > 0);
        assert!(c.max_pending_queries >= c.queue_capacity);
        assert_eq!(c.max_restarts, 0, "restarts are opt-in");
        assert_eq!(c.fault, FaultPlan::default(), "no faults unless asked");
        assert!(c.durability.is_none(), "durability is opt-in");
        assert!(c.flight.is_none(), "flight recorder is opt-in");
    }

    #[test]
    fn flight_recorder_builder() {
        let c = EngineConfig::default().with_flight_recorder("/tmp/quts-fr");
        assert_eq!(c.flight, Some(PathBuf::from("/tmp/quts-fr")));
    }

    #[test]
    fn durability_builder_and_defaults() {
        use quts_db::FsyncPolicy;
        let d = DurabilityConfig::new("/tmp/quts-x");
        assert_eq!(d.fsync, FsyncPolicy::EveryN(64));
        assert_eq!(d.snapshot_every, 4096);
        let c = EngineConfig::default()
            .with_durability(d.with_fsync(FsyncPolicy::Always).with_snapshot_every(10));
        let d = c.durability.expect("durability set");
        assert_eq!(d.fsync, FsyncPolicy::Always);
        assert_eq!(d.snapshot_every, 10);
    }

    #[test]
    fn robustness_builders() {
        let c = EngineConfig::default()
            .with_queue_capacity(8)
            .with_max_pending_queries(16)
            .with_max_pending_updates(32)
            .with_restart_on_panic(2)
            .with_fault_plan(FaultPlan::default().panic_after(5));
        assert_eq!(c.queue_capacity, 8);
        assert_eq!(c.max_pending_queries, 16);
        assert_eq!(c.max_pending_updates, 32);
        assert_eq!(c.max_restarts, 2);
        assert_eq!(c.fault.panic_after_txns, Some(5));
    }

    #[test]
    fn builders() {
        let c = EngineConfig::default()
            .with_paper_costs()
            .with_seed(1)
            .with_tau(Duration::from_millis(5))
            .with_omega(Duration::from_millis(500));
        assert_eq!(c.synthetic_query_cost, Some(Duration::from_millis(7)));
        assert_eq!(c.synthetic_update_cost, Some(Duration::from_millis(3)));
        assert_eq!(c.seed, 1);
        assert_eq!(c.tau, Duration::from_millis(5));
        assert_eq!(c.omega, Duration::from_millis(500));
    }
}
