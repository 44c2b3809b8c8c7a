//! Autopilot failover: the cluster controller.
//!
//! The controller owns one primary [`Engine`], its [`ShipListener`],
//! the replica fleet and the read [`Router`], and closes the loop the
//! manual promotion API leaves open: *noticing* that the primary is
//! gone and *repairing* the cluster without losing anything a client
//! was told is durable.
//!
//! A cluster is also the one way a shard runs, and [`Cluster::launch`]
//! the one way to build one: it starts its own primary over a store,
//! and without a [`ShipConfig`] the cluster has no listener, no replicas
//! and no monitor thread — the primary behind its router, nothing more.
//! A regime (listener, replicas, router pool) is wired by one function,
//! `wire`, at launch, after a promotion and in a rollback.
//!
//! # Failure detection
//!
//! The detector is one deadline over signals the replication stream
//! already produces — no extra chatter on the wire. Every
//! `heartbeat_timeout / 10`, under the core lock, one poll decides:
//!
//! - **Crash**: the engine lives in this process, so [`EngineState`]
//!   leaving `Running` (a poisoned scheduler whose restart budget is
//!   spent, or a stop) is an immediate verdict.
//! - **Partition**: every replica tracks the age of the last heartbeat
//!   or frame it saw. When the *freshest* ready replica's age exceeds
//!   `heartbeat_timeout` while the engine still runs, the links have
//!   been dark past the deadline and the verdict is `Partition`. The
//!   age only grows until the next beat lands, so a stall shorter than
//!   the deadline resets itself and a dark link does not — one
//!   comparison is the whole detector.
//!
//! Using the freshest replica (not the stalest) is deliberate: one
//! slow replica is a replica problem; *all* replicas going silent at
//! once is a primary problem.
//!
//! # The failover sequence
//!
//! 1. **Elect** the replica with the highest *durable* LSN — what a
//!    replica fsync'd is what it acked, so the winner carries every
//!    acked-durable update — and pre-check that its directory has not
//!    already reached the target term. Everything that can *refuse*
//!    runs here, before the old primary is touched: a failover with no
//!    promotable candidate is a no-op error, never an outage, and
//!    leaves no `confirmed` step in the flight ring.
//! 2. **Demote** the old primary: shut down its ship listener and the
//!    engine itself. Even if this node were unreachable instead of
//!    co-located, term fencing makes the demotion safe — see below.
//! 3. **Promote** the winner at `term + 1`, from the primary's
//!    `EngineConfig` with its [`FaultPlan`] cleared: an injected fault
//!    targets the incarnation it was armed on. If the promotion itself
//!    fails here (an I/O error in recovery), the controller rolls
//!    back: it resurrects the old primary from its own directory at
//!    the term the promotion burned, re-ships it and restarts the
//!    fleet — counted in `failed_failovers` — rather than leaving the
//!    cluster headless.
//! 4. **Re-ship**: start a fresh [`ShipListener`] (no link fault) over
//!    the promoted directory, whose MANIFEST recorded the promotion LSN
//!    as the new term's floor, restart the surviving replicas against
//!    it (a survivor whose WAL ran past the floor — or that missed more
//!    than one term — is force-bootstrapped), and swap the router's
//!    replica pool. A survivor that cannot be restarted is dropped
//!    *loudly*: named in [`FailoverReport::lost`] and counted in
//!    `lost_replicas`. If the listener itself cannot start, the term is
//!    already burned in the winner's MANIFEST, so the cluster rolls
//!    *forward* to a degraded primary-only regime; the stale survivors
//!    are shut down (their old durable state must never win a later
//!    election against writes acked at the new term).
//! 5. **Re-point** the router at the promoted engine
//!    ([`Router::repoint`]). In-flight reads against the dead handle
//!    resolve as errors, never as stale answers counted fresh.
//!
//! # Why a zombie primary cannot ack
//!
//! The promotion bumped the term in the winner's MANIFEST before the
//! new engine served anything. A resurrected old primary still speaks
//! `term n`: replicas that adopted `n+1` refuse its session outright
//! (and persist their term, so the refusal survives *their* restarts),
//! its acks carry the stale term and are discarded, and its own
//! listener fences any peer that has seen the newer term. At most one
//! primary can hold a given term ([`PromoteError::StaleTerm`]), so
//! "durable" can only ever have been said by the term's one owner.

use crate::config::EngineConfig;
use crate::fault::FaultPlan;
use crate::repl::failover::{self as failover_api, PromoteError};
use crate::repl::replica::{Replica, ReplicaConfig, ReplicaStats};
use crate::repl::router::{Router, RouterStats};
use crate::repl::ship::{ReplicaPeerStats, ShipConfig, ShipListener, ShipTotals};
use crate::runtime::{Engine, EngineHandle};
use crate::stats::LiveStats;
use crate::supervisor::EngineState;
use quts_db::{snapshot, Store};
use quts_metrics::{FailoverStep, TraceEvent};
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Knobs for the cluster controller's failure detector.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Heartbeat age past which the freshest replica's silence is a
    /// `Partition` verdict; the detector polls every tenth of it. Must
    /// comfortably exceed the ship heartbeat interval or a healthy idle
    /// link trips it.
    pub heartbeat_timeout: Duration,
    /// Whether the detector may fail over on its own. Off by default:
    /// with this false the controller only observes, and
    /// [`Cluster::failover_now`] is the sole path to promotion — the
    /// cluster behaves exactly like the hand-wired primary + replicas
    /// it was built from. A cluster with no replicas has nothing to
    /// promote and runs no monitor either way.
    pub auto_failover: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            heartbeat_timeout: Duration::from_millis(400),
            auto_failover: false,
        }
    }
}

impl ControllerConfig {
    /// Builder: sets the heartbeat deadline.
    pub fn with_heartbeat_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "heartbeat timeout must be positive");
        self.heartbeat_timeout = timeout;
        self
    }

    /// Builder: arms automatic failover.
    pub fn with_auto_failover(mut self, on: bool) -> Self {
        self.auto_failover = on;
        self
    }
}

/// What the detector concluded about a lost primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureVerdict {
    /// The engine left `Running` in-process: a crash (or stop).
    Crash,
    /// The engine still runs but every replica's link stayed dark past
    /// the heartbeat deadline: a partition. The old primary is a live
    /// zombie and only term fencing keeps it harmless.
    Partition,
}

/// What one failover did and what it cost, phase by phase — the one
/// record of it: [`Cluster::reports`] holds every report, and
/// [`ClusterStats::failovers`] counts them.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The term the failover established.
    pub term: u64,
    /// Name of the promoted replica.
    pub promoted: String,
    /// Why the primary was given up on.
    pub verdict: FailureVerdict,
    /// How long the primary had been lost when the verdict fell: for a
    /// partition, the freshest replica's heartbeat age (at least
    /// `heartbeat_timeout`); 0 for a crash, read directly from the
    /// engine's state, and for [`Cluster::failover_now`].
    pub detect_us: u64,
    /// Confirmed → promoted engine recovered.
    pub promote_us: u64,
    /// Promoted → router re-pointed (includes replica restarts).
    pub repoint_us: u64,
    /// Total: `detect_us + promote_us + repoint_us`.
    pub mttr_us: u64,
    /// Replicas the failover could not carry over: a restart error, or
    /// (degraded roll-forward) no listener to restart them against.
    /// Empty on a clean failover.
    pub lost: Vec<String>,
}

/// A point-in-time view of the cluster: everything the `REPL` and
/// `METRICS` verbs report about it.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Current fencing term.
    pub term: u64,
    /// Completed failovers: the length of [`Cluster::reports`].
    pub failovers: u64,
    /// Failovers that errored *after* demoting the old primary and had
    /// to roll back (old primary resurrected) or roll forward degraded
    /// (primary-only, no listener). Pre-demotion refusals — no
    /// candidate, stale winner — are not failures; nothing was touched.
    pub failed_failovers: u64,
    /// Replicas dropped from the fleet across all failovers (restart
    /// error or degraded roll-forward).
    pub lost_replicas: u64,
    /// The *current* listener's totals (its term, what it fenced, both
    /// lag histograms; they reset across failover, like the listener
    /// itself); `None` without a listener.
    pub ship: Option<ShipTotals>,
    /// Every replica the current listener has seen, sorted by name.
    pub peers: Vec<ReplicaPeerStats>,
    /// The router's counters when the cluster routes reads, which it
    /// does when it was started with replicas.
    pub router: Option<RouterStats>,
    /// Replicas in the read pool now (demoted ones included).
    pub pool: usize,
}

/// Everything the controller changes, under its one lock: the regime
/// it replaces wholesale at failover and the record of every failover.
struct Core {
    engine: Option<Engine>,
    ship: Option<ShipListener>,
    replicas: Vec<Replica>,
    /// Start configs keyed implicitly by `ReplicaConfig::name` (names
    /// are unique — [`Cluster::launch`] asserts it), kept so replicas
    /// can be restarted against a new listener.
    configs: Vec<ReplicaConfig>,
    /// The serving primary's durability directory — the rollback
    /// target when a promotion fails after the demotion point. `None`
    /// for an in-memory primary, which never has a replica to promote.
    primary_dir: Option<PathBuf>,
    /// Current fencing term.
    term: u64,
    /// Every completed failover, oldest first.
    reports: Vec<FailoverReport>,
    failed_failovers: u64,
    lost_replicas: u64,
}

/// Wires a regime into `core` — the one place a listener, replicas and
/// the router's pool are put together, at launch, after a promotion and
/// in a rollback: `ship` becomes the core's listener, every replica in
/// `configs` is started against it, and the router's pool is set to
/// those that started. A replica that does not start (with no listener,
/// none does) is counted lost, and its name returned.
fn wire(
    core: &mut Core,
    router: &Router,
    ship: Option<ShipListener>,
    configs: &[ReplicaConfig],
) -> Vec<String> {
    let mut lost = Vec::new();
    for cfg in configs {
        match ship.as_ref().map(|s| Replica::start(s.addr(), cfg.clone())) {
            Some(Ok(replica)) => core.replicas.push(replica),
            _ => lost.push(cfg.name.clone()),
        }
    }
    router.set_replicas(core.replicas.iter().map(Replica::handle).collect());
    core.lost_replicas += lost.len() as u64;
    core.ship = ship;
    lost
}

/// What the cluster, its monitor thread and every [`ShardedHandle`]
/// over it share.
///
/// [`ShardedHandle`]: crate::shard::ShardedHandle
pub(crate) struct ClusterInner {
    core: Mutex<Core>,
    /// Holds the current primary: every read, write, lock and stats
    /// read of the cluster's primary goes through it.
    pub(crate) router: Arc<Router>,
    /// Template for engines recovered at promotion (durability dir is
    /// overridden by the winner's directory).
    engine_template: EngineConfig,
    /// Template for post-failover ship listeners (each listener records
    /// through the engine it ships, under its directory's term floor).
    ship_template: ShipConfig,
    config: ControllerConfig,
    stop: AtomicBool,
}

impl ClusterInner {
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("cluster core lock")
    }

    /// See [`Cluster::stats`].
    pub(crate) fn stats(&self) -> ClusterStats {
        let core = self.lock();
        let registry = core.ship.as_ref().map(ShipListener::registry);
        ClusterStats {
            term: core.term,
            failovers: core.reports.len() as u64,
            failed_failovers: core.failed_failovers,
            lost_replicas: core.lost_replicas,
            ship: registry.as_ref().map(|r| r.totals()),
            peers: registry.map_or_else(Vec::new, |r| r.peers()),
            router: (!core.configs.is_empty()).then(|| self.router.stats()),
            pool: self.router.replica_count(),
        }
    }
}

/// A self-healing replication cluster: primary + shipper + replicas +
/// router under one controller. See the module docs for the failover
/// contract.
pub struct Cluster {
    inner: Arc<ClusterInner>,
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Starts a cluster over `store`: its primary from `config`, a
    /// listener under `ship`, then every replica in `replicas` against
    /// it, all in the read pool, under one controller. The
    /// post-failover templates are derived: the promoted engine gets
    /// `config` with its [`FaultPlan`] cleared, and later listeners get
    /// `ship` with its link fault cleared, because an injected fault
    /// targets the incarnation it was armed on. Without `ship` the
    /// cluster is the primary behind its router: no listener and no
    /// monitor, and a replica has nothing to follow. A replica that does
    /// not start is counted lost, as at a failover.
    ///
    /// # Errors
    /// `InvalidData` when a replica directory is at a higher term than
    /// `config`'s directory, which a failover deposed — checked before
    /// the primary opens its directory; whatever stopped the primary
    /// (see [`Engine::try_start`]) or the listener from starting. The
    /// primary is shut down before a listener error returns.
    ///
    /// # Panics
    /// Panics if two replicas share a name: survivors are matched back
    /// to their configs by name at failover, so a duplicate would
    /// restart the wrong replica.
    pub fn launch(
        store: Store,
        config: &EngineConfig,
        ship: Option<ShipConfig>,
        replicas: Vec<ReplicaConfig>,
        controller: ControllerConfig,
    ) -> io::Result<Cluster> {
        let names: HashSet<&str> = replicas.iter().map(|c| c.name.as_str()).collect();
        assert!(
            names.len() == replicas.len(),
            "replica names must be unique within a cluster"
        );
        failover_api::refuse_a_deposed_primary(config, &replicas)?;
        let engine = Engine::try_start(store, config.clone())?;
        let listener = ship
            .clone()
            .map(|s| ShipListener::start(&engine.handle(), s));
        let listener = match listener.transpose() {
            Ok(listener) => listener,
            Err(e) => {
                engine.shutdown();
                return Err(e);
            }
        };
        let mut engine_template = config.clone();
        engine_template.fault = FaultPlan::default();
        let mut ship_template = ship.unwrap_or_default();
        ship_template.fault = None;
        Ok(Cluster::assemble(
            engine,
            listener,
            replicas,
            engine_template,
            ship_template,
            controller,
        ))
    }

    /// Wires `engine`'s regime — `listener`, then every replica in
    /// `configs` against it — and hands it to the controller, with the
    /// templates a failover starts its engine and listener from.
    fn assemble(
        engine: Engine,
        listener: Option<ShipListener>,
        configs: Vec<ReplicaConfig>,
        engine_template: EngineConfig,
        ship_template: ShipConfig,
        config: ControllerConfig,
    ) -> Cluster {
        let router = Arc::new(Router::new(engine.handle()));
        let primary_dir = engine.handle().shared.durable_dir.clone();
        let mut core = Core {
            term: primary_dir.as_deref().map_or(0, snapshot::manifest_term),
            primary_dir,
            engine: Some(engine),
            ship: None,
            replicas: Vec::new(),
            configs: configs.clone(),
            reports: Vec::new(),
            failed_failovers: 0,
            lost_replicas: 0,
        };
        wire(&mut core, &router, listener, &configs);
        let watch = config.auto_failover && !configs.is_empty();
        let inner = Arc::new(ClusterInner {
            core: Mutex::new(core),
            router,
            engine_template,
            ship_template,
            config,
            stop: AtomicBool::new(false),
        });
        let monitor = watch.then(|| {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("quts-cluster-monitor".into())
                .spawn(move || monitor_main(&inner))
                .expect("spawn cluster monitor thread")
        });
        Cluster { inner, monitor }
    }

    /// What a [`ShardedHandle`](crate::shard::ShardedHandle) holds of
    /// this cluster.
    pub(crate) fn shared(&self) -> Arc<ClusterInner> {
        Arc::clone(&self.inner)
    }

    /// The router this cluster routes reads through.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.inner.router)
    }

    /// The current primary's client handle (post-failover this is the
    /// promoted engine's).
    pub fn primary(&self) -> EngineHandle {
        self.inner.router.primary()
    }

    /// The current ship listener's address (changes across failover).
    pub fn ship_addr(&self) -> Option<SocketAddr> {
        self.inner.lock().ship.as_ref().map(|s| s.addr())
    }

    /// Every completed failover, oldest first. Its `(term, promoted)`
    /// pairs are the promotion log the one-primary-per-term invariant
    /// checks.
    pub fn reports(&self) -> Vec<FailoverReport> {
        self.inner.lock().reports.clone()
    }

    /// Point-in-time cluster stats: the controller's counters, the
    /// current listener's view and the router's counters.
    pub fn stats(&self) -> ClusterStats {
        self.inner.stats()
    }

    /// Forces a failover right now, regardless of what the detector
    /// thinks — the operator's big red button, and the test/bench hook.
    /// Reports the verdict as [`FailureVerdict::Crash`] when the
    /// engine already left `Running`, [`FailureVerdict::Partition`]
    /// otherwise (the still-live primary is demoted to zombie and
    /// fenced out).
    pub fn failover_now(&self) -> Result<FailoverReport, PromoteError> {
        let mut core = self.inner.lock();
        let verdict = match core.engine.as_ref().map(|e| e.state()) {
            Some(EngineState::Running) => FailureVerdict::Partition,
            _ => FailureVerdict::Crash,
        };
        failover(&self.inner, &mut core, verdict, 0)
    }

    /// Stops the detector and shuts the whole cluster down: replicas
    /// first (they ack their last group), then the listener, then the
    /// primary. Returns the serving primary's final statistics (empty
    /// when a failed rollback left the cluster headless).
    pub fn shutdown(mut self) -> LiveStats {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        let mut core = self.inner.lock();
        for replica in core.replicas.drain(..) {
            let _ = replica.shutdown();
        }
        if let Some(ship) = core.ship.take() {
            ship.shutdown();
        }
        let engine = core.engine.take();
        engine.map_or_else(LiveStats::default, Engine::shutdown)
    }
}

/// The detector loop: every tenth of the heartbeat deadline, take the
/// core lock, judge the primary by [`verdict`] and, on a verdict, run
/// the failover under the same lock.
fn monitor_main(inner: &ClusterInner) {
    let poll = inner.config.heartbeat_timeout / 10;
    loop {
        thread::sleep(poll);
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let mut core = inner.lock();
        let Some(engine) = core.engine.as_ref() else {
            return; // a failed rollback left the cluster headless
        };
        let running = engine.state() == EngineState::Running;
        let ready_ages_us: Vec<u64> = core
            .replicas
            .iter()
            .map(|r| r.stats())
            .filter(|s| s.ready)
            .map(|s| s.heartbeat_age_us)
            .collect();
        if let Some((found, detect_us)) =
            verdict(running, &ready_ages_us, inner.config.heartbeat_timeout)
        {
            let _ = failover(inner, &mut core, found, detect_us);
        }
    }
}

/// The detector's whole decision, paired with its `detect_us`. `Crash`
/// (0 µs) when the engine left `Running`, whatever the replicas heard;
/// else `Partition` when even the freshest of the ready replicas'
/// heartbeat ages is past `timeout` — that age is how long the links
/// have been dark; else none. An age of `u64::MAX` is a replica that
/// has heard no beat yet, and with no other there is nothing to judge.
fn verdict(
    running: bool,
    ready_ages_us: &[u64],
    timeout: Duration,
) -> Option<(FailureVerdict, u64)> {
    if !running {
        return Some((FailureVerdict::Crash, 0));
    }
    let freshest = ready_ages_us
        .iter()
        .copied()
        .filter(|&age| age != u64::MAX)
        .min()?;
    (Duration::from_micros(freshest) > timeout).then_some((FailureVerdict::Partition, freshest))
}

/// The failover itself: elect (while nothing is demoted yet), demote,
/// promote at `term + 1`, re-wire the regime behind the promotion floor,
/// re-point the router. Called with the core locked; on success the
/// core holds the new regime.
///
/// Ordering is the error-containment story. Everything that can
/// *refuse* — the election, the winner's term pre-check — runs before
/// the old primary is touched (or its ring told of a confirmed
/// failover), so `NoCandidate` against a healthy primary is a no-op,
/// not an outage. Errors past the demotion point are repaired instead
/// of propagated half-done: a failed promotion rolls back to the old
/// primary's directory ([`rollback`]); a failed re-ship rolls forward
/// to a degraded primary-only regime (the term is already burned in
/// the winner's MANIFEST). Both paths count in `failed_failovers`, and
/// dropped replicas in `lost_replicas`.
fn failover(
    inner: &ClusterInner,
    core: &mut Core,
    verdict: FailureVerdict,
    detect_us: u64,
) -> Result<FailoverReport, PromoteError> {
    // Elect the most-durable replica and pre-check that its directory
    // can actually hold the next term — both before the old regime is
    // touched, so a refusal leaves a working primary working.
    let new_term = core.term + 1;
    let stats: Vec<ReplicaStats> = core.replicas.iter().map(Replica::stats).collect();
    let winner = failover_api::elect(&stats)?;
    let winner_term = snapshot::manifest_term(&core.replicas[winner].dir());
    if winner_term >= new_term {
        return Err(PromoteError::StaleTerm {
            current: winner_term,
            requested: new_term,
        });
    }

    // Nothing can refuse any more: the failover is confirmed.
    let confirm = Instant::now();
    if let Some(engine) = core.engine.as_ref() {
        engine.handle().shared.trace_push(TraceEvent::Failover {
            term: core.term,
            step: FailoverStep::Confirmed,
            elapsed_us: detect_us,
        });
    }

    // Demote the old primary before anything serves at the new term.
    // Co-located, this is a real shutdown; were it remote and dark,
    // term fencing alone keeps the zombie harmless (module docs).
    if let Some(ship) = core.ship.take() {
        ship.shutdown();
    }
    if let Some(engine) = core.engine.take() {
        let _ = engine.shutdown();
    }

    // Promote the winner at the next term.
    let mut survivors = std::mem::take(&mut core.replicas);
    let chosen = survivors.remove(winner);
    let promoted = stats[winner].name.clone();
    let promoted_dir = chosen.dir();
    let engine =
        match failover_api::promote_at_term(chosen, inner.engine_template.clone(), new_term) {
            Ok(engine) => engine,
            Err(e) => {
                // The winner is consumed and the old primary is down;
                // the only honest repair is resurrecting the old regime
                // from its own directory.
                rollback(inner, core, survivors, new_term);
                return Err(e);
            }
        };
    core.term = new_term;
    let handle = engine.handle();
    let promote_us = confirm.elapsed().as_micros() as u64;
    handle.shared.trace_push(TraceEvent::Failover {
        term: new_term,
        step: FailoverStep::Promoted,
        elapsed_us: detect_us + promote_us,
    });

    // The survivors point at the demoted listener's dead address: stop
    // them, then restart them from their configs against a listener
    // over the promoted directory. The term floor the promotion recorded
    // is its LSN: a survivor resuming at or below it shares the history;
    // above it, its tail may diverge and it re-bootstraps. A survivor that
    // does not restart shrinks the fleet, never aborts the failover: it
    // is named in the report and counted, and the promoted primary
    // serves regardless.
    let mut configs = core.configs.clone();
    configs.retain(|c| survivors.iter().any(|r| r.stats().name == c.name));
    for survivor in survivors {
        let _ = survivor.shutdown();
    }
    let ship = ShipListener::start(&handle, inner.ship_template.clone()).ok();
    // No listener: the term is burned (the winner's MANIFEST carries
    // it), so there is no rolling back to the old primary — degrade to
    // a primary-only regime. The survivors stay down (and lost): their
    // stale durable state must never win a later election against
    // writes acked at this term.
    core.failed_failovers += u64::from(ship.is_none());
    let lost = wire(core, &inner.router, ship, &configs);
    inner.router.repoint(handle.clone());
    let repoint_us = (confirm.elapsed().as_micros() as u64).saturating_sub(promote_us);
    let mttr_us = detect_us + promote_us + repoint_us;
    handle.shared.trace_push(TraceEvent::Failover {
        term: new_term,
        step: FailoverStep::Repointed,
        elapsed_us: mttr_us,
    });

    core.engine = Some(engine);
    core.primary_dir = Some(promoted_dir);

    let report = FailoverReport {
        term: new_term,
        promoted,
        verdict,
        detect_us,
        promote_us,
        repoint_us,
        mttr_us,
        lost,
    };
    core.reports.push(report.clone());
    Ok(report)
}

/// Best-effort resurrection of the demoted primary after a promotion
/// failed *past* the demotion point: raise the old primary's directory
/// to `new_term`, recover an engine from it, re-wire the regime around
/// it (every configured replica, the consumed winner included —
/// promotion sealed its directory, which restarts like any stopped
/// replica) and point the router back at it. The failed promotion may
/// have burned `new_term` in the winner's MANIFEST already; serving at
/// that term keeps the winner following instead of fenced, and keeps a
/// later start from reading the old primary as deposed. No engine ever
/// served at the burned term, so nothing conflicts.
///
/// Counted in `failed_failovers` either way. If even the resurrection
/// fails, the cluster is left deliberately empty (`core.engine ==
/// None`, no replicas in the router) — visible as a failed failover
/// with no serving primary — rather than half-wired to dead handles.
fn rollback(inner: &ClusterInner, core: &mut Core, survivors: Vec<Replica>, new_term: u64) {
    core.failed_failovers += 1;
    for survivor in survivors {
        let _ = survivor.shutdown();
    }
    let engine = core.primary_dir.clone().and_then(|dir| {
        failover_api::reopen_at_term(dir, inner.engine_template.clone(), new_term).ok()
    });
    // The reopen recorded the old primary's last LSN as the burned
    // term's floor, so a follower of that history resumes. No engine
    // means no listener: headless.
    let ship = engine
        .as_ref()
        .and_then(|e| ShipListener::start(&e.handle(), inner.ship_template.clone()).ok());
    let configs = core.configs.clone();
    wire(core, &inner.router, ship, &configs);
    if let Some(engine) = &engine {
        core.term = new_term;
        inner.router.repoint(engine.handle());
    }
    core.engine = engine;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityConfig;
    use quts_db::simdir::{SimDir, WriteFault};
    use quts_db::{FsyncPolicy, StockId, Trade};
    use std::path::Path;
    use FailureVerdict::{Crash, Partition};

    /// `(engine running, ready replicas' heartbeat ages in µs, verdict)`.
    type Case = (bool, &'static [u64], Option<(FailureVerdict, u64)>);

    #[test]
    fn the_verdict_is_one_deadline_on_the_freshest_replica() {
        const AT: u64 = 100_000; // the deadline in µs
        let cases: &[Case] = &[
            // A crash wins over any heartbeat age, read straight off the
            // engine: no detection time.
            (false, &[], Some((Crash, 0))),
            (false, &[0], Some((Crash, 0))),
            (false, &[10 * AT, u64::MAX], Some((Crash, 0))),
            // No ready replica, or none that has heard a beat: nothing
            // to judge by.
            (true, &[], None),
            (true, &[u64::MAX], None),
            // The freshest replica decides, not the stalest.
            (true, &[AT / 2, 10 * AT], None),
            (true, &[10 * AT, 3 * AT], Some((Partition, 3 * AT))),
            (true, &[u64::MAX, 2 * AT], Some((Partition, 2 * AT))),
            // The deadline itself is not a miss; one µs past it is, and
            // the age at the verdict is the detection time.
            (true, &[AT], None),
            (true, &[AT + 1], Some((Partition, AT + 1))),
        ];
        let timeout = Duration::from_micros(AT);
        for (i, &(running, ages, want)) in cases.iter().enumerate() {
            assert_eq!(verdict(running, ages, timeout), want, "case {i}: {ages:?}");
        }
    }

    /// A unique temporary directory, removed on drop (even on panic).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("quts-controller-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn primary_config(base: &Path) -> EngineConfig {
        let durability =
            DurabilityConfig::new(base.join("primary")).with_fsync(FsyncPolicy::Always);
        EngineConfig::default().with_durability(durability)
    }

    fn replica_configs(base: &Path) -> Vec<ReplicaConfig> {
        ["r1", "r2"]
            .map(|name| {
                ReplicaConfig::new(name, base.join(name))
                    .with_ack_every(1)
                    .with_backoff(Duration::from_millis(1), Duration::from_millis(20))
            })
            .into()
    }

    /// A primary over `base` shipping to r1 and r2, assembled as
    /// [`Cluster::launch`] does, but with the failover templates given
    /// instead of derived from the primary's own configs.
    fn assembled(base: &Path, engine_template: EngineConfig, ship_template: ShipConfig) -> Cluster {
        let store = Store::with_synthetic_stocks(8);
        let engine = Engine::try_start(store, primary_config(base)).unwrap();
        let ship = ShipConfig::default().with_heartbeat(Duration::from_millis(10));
        let listener = ShipListener::start(&engine.handle(), ship).unwrap();
        let configs = replica_configs(base);
        let controller = ControllerConfig::default();
        Cluster::assemble(
            engine,
            Some(listener),
            configs,
            engine_template,
            ship_template,
            controller,
        )
    }

    /// Writes `n` durable updates through the primary; the last acked LSN.
    fn write_durable(cluster: &Cluster, n: u32) -> u64 {
        let mut lsn = 0;
        for i in 0..n {
            let trade = Trade {
                stock: StockId(i % 8),
                price: 100.0 + f64::from(i),
                volume: 10,
                trade_time_ms: 1_000,
            };
            lsn = cluster
                .primary()
                .submit_update_durable(trade)
                .unwrap()
                .recv()
                .unwrap();
        }
        lsn
    }

    /// Waits until the pool holds both replicas and each has `reached`
    /// `lsn`.
    fn await_pool(cluster: &Cluster, lsn: u64, reached: fn(&ReplicaStats) -> u64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let stats = cluster.router().replica_stats();
            if stats.len() == 2 && stats.iter().all(|s| reached(s) == lsn) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "the pool never reached LSN {lsn}: {stats:?}"
            );
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// When the post-promotion listener cannot start, the term is already
    /// burned in the winner's MANIFEST, so the controller rolls *forward*:
    /// the promoted primary serves alone, the stale survivor is shut down
    /// and reported lost (its old durable state must never win a later
    /// election), and the failure is visible in the counters — never a
    /// silent half-wired cluster.
    #[test]
    fn failed_reship_degrades_to_primary_only_not_headless() {
        let tmp = TempDir::new("degraded");
        // Occupy a port up front; the ship *template* pins that port, so
        // the listener the failover tries to start can never bind.
        let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut ship_template = ShipConfig::default().with_heartbeat(Duration::from_millis(10));
        ship_template.addr = blocker.local_addr().unwrap();
        let cluster = assembled(&tmp.0, primary_config(&tmp.0), ship_template);
        let floor = write_durable(&cluster, 16);
        await_pool(&cluster, floor, |s| s.durable_lsn);

        let report = cluster
            .failover_now()
            .expect("the promotion itself succeeds");
        assert_eq!(report.term, 1);
        assert_eq!(report.lost.len(), 1, "{report:?}");

        let stats = cluster.stats();
        assert_eq!(stats.failovers, 1, "{stats:?}");
        assert_eq!(stats.failed_failovers, 1, "{stats:?}");
        assert_eq!(stats.lost_replicas, 1, "{stats:?}");
        assert_eq!(stats.term, 1);
        assert!(
            cluster.ship_addr().is_none(),
            "degraded regime has no listener"
        );
        assert!(
            cluster.router().replica_stats().is_empty(),
            "stale survivors must not stay in the read pool"
        );

        // Degraded is still a primary: the acked floor is covered and new
        // durable writes land.
        let covered = cluster.primary().stats().wal_last_lsn;
        assert!(
            covered >= floor,
            "acked-durable loss: LSN {floor} acked, WAL ends at {covered}"
        );
        write_durable(&cluster, 1);
        cluster.shutdown();
        drop(blocker);
    }

    /// A promotion whose recovery fails after its term bump rolls back to
    /// the old primary at the term it burned: the winner, already at that
    /// term in its own directory, follows the resurrected primary instead
    /// of being fenced by it, and the next start does not read the old
    /// primary as deposed.
    #[test]
    fn a_rolled_back_promotion_keeps_the_term_it_burned() {
        let tmp = TempDir::new("rollback");
        // The template's double is shared by every engine started from it:
        // its first write is the promoted engine's first segment header,
        // after `bump_term`, and the rolled-back primary writes past it.
        let sim = SimDir::default().fault_write(1, WriteFault::Fail);
        let template = primary_config(&tmp.0).with_fault_plan(FaultPlan::default().disk(sim));
        let ship = ShipConfig::default().with_heartbeat(Duration::from_millis(10));
        let cluster = assembled(&tmp.0, template, ship);
        let floor = write_durable(&cluster, 16);
        await_pool(&cluster, floor, |s| s.durable_lsn);

        match cluster.failover_now() {
            Err(PromoteError::Io(_)) => {}
            other => panic!("expected the promotion's recovery to fail, got {other:?}"),
        }
        let stats = cluster.stats();
        assert_eq!(stats.failed_failovers, 1, "{stats:?}");
        assert_eq!(stats.term, 1, "the rollback serves at the burned term");

        // New durable writes reach both replicas, the winner included.
        write_durable(&cluster, 16);
        let last = cluster.primary().stats().wal_last_lsn;
        await_pool(&cluster, last, |s| s.applied_lsn);
        let fenced = cluster.stats().ship.map(|t| t.fenced);
        assert_eq!(fenced, Some(0), "no replica was fenced");
        // The reopen recorded the old primary's last LSN as the burned
        // term's floor: r1, one term behind, followed that history and
        // resumes instead of re-bootstrapping.
        let pool = cluster.router().replica_stats();
        let r1 = pool.iter().find(|s| s.name == "r1").expect("r1 serves");
        assert_eq!(r1.bootstraps, 0, "{pool:?}");
        cluster.shutdown();

        let configs = replica_configs(&tmp.0);
        failover_api::refuse_a_deposed_primary(&primary_config(&tmp.0), &configs)
            .expect("the restart is not refused");
    }
}
