//! Autopilot failover: the cluster controller.
//!
//! The controller owns one primary [`Engine`], its [`ShipListener`],
//! the replica fleet and the read [`Router`], and closes the loop the
//! manual promotion API leaves open: *noticing* that the primary is
//! gone and *repairing* the cluster without losing anything a client
//! was told is durable.
//!
//! # Failure detection
//!
//! The detector is deadline-based over signals the replication stream
//! already produces — no extra chatter on the wire:
//!
//! - **Crash** is cheap to spot: the engine lives in this process, so
//!   [`EngineState`] leaving `Running` (a poisoned scheduler whose
//!   restart budget is spent, or a stop) is an immediate verdict.
//! - **Partition** is the subtle one. Every replica tracks the age of
//!   the last heartbeat or frame it saw; when the *freshest* replica's
//!   age exceeds `heartbeat_timeout` for `miss_threshold` consecutive
//!   polls, the controller enters a re-probe phase paced by a jittered
//!   [`Backoff`] — a transient stall clears itself during the probes
//!   and resets the detector; a dark link does not. Only after the
//!   probes are exhausted, with the engine still `Running`, is the
//!   verdict `Partition`.
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
//!    promotable candidate is a no-op error, never an outage.
//! 2. **Demote** the old primary: shut down its ship listener and the
//!    engine itself. Even if this node were unreachable instead of
//!    co-located, term fencing makes the demotion safe — see below.
//! 3. **Promote** the winner at `term + 1`. If the promotion itself
//!    fails here (an I/O error in recovery), the controller rolls
//!    back: it resurrects the old primary from its own directory,
//!    re-ships it and restarts the fleet — counted in
//!    `failed_failovers` — rather than leaving the cluster headless.
//! 4. **Re-ship**: start a fresh [`ShipListener`] over the promoted
//!    directory with `term_floor` at the promotion LSN, restart the
//!    surviving replicas against it (a survivor whose WAL ran past the
//!    floor — or that missed more than one term — is
//!    force-bootstrapped), and swap the router's replica pool. A
//!    survivor that cannot be restarted is dropped *loudly*: named in
//!    [`FailoverReport::lost`] and counted in `lost_replicas`. If the
//!    listener itself cannot start, the term is already burned in the
//!    winner's MANIFEST, so the cluster rolls *forward* to a degraded
//!    primary-only regime; the stale survivors are shut down (their
//!    old durable state must never win a later election against
//!    writes acked at the new term).
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
use crate::repl::failover::{self as failover_api, PromoteError};
use crate::repl::replica::{Replica, ReplicaConfig};
use crate::repl::router::Router;
use crate::repl::ship::{ShipConfig, ShipListener};
use crate::retry::Backoff;
use crate::runtime::{Engine, EngineHandle};
use crate::supervisor::EngineState;
use quts_db::snapshot;
use quts_metrics::{FailoverStep, TraceEvent};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Knobs for the cluster controller's failure detector.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Consecutive polls the freshest replica heartbeat must be stale
    /// before the controller starts re-probing.
    pub miss_threshold: u32,
    /// Heartbeat age past which a poll counts as a miss. Must comfortably
    /// exceed the ship heartbeat interval or a healthy idle link trips it.
    pub heartbeat_timeout: Duration,
    /// Re-probe backoff floor (jittered, doubling).
    pub probe_backoff_base: Duration,
    /// Re-probe backoff cap.
    pub probe_backoff_cap: Duration,
    /// Re-probes before a still-silent link becomes a `Partition`
    /// verdict.
    pub probe_retries: u32,
    /// Whether the detector may fail over on its own. Off by default:
    /// with this false the controller only observes, and
    /// [`Cluster::failover_now`] is the sole path to promotion — the
    /// cluster behaves exactly like the hand-wired primary + replicas
    /// it was built from.
    pub auto_failover: bool,
    /// Detector poll interval.
    pub poll_interval: Duration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            miss_threshold: 3,
            heartbeat_timeout: Duration::from_millis(250),
            probe_backoff_base: Duration::from_millis(10),
            probe_backoff_cap: Duration::from_millis(100),
            probe_retries: 3,
            auto_failover: false,
            poll_interval: Duration::from_millis(25),
        }
    }
}

impl ControllerConfig {
    /// Builder: sets the miss threshold and heartbeat deadline.
    pub fn with_detection(mut self, misses: u32, timeout: Duration) -> Self {
        assert!(misses > 0, "miss threshold must be positive");
        self.miss_threshold = misses;
        self.heartbeat_timeout = timeout;
        self
    }

    /// Builder: sets the re-probe backoff floor/cap and retry budget.
    pub fn with_probes(mut self, base: Duration, cap: Duration, retries: u32) -> Self {
        self.probe_backoff_base = base;
        self.probe_backoff_cap = cap;
        self.probe_retries = retries;
        self
    }

    /// Builder: arms automatic failover.
    pub fn with_auto_failover(mut self, on: bool) -> Self {
        self.auto_failover = on;
        self
    }

    /// Builder: sets the detector poll interval.
    pub fn with_poll_interval(mut self, every: Duration) -> Self {
        self.poll_interval = every;
        self
    }
}

/// What the detector concluded about a lost primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureVerdict {
    /// The engine left `Running` in-process: a crash (or stop).
    Crash,
    /// The engine still runs but every replica's link went dark past
    /// the probe budget: a partition. The old primary is a live zombie
    /// and only term fencing keeps it harmless.
    Partition,
}

impl FailureVerdict {
    /// Stable lowercase name for logs and the bench report.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureVerdict::Crash => "crash",
            FailureVerdict::Partition => "partition",
        }
    }
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
    /// First suspicion → confirmed dead.
    pub detect_us: u64,
    /// Confirmed → promoted engine recovered.
    pub promote_us: u64,
    /// Promoted → router re-pointed (includes replica restarts).
    pub repoint_us: u64,
    /// Total: first suspicion → router re-pointed.
    pub mttr_us: u64,
    /// Replicas the failover could not carry over: no start config for
    /// their name, a restart error, or (degraded roll-forward) no
    /// listener to restart them against. Empty on a clean failover.
    pub lost: Vec<String>,
}

/// A point-in-time view of the cluster, for the `REPL`/`METRICS` verbs.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Current fencing term.
    pub term: u64,
    /// Completed failovers: the length of [`Cluster::reports`].
    pub failovers: u64,
    /// Stale-term frames/acks/sessions fenced by the *current*
    /// listener (resets across failover, like the listener itself).
    pub fenced_frames: u64,
    /// Failovers that errored *after* demoting the old primary and had
    /// to roll back (old primary resurrected) or roll forward degraded
    /// (primary-only, no listener). Pre-demotion refusals — no
    /// candidate, stale winner — are not failures; nothing was touched.
    pub failed_failovers: u64,
    /// Replicas dropped from the fleet across all failovers (missing
    /// start config, restart error, or degraded roll-forward).
    pub lost_replicas: u64,
}

/// State shared between the controller, its detector thread, and stats
/// readers. Each completed failover is recorded once, as its report.
struct ClusterShared {
    term: AtomicU64,
    reports: Mutex<Vec<FailoverReport>>,
    failed_failovers: AtomicU64,
    lost_replicas: AtomicU64,
}

impl ClusterShared {
    fn failovers(&self) -> u64 {
        self.reports.lock().expect("reports lock").len() as u64
    }
}

/// The pieces the controller owns and replaces wholesale at failover.
struct Core {
    engine: Option<Engine>,
    ship: Option<ShipListener>,
    replicas: Vec<Replica>,
    /// Start configs keyed implicitly by `ReplicaConfig::name` (names
    /// are unique — [`Cluster::start`] asserts it), kept so survivors
    /// can be restarted against the promoted primary.
    configs: Vec<ReplicaConfig>,
    /// The serving primary's durability directory — the rollback
    /// target when a promotion fails after the demotion point.
    primary_dir: PathBuf,
}

impl Core {
    fn config_for(&self, name: &str) -> Option<ReplicaConfig> {
        self.configs.iter().find(|c| c.name == name).cloned()
    }
}

/// A self-healing replication cluster: primary + shipper + replicas +
/// router under one controller. See the module docs for the failover
/// contract.
pub struct Cluster {
    core: Arc<Mutex<Core>>,
    shared: Arc<ClusterShared>,
    router: Arc<Router>,
    /// Template for engines recovered at promotion (durability dir is
    /// overridden by the winner's directory).
    engine_template: EngineConfig,
    /// Template for post-failover ship listeners (term_floor is
    /// overridden; each listener records through the engine it ships).
    ship_template: ShipConfig,
    config: ControllerConfig,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("term", &self.shared.term.load(Ordering::Acquire))
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Takes over an already-wired cluster: the running primary, its
    /// ship listener, the replicas (paired with the configs they were
    /// started from — needed to restart survivors after a promotion)
    /// and the shared router. The controller's term starts at whatever
    /// the listener read from the primary's MANIFEST.
    ///
    /// Replica names must be unique within the cluster: survivors are
    /// matched back to their start configs by name at failover, so a
    /// duplicate would silently restart the wrong replica. Duplicates
    /// panic here rather than corrupting the fleet later.
    ///
    /// # Panics
    ///
    /// Panics if two members share a `ReplicaConfig::name`.
    pub fn start(
        engine: Engine,
        ship: ShipListener,
        members: Vec<(Replica, ReplicaConfig)>,
        router: Arc<Router>,
        engine_template: EngineConfig,
        ship_template: ShipConfig,
        config: ControllerConfig,
    ) -> Cluster {
        let term = ship.term();
        let primary_dir = ship.dir();
        let (replicas, configs): (Vec<Replica>, Vec<ReplicaConfig>) = members.into_iter().unzip();
        {
            let mut names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            for pair in names.windows(2) {
                assert_ne!(
                    pair[0], pair[1],
                    "replica names must be unique within a cluster"
                );
            }
        }
        let shared = Arc::new(ClusterShared {
            term: AtomicU64::new(term),
            reports: Mutex::new(Vec::new()),
            failed_failovers: AtomicU64::new(0),
            lost_replicas: AtomicU64::new(0),
        });
        let core = Arc::new(Mutex::new(Core {
            engine: Some(engine),
            ship: Some(ship),
            replicas,
            configs,
            primary_dir,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = config.auto_failover.then(|| {
            let core = Arc::clone(&core);
            let shared = Arc::clone(&shared);
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let cfg = config.clone();
            let engine_template = engine_template.clone();
            let ship_template = ship_template.clone();
            thread::Builder::new()
                .name("quts-cluster-monitor".into())
                .spawn(move || {
                    monitor_main(
                        &core,
                        &shared,
                        &router,
                        &stop,
                        &cfg,
                        &engine_template,
                        &ship_template,
                    )
                })
                .expect("spawn cluster monitor thread")
        });
        Cluster {
            core,
            shared,
            router,
            engine_template,
            ship_template,
            config,
            stop,
            monitor,
        }
    }

    /// The router this cluster routes reads through.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// The current primary's client handle (post-failover this is the
    /// promoted engine's).
    pub fn primary(&self) -> EngineHandle {
        self.router.primary()
    }

    /// Current fencing term.
    pub fn term(&self) -> u64 {
        self.shared.term.load(Ordering::Acquire)
    }

    /// The current ship listener's address (changes across failover).
    pub fn ship_addr(&self) -> Option<SocketAddr> {
        let core = self.core.lock().expect("cluster core lock");
        core.ship.as_ref().map(|s| s.addr())
    }

    /// Every completed failover, oldest first. Its `(term, promoted)`
    /// pairs are the promotion log the one-primary-per-term invariant
    /// checks.
    pub fn reports(&self) -> Vec<FailoverReport> {
        self.shared.reports.lock().expect("reports lock").clone()
    }

    /// Point-in-time cluster stats.
    pub fn stats(&self) -> ClusterStats {
        let fenced = {
            let core = self.core.lock().expect("cluster core lock");
            core.ship.as_ref().map(|s| s.fenced_total()).unwrap_or(0)
        };
        ClusterStats {
            term: self.shared.term.load(Ordering::Acquire),
            failovers: self.shared.failovers(),
            fenced_frames: fenced,
            failed_failovers: self.shared.failed_failovers.load(Ordering::Acquire),
            lost_replicas: self.shared.lost_replicas.load(Ordering::Acquire),
        }
    }

    /// Forces a failover right now, regardless of what the detector
    /// thinks — the operator's big red button, and the test/bench hook.
    /// Reports the verdict as [`FailureVerdict::Crash`] when the
    /// engine already left `Running`, [`FailureVerdict::Partition`]
    /// otherwise (the still-live primary is demoted to zombie and
    /// fenced out).
    pub fn failover_now(&self) -> Result<FailoverReport, PromoteError> {
        let mut core = self.core.lock().expect("cluster core lock");
        let verdict = match core.engine.as_ref().map(|e| e.state()) {
            Some(EngineState::Running) => FailureVerdict::Partition,
            _ => FailureVerdict::Crash,
        };
        failover(
            &mut core,
            &self.shared,
            &self.router,
            &self.engine_template,
            &self.ship_template,
            verdict,
            0,
        )
    }

    /// Stops the detector and shuts the whole cluster down: replicas
    /// first (they ack their last group), then the listener, then the
    /// primary.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        let mut core = self.core.lock().expect("cluster core lock");
        for replica in core.replicas.drain(..) {
            let _ = replica.shutdown();
        }
        if let Some(ship) = core.ship.take() {
            ship.shutdown();
        }
        if let Some(engine) = core.engine.take() {
            let _ = engine.shutdown();
        }
    }
}

/// The detector loop. Polls the engine's in-process state and the
/// replicas' heartbeat ages; on a confirmed verdict, runs the failover
/// under the core lock.
fn monitor_main(
    core: &Arc<Mutex<Core>>,
    shared: &Arc<ClusterShared>,
    router: &Arc<Router>,
    stop: &Arc<AtomicBool>,
    cfg: &ControllerConfig,
    engine_template: &EngineConfig,
    ship_template: &ShipConfig,
) {
    let mut misses: u32 = 0;
    let mut suspected_at: Option<Instant> = None;
    while !stop.load(Ordering::Acquire) {
        thread::sleep(cfg.poll_interval);
        if stop.load(Ordering::Acquire) {
            return;
        }
        let mut guard = core.lock().expect("cluster core lock");
        let Some(engine) = guard.engine.as_ref() else {
            return; // failed promotion left the cluster headless
        };

        // Crash: the primary lives in this process, so its lifecycle
        // state is ground truth — no deadline needed.
        if engine.state() != EngineState::Running {
            let since = suspected_at.unwrap_or_else(Instant::now);
            note_suspected(&guard, shared, suspected_at.is_none());
            let _ = failover(
                &mut guard,
                shared,
                router,
                engine_template,
                ship_template,
                FailureVerdict::Crash,
                since.elapsed().as_micros() as u64,
            );
            misses = 0;
            suspected_at = None;
            continue;
        }

        // Partition: judge by the *freshest* replica. One silent
        // replica is that replica's problem; all of them silent at
        // once is the primary's.
        let freshest = freshest_beat_us(&guard);
        let stale = match freshest {
            Some(age_us) => Duration::from_micros(age_us) > cfg.heartbeat_timeout,
            None => false, // no bootstrapped replica yet — nothing to judge by
        };
        if !stale {
            misses = 0;
            suspected_at = None;
            continue;
        }
        misses += 1;
        if suspected_at.is_none() {
            suspected_at = Some(Instant::now());
            note_suspected(&guard, shared, true);
        }
        if misses < cfg.miss_threshold {
            continue;
        }

        // Deadline blown repeatedly. Re-probe with backoff: a stall
        // clears itself here, a dark link does not. The core lock is
        // dropped across the probe sleeps — stats readers and a manual
        // `failover_now` must not stall behind the detector for the
        // whole backoff sequence — and each probe (plus the final
        // verdict) re-acquires and re-validates instead.
        let failovers_before = shared.failovers();
        drop(guard);
        let mut backoff = Backoff::new(cfg.probe_backoff_base, cfg.probe_backoff_cap);
        let mut recovered = false;
        for _ in 0..cfg.probe_retries {
            thread::sleep(backoff.next_sleep());
            if stop.load(Ordering::Acquire) {
                return;
            }
            let probe = core.lock().expect("cluster core lock");
            if probe.engine.as_ref().map(|e| e.state()) != Some(EngineState::Running) {
                break; // crash (or headless) — settled under the lock below
            }
            let fresh_now = freshest_beat_us(&probe);
            if fresh_now.is_some_and(|age| Duration::from_micros(age) <= cfg.heartbeat_timeout) {
                recovered = true;
                break;
            }
        }
        if recovered {
            misses = 0;
            suspected_at = None;
            continue;
        }

        // Re-validate under a fresh lock before acting: a manual
        // `failover_now` may have already repaired the cluster while
        // the lock was down, or the link may have come back between
        // the last probe and now.
        let mut guard = core.lock().expect("cluster core lock");
        if shared.failovers() != failovers_before {
            misses = 0;
            suspected_at = None;
            continue;
        }
        let Some(engine) = guard.engine.as_ref() else {
            return; // failed rollback left the cluster headless
        };
        let verdict = if engine.state() == EngineState::Running {
            let fresh_now = freshest_beat_us(&guard);
            if fresh_now.is_some_and(|age| Duration::from_micros(age) <= cfg.heartbeat_timeout) {
                misses = 0;
                suspected_at = None;
                continue;
            }
            FailureVerdict::Partition
        } else {
            FailureVerdict::Crash
        };
        let since = suspected_at.unwrap_or_else(Instant::now);
        let _ = failover(
            &mut guard,
            shared,
            router,
            engine_template,
            ship_template,
            verdict,
            since.elapsed().as_micros() as u64,
        );
        misses = 0;
        suspected_at = None;
    }
}

/// Age in µs of the most recent heartbeat any bootstrapped replica saw,
/// or `None` when no replica has both bootstrapped and heard one.
fn freshest_beat_us(core: &Core) -> Option<u64> {
    core.replicas
        .iter()
        .map(|r| r.stats())
        .filter(|s| s.ready)
        .map(|s| s.heartbeat_age_us)
        .filter(|&age| age != u64::MAX)
        .min()
}

/// Stamps a `Suspected` flight event into the (possibly dying) old
/// primary's recorder the first time suspicion arises.
fn note_suspected(core: &Core, shared: &ClusterShared, first: bool) {
    if !first {
        return;
    }
    if let Some(engine) = core.engine.as_ref() {
        engine.handle().shared.trace_push(TraceEvent::Failover {
            term: shared.term.load(Ordering::Acquire),
            step: FailoverStep::Suspected,
            elapsed_us: 0,
        });
    }
}

/// The failover itself: elect (while nothing is demoted yet), demote,
/// promote at `term + 1`, re-ship behind the promotion floor, restart
/// survivors, re-point the router. Called with the core locked; on
/// success the core holds the new regime.
///
/// Ordering is the error-containment story. Everything that can
/// *refuse* — the election, the winner's term pre-check — runs before
/// the old primary is touched, so `NoCandidate` against a healthy
/// primary is a no-op, not an outage. Errors past the demotion point
/// are repaired instead of propagated half-done: a failed promotion
/// rolls back to the old primary's directory ([`rollback`]); a failed
/// re-ship rolls forward to a degraded primary-only regime (the term
/// is already burned in the winner's MANIFEST). Both paths count in
/// `failed_failovers`, and dropped replicas in `lost_replicas`.
fn failover(
    core: &mut Core,
    shared: &ClusterShared,
    router: &Router,
    engine_template: &EngineConfig,
    ship_template: &ShipConfig,
    verdict: FailureVerdict,
    detect_us: u64,
) -> Result<FailoverReport, PromoteError> {
    let confirm = Instant::now();
    if let Some(engine) = core.engine.as_ref() {
        engine.handle().shared.trace_push(TraceEvent::Failover {
            term: shared.term.load(Ordering::Acquire),
            step: FailoverStep::Confirmed,
            elapsed_us: detect_us,
        });
    }

    // Elect the most-durable replica and pre-check that its directory
    // can actually hold the next term — both before the old regime is
    // touched, so a refusal leaves a working primary working.
    let new_term = shared.term.load(Ordering::Acquire) + 1;
    let winner = failover_api::elect(&core.replicas)?;
    let winner_term = snapshot::manifest_term(&core.replicas[winner].dir());
    if winner_term >= new_term {
        return Err(PromoteError::StaleTerm {
            current: winner_term,
            requested: new_term,
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
    let promoted = chosen.stats().name;
    let promoted_dir = chosen.dir();
    let engine = match failover_api::promote_at_term(chosen, engine_template.clone(), new_term) {
        Ok(engine) => engine,
        Err(e) => {
            // The winner is consumed and the old primary is down; the
            // only honest repair is resurrecting the old regime from
            // its own directory.
            rollback(
                core,
                shared,
                router,
                engine_template,
                ship_template,
                survivors,
            );
            return Err(e);
        }
    };
    shared.term.store(new_term, Ordering::Release);
    let handle = engine.handle();
    let promote_us = confirm.elapsed().as_micros() as u64;
    handle.shared.trace_push(TraceEvent::Failover {
        term: new_term,
        step: FailoverStep::Promoted,
        elapsed_us: detect_us + promote_us,
    });

    // Re-ship from the promoted directory. The term floor is the
    // promotion LSN: a survivor resuming at or below it shares the
    // history; above it, its tail may diverge and it re-bootstraps.
    let promoted_lsn = engine.stats().wal_last_lsn;
    let ship_cfg = ship_template.clone().with_term_floor(promoted_lsn);
    let ship = ShipListener::start(&handle, ship_cfg).ok();

    // Restart survivors against the new primary and give the router
    // the fresh handles — the old pool's frozen stats must not qualify
    // another read. Failures here shrink the fleet, never abort the
    // failover: each dropped survivor is named in the report and
    // counted, and the promoted primary serves regardless.
    let mut restarted = Vec::with_capacity(survivors.len());
    let mut lost: Vec<String> = Vec::new();
    match ship.as_ref() {
        Some(ship) => {
            let addr = ship.addr();
            for survivor in survivors {
                let name = survivor.stats().name;
                let _ = survivor.shutdown();
                let Some(cfg) = core.config_for(&name) else {
                    // Unreachable while Cluster::start's unique-name
                    // assert holds — a miss means members and configs
                    // disagree, which is a wiring bug.
                    debug_assert!(false, "no start config for replica {name}");
                    lost.push(name);
                    continue;
                };
                match Replica::start(addr, cfg) {
                    Ok(replica) => restarted.push(replica),
                    Err(_) => lost.push(name),
                }
            }
        }
        None => {
            // No listener: the term is burned (the winner's MANIFEST
            // carries it), so there is no rolling back to the old
            // primary — degrade to a primary-only regime. Survivors
            // are shut down rather than left pointed at a dead
            // address: their stale durable state must never win a
            // later election against writes acked at this term.
            shared.failed_failovers.fetch_add(1, Ordering::AcqRel);
            for survivor in survivors {
                let name = survivor.stats().name;
                let _ = survivor.shutdown();
                lost.push(name);
            }
        }
    }
    shared
        .lost_replicas
        .fetch_add(lost.len() as u64, Ordering::AcqRel);
    router.set_replicas(restarted.iter().map(|r| r.handle()).collect());
    router.repoint(handle.clone());
    let repoint_us = (confirm.elapsed().as_micros() as u64).saturating_sub(promote_us);
    let mttr_us = detect_us + promote_us + repoint_us;
    handle.shared.trace_push(TraceEvent::Failover {
        term: new_term,
        step: FailoverStep::Repointed,
        elapsed_us: mttr_us,
    });

    core.engine = Some(engine);
    core.ship = ship;
    core.replicas = restarted;
    core.primary_dir = promoted_dir;

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
    shared
        .reports
        .lock()
        .expect("reports lock")
        .push(report.clone());
    Ok(report)
}

/// Best-effort resurrection of the demoted primary after a promotion
/// failed *past* the demotion point: recover an engine from the old
/// primary's own directory, re-ship it, restart every configured
/// replica against the new listener and point the router back at it.
/// The old directory's term never advanced, so resuming it cannot
/// conflict with the failed promotion — no engine ever served at the
/// burned term.
///
/// Counted in `failed_failovers` either way. If even the resurrection
/// fails, the cluster is left deliberately empty (`core.engine ==
/// None`, no replicas in the router) — visible as a failed failover
/// with no serving primary — rather than half-wired to dead handles.
fn rollback(
    core: &mut Core,
    shared: &ClusterShared,
    router: &Router,
    engine_template: &EngineConfig,
    ship_template: &ShipConfig,
    survivors: Vec<Replica>,
) {
    shared.failed_failovers.fetch_add(1, Ordering::AcqRel);
    // The survivors point at the demoted listener's dead address; the
    // rollback listener binds afresh, so everything restarts from its
    // start config (the consumed winner included — promotion sealed
    // its directory, which restarts like any stopped replica).
    for survivor in survivors {
        let _ = survivor.shutdown();
    }
    let Ok(engine) = Engine::recover(core.primary_dir.clone(), engine_template.clone()) else {
        router.set_replicas(Vec::new());
        shared
            .lost_replicas
            .fetch_add(core.configs.len() as u64, Ordering::AcqRel);
        return; // headless: nothing serves until the operator steps in
    };
    let handle = engine.handle();
    // Template floor (not a promotion LSN): with the old history back
    // in charge, any stale-term resume re-bootstrapping is the safe
    // conservative default.
    let ship = ShipListener::start(&handle, ship_template.clone()).ok();
    let mut replicas = Vec::new();
    if let Some(ship) = ship.as_ref() {
        for cfg in core.configs.clone() {
            match Replica::start(ship.addr(), cfg) {
                Ok(replica) => replicas.push(replica),
                Err(_) => {
                    shared.lost_replicas.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
    } else {
        shared
            .lost_replicas
            .fetch_add(core.configs.len() as u64, Ordering::AcqRel);
    }
    router.set_replicas(replicas.iter().map(|r| r.handle()).collect());
    router.repoint(handle);
    core.engine = Some(engine);
    core.ship = ship;
    core.replicas = replicas;
}
