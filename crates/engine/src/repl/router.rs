//! QC-aware read routing over a primary and its replicas.
//!
//! The router implements the **degradation ladder** the paper's quality
//! contracts make possible: each read goes to the *cheapest* node whose
//! staleness bound still earns the query's full QoD profit — a healthy
//! replica when the contract tolerates its lag, the primary when no
//! replica qualifies, and a bounded [`RoutedReadError::Busy`] shed when
//! the primary's admission queue is full. The qodmax check happens **at
//! dispatch**: a routed read never knowingly violates its contract's
//! freshness demand.
//!
//! Replica health is lag-based with hysteresis: a replica whose lag
//! exceeds `DEMOTION_LAG` is demoted out of the rotation and only
//! rejoins once it has caught back up under `REJOIN_LAG`, so a flapping
//! link doesn't thrash routing decisions.
//!
//! The primary handle is swappable: on failover the cluster controller
//! calls [`Router::repoint`] and every subsequent route dispatches
//! against the new primary. Reads already in flight against the dead
//! handle resolve as [`RoutedReadError::EngineDown`] or
//! [`RoutedReadError::Busy`] — an error, never a stale answer counted
//! fresh — so `qod_violations` stays zero across the swap.

use crate::repl::replica::ReplicaHandle;
use crate::runtime::{EngineHandle, QueryError, QueryReply, SubmitError};
use parking_lot::Mutex;
use quts_db::QueryOp;
use quts_metrics::{route_trace_id, RouteTarget, TraceCtx, TraceEvent};
use quts_qc::QualityContract;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// Slack when comparing a replica's achievable QoD profit to the
/// contract's maximum (float-compare guard, not a policy knob).
const QOD_EPS: f64 = 1e-9;
/// Lag (in LSNs) past which a replica is demoted from routing.
const DEMOTION_LAG: u64 = 1024;
/// Lag a demoted replica must get back under to rejoin.
const REJOIN_LAG: u64 = 64;

/// Why a routed read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedReadError {
    /// No replica qualified and the primary's admission queue was full:
    /// the read was shed. Bounded, deliberate degradation — not a hang.
    Busy,
    /// The query's contract lifetime ran out before it executed.
    Expired,
    /// The primary accepted the query but no reply arrived in time.
    Timeout,
    /// The primary engine is down (poisoned or shut down).
    EngineDown,
}

impl fmt::Display for RoutedReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutedReadError::Busy => write!(f, "busy"),
            RoutedReadError::Expired => write!(f, "expired"),
            RoutedReadError::Timeout => write!(f, "timeout"),
            RoutedReadError::EngineDown => write!(f, "engine down"),
        }
    }
}

/// Routing counters, readable at any time via [`Router::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Reads served by a replica.
    pub routed_replica: u64,
    /// Reads that fell back to the primary.
    pub routed_primary: u64,
    /// Reads shed with [`RoutedReadError::Busy`].
    pub shed_busy: u64,
    /// Replica demotions (lag exceeded the threshold).
    pub demotions: u64,
    /// Replica rejoins (lag recovered under the threshold).
    pub rejoins: u64,
    /// Replica-served reads whose dispatch-time staleness bound would
    /// NOT have earned full QoD profit. Audited after the qualification
    /// check — this stays zero by construction, and the conformance
    /// oracle asserts it.
    pub qod_violations: u64,
    /// Primary swaps performed by [`Router::repoint`] (one per
    /// failover).
    pub repoints: u64,
}

struct ReplicaSlot {
    handle: ReplicaHandle,
    demoted: AtomicBool,
}

/// A QC-aware read router over one primary and any number of replicas.
///
/// Replicas can be attached while the router is live (behind an `Arc`,
/// e.g. from a server admin path): the pool is read-locked per route
/// and write-locked only by [`Router::add_replica`].
pub struct Router {
    /// The current primary. Swapped atomically by [`Router::repoint`];
    /// each route clones the handle once and dispatches against that
    /// coherent view.
    primary: RwLock<EngineHandle>,
    slots: RwLock<Vec<ReplicaSlot>>,
    /// How long a primary-fallback read may wait for its reply.
    query_timeout: Duration,
    /// The routing counters, updated in place; [`Router::stats`]
    /// copies them out.
    stats: Mutex<RouterStats>,
    /// Dispatch counter feeding [`route_trace_id`] — each routed read
    /// opens its own deterministic trace chain.
    route_seq: AtomicU64,
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("replicas", &self.replica_count())
            .field("query_timeout", &self.query_timeout)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// A router over `primary` with no replicas yet. A read that falls
    /// back to the primary waits up to `query_timeout` for its reply.
    pub fn new(primary: EngineHandle, query_timeout: Duration) -> Router {
        Router {
            primary: RwLock::new(primary),
            slots: RwLock::new(Vec::new()),
            query_timeout,
            stats: Mutex::default(),
            route_seq: AtomicU64::new(0),
        }
    }

    /// Atomically swings the router to a new primary (the promoted
    /// engine, after a failover). Routes dispatched after this use the
    /// new handle; reads in flight against the old one resolve as
    /// errors, never as stale answers counted fresh.
    pub fn repoint(&self, primary: EngineHandle) {
        *self.primary.write().expect("router primary lock") = primary;
        self.stats.lock().repoints += 1;
    }

    /// A clone of the current primary handle.
    pub fn primary(&self) -> EngineHandle {
        self.primary.read().expect("router primary lock").clone()
    }

    /// Adds a replica to the routing pool (usable on a shared router).
    pub fn add_replica(&self, handle: ReplicaHandle) {
        self.slots
            .write()
            .expect("router slots lock")
            .push(ReplicaSlot {
                handle,
                demoted: AtomicBool::new(false),
            });
    }

    /// Replaces the whole replica pool. The cluster controller calls
    /// this at failover: the old pool's handles point at sealed or dead
    /// replicas whose frozen stats could qualify a stale read, so they
    /// are swapped out atomically for the restarted survivors (which
    /// start demoted-equivalent: not ready until bootstrapped).
    pub fn set_replicas(&self, handles: Vec<ReplicaHandle>) {
        let mut slots = self.slots.write().expect("router slots lock");
        *slots = handles
            .into_iter()
            .map(|handle| ReplicaSlot {
                handle,
                demoted: AtomicBool::new(false),
            })
            .collect();
    }

    /// How many replicas are in the pool (demoted ones included).
    pub fn replica_count(&self) -> usize {
        self.slots.read().expect("router slots lock").len()
    }

    /// Stats for every replica in the pool, in attachment order.
    pub fn replica_stats(&self) -> Vec<crate::repl::replica::ReplicaStats> {
        let slots = self.slots.read().expect("router slots lock");
        slots.iter().map(|s| s.handle.stats()).collect()
    }

    /// Snapshots the routing counters.
    pub fn stats(&self) -> RouterStats {
        *self.stats.lock()
    }

    /// Picks the qualifying replica with the smallest staleness bound.
    /// Returns its handle and the bound used to qualify it.
    fn pick_replica(
        &self,
        primary: &EngineHandle,
        qc: &QualityContract,
    ) -> Option<(ReplicaHandle, u64)> {
        let primary_lsn = primary.stats().wal_last_lsn;
        let slots = self.slots.read().expect("router slots lock");
        let mut best: Option<(usize, u64)> = None;
        for (i, slot) in slots.iter().enumerate() {
            let s = slot.handle.stats();
            if !s.ready {
                continue;
            }
            let lag = s.lag_behind(primary_lsn);
            // Lag-based health with hysteresis.
            if slot.demoted.load(Ordering::Acquire) {
                if lag <= REJOIN_LAG {
                    slot.demoted.store(false, Ordering::Release);
                    self.stats.lock().rejoins += 1;
                } else {
                    continue;
                }
            } else if lag > DEMOTION_LAG {
                slot.demoted.store(true, Ordering::Release);
                self.stats.lock().demotions += 1;
                continue;
            }
            // The dispatch-time staleness bound is the replication lag:
            // a replica applies each frame as it arrives, so every
            // update it has not applied is one it has not received.
            if qc.qod_profit(lag as f64) + QOD_EPS >= qc.qodmax()
                && best.is_none_or(|(_, b)| lag < b)
            {
                best = Some((i, lag));
            }
        }
        best.map(|(i, bound)| (slots[i].handle.clone(), bound))
    }

    /// Routes one read: cheapest qualifying replica, else the primary,
    /// else a bounded shed.
    pub fn route(&self, op: QueryOp, qc: QualityContract) -> Result<QueryReply, RoutedReadError> {
        // One coherent primary view per route: a repoint mid-route
        // leaves this read on the old handle, where a dead engine
        // resolves as an error rather than a misrouted answer.
        let primary = self.primary();
        // Each routed read opens a deterministic trace chain; the
        // decision event lands in the primary's ring either way the
        // read goes.
        let ctx = primary.shared.trace.is_on().then(|| {
            let n = self.route_seq.fetch_add(1, Ordering::AcqRel);
            TraceCtx::root(route_trace_id(primary.shared.seed, n))
        });
        if let Some((replica, bound)) = self.pick_replica(&primary, &qc) {
            if let Some(ctx) = ctx {
                primary.shared.trace_push(TraceEvent::RouteDecision {
                    ctx,
                    target: RouteTarget::Replica,
                    bound,
                    qod_earned: qc.qod_profit(bound as f64),
                    qod_full: qc.qodmax(),
                });
            }
            let started = Instant::now();
            if let Some(result) = replica.execute(&op) {
                let rt_ms = started.elapsed().as_secs_f64() * 1e3;
                let staleness = bound as f64;
                let (qos, qod) = qc.profit_split(rt_ms, staleness);
                let mut stats = self.stats.lock();
                if qc.qod_profit(staleness) + QOD_EPS < qc.qodmax() {
                    stats.qod_violations += 1;
                }
                stats.routed_replica += 1;
                return Ok(QueryReply {
                    result,
                    rt_ms,
                    staleness,
                    qos,
                    qod,
                });
            }
            // The replica lost its store between pick and execute
            // (re-bootstrap in flight): fall through to the primary.
        }
        if let Some(ctx) = ctx {
            // Primary bound is 0 by definition: it always earns the
            // contract's full QoD profit at dispatch.
            primary.shared.trace_push(TraceEvent::RouteDecision {
                ctx,
                target: RouteTarget::Primary,
                bound: 0,
                qod_earned: qc.qodmax(),
                qod_full: qc.qodmax(),
            });
        }
        let submitted = match ctx {
            Some(ctx) => primary.submit_query_traced(op, qc, ctx),
            None => primary.submit_query(op, qc),
        };
        match submitted {
            Ok(ticket) => match ticket.recv_timeout(self.query_timeout) {
                Ok(reply) => {
                    self.stats.lock().routed_primary += 1;
                    Ok(reply)
                }
                Err(QueryError::Expired) => Err(RoutedReadError::Expired),
                Err(QueryError::Timeout) => Err(RoutedReadError::Timeout),
                Err(QueryError::EngineDown) => Err(RoutedReadError::EngineDown),
            },
            Err(SubmitError::QueueFull) => {
                self.stats.lock().shed_busy += 1;
                Err(RoutedReadError::Busy)
            }
            Err(SubmitError::EngineDown) => Err(RoutedReadError::EngineDown),
        }
    }
}
