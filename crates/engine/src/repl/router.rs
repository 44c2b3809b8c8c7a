//! QC-aware read routing over a primary and its replicas.
//!
//! The router implements the **degradation ladder** the paper's quality
//! contracts make possible: each read goes to the *cheapest* node whose
//! staleness bound still earns the query's full QoD profit — a healthy
//! replica when the contract tolerates its lag, the primary when no
//! replica qualifies, and a bounded [`SubmitError::QueueFull`] shed when
//! the primary's admission queue is full. The qodmax check happens **at
//! dispatch**: a routed read never knowingly violates its contract's
//! freshness demand. [`Router::dispatch`] is the one read path; it never
//! waits for an answer, and with no replica in the pool it is the
//! primary's own `submit_query`.
//!
//! Replica health is lag-based with hysteresis: a replica whose lag
//! exceeds `DEMOTION_LAG` is demoted out of the rotation and only
//! rejoins once it has caught back up under `REJOIN_LAG`, so a flapping
//! link doesn't thrash routing decisions.
//!
//! The router holds its cluster's *current* primary: on failover the
//! cluster controller calls [`Router::repoint`] and every later read,
//! write, lock and stats read that goes through the router reaches the
//! promoted engine. Reads already in flight against the dead handle
//! resolve as errors — never a stale answer counted fresh — so
//! `qod_violations` stays zero across the swap.

use crate::repl::replica::ReplicaHandle;
use crate::runtime::{EngineHandle, QueryError, QueryReply, QueryTicket, SubmitError};
use parking_lot::{Mutex, RwLock};
use quts_db::QueryOp;
use quts_metrics::{route_trace_id, RouteTarget, TraceCtx, TraceEvent};
use quts_qc::QualityContract;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Slack when comparing a replica's achievable QoD profit to the
/// contract's maximum (float-compare guard, not a policy knob).
const QOD_EPS: f64 = 1e-9;
/// Lag (in LSNs) past which a replica is demoted from routing.
const DEMOTION_LAG: u64 = 1024;
/// Lag a demoted replica must get back under to rejoin.
const REJOIN_LAG: u64 = 64;

/// Routing counters, readable at any time via [`Router::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Reads served by a replica.
    pub routed_replica: u64,
    /// Reads the ladder sent to the primary, counted at admission (a
    /// pool with no replica skips the ladder and counts nothing here).
    pub routed_primary: u64,
    /// Reads refused because the primary's admission queue was full.
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
/// The pool is read-locked per read and write-locked only when it is
/// replaced.
pub struct Router {
    /// The current primary. Swapped by [`Router::repoint`]; everything
    /// that reaches the primary does so under this lock's read guard,
    /// held only across a non-blocking call.
    primary: RwLock<EngineHandle>,
    slots: RwLock<Vec<ReplicaSlot>>,
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
            .finish_non_exhaustive()
    }
}

impl Router {
    /// A router over `primary` with no replicas yet.
    pub fn new(primary: EngineHandle) -> Router {
        Router {
            primary: RwLock::new(primary),
            slots: RwLock::new(Vec::new()),
            stats: Mutex::default(),
            route_seq: AtomicU64::new(0),
        }
    }

    /// Atomically swings the router to a new primary (the promoted
    /// engine, after a failover). Routes dispatched after this use the
    /// new handle; reads in flight against the old one resolve as
    /// errors, never as stale answers counted fresh.
    pub fn repoint(&self, primary: EngineHandle) {
        *self.primary.write() = primary;
        self.stats.lock().repoints += 1;
    }

    /// A clone of the current primary handle.
    pub fn primary(&self) -> EngineHandle {
        self.primary.read().clone()
    }

    /// Runs `f` on the current primary under the read guard, which `f`
    /// must not hold across a blocking wait (a repoint waits for it).
    pub(crate) fn with_primary<R>(&self, f: impl FnOnce(&EngineHandle) -> R) -> R {
        f(&self.primary.read())
    }

    /// Replaces the whole replica pool. The cluster controller calls
    /// this at failover: the old pool's handles point at sealed or dead
    /// replicas whose frozen stats could qualify a stale read, so they
    /// are swapped out atomically for the restarted survivors (which
    /// start demoted-equivalent: not ready until bootstrapped).
    pub fn set_replicas(&self, handles: Vec<ReplicaHandle>) {
        *self.slots.write() = handles
            .into_iter()
            .map(|handle| ReplicaSlot {
                handle,
                demoted: AtomicBool::new(false),
            })
            .collect();
    }

    /// How many replicas are in the pool (demoted ones included).
    pub(crate) fn replica_count(&self) -> usize {
        self.slots.read().len()
    }

    /// Stats for every replica in the pool, in attachment order.
    pub fn replica_stats(&self) -> Vec<crate::repl::replica::ReplicaStats> {
        self.slots.read().iter().map(|s| s.handle.stats()).collect()
    }

    /// Snapshots the routing counters.
    pub fn stats(&self) -> RouterStats {
        *self.stats.lock()
    }

    /// Picks the qualifying replica with the smallest staleness bound
    /// against the primary's `primary_lsn`. Returns its slot index and
    /// the bound used to qualify it.
    fn pick_replica(
        &self,
        slots: &[ReplicaSlot],
        primary_lsn: u64,
        qc: &QualityContract,
    ) -> Option<(usize, u64)> {
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
        best
    }

    /// Dispatches one read without waiting for its answer: a qualifying
    /// replica answers on this thread into an already-resolved ticket;
    /// otherwise the primary admits it and its own ticket comes back.
    /// A full primary inbox is [`SubmitError::QueueFull`], counted in
    /// `shed_busy`. With an empty pool this is exactly the primary's
    /// `submit_query`: no stats read and no routing decision recorded.
    pub fn dispatch(&self, op: QueryOp, qc: QualityContract) -> Result<QueryTicket, SubmitError> {
        // One coherent primary view per read, held only across the
        // non-blocking submit: a repoint waits for it, and a read admitted
        // by the old handle resolves there as an error, never as a
        // misrouted answer.
        let primary = self.primary.read();
        let slots = self.slots.read();
        let submitted = if slots.is_empty() {
            primary.submit_query(op, qc)
        } else {
            // Down the ladder: cheapest qualifying replica, else the
            // primary. Each routed read opens a deterministic trace
            // chain; the decision event lands in the primary's ring
            // either way the read goes.
            let ctx = primary.shared.trace.is_on().then(|| {
                let n = self.route_seq.fetch_add(1, Ordering::AcqRel);
                TraceCtx::root(route_trace_id(primary.shared.seed, n))
            });
            let decide = |target, bound, qod_earned| {
                if let Some(ctx) = ctx {
                    primary.shared.trace_push(TraceEvent::RouteDecision {
                        ctx,
                        target,
                        bound,
                        qod_earned,
                        qod_full: qc.qodmax(),
                    });
                }
            };
            if let Some((i, bound)) = self.pick_replica(&slots, primary.wal_last_lsn(), &qc) {
                decide(RouteTarget::Replica, bound, qc.qod_profit(bound as f64));
                let started = Instant::now();
                if let Some(result) = slots[i].handle.execute(&op) {
                    let rt_ms = started.elapsed().as_secs_f64() * 1e3;
                    let staleness = bound as f64;
                    let mut stats = self.stats.lock();
                    if qc.qod_profit(staleness) + QOD_EPS < qc.qodmax() {
                        stats.qod_violations += 1;
                    }
                    stats.routed_replica += 1;
                    // The primary's answer rule: past its lifetime a
                    // replica-served read is `Expired` too.
                    let reply = qc.answer(rt_ms, staleness).map(|(qos, qod)| QueryReply {
                        result,
                        rt_ms,
                        staleness,
                        qos,
                        qod,
                    });
                    return Ok(QueryTicket::resolved(reply.ok_or(QueryError::Expired)));
                }
                // The replica lost its store between pick and execute
                // (re-bootstrap in flight): fall through to the primary.
            }
            // Primary bound is 0 by definition: it always earns the
            // contract's full QoD profit at dispatch.
            decide(RouteTarget::Primary, 0, qc.qodmax());
            let submitted = match ctx {
                Some(ctx) => primary.submit_query_traced(op, qc, ctx),
                None => primary.submit_query(op, qc),
            };
            if submitted.is_ok() {
                self.stats.lock().routed_primary += 1;
            }
            submitted
        };
        if let Err(SubmitError::QueueFull) = submitted {
            self.stats.lock().shed_busy += 1;
        }
        submitted
    }
}
